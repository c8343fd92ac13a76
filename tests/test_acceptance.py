"""Acceptance suite: one test per acceptance criterion, each printing its
own PASS/FAIL line (run with -s to see them).

The two golden traces freeze the expected per-line abstract values of the
worked examples (the cyclic parent-linked tree built by join, and the
doubly-linked-list builder), derived by hand-applying the transfer rules.
For four tree cells a weaker value is sometimes quoted for this example;
`test_tree_golden_corrected_cells_are_forced` machine-checks that anything
weaker than the frozen values would exclude concretely realizable paths and
cycles, so a sound analyzer must produce at least these.  The remaining
criteria are exhaustive or corpus-backed property suites.
"""

import contextlib
import itertools
import time

from fieldreach import (
    ANY_FIELD,
    FieldUniverse,
    PathFormula,
    analyze_program,
    check_soundness,
    run_concrete,
)
from fieldreach.compare import (
    alpha_class_pairs,
    alpha_monotone,
    alpha_monotone_formula,
    alpha_nofields,
    alpha_q,
    alpha_scapin,
)
from fieldreach.oracle import Loc, Obj, cycle_field_sets, traversal_saturate
from fieldreach.sharing import SharingAnalysis
from fieldreach.syntax import walk_commands, While

from conftest import build, pf
from corpus import CORPUS
from reference import (
    all_formulas,
    enumerate_monotone,
    gamma_class_pairs,
    gamma_nofields,
    gamma_q,
    gamma_scapin,
    trace_cell,
)
from test_formula import brute_force_viable


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# criterion 1: golden trace of the cyclic-tree join


L, P, R = "left", "parent", "right"

TREE_EXPECTED = {
    # line: (reach cells, cyc cells); cells are sets of field-sets
    6: (
        {("l", "l"): [[]], ("r", "r"): [[]]},
        {"l": [[]], "r": [[]], "t": None},
    ),
    7: (
        {("l", "l"): [[]], ("r", "r"): [[]], ("t", "t"): [[]]},
        {"l": [[]], "r": [[]], "t": [[]]},
    ),
    8: (
        {("l", "l"): [[]], ("r", "r"): [[]], ("t", "t"): [[]], ("t", "l"): [[L]]},
        {"l": [[]], "r": [[]], "t": [[]]},
    ),
    9: (
        {
            ("l", "l"): [[]],
            ("r", "r"): [[]],
            ("t", "t"): [[]],
            ("t", "l"): [[L]],
            ("t", "r"): [[R]],
        },
        {"l": [[]], "r": [[]], "t": [[]]},
    ),
    10: (
        {
            ("l", "l"): [[], [L, P]],
            # the new parent edge composes with the existing child edges
            ("l", "r"): [[P, R], [L, P, R]],
            ("l", "t"): [[P], [L, P]],
            ("r", "l"): None,
            ("r", "r"): [[]],
            ("r", "t"): None,
            ("t", "l"): [[L], [L, P]],
            ("t", "r"): [[R], [L, P, R]],  # around the freshly closed cycle too
            ("t", "t"): [[], [L, P]],
        },
        {"l": [[], [L, P]], "r": [[]], "t": [[], [L, P]]},
    ),
    11: (
        {
            ("l", "l"): [[], [L, P], [L, P, R]],
            ("l", "r"): [[P, R], [L, P, R]],
            ("l", "t"): [[P], [L, P], [P, R], [L, P, R]],
            ("r", "l"): [[L, P], [L, P, R]],
            ("r", "r"): [[], [P, R], [L, P, R]],
            ("r", "t"): [[P], [L, P], [P, R], [L, P, R]],
            ("t", "l"): [[L], [L, P], [L, P, R]],
            ("t", "r"): [[R], [P, R], [L, P, R]],
            ("t", "t"): [[], [L, P], [P, R], [L, P, R]],
        },
        {
            # every variable sees the cycles through both children: each can
            # reach the root, and the root reaches both closed cycles
            "l": [[], [L, P], [P, R], [L, P, R]],
            "r": [[], [L, P], [P, R], [L, P, R]],
            "t": [[], [L, P], [P, R], [L, P, R]],
        },
    ),
}


def tree_result():
    program, ct, info = build(load("tests/data/tree.lang"))
    return analyze_program(program, ct, info, entry="join")


def test_tree_join_golden_table():
    with criterion("cyclic-tree golden table"):
        started = time.perf_counter()
        result = tree_result()
        u = result.universe
        via = result.via
        for line, (reach_cells, cyc_cells) in TREE_EXPECTED.items():
            value = trace_cell(result, line, 1)
            for (a, b), models in reach_cells.items():
                expected = (
                    PathFormula.false(u) if models is None else pf(u, *models)
                )
                got = value.reach_at(a, b)
                assert got.equiv(expected, via), (line, (a, b), got.render())
            for v, models in cyc_cells.items():
                expected = (
                    PathFormula.false(u) if models is None else pf(u, *models)
                )
                got = value.cyc_at(v)
                assert got.equiv(expected, via), (line, v, got.render())
        # every cell not named above stays at the contradiction
        for line, (reach_cells, _) in TREE_EXPECTED.items():
            value = trace_cell(result, line, 1)
            for a in ("l", "r", "t"):
                for b in ("l", "r", "t"):
                    if (a, b) not in reach_cells:
                        assert value.reach_at(a, b).is_false, (line, a, b)
        # the headline cell: every cycle from the new root crosses the parent
        # link and at least one child link
        final_cyc_t = trace_cell(result, 11, 1).cyc_at("t")
        headline = pf(u, [], [L, P], [P, R], [L, P, R])
        assert final_cyc_t.equiv(headline, via)
        assert time.perf_counter() - started < 1.0


def test_tree_golden_corrected_cells_are_forced():
    # Concretely build what join builds (two leaves hung under a fresh root
    # with parent links back) and check that the frozen cells' extra models
    # are realized, so any weaker value for them would be unsound.
    with criterion("cyclic-tree corrected cells witnessed"):
        heap = {
            1: Obj("Tree", {L: None, R: None, P: Loc(3)}),  # l's node
            2: Obj("Tree", {L: None, R: None, P: Loc(3)}),  # r's node
            3: Obj("Tree", {L: Loc(1), R: Loc(2), P: None}),  # t's node
        }
        # cycles reachable from l include the one through the right child
        cycles_from_l = cycle_field_sets(heap, 1)
        assert frozenset({P, R}) in cycles_from_l  # defeats cyc(l) = empty or {L,P}
        assert frozenset({L, P}) in cycle_field_sets(heap, 2)
        # l reaches r after line 10 already: parent then right
        reach_l = {fs for tgt, fs in traversal_saturate(heap, 1) if tgt == 2}
        assert frozenset({P, R}) in reach_l  # defeats reach(l,r) = false
        # t reaches r around the closed left cycle as well
        heap_after_10 = {
            1: Obj("Tree", {L: None, R: None, P: Loc(3)}),
            2: Obj("Tree", {L: None, R: None, P: None}),
            3: Obj("Tree", {L: Loc(1), R: Loc(2), P: None}),
        }
        reach_t_r = {
            fs for tgt, fs in traversal_saturate(heap_after_10, 3) if tgt == 2
        }
        assert frozenset({L, P, R}) in reach_t_r  # defeats reach(t,r) = only {R}


# ---------------------------------------------------------------------------
# criterion 2: golden trace of the doubly-linked-list builder


def dll_expected(u):
    n, p = "n", "p"
    f = None  # contradiction
    e = [[]]
    full = [[], [n, p]]
    return {
        # (line, visit): ((tmp,tmp),(tmp,x),(x,tmp),(x,x), cyc tmp, cyc x)
        (5, 1): (f, f, f, f, f, f),
        (6, 1): (e, f, f, f, e, f),
        (7, 1): (e, f, f, f, e, f),
        (8, 1): (e, f, f, e, e, e),
        (9, 1): (e, f, [[n]], e, e, e),
        (10, 1): (full, [[p], [n, p]], [[n], [n, p]], full, full, full),
        (11, 1): (full, full, full, full, full, full),
        (12, 1): (full, full, full, full, full, full),
        (7, 2): (full, full, full, full, full, full),
        (8, 2): (full, f, f, e, full, e),
        (9, 2): (full, f, [[n], [n, p]], e, full, full),
        (10, 2): (full, [[p], [n, p]], [[n], [n, p]], full, full, full),
        (11, 2): (full, full, full, full, full, full),
        (12, 2): (full, full, full, full, full, full),
    }


def test_dll_golden_table():
    with criterion("doubly-linked-list golden table"):
        started = time.perf_counter()
        program, ct, info = build(load("tests/data/dll.lang"))
        result = analyze_program(program, ct, info)
        u, via = result.universe, result.via
        for (line, visit), cells in dll_expected(u).items():
            value = trace_cell(result, line, visit)
            got = (
                value.reach_at("tmp", "tmp"),
                value.reach_at("tmp", "x"),
                value.reach_at("x", "tmp"),
                value.reach_at("x", "x"),
                value.cyc_at("tmp"),
                value.cyc_at("x"),
            )
            for slot, (g, models) in enumerate(zip(got, cells)):
                expected = PathFormula.false(u) if models is None else pf(u, *models)
                assert g.equiv(expected, via), (line, visit, slot, g.render())
        # the loop stabilizes on its second pass
        (loop,) = [c for c in walk_commands(program.main.body) if isinstance(c, While)]
        assert result.loop_passes[loop.nid] == 2
        # cycle queries: following only the forward link never closes a cycle
        assert result.query_cycle("x", ["n"]) is False
        assert result.query_cycle("x", ["n", "p"]) is True
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# criterion 3: deep-sharing annotations of the builder


def test_dll_deep_sharing_annotations():
    with criterion("deep-sharing annotations"):
        program, ct, info = build(load("tests/data/dll.lang"))
        analysis = SharingAnalysis(program, ct, info)
        analysis.analyze_main()
        post = analysis.main.post
        by_line = {
            cmd.line: post[cmd.nid].ds
            for cmd in walk_commands(program.main.body)
            if cmd.nid in post
        }
        tmp_only = frozenset({("tmp", "tmp")})
        full = frozenset({("tmp", "tmp"), ("tmp", "x"), ("x", "x")})
        assert by_line[8] == tmp_only  # x := new Node
        assert by_line[9] == full  # x.n := tmp
        assert by_line[10] == full  # tmp.p := x
        assert by_line[11] == full  # tmp := x
        assert by_line[12] == full  # i := i + 1
        assert by_line[7] == full  # after the loop


# ---------------------------------------------------------------------------
# criterion 4: viability decision


def test_viability_against_brute_force(devices_ct, devices_universe, devices_via):
    with criterion("viability decision"):
        assert devices_via.is_viable_mask(devices_universe.mask_of(["aD", "lnk", "owner"]))
        assert not devices_via.is_viable_mask(devices_universe.mask_of(["mD", "lnk"]))
        fields = list(devices_universe.fields)
        assert len(fields) == 4
        for k in range(5):
            for combo in itertools.combinations(fields, k):
                mask = devices_universe.mask_of(combo)
                assert devices_via.is_viable_mask(mask) == brute_force_viable(
                    devices_ct, combo
                ), combo


# ---------------------------------------------------------------------------
# criterion 5: corpus soundness


def test_corpus_soundness_suite():
    with criterion("corpus soundness"):
        assert len(CORPUS) >= 20
        for name, src in sorted(CORPUS.items()):
            program, ct, info = build(src)
            assert len(ct.class_names) <= 4
            assert len(ct.reference_fields) <= 3
            result = analyze_program(program, ct, info)
            oracle = run_concrete(program, ct)
            assert oracle.allocations <= 12, name
            report = check_soundness(result, oracle)
            assert report.ok, f"{name}: " + "; ".join(
                str(v) for v in report.violations
            )


# ---------------------------------------------------------------------------
# criterion 6: operator and property suite


def test_operator_property_suite():
    with criterion("operator properties"):
        u2 = FieldUniverse.of(["f", "g"])
        fs = list(all_formulas(u2))
        false = PathFormula.false(u2)
        empty = PathFormula.only(u2, ())
        for a in fs:
            assert a.join(a) == a
            assert a.concat(false).is_false and false.concat(a).is_false
            assert a.concat(empty) == a
            for b in fs:
                assert a.join(b) == b.join(a)
                assert a.leq(a.join(b)) and b.leq(a.join(b))
                assert a.concat(b) == b.concat(a)
                if not b.is_false:
                    assert a.leq(a.difference(b))
        for a, b, c in itertools.product(fs, fs, fs):
            assert a.concat(b).concat(c) == a.concat(b.concat(c))
            if a.leq(b):
                assert a.concat(c).leq(b.concat(c))
        # sampled three-field checks
        import random

        u3 = FieldUniverse.of(["f", "g", "h"])
        rng = random.Random(20240811)
        masks3 = list(range(1 << u3.size))

        def rand3():
            return PathFormula.from_models(
                u3, rng.sample(masks3, rng.randint(0, 5))
            )

        for _ in range(300):
            a, b, c = rand3(), rand3(), rand3()
            assert a.concat(b) == b.concat(a)
            assert a.concat(b).concat(c) == a.concat(b.concat(c))
            assert a.join(b).join(c) == a.join(b.join(c))
            if not b.is_false:
                assert a.leq(a.difference(b))
        # normalization is idempotent and every transfer preserves normal
        # form on the corpus
        for name in ("dll_builder", "two_cycle", "linking_method", "reversal"):
            program, ct, info = build(CORPUS[name])
            result = analyze_program(program, ct, info)
            for value in result.point_post.values():
                assert value.is_normal()
                assert value.normalize() == value


def test_path_operator_oracle_links():
    with criterion("path-operator oracle bridge"):
        program, ct, info = build(CORPUS["dll_builder"])
        oracle = run_concrete(program, ct)
        heap = oracle.final.heap
        universe = FieldUniverse.of(ct.reference_fields)
        # enumerate bounded concrete paths with their traversal sequences
        paths = []
        for addr in heap:
            stack = [(addr, addr, [], 0)]
            while stack:
                start, cur, seq, depth = stack.pop()
                paths.append((start, cur, seq))
                if depth == 3:
                    continue
                for fname, val in heap[cur].fields.items():
                    if isinstance(val, Loc):
                        stack.append((start, val.addr, seq + [fname], depth + 1))
        by_start = {}
        for p in paths:
            by_start.setdefault(p[0], []).append(p)
        checked = 0
        for start, end, seq in paths:
            f = PathFormula.only(universe, frozenset(seq))
            for _, end2, seq2 in by_start.get(end, [])[:10]:
                g = PathFormula.only(universe, frozenset(seq2))
                assert f.concat(g).has_model(universe.mask_of(seq + seq2))
                checked += 1
            for cut in range(len(seq) + 1):
                whole = PathFormula.only(universe, frozenset(seq))
                prefix = PathFormula.only(universe, frozenset(seq[:cut]))
                assert whole.difference(prefix).has_model(universe.mask_of(seq[cut:]))
                checked += 1
            if seq:
                head = PathFormula.only(universe, [seq[0]])
                whole = PathFormula.only(universe, frozenset(seq))
                assert whole.difference(head).has_model(universe.mask_of(seq[1:]))
        assert checked > 200


# ---------------------------------------------------------------------------
# criterion 7: Galois suite for the comparison domains


def test_galois_suite(devices_ct):
    with criterion("comparison-domain Galois laws"):
        from fieldreach import build_class_table, parse_program

        u2 = FieldUniverse.of(["f", "g"])
        simple_ct = build_class_table(parse_program("class K { K f; K g; }"))
        types = {"v": "K", "w": "K"}
        KEY = ("v", "w")
        formulas = list(all_formulas(u2))

        # 1. plain reachability statements
        for f in formulas:
            a = alpha_nofields({KEY: f}, simple_ct, types)
            assert f.leq(gamma_nofields(a, u2, [KEY])[KEY])
        for stmts in ([], [KEY]):
            v = frozenset(stmts)
            assert alpha_nofields(
                gamma_nofields(v, u2, [KEY]), simple_ct, types
            ) == v
        witness = {KEY: pf(u2, ["f"])}
        assert gamma_nofields(
            alpha_nofields(witness, simple_ct, types), u2, [KEY]
        )[KEY].is_true

        # 2. class pairs (over the richer hierarchy)
        dev_types = {"a": "Emp", "b": "L1", "c": "L2", "d": "Dev", "e": "LP", "f": "TB"}
        from fieldreach.compare import admissible_pairs

        admissible = sorted(admissible_pairs(devices_ct, dev_types))
        for k in range(2):
            for stmts in itertools.combinations(admissible, k + 1):
                nf = frozenset(stmts)
                cp = alpha_class_pairs(nf, devices_ct, dev_types)
                back = gamma_class_pairs(cp, devices_ct, dev_types)
                assert nf <= back
                assert alpha_class_pairs(back, devices_ct, dev_types) == cp

        # 3. monotone restriction, with the exclusive-disjunction witness
        for f in formulas:
            a = alpha_monotone({KEY: f})
            assert f.leq(a[KEY])
        for m in enumerate_monotone(u2):
            assert alpha_monotone_formula(m) == m
        xor = pf(u2, ["f"], ["g"])
        widened = alpha_monotone_formula(xor)
        assert widened == pf(u2, ["f"], ["g"], ["f", "g"])
        assert not widened.leq(xor)

        # 4. exclusion sets
        for f in formulas:
            a = alpha_scapin({KEY: f})
            assert f.leq(gamma_scapin(a, u2, [KEY])[KEY])
        for banned in ([], ["f"], ["g"], ["f", "g"]):
            v = {KEY: frozenset(banned)}
            assert alpha_scapin(gamma_scapin(v, u2, [KEY])) == v
        assert alpha_scapin({KEY: pf(u2, ["f"])})[KEY] == {"g"}

        # 5. cycle requirements, with the doubly-linked-list collapse
        for f in formulas:
            q = alpha_q({"x": f})
            assert f.leq(gamma_q(q, u2, ["x"])["x"])
        for v in [{}] + [{"x": frozenset(req)} for req in ([], ["f"], ["g"], ["f", "g"])]:
            assert alpha_q(gamma_q(v, u2, ["x"])) == v
        dll = pf(u2, [], ["f", "g"])
        q = alpha_q({"x": dll})
        assert q["x"] == frozenset()  # requirement view collapses
        assert gamma_q(q, u2, ["x"])["x"].is_true


# ---------------------------------------------------------------------------
# criterion 8: field abstraction


def test_field_abstraction():
    with criterion("field abstraction"):
        program, ct, info = build(load("tests/data/tree_main.lang"))
        result = analyze_program(program, ct, info, tracked=["left"])
        assert result.universe.fields == ("left", ANY_FIELD)
        assert result.query_cycle("x", ["left"]) is False
        models = set(result.final.cyc_at("x").model_sets())
        assert models == {(), (ANY_FIELD,), ("left", ANY_FIELD)}
