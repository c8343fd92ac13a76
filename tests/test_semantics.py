import random

import pytest
from hypothesis import given, settings, strategies as st

from fieldreach import (
    FieldUniverse,
    PathFormula,
    RcValue,
    SharingAnalysis,
    SharingState,
    analyze_program,
)
import fieldreach.semantics
from fieldreach.domain import Scope
from fieldreach.formula import MAX_FIELDS, concat, difference
from fieldreach.render import result_to_json
from fieldreach.semantics import (
    AnalysisError,
    Analyzer,
    _Run,
    entry_scope,
    find_entry_sig,
    parse_init_annotations,
    stitch_paths,
)
from fieldreach.sharing import _Index
from fieldreach.syntax import RESULT_VAR, walk_commands

from conftest import DATA, analyze_entry, build, pf
from corpus import CORPUS, many_arguments
from reference import DenseAnalyzer, replaced, stitch_pair_by_pair
from test_fixpoint import WIDENS_IN_A_CALLEE
from test_oracle import TREE_LOOP
from test_render_json import WIDE

K3 = "class K { K f; K g; K h; }\n"


def analyze(source: str, **kw):
    program, ct, info = build(source.lstrip("\n"))
    return analyze_program(program, ct, info, **kw), program


def post_at_line(result, program, line):
    for cmd in walk_commands(program.main.body):
        if cmd.line == line:
            return result.point_post[cmd.nid]
    raise KeyError(line)


# --------------------------------------------------------------------------
# easy expression cases


def test_constants_and_null_change_nothing():
    result, program = analyze(
        "main { K x; int i; x := new K; i := 3; x := x; }" + K3
    )
    # the final assignments add no reachability beyond the allocation
    assert result.final.reach_at("x", "x") == pf(result.universe, [])
    assert result.final.cyc_at("x") == pf(result.universe, [])


def test_new_yields_empty_path_facts():
    result, program = analyze("main { K x; x := new K; }" + K3)
    empty = pf(result.universe, [])
    assert result.final.reach_at("x", "x") == empty
    assert result.final.cyc_at("x") == empty


def test_variable_read_copies_rows():
    result, program = analyze(
        "main { K x; K y; K z; x := new K; y := new K; x.f := y; z := x; }" + K3
    )
    u = result.universe
    assert result.final.reach_at("z", "y") == pf(u, ["f"])
    assert result.final.reach_at("z", "x") == pf(u, [])
    assert result.final.reach_at("x", "z") == pf(u, [])


def test_int_ops_have_no_reach_effect():
    result, program = analyze(
        "main { int i; K x; x := new K; i := 1 + 2 * 3; }" + K3
    )
    assert result.final.reach_at("x", "x") == pf(result.universe, [])


# --------------------------------------------------------------------------
# field access


def test_field_access_weakens_traversal_obligation():
    # after the last line the paths from x to z may or may not still cross f
    src = (
        """
main {
  K x;
  K y;
  K z;
  x := new K;
  y := new K;
  x.f := y;
  x.g := new K;
  z := new K;
  y.h := z;
  y := null;
  x := x.f;
}
"""
        + K3
    )
    result, program = analyze(src)
    u = result.universe
    before = post_at_line(result, program, 11)  # y := null
    assert before.reach_at("x", "z") == pf(u, ["f", "h"])
    after = post_at_line(result, program, 12)  # x := x.f
    assert after.reach_at("x", "z") == pf(u, ["h"], ["f", "h"])


def test_field_access_on_all_false_var():
    result, program = analyze("main { K x; K y; y := x.f; }" + K3)
    final = result.final
    assert all(final.reach_at(v, w).is_false for v, w in final.reach)
    assert all(final.cyc_at(v).is_false for v in final.cyc)


def test_field_access_deep_sharing_gives_true():
    # w and x deep-share, so reading x.f may land anywhere in w's region
    src = (
        """
main {
  K w;
  K x;
  K com;
  K r;
  w := new K;
  x := new K;
  com := new K;
  w.f := com;
  x.g := com;
  r := x.h;
}
"""
        + K3
    )
    result, program = analyze(src)
    assert result.final.reach_at("w", "r").is_true


def test_field_access_cyclicity_transfers_to_result():
    src = (
        """
main {
  K x;
  K y;
  x := new K;
  x.f := x;
  y := x.f;
}
"""
        + K3
    )
    result, program = analyze(src)
    u = result.universe
    assert result.final.cyc_at("y") == pf(u, [], ["f"])
    assert result.final.reach_at("y", "y") == pf(u, [], ["f"])


# --------------------------------------------------------------------------
# field update


def test_field_update_new_edge_and_cycle():
    # the forward link then the back link: a two-field cycle
    src = (
        """
main {
  Node tmp;
  Node x;
  tmp := new Node;
  x := new Node;
  x.n := tmp;
  tmp.p := x;
}
class Node { Node n; Node p; }
"""
    )
    result, program = analyze(src)
    u = result.universe
    assert post_at_line(result, program, 6).reach_at("x", "tmp") == pf(u, ["n"])
    after = post_at_line(result, program, 7)
    assert after.reach_at("tmp", "x") == pf(u, ["p"], ["n", "p"])
    assert after.cyc_at("tmp") == pf(u, [], ["n", "p"])
    assert after.cyc_at("x") == pf(u, [], ["n", "p"])
    assert after.reach_at("x", "tmp") == pf(u, ["n"], ["n", "p"])


def test_field_update_on_all_false_base_is_identity():
    result, program = analyze("main { K v; K w; w := new K; v.f := w; }" + K3)
    u = result.universe
    assert result.final.reach_at("w", "w") == pf(u, [])
    assert result.final.reach_at("v", "w").is_false
    assert result.final.cyc_at("v").is_false


def test_skip_and_int_assign_are_identity():
    src = (
        """
main {
  K x;
  int i;
  x := new K;
  skip;
  i := 7;
}
"""
        + K3
    )
    result, program = analyze(src)
    values = [post_at_line(result, program, line) for line in (4, 5, 6)]
    assert values[0].reach == values[1].reach == values[2].reach
    assert values[0].cyc == values[1].cyc == values[2].cyc


# --------------------------------------------------------------------------
# conditionals and loops


def test_if_joins_branches():
    src = (
        """
main {
  int k;
  K x;
  K y;
  x := new K;
  y := new K;
  if (k < 1) then x.f := y; else x.g := y;
}
"""
        + K3
    )
    result, program = analyze(src)
    u = result.universe
    assert result.final.reach_at("x", "y") == pf(u, ["f"], ["g"])


def test_while_skip_body():
    src = (
        """
main {
  int i;
  K x;
  x := new K;
  while (i < 3) do skip;
}
"""
        + K3
    )
    result, program = analyze(src)
    loop = [c for c in walk_commands(program.main.body) if c.line == 5][0]
    assert result.loop_passes[loop.nid] == 1
    assert result.final.reach_at("x", "x") == pf(result.universe, [])


ROTATING = """
main {
  int i;
  C x;
  C t;
  C h;
  h := new C;
  x := h;
  i := 0;
  while (i < 50) {
    t := new C;
    if (i < 10) then t.a := x;
    else { if (i < 20) then t.b := x;
    else { if (i < 30) then t.c := x;
    else { if (i < 40) then t.d := x;
    else t.e := x; } } }
    x := t;
    i := i + 1;
  }
}
class C { C a; C b; C c; C d; C e; }
"""


def test_widening_forces_true_and_terminates():
    result, program = analyze(ROTATING, widening_k=3)
    loop = [c for c in walk_commands(program.main.body) if c.line == 9][0]
    assert result.final.reach_at("x", "h").is_true
    assert result.widenings > 0
    assert result.loop_passes[loop.nid] <= 3 + 3


def test_widening_disabled_still_terminates_and_is_tighter():
    widened, _ = analyze(ROTATING, widening_k=3)
    exact, _ = analyze(ROTATING, widening_k=None)
    assert exact.final.leq(widened.final)
    # the un-widened fixpoint keeps the fresh node strictly below the
    # tautology: every path to the anchor uses at least one link field
    assert not exact.final.reach_at("t", "h").is_true
    assert not exact.final.reach_at("t", "h").has_model(0)
    assert widened.final.reach_at("t", "h").is_true


# --------------------------------------------------------------------------
# method calls


def test_call_pure_unshared_keeps_caller_rows():
    src = """
class K {
  K f;
  K id(K a) {
    return a;
  }
}
main {
  K p;
  K q;
  K r;
  p := new K;
  q := new K;
  p.f := q;
  r := p.id(q);
}
"""
    result, program = analyze(src)
    u = result.universe
    assert result.final.reach_at("p", "q") == pf(u, ["f"])
    # the result aliases the argument: summary rows flow back through it
    assert result.final.reach_at("r", "r") == pf(u, [])
    assert not result.final.reach_at("p", "r").is_false


def test_call_linking_arguments():
    src = """
class K {
  K f;
  K g;
  K link(K a, K b) {
    a.f := b;
    return a;
  }
}
main {
  K x;
  K y;
  K h;
  K r;
  h := new K;
  x := new K;
  y := new K;
  r := h.link(x, y);
}
"""
    result, program = analyze(src)
    # after the call x may reach y through structures the callee built
    assert not result.final.reach_at("x", "y").is_false


def test_call_deep_sharing_loses_field_information():
    # the callee stitches its two arguments' regions together; a variable
    # deep-sharing the first argument may then reach a variable hanging off
    # the second, with no field set to pin down
    src = """
class K {
  K f;
  K g;
  K weave(K a, K b) {
    K x;
    K y;
    x := a.f;
    y := b.f;
    x.f := y;
    return x;
  }
}
main {
  K w1;
  K vi;
  K vj;
  K w2;
  K o3;
  K vjf;
  K h;
  K r;
  o3 := new K;
  w1 := new K;
  vi := new K;
  w1.f := o3;
  vi.f := o3;
  vj := new K;
  vjf := new K;
  vj.f := vjf;
  w2 := new K;
  vj.g := w2;
  h := new K;
  r := h.weave(vi, vj);
}
"""
    result, program = analyze(src)
    assert result.final.reach_at("w1", "w2").is_true


def test_call_return_through_receiver_structure():
    # the callee copies a field of the receiver into a fresh object; since
    # result and receiver only deep-share, nothing better than the tautology
    # can be said about what the result reaches
    src = """
class K {
  K f;
  K g;
  K m() {
    K a;
    a := new K;
    a.f := this.f;
    return a;
  }
}
main {
  K x1;
  K x2;
  K y;
  K z;
  x1 := new K;
  x2 := new K;
  y := new K;
  x1.g := y;
  x2.f := x1;
  z := x2.m();
}
"""
    result, program = analyze(src)
    assert result.final.reach_at("z", "y").is_true


def test_call_result_keeps_the_alias_through_the_receiver():
    # ``get`` returns ``this.next``, and the entry says ``this.next`` is
    # ``x``: the result aliases ``x``.  No ``ds`` fact is given, so
    # DS(this, %res) does not hold although ``this`` reaches the result; the
    # ``difference`` term of the result rows is what keeps the empty path
    program, ct, info = build(
        """
//@ init reach(this,x): [[next]]
//@ init reach(this,this): [[]]
//@ init reach(x,x): [[]]
class N {
  N next;
  N get() { N r; r := this.next; return r; }
  N m(N x) { N r; r := this.get(); return r; }
}
"""
    )
    result = analyze_program(program, ct, info, entry="m")
    assert result.final.reach_at("out", "x").model_sets() == ((), ("next",))


def test_shallow_variables_preserve_entry_rows():
    # the summary keeps what the first argument's entry structure reaches,
    # even though the parameter itself is nulled before returning
    program, ct, info = build(
        """
class K {
  K f;
  K mth(K x1, K x2) {
    x1.f := x2;
    x1 := null;
    return x2;
  }
}
"""
    )
    sig = ct.resolve_method("K", "mth")
    universe = FieldUniverse.of(ct.reference_fields)
    empty = PathFormula.only(universe, ()).table
    entry = RcValue.of(
        universe,
        sig.input_vars + ("out",),
        {(v, v): empty for v in ("this", "x1", "x2")},
        dict.fromkeys(("this", "x1", "x2"), empty),
    )
    sp = ([(v, v) for v in ("this", "x1", "x2")], [])
    result = analyze_program(program, ct, info, entry=sig, init_rc=entry, init_sp=sp)
    assert result.final.reach_at("x1", "x2") == pf(universe, ["f"])
    assert result.final.reach_at("x1", "out") == pf(universe, ["f"])


def test_program_without_methods_has_empty_denotation_table():
    result, program = analyze("main { K x; x := new K; }" + K3)
    assert result.denotations == {}
    assert result.rounds == 1


def test_int_call_result_is_consumed():
    # an int-returning call on a deep-sharing receiver must not leave stale
    # result rows behind that the next allocation would inherit
    src = """
class A {
  A f;
  int m() {
    return 1;
  }
}
main {
  A w;
  A vi;
  A x;
  int k;
  w := new A;
  vi := new A;
  vi.f := w;
  k := vi.m();
  x := new A;
}
"""
    result, program = analyze(src)
    u = result.universe
    assert result.final.reach_at("w", "x").is_false
    assert result.final.reach_at("vi", "x").is_false
    assert result.final.reach_at("x", "x") == pf(u, [])


def test_query_on_false_cyc_entry_is_false_for_every_set():
    result, program = analyze("main { K x; K y; x := new K; }" + K3)
    assert result.final.cyc_at("y").is_false
    for fields in ([], ["f"], ["f", "g"], ["f", "g", "h"]):
        assert result.query_cycle("y", fields) is False


def test_recursion_terminates():
    result, program = analyze(
        """
class B {
  Cell grow(Cell tail, int k) {
    Cell c;
    Cell rest;
    int k2;
    rest := tail;
    if (k > 0) then {
      c := new Cell;
      c.nxt := tail;
      k2 := k - 1;
      rest := this.grow(c, k2);
    }
    return rest;
  }
}
class Cell { Cell nxt; }
main {
  B b;
  Cell list;
  Cell seed;
  int n;
  b := new B;
  n := 4;
  list := b.grow(seed, n);
}
"""
    )
    assert ("B", "grow") in result.denotations
    assert not result.final.cyc_at("list").is_false or True  # completed


# --------------------------------------------------------------------------
# monotonicity of the core transfers


def test_field_update_transfer_monotone():
    program, ct, info = build(
        "main { K v; K w; K z; v := new K; w := new K; v.f := w; }" + K3
    )
    universe = FieldUniverse.of(ct.reference_fields)
    sharing = SharingAnalysis(program, ct, info)
    sharing.analyze_main()
    analyzer = Analyzer(program, ct, info, sharing, universe)
    env = info.env_for("main")
    update_cmd = program.main.body[-1]
    scope = env.ref_vars + (RESULT_VAR,)
    run = _Run(sharing.main)
    rng = random.Random(7)
    masks = list(range(1 << universe.size))[:4]  # keep enumeration small

    def random_value():
        keys = RcValue.bottom(universe, scope).reach
        reach = {
            key: PathFormula.from_models(universe, rng.sample(masks, rng.randint(0, 3))).table
            for key in keys
        }
        return RcValue.of(universe, scope, reach).normalize()

    for _ in range(25):
        small = random_value()
        big = small.join(random_value())
        out_small = analyzer.exec_cmd(update_cmd, small, run)
        out_big = analyzer.exec_cmd(update_cmd, big, run)
        assert out_small.leq(out_big)


def test_field_read_transfer_monotone():
    program, ct, info = build(
        "main { K v; K w; K z; v := new K; z := v.f; }" + K3
    )
    universe = FieldUniverse.of(ct.reference_fields)
    sharing = SharingAnalysis(program, ct, info)
    sharing.analyze_main()
    analyzer = Analyzer(program, ct, info, sharing, universe)
    env = info.env_for("main")
    read_cmd = program.main.body[-1]
    scope = env.ref_vars + (RESULT_VAR,)
    run = _Run(sharing.main)
    rng = random.Random(13)
    masks = list(range(1 << universe.size))[:4]

    def random_value():
        keys = [key for key in RcValue.bottom(universe, scope).reach if RESULT_VAR not in key]
        reach = {
            key: PathFormula.from_models(universe, rng.sample(masks, rng.randint(0, 3))).table
            for key in keys
        }
        return RcValue.of(universe, scope, reach).normalize()

    for _ in range(25):
        small = random_value()
        big = small.join(random_value())
        assert analyzer.exec_cmd(read_cmd, small, run).leq(
            analyzer.exec_cmd(read_cmd, big, run)
        )


def test_an_if_inside_a_traced_loop_keeps_the_rows_after_it():
    """An ``if``'s branches add no trace rows; the ``if`` itself, the
    commands after it in the loop body, and the commands after the loop do,
    on every visit."""
    result, program = analyze(
        """
class K { K f; }
main {
  K a;
  int i;
  a := new K;
  while (i < 2) {
    if (i == 0) then {
      a := new K;
    } else {
      skip;
    }
    a.f := a;
    i := i + 1;
  }
  skip;
}
"""
    )
    passes = result.loop_passes[program.main.body[1].nid]
    assert passes > 1
    assert [r.line for r in result.trace] == [2, 5] + [6, 7, 12, 13] * passes + [6, 15]
    assert [r.visit for r in result.trace if r.line == 12] == list(range(1, passes + 1))


def test_entry_scope_caps_the_universe_counting_the_stand_in():
    decls = " ".join(f"K f{i};" for i in range(MAX_FIELDS))
    program, ct, typeinfo = build(f"class K {{ {decls} }} main {{ K a; }}")
    universe, *_ = entry_scope(program, ct, typeinfo)
    assert universe.size == MAX_FIELDS
    tracked = [f"f{i}" for i in range(MAX_FIELDS - 1)]
    universe, *_ = entry_scope(program, ct, typeinfo, tracked=tracked)
    assert universe.size == MAX_FIELDS and universe.has_any
    program, ct, typeinfo = build(f"class K {{ {decls} K g; }} main {{ K a; }}")
    with pytest.raises(AnalysisError, match="--track-fields"):
        entry_scope(program, ct, typeinfo)
    with pytest.raises(AnalysisError, match="--track-fields"):
        entry_scope(program, ct, typeinfo, tracked=tracked + ["g"])


def test_analyze_program_applies_the_init_lines_and_joins_extra_facts():
    program, ct, info = build((DATA / "tree.lang").read_text())
    result = analyze_program(program, ct, info, entry="join")
    universe, sig, scope = entry_scope(program, ct, info, entry="join")
    assert scope == ("this", "l", "r")
    rc, sp = parse_init_annotations(program, universe, scope, frozenset(scope))
    assert not rc.cyc_at("l").is_false  # the lines say something
    # the same facts again, as extra entry facts, change nothing
    again = analyze_program(program, ct, info, entry=sig, init_rc=rc, init_sp=sp)
    assert again.final == result.final and again.point_post == result.point_post
    assert [(r.line, r.visit, r.value) for r in again.trace] == [
        (r.line, r.visit, r.value) for r in result.trace
    ]
    program.annotations = []
    bare = analyze_program(program, ct, info, entry="join")
    assert bare.final != result.final
    assert bare.final.cyc_at("l").is_false


# every corpus and data-file program without ``//@ init`` lines
WITHOUT_INIT = {
    name: source
    for name, source in [
        *CORPUS.items(),
        *((f"data/{p.name}", p.read_text()) for p in sorted(DATA.glob("*.lang"))),
    ]
    if "//@" not in source
}


@pytest.mark.parametrize("name", sorted(WITHOUT_INIT))
def test_programs_without_init_lines_take_the_fast_paths_to_the_same_results(name):
    """Without ``//@ init`` lines the entry facts are the contradiction and
    no sharing pair, and handing ``analyze_program`` such facts, resolved
    as a caller resolves them for ``main`` and for each method, changes no
    table and no byte of the report."""
    program, ct, info = build(WITHOUT_INIT[name])
    assert program.annotations == []
    universe = FieldUniverse.of(ct.reference_fields)
    entries = ["main"] if program.main is not None else []
    entries += [f"{sig.owner}.{sig.name}" for sig in ct.all_method_sigs()]
    assert entries
    for entry in entries:
        if entry == "main":
            env = info.env_for("main")
            variables = env.variables + (RESULT_VAR,)
            refs = frozenset(env.ref_vars) | {RESULT_VAR}
        else:
            sig = find_entry_sig(ct, entry)
            env = info.env_for(sig.key)
            variables = sig.input_vars
            refs = frozenset(v for v in variables if env.type_of(v) != "int")
        rc, sp = parse_init_annotations(program, universe, variables, refs)
        assert rc == RcValue.bottom(universe, [v for v in variables if v in refs])
        assert sp == ((), ())
        bare = analyze_program(program, ct, info, entry=entry)
        given = analyze_program(program, ct, info, entry=entry, init_rc=rc, init_sp=sp)
        assert given.final == bare.final and given.trace == bare.trace
        assert given.point_post == bare.point_post and given.denotations == bare.denotations
        assert result_to_json(replaced(given, elapsed=0.0)) == result_to_json(
            replaced(bare, elapsed=0.0)
        )


def _random_init_lines(rng, fields, scope):
    """Seeded ``//@ init`` reach, cyc and ds facts over an entry's scope."""

    def models():
        picks = [rng.sample(fields, rng.randint(0, len(fields))) for _ in range(rng.randint(1, 3))]
        return "[" + ", ".join("[" + ", ".join(m) + "]" for m in picks) + "]"

    lines = []
    for _ in range(rng.randint(1, 2 * len(scope))):
        a, b = rng.choice(scope), rng.choice(scope)
        kind = rng.choice(("reach", "reach", "cyc", "ds"))
        if kind == "reach":
            lines.append(f"//@ init reach({a},{b}): {models()}")
        elif kind == "cyc":
            lines.append(f"//@ init cyc({a}): {models()}")
        else:
            lines.append(f"//@ init ds({a},{b})")
    return lines


CORPUS_METHODS = [
    (name, sig.key) for name, src in sorted(CORPUS.items()) for sig in build(src)[1].all_method_sigs()
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_denotation_is_monotone_in_its_entry(data):
    """A whole method denotation is monotone in its entry value: from
    entries e1 <= e2 over a corpus method's inputs, without widening, the
    result from e1 is below the one from e2 in ``final`` and at every point
    both reach."""
    name, key = data.draw(st.sampled_from(CORPUS_METHODS))
    program, ct, info = build(CORPUS[name])
    sig = next(sig for sig in ct.all_method_sigs() if sig.key == key)
    universe, _, scope = entry_scope(program, ct, info, entry=sig)
    table = st.integers(0, universe.full_table)

    def entry():
        value = RcValue.bottom(universe, scope)
        value.tables[:] = data.draw(st.lists(table, min_size=len(value.tables), max_size=len(value.tables)))
        return value.normalize()

    e1 = entry()
    e2 = e1.join(entry())
    small, big = (
        analyze_program(program, ct, info, entry=sig, init_rc=e, widening_k=None) for e in (e1, e2)
    )
    assert small.final.leq(big.final)
    for nid, value in small.point_post.items():
        if nid in big.point_post:
            assert value.leq(big.point_post[nid]), (name, key, nid)


def test_sparse_transfers_equal_the_dense_reference(monkeypatch):
    """The transfers skip every term with a zero operand, which is exact
    since ``concat`` and ``difference`` give 0 on one; the analysis equals
    the one with the dense transfers on every entry of the corpus and the
    data programs, under all fields and a seeded tracked subset, from the
    program's own facts and from seeded random extra facts."""

    def outcome(analyzer, program, ct, info, tracked, entry):
        with monkeypatch.context() as m:
            m.setattr(fieldreach.semantics, "Analyzer", analyzer)
            r = analyze_program(program, ct, info, tracked=tracked, entry=entry)
        return r.final, r.trace, r.point_post, r.denotations

    rng = random.Random(20)
    data = [(DATA / name).read_text() for name in ("dll.lang", "tree.lang", "tree_main.lang")]
    probe = many_arguments(4)
    sources = [src for _, src in sorted(CORPUS.items())] + data + [WIDE, probe]
    runs = 0
    for source in sources:
        program, ct, info = build(source)
        fields = sorted(ct.reference_fields)
        entries = ["main"] if program.main is not None else []
        # the probe's main reaches every call shape, so its method entry is
        # left out
        entries += ct.all_method_sigs() if source is not probe else []
        for entry in entries:
            for tracked in (None, rng.sample(fields, rng.randint(0, max(0, len(fields) - 1)))):
                _, _, scope = entry_scope(program, ct, info, tracked=tracked, entry=entry)
                named = [v for v in scope if v != RESULT_VAR]
                extra = _random_init_lines(rng, fields, named) if named and fields else []
                for src in (source, "\n".join(extra + [source])):
                    built = build(src)
                    sparse = outcome(Analyzer, *built, tracked, entry)
                    assert sparse == outcome(DenseAnalyzer, *built, tracked, entry)
                    runs += 1
    assert runs >= 200


@given(data=st.data())
def test_stitched_paths_equal_the_pair_by_pair_reference(data):
    """One product per (row, column) joins in what the loop over every
    impure actual, actual, row and column joined in, on random tables,
    actuals, impure positions and deep-sharing states before and after."""
    fields = data.draw(st.integers(1, 3))
    u = FieldUniverse.of(["f", "g", "h"][:fields])
    names = data.draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    scope = Scope([*names, RESULT_VAR])
    table = st.one_of(st.just(0), st.just(u.full_table), st.integers(1, u.full_table))
    tables = st.lists(table, min_size=scope.nn, max_size=scope.nn)
    t, back, start = data.draw(tables), data.draw(tables), data.draw(tables)
    # an int actual is outside the scope
    actuals = data.draw(st.lists(st.sampled_from([*names, "k"]), min_size=1, max_size=5))
    impure = frozenset(data.draw(st.sets(st.integers(0, len(actuals) - 1))))

    ix = _Index(scope.names)

    def state():
        pairs = data.draw(st.lists(st.tuples(*[st.sampled_from(scope.names)] * 2), max_size=8))
        return SharingState(ix, ix.matrix([(v, v) for v in scope.names]), ix.matrix(pairs))

    sp, sp_after = state(), state()
    got, want = list(start), list(start)
    stitch_paths(u, scope, t, back, got, actuals, impure, sp, sp_after)
    stitch_pair_by_pair(u, scope, t, back, want, actuals, impure, sp, sp_after)
    assert got == want


def test_transfers_compute_no_term_with_a_zero_operand(monkeypatch):
    """As the module says, a transfer computes only the terms whose operands
    are non-zero: over every entry of the corpus, the data programs and the
    wide program, and the many-arguments probe's ``main``, no ``concat`` and
    no ``difference`` the analysis calls gets a zero table."""
    calls = {"concat": 0, "difference": 0}

    def nonzero(op):
        def checked(u, a, b):
            assert a and b, (op.__name__, a, b)
            calls[op.__name__] += 1
            return op(u, a, b)

        return checked

    monkeypatch.setattr(fieldreach.semantics, "concat", nonzero(concat))
    monkeypatch.setattr(fieldreach.semantics, "difference", nonzero(difference))
    data = [(DATA / name).read_text() for name in ("dll.lang", "tree.lang", "tree_main.lang")]
    for source in [src for _, src in sorted(CORPUS.items())] + data + [WIDE]:
        program, ct, info = build(source)
        entries = ["main"] if program.main is not None else []
        for entry in entries + list(ct.all_method_sigs()):
            analyze_program(program, ct, info, entry=entry)
    analyze_program(*build(many_arguments(4)))
    assert calls["concat"] > 1000 and calls["difference"] > 100, calls


def test_the_table_of_products_stays_small():
    """The operands of the path algebra repeat within an analysis, so its
    universe's table of products stays small even on the call-heavy
    probes: ``many_arguments(10)`` from ``main`` and ``many_arguments(4)``
    from ``go`` store 109 and 30 products."""
    for source, entry in ((many_arguments(10), "main"), (many_arguments(4), "go")):
        products = analyze_entry(source, entry).universe.products
        assert 0 < len(products) <= 200, (entry, len(products))


def test_a_method_entry_from_no_facts_meets_few_contexts():
    """From ``go`` with no entry facts, ``many_arguments(4)`` meets 18
    contexts: each is solved where a call meets it, so no run goes on from a
    summary still on its way up the lattice and meets contexts that the
    final summaries never give."""
    result = analyze_entry(many_arguments(4), "go")
    assert sum(len(d) for d in result.denotations.values()) <= 24


def test_transfers_write_only_into_values_they_built(monkeypatch):
    """A transfer writes only into a value it built in this visit: no
    command changes its input's tables, and no value a run records, at a
    point or in a trace row, changes before ``analyze_program`` returns.
    Over every entry of the corpus and the data programs, the tree loop at
    12 trips, ``many_arguments(4)`` from ``go``, and reversal and
    WIDENS_IN_A_CALLEE widened at k = 1."""
    exec_cmd, post, trace_line = Analyzer.exec_cmd, _Run.post, _Run.trace_line
    recorded = []  # (value, its tables when recorded)
    transfers = 0

    def checked_exec_cmd(self, cmd, I, run):
        nonlocal transfers
        before = I.tables[:]
        out = exec_cmd(self, cmd, I, run)
        assert I.tables == before, ("input written", cmd.line)
        transfers += 1
        return out

    def recording_post(self, nid, value):
        recorded.append((value, value.tables[:]))
        post(self, nid, value)

    def recording_trace_line(self, line, value):
        recorded.append((value, value.tables[:]))
        trace_line(self, line, value)

    monkeypatch.setattr(Analyzer, "exec_cmd", checked_exec_cmd)
    monkeypatch.setattr(_Run, "post", recording_post)
    monkeypatch.setattr(_Run, "trace_line", recording_trace_line)
    data = [path.read_text() for path in sorted(DATA.glob("*.lang"))]
    jobs = []
    for source in [src for _, src in sorted(CORPUS.items())] + data:
        program, ct, info = build(source)
        entries = ["main"] if program.main is not None else []
        jobs += [(source, entry, 16) for entry in entries + list(ct.all_method_sigs())]
    jobs += [
        (TREE_LOOP.replace("TRIPS", "12"), "main", 16),
        (many_arguments(4), "go", 16),
        (CORPUS["reversal"], "main", 1),
        (WIDENS_IN_A_CALLEE, "main", 1),
    ]
    for source, entry, k in jobs:
        recorded.clear()
        program, ct, info = build(source)
        analyze_program(program, ct, info, entry=entry, widening_k=k)
        changed = [i for i, (value, tables) in enumerate(recorded) if value.tables != tables]
        assert not changed, (entry, changed[:5])
    assert transfers > 2000
