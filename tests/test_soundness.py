"""Whole-pipeline soundness: on every corpus program, every traversal set
the concrete interpreter realizes at a point is a model of the abstract
value there; plus the operator/oracle bridge properties for concatenated
paths, checked against heaps the corpus builds."""

import pytest

from fieldreach import (
    FieldUniverse,
    PathFormula,
    alpha_state,
    analyze_program,
    check_soundness,
    run_concrete,
)
from fieldreach.oracle import Loc
from fieldreach.sharing import SharingAnalysis
from fieldreach.syntax import walk_commands

from conftest import build
from corpus import CORPUS
from reference import deep_share_pairs


@pytest.fixture(scope="module")
def analyzed():
    out = {}
    for name, src in CORPUS.items():
        program, ct, info = build(src)
        result = analyze_program(program, ct, info)
        oracle = run_concrete(program, ct)
        out[name] = (program, ct, info, result, oracle)
    return out


def test_corpus_is_large_and_bounded(analyzed):
    assert len(analyzed) >= 20
    for name, (program, ct, info, result, oracle) in analyzed.items():
        assert len(ct.class_names) <= 4, name
        assert len(ct.reference_fields) <= 3, name
        assert oracle.allocations <= 12, name


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_soundness(analyzed, name):
    program, ct, info, result, oracle = analyzed[name]
    report = check_soundness(result, oracle)
    assert report.ok, "\n".join(str(v) for v in report.violations)
    assert report.states_checked > 0 or not oracle.point_states


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_points_stay_normal(analyzed, name):
    program, ct, info, result, oracle = analyzed[name]
    for nid, value in result.point_post.items():
        assert value.is_normal(), f"{name}: point {nid} out of normal form"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_deep_sharing_covered(analyzed, name):
    # whenever two variables deep-share in a recorded state, the sharing
    # analysis admits the pair at that point
    program, ct, info, result, oracle = analyzed[name]
    sharing = SharingAnalysis(program, ct, info)
    sharing.analyze_main()
    main_post = sharing.main.post
    for cmd in walk_commands(program.main.body):
        states = oracle.point_states.get(cmd.nid)
        post = main_post.get(cmd.nid)
        if states is None or post is None:
            continue
        env = info.env_for("main")
        for state in states:
            for pair in deep_share_pairs(state, env.ref_vars):
                assert pair in post.ds, f"{name}: line {cmd.line} misses {pair}"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_widened_covers_exact(analyzed, name):
    program, ct, info, result, oracle = analyzed[name]
    exact = analyze_program(program, ct, info, widening_k=None)
    tight = analyze_program(program, ct, info, widening_k=2)
    assert exact.final.leq(tight.final)


# --------------------------------------------------------------------------
# operator properties against concrete paths


def enumerate_paths(heap, max_len=4):
    """All paths up to a length bound as (start, end, traversed fields)."""
    paths = []
    for addr in heap:
        stack = [(addr, addr, frozenset(), 0)]
        while stack:
            start, cur, traversed, length = stack.pop()
            paths.append((start, cur, traversed))
            if length == max_len:
                continue
            for fname, value in heap[cur].fields.items():
                if isinstance(value, Loc):
                    stack.append((start, value.addr, traversed | {fname}, length + 1))
    return paths


def interesting_heaps(analyzed):
    for name in ("dll_builder", "two_cycle", "diamond_sharing", "parent_tree_loop"):
        program, ct, info, result, oracle = analyzed[name]
        yield ct, oracle.final.heap


def test_concat_matches_path_concatenation(analyzed):
    checked = 0
    for ct, heap in interesting_heaps(analyzed):
        universe = FieldUniverse.of(ct.reference_fields)
        paths = enumerate_paths(heap, max_len=3)
        by_start: dict[int, list] = {}
        for p in paths:
            by_start.setdefault(p[0], []).append(p)
        for start, end, traversed in paths[:200]:
            for _, end2, traversed2 in by_start.get(end, [])[:20]:
                f = PathFormula.only(universe, traversed)
                g = PathFormula.only(universe, traversed2)
                whole = traversed | traversed2
                assert f.concat(g).has_model(universe.mask_of(whole))
                checked += 1
    assert checked > 100


def test_difference_matches_path_suffixes(analyzed):
    checked = 0
    for ct, heap in interesting_heaps(analyzed):
        universe = FieldUniverse.of(ct.reference_fields)
        # walk concrete paths and split them at every position
        for addr in heap:
            stack = [(addr, [], frozenset())]
            seqs = []
            while stack:
                cur, fields_seq, traversed = stack.pop()
                seqs.append((fields_seq, traversed))
                if len(fields_seq) == 4:
                    continue
                for fname, value in heap[cur].fields.items():
                    if isinstance(value, Loc):
                        stack.append(
                            (value.addr, fields_seq + [fname], traversed | {fname})
                        )
            for fields_seq, traversed in seqs:
                whole = PathFormula.only(universe, traversed)
                for cut in range(len(fields_seq) + 1):
                    prefix = frozenset(fields_seq[:cut])
                    suffix = frozenset(fields_seq[cut:])
                    # whole = prefix . suffix: the suffix set is a model of
                    # the difference
                    d = whole.difference(PathFormula.only(universe, prefix))
                    assert d.has_model(universe.mask_of(suffix))
                    checked += 1
                # peeling one leading hop in particular
                if fields_seq:
                    head = PathFormula.only(universe, [fields_seq[0]])
                    rest = frozenset(fields_seq[1:])
                    assert whole.difference(head).has_model(universe.mask_of(rest))
    assert checked > 100


def test_alpha_normal_form_on_corpus_states(analyzed):
    for name, (program, ct, info, result, oracle) in analyzed.items():
        universe = FieldUniverse.of(ct.reference_fields)
        env = info.env_for("main")
        for states in list(oracle.point_states.values())[:5]:
            for state in states[:3]:
                value = alpha_state(state, universe, env.ref_vars)
                assert value.is_normal()
