"""The streamed JSON report against ``json.dumps``: ``result_to_json`` must
write exactly the bytes that ``json.dumps(doc, sort_keys=True, indent=2)``
writes for the document built from ``RcValue.to_json()``.  The golden digests
cover neither a ``queries`` block nor a universe wider than three fields;
these cases do."""

import json
import random

import pytest

from fieldreach.domain import RcValue
from fieldreach.formula import FieldUniverse
from fieldreach.render import result_to_json
from fieldreach.semantics import TraceRow

from conftest import DATA, analyze_entry, with_entries
from reference import replaced

# The shape of a wide universe: seven fields, five of them on one class,
# linked into a ring inside a loop.
WIDE = """
class N { N f0; N f1; N f2; N f3; N f4; L g; }
class L { L h; }
main {
  int i;
  N a; N b; N c; N d;
  L p;
  a := new N; b := new N; c := new N;
  p := new L;
  i := 0;
  while (i < 3) {
    d := new N;
    d.f3 := a;
    if (a != null) then c := a.f1;
    if (c != null) then c.f4 := d;
    if (d != null) then p := d.g;
    a := d;
    i := i + 1;
  }
}
"""

ONLY_RESULT = """
main {
  int i;
  i := 0;
  while (i < 2) { i := i + 1; }
}
"""


def reference_report(result, queries) -> str:
    points = {
        f"{row.line}#{row.visit}": {"line": row.line, "visit": row.visit, **row.value.to_json()}
        for row in result.trace
    }
    doc = {
        "entry": result.entry if isinstance(result.entry, str) else ".".join(result.entry),
        "universe": list(result.universe.fields),
        "final": result.final.to_json(),
        "points": points,
        "queries": [{"query": q, "result": r} for q, r in queries],
        "metadata": {
            "iterations": result.rounds,
            "loop_iterations": {str(k): v for k, v in sorted(result.loop_passes.items())},
            "widenings": result.widenings,
            "elapsed_ms": round(result.elapsed * 1000.0, 3),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def answer(result, kind: str, *args):
    if kind == "cyc":
        var, fields = args
        return (f"cyc {var} {{{','.join(fields)}}}", result.query_cycle(var, fields))
    v, w = args
    return (f"reach {v} {w}", result.query_reach(v, w))


# (name, source, entry, tracked fields, queries)
CASES = [
    (
        "wide",
        WIDE,
        "main",
        None,
        [
            ("cyc", "a", ("f3", "f4")),
            ("reach", "a", "d"),
            ("cyc", "d", ("g",)),
            ("reach", "p", "a"),
        ],
    ),
    (
        "tracked",
        (DATA / "tree_main.lang").read_text(),
        "main",
        ["left"],
        [("cyc", "x", ("left",)), ("reach", "x", "t1")],
    ),
    ("only-result", ONLY_RESULT, "main", None, [("reach", "%res", "%res")]),
    (
        "method",
        (DATA / "tree.lang").read_text(),
        "join",
        None,
        [("reach", "l", "out"), ("cyc", "l", ("parent",))],
    ),
]


@pytest.mark.parametrize("name,source,entry,tracked,queries", CASES, ids=[c[0] for c in CASES])
def test_report_equals_json_dumps(name, source, entry, tracked, queries):
    result = analyze_entry(source, entry, tracked)
    answers = [answer(result, *q) for q in queries]
    assert result_to_json(result, answers) == reference_report(result, answers)


def test_case_shapes():
    """The cases above reach what they claim to reach."""
    wide = analyze_entry(WIDE)
    assert wide.universe.size >= 6
    final = wide.final
    assert any(len(final.reach_at(v, w).json_models()) > 4 for v, w in final.reach)
    tracked = analyze_entry((DATA / "tree_main.lang").read_text(), tracked=["left"])
    assert tracked.universe.has_any
    only = analyze_entry(ONLY_RESULT)
    assert only.final.to_json() == {"cyc": {"%res": []}, "reach": {"(%res,%res)": []}}
    assert only.trace


def renamed(value: RcValue, names: dict[str, str]) -> RcValue:
    def name(v: str) -> str:
        return names.get(v, v)

    return RcValue.of(
        value.universe,
        [name(v) for v in value.scope.names],
        {(name(v), name(w)): f for (v, w), f in value.reach.items()},
        {name(v): f for v, f in value.cyc.items()},
    )


def test_keys_sort_as_strings_and_escape_as_json():
    """Variable names the parser never makes: ``sort_keys`` orders the key
    string ``"(v,w)"``, which differs from the order of the pair when a name
    continues another with a character below ``,``; names that need escaping
    are encoded as ``json`` encodes them."""
    result = analyze_entry(WIDE)
    names = {"b": "a b", "c": 'c"\\', "d": "dé", "p": "p\n"}
    result = replaced(
        result,
        final=renamed(result.final, names),
        trace=[TraceRow(r.line, r.visit, renamed(r.value, names)) for r in result.trace],
    )
    keys = [f"({v},{w})" for v, w in result.final.reach]
    assert sorted(keys) != [f"({v},{w})" for v, w in sorted(result.final.reach)]
    answers = [("reach a b", [["f0"]]), ("cyc é {}", False), ("reach a a", [[], ["f0", "f1"]])]
    assert result_to_json(result, answers) == reference_report(result, answers)


# Three fields, two of them tracked: the universe is (a, b, any), and the
# stand-in sorts between the tracked names in a JSON model list.
ANY_BETWEEN = """
class N { N a; N b; N c; }
main {
  N x; N y; N z;
  x := new N; y := new N;
  x.a := y;
  y.c := x;
  x.b := x;
  z := x.a;
}
"""


def test_layout_is_kept_per_scope_and_depth():
    """The report lays out each scope's member keys once per depth: rows of
    several scopes (an empty one, a renamed one, one in another insertion
    order) and a ``final`` over a scope of its own, at two depths, all read
    as ``json.dumps`` writes them; the models of a table sort by their
    sorted names, with the stand-in between tracked names."""
    result = analyze_entry(ANY_BETWEEN, tracked=["a", "b"])
    u = result.universe
    assert u.fields == ("a", "b", "any")
    last = result.trace[-1].value
    a, b, stand_in = (u.mask_of([f]) for f in u.fields)
    moved = with_entries(
        renamed(last, {"x": "w", "y": "x"}),
        reach={("w", "x"): 1 << b | 1 << stand_in | 1 << (a | stand_in)},
    )
    assert moved.reach_at("w", "x").json_models() == [["a", "any"], ["any"], ["b"]]
    reordered = RcValue.of(
        u,
        reversed(last.scope.names),
        dict(reversed([*last.reach.items()])),
        dict(reversed([*last.cyc.items()])),
    )
    kept = [v for v in result.final.cyc if v != "z"]
    final = result.final.remap({v: v for v in kept}, kept)
    rows = [
        TraceRow(90, 1, RcValue.bottom(u, ())),
        TraceRow(91, 1, moved),
        TraceRow(91, 2, reordered),
        TraceRow(92, 1, final),
    ]
    result = replaced(result, final=final, trace=result.trace + rows)
    scopes = {frozenset(row.value.cyc) for row in result.trace}
    assert {frozenset(), frozenset(moved.cyc), frozenset(final.cyc)} <= scopes
    assert len({frozenset(last.cyc), frozenset(moved.cyc), frozenset(final.cyc)}) == 3
    answers = [("reach w x", [["a", "any"], ["any"], ["b"]])]
    report = result_to_json(result, answers)
    assert report == reference_report(result, answers)
    assert '"90#1": {\n      "cyc": {},' in report


def test_point_keys_sort_as_strings():
    """A line visited 11 times: its ``"line#visit"`` keys sort as strings,
    so ``"5#10"`` and ``"5#11"`` come before ``"5#2"``."""
    result = analyze_entry(WIDE)
    rows = [TraceRow(5, visit, result.final) for visit in range(1, 12)]
    result = replaced(result, trace=rows)
    report = result_to_json(result, [])
    assert report == reference_report(result, [])
    assert report.index('"5#10"') < report.index('"5#11"') < report.index('"5#2"')


def test_report_without_trace_rows():
    result = replaced(analyze_entry(WIDE), trace=[])
    report = result_to_json(result, [])
    assert report == reference_report(result, [])
    assert '\n  "points": {},\n' in report


def test_nine_field_report_with_the_full_table():
    """Nine fields whose index order is not their name order, the stand-in
    among them: the full table lists all 512 models in the order of their
    sorted names, next to sparse tables, at two depths, as ``json.dumps``
    writes them."""
    result = analyze_entry(ONLY_RESULT)
    u = FieldUniverse(("zeta", "any", "b", "a b", "Z", "é", "left", "aa", "a"))
    scope = ("x", "y")
    rng = random.Random(9)
    value = RcValue.of(
        u,
        scope,
        {
            ("x", "y"): u.full_table,
            ("y", "x"): sum(1 << rng.randrange(1 << u.size) for _ in range(20)),
        },
        {
            "x": u.full_table ^ 1 << u.mask_of(["a", "any"]),
            "y": rng.getrandbits(1 << u.size),
        },
    )
    rows = [TraceRow(3, 1, value), TraceRow(4, 1, RcValue.bottom(u, scope))]
    result = replaced(result, universe=u, final=value, trace=rows)
    models = value.reach_at("x", "y").json_models()
    assert len(models) == 512 and models[:3] == [[], ["Z"], ["Z", "a"]]
    answers = [("reach x y", models), ("cyc x {a}", True)]
    assert result_to_json(result, answers) == reference_report(result, answers)


# (loop passes by loop id, elapsed seconds, widenings): no loop; loop ids
# whose keys sort as strings ("10" before "9"); an elapsed time that rounds
# to 0.0 ms, one of 0.01 ms, one of 12345.678 ms and one that ``repr``
# writes with an exponent; widenings above zero
METADATA = [
    ({}, 0.0, 0),
    ({9: 1, 10: 2, 100: 3}, 1e-08, 2),
    ({3: 1}, 1e-05, 0),
    ({7: 17, 8: 1}, 12.345678, 5),
    ({}, 1e17, 1),
]


@pytest.mark.parametrize("loops,elapsed,widenings", METADATA)
def test_metadata_and_scalar_answers_as_json_dumps(loops, elapsed, widenings):
    """``metadata`` and the truth-value answers are laid out by hand: they
    read as ``json.dumps`` writes them, one level deep."""
    result = replaced(
        analyze_entry(WIDE), loop_passes=loops, elapsed=elapsed, widenings=widenings, rounds=3
    )
    answers = [("cyc a {f3,f4}", True), ("cyc d {g}", False), ("reach a d", [["f0"], []])]
    report = result_to_json(result, answers)
    assert report == reference_report(result, answers)
    metadata = {
        "iterations": 3,
        "loop_iterations": {str(k): v for k, v in loops.items()},
        "widenings": widenings,
        "elapsed_ms": round(elapsed * 1000.0, 3),
    }
    text = json.dumps(metadata, sort_keys=True, indent=2).replace("\n", "\n  ")
    assert '\n  "metadata": ' + text + ",\n" in report
    if 100 in loops:
        assert report.index('"10"') < report.index('"100"') < report.index('"9"')


def test_a_scope_laid_out_at_both_depths():
    """A method entry: ``final`` is over the summary's scope and the trace
    over the body's, and one more row over ``final``'s scope puts that
    scope's member keys at both depths; every row reads as ``json.dumps``
    writes it."""
    result = analyze_entry((DATA / "tree.lang").read_text(), "join")
    body = {row.value.scope for row in result.trace}
    assert len(body) == 1 and result.final.scope not in body
    result = replaced(result, trace=result.trace + [TraceRow(99, 1, result.final)])
    answers = [answer(result, "reach", "l", "out"), answer(result, "cyc", "l", ("parent",))]
    report = result_to_json(result, answers)
    assert report == reference_report(result, answers)
    assert '\n    "99#1": {\n      "cyc": {\n        "l": ' in report
