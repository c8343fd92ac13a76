import copy
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from fieldreach import (
    BudgetExceeded,
    FieldUniverse,
    NullDereference,
    PathFormula,
    RcValue,
    alpha_state,
    analyze_program,
    check_soundness,
    run_concrete,
    traversal_saturate,
)
import fieldreach.oracle as oracle_module
from fieldreach.formula import models_of, saturate
from fieldreach.syntax import Assign, Command, Expr, Skip
from fieldreach.oracle import (
    ConcreteState,
    Loc,
    Obj,
    SoundnessReport,
    Violation,
    _HeapTables,
    _Interp,
    cycle_field_sets,
)

from conftest import DATA, build, pf, with_entries
from corpus import CORPUS, parallel_edges
from reference import deep_share_pairs, reachable, replaced, walk_saturate


def run(source: str, **kw):
    program, ct, info = build(source.lstrip("\n"))
    return run_concrete(program, ct, **kw), program, ct, info


# --------------------------------------------------------------------------
# interpretation


def test_dll_builds_ten_nodes():
    src = open("tests/data/dll.lang").read()
    oracle, program, ct, info = run(src)
    assert oracle.allocations == 10
    # the final heap is a fully double-linked chain
    x = oracle.final.frame["x"]
    assert isinstance(x, Loc)
    fields = oracle.final.heap[x.addr].fields
    assert isinstance(fields["n"], Loc)


def test_skip_only_main():
    oracle, program, ct, info = run("main { skip; }")
    assert oracle.allocations == 0
    assert oracle.final.frame == {}


def test_null_dereference_reported_with_line():
    src = """
main {
  Node x;
  Node y;
  y := new Node;
  x.n := y;
}
class Node { Node n; Node p; }
"""
    with pytest.raises(NullDereference) as err:
        run(src)
    assert err.value.line == 5


def test_budget_exceeded():
    src = """
main {
  int i;
  i := 1;
  while (i > 0) { i := i + 1; }
}
"""
    with pytest.raises(BudgetExceeded):
        run(src, budget=200)


def test_recorded_cells_count_against_the_budget():
    # every allocation, field write and record is one log entry, and a
    # record copies the frame when it was assigned since its last copy: a
    # loop that never ends makes cells linearly in its steps, more than one
    # per step, so the cells must stop it first
    program, ct, _ = build((DATA / "runaway_chain.lang").read_text())
    interp = _Interp(program, ct, 20_000, record=True)
    with pytest.raises(BudgetExceeded, match="20000 cells"):
        interp.run_main()
    assert interp.steps < 20_000 < interp.cells
    # a trip of 7 steps logs 6 records, an allocation and 2 writes, and
    # copies the frame of 3 slots 4 times
    assert 2 * interp.steps < interp.cells <= 3 * interp.steps
    # unrecorded, nothing is copied and the steps run out instead
    with pytest.raises(BudgetExceeded, match="step budget 20000"):
        run_concrete(program, ct, budget=20_000, record=False)
    # a run that ends needs exactly its own count of cells, apart from steps
    program, ct, _ = build((DATA / "dll.lang").read_text())
    interp = _Interp(program, ct, 100_000, record=True)
    done = interp.run_main()
    assert done.steps == interp.steps < interp.cells
    # and exactly its log's entries and the slots of the distinct frames it
    # recorded
    frames = {id(s.frame): len(s.frame) for _, s in done.records}
    assert interp.cells == len(done.log) + sum(frames.values())
    assert len(frames) < len(done.records)
    run_concrete(program, ct, budget=interp.cells)
    with pytest.raises(BudgetExceeded, match="cells"):
        run_concrete(program, ct, budget=interp.cells - 1)


def test_call_depth_budget():
    from fieldreach.oracle import MAX_CALL_DEPTH

    src = """
class K {
  K down(int k) {
    K r;
    int k2;
    if (k > 0) then {
      k2 := k - 1;
      r := this.down(k2);
    }
    return r;
  }
}
main {
  K x;
  K y;
  int n;
  x := new K;
  n := DEPTH;
  y := x.down(n);
}
"""
    run(src.replace("DEPTH", str(MAX_CALL_DEPTH - 1)))
    with pytest.raises(BudgetExceeded) as err:
        run(src.replace("DEPTH", str(MAX_CALL_DEPTH)))
    assert str(err.value) == f"call depth budget {MAX_CALL_DEPTH} exceeded at line 7"
    assert err.value.budget is None


def test_recursion_deeper_than_the_stack_is_a_budget_error():
    # within the call depth budget, but every level sits inside nested blocks
    guards = "if (k > 0) then {" * 12
    src = (
        "class K { K down(int k) { K r; int k2; "
        + guards
        + " k2 := k - 1; r := this.down(k2); "
        + "}" * 12
        + " return r; } }\n"
        + "main { K x; K y; int n; x := new K; n := 90; y := x.down(n); }"
    )
    with pytest.raises(BudgetExceeded) as err:
        run(src)
    assert str(err.value) == "execution nests deeper than the interpreter's stack"
    assert err.value.budget is None


def test_arithmetic_wraps():
    src = """
main {
  int big;
  int one;
  big := 9223372036854775807;
  one := 1;
  big := big + one;
}
"""
    oracle, *_ = run(src)
    assert oracle.final.frame["big"] == -(1 << 63)


COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@pytest.mark.parametrize("op", sorted(COMPARE))
def test_every_comparison_operator(op):
    """Each guard operator on integers below, equal and above, negative
    ones included, and ``==``/``!=`` also on a reference against null."""
    pairs = [(-2, 3), (3, 3), (4, 3), (-5, -6)]
    lines = [
        f"a := {x}; b := {y}; if (a {op} b) then r{k} := 1; else r{k} := 2;"
        for k, (x, y) in enumerate(pairs)
    ]
    on_refs = op in ("==", "!=")
    if on_refs:
        lines += [f"if ({v} {op} null) then s{k} := 1; else s{k} := 2;" for k, v in enumerate("pn")]
    src = (
        "class K { K f; }\nmain {\n  int a; int b; int r0; int r1; int r2; int r3; int s0; int s1;\n"
        "  K p; K n;\n  p := new K;\n" + "".join(f"  {line}\n" for line in lines) + "}\n"
    )
    frame = run(src)[0].final.frame
    compare = COMPARE[op]
    assert [frame[f"r{k}"] for k in range(4)] == [1 if compare(x, y) else 2 for x, y in pairs]
    if on_refs:  # p holds a location and n is null
        assert [frame["s0"], frame["s1"]] == [1 if compare(v, None) else 2 for v in (Loc(1), None)]


def test_unsupported_nodes_are_type_errors():
    program, ct, _ = build("main { skip; }")
    interp = _Interp(program, ct, 100, record=True)
    with pytest.raises(TypeError, match=r"^unsupported command Command\(nid=1, line=2, col=3\)$"):
        interp.exec_cmd(Command(1, 2, 3), {})
    with pytest.raises(TypeError, match=r"^unsupported expression Expr\(nid=4, line=5, col=6\)$"):
        interp.eval_expr(Expr(4, 5, 6), {})
    with pytest.raises(TypeError, match="unsupported expression"):
        interp.exec_cmd(Assign(7, 8, 9, "x", Expr(4, 5, 6)), {"x": None})

    # dispatch is on the exact type: a subclass of a known node is unknown
    class Nop(Skip):
        pass

    with pytest.raises(TypeError, match=r"^unsupported command "):
        interp.exec_cmd(Nop(10, 11, 12), {})


@pytest.mark.parametrize(
    "stmt",
    ["y := x.n;", "x.n := y;", "y := x.m();"],
    ids=["field read", "field write", "call"],
)
def test_null_dereference_line(stmt):
    src = f"class K {{ K n; K m() {{ return this; }} }}\nmain {{\n  K x;\n  K y;\n  y := new K;\n  {stmt}\n}}\n"
    with pytest.raises(NullDereference) as err:
        run(src)
    assert err.value.line == 6
    assert str(err.value) == "null dereference at line 6"


def test_budget_messages():
    program, ct, _ = build((DATA / "runaway_chain.lang").read_text())
    with pytest.raises(BudgetExceeded) as err:
        run_concrete(program, ct, budget=20_000)
    assert str(err.value) == "recorded states exceed the budget of 20000 cells"
    assert err.value.budget == 20_000
    with pytest.raises(BudgetExceeded) as err:
        run_concrete(program, ct, budget=20_000, record=False)
    assert str(err.value) == "step budget 20000 exceeded"
    assert err.value.budget == 20_000
    # the steps run out on the last tick of a loop trip too
    program, ct, _ = build("main { int i; while (i == 0) { skip; } }")
    for budget in (1, 2, 3, 4):
        with pytest.raises(BudgetExceeded) as err:
            run_concrete(program, ct, budget=budget)
        assert str(err.value) == f"step budget {budget} exceeded"


def test_method_dispatch_by_runtime_class():
    src = """
class A { A m() { return null; } }
class B extends A { A m() { return this; } }
main {
  A a;
  A r;
  a := new B;
  r := a.m();
}
"""
    oracle, *_ = run(src)
    assert isinstance(oracle.final.frame["r"], Loc)


def test_recorded_heaps_are_snapshots():
    src = """
main {
  Node x;
  Node y;
  x := new Node;
  y := x;
  x.n := y;
  y := new Node;
}
class Node { Node n; }
"""
    oracle, program, ct, info = run(src)
    alloc, alias, write, alloc2 = [oracle.point_states[c.nid][0] for c in program.main.body]
    # no allocation or field write in between: one shared snapshot, own frames
    assert alias.heap is alloc.heap
    assert alloc.frame["y"] is None and alias.frame["y"] == Loc(1)
    # no assignment in between: one shared frame
    assert write.frame is alias.frame
    assert alloc2.frame is not write.frame
    # a state recorded before a field write does not see it
    assert alloc.heap[1].fields["n"] is None
    assert write.heap[1].fields["n"] == Loc(1)
    # a state recorded before an allocation does not see the new object
    assert set(write.heap) == {1}
    assert set(alloc2.heap) == {1, 2}
    assert oracle.final.heap is not alloc2.heap
    # snapshots share the objects that did not change, and only those
    assert alloc2.heap[1] is write.heap[1]
    assert write.heap[1] is not alloc.heap[1]


def test_copy_on_write_is_invisible(monkeypatch):
    """The recorded states rebuilt from the log are, in run order, the
    points and equal copies of the frames and heaps taken when the states
    were recorded, over every corpus program with a ``main``."""
    recorded = []
    exec_cmd = _Interp.exec_cmd

    # a command's last act is to record the state after it
    def exec_with_copy(self, cmd, frame):
        exec_cmd(self, cmd, frame)
        recorded.append((cmd.nid, dict(frame), copy.deepcopy(self.heap)))

    monkeypatch.setattr(_Interp, "exec_cmd", exec_with_copy)
    programs = 0
    for name, source in sorted(CORPUS.items()):
        program, ct, info = build(source)
        if program.main is None:
            continue
        programs += 1
        recorded.clear()
        oracle = run_concrete(program, ct)
        assert recorded, name
        assert len(oracle.records) == len(recorded), name
        for (nid, state), (at, frame, heap) in zip(oracle.records, recorded):
            assert nid == at, name
            assert state.frame == frame, name
            assert state.heap == heap, name
    assert programs > 20


# --------------------------------------------------------------------------
# saturation


def heap_chain():
    # o1 --aD--> o2 --lnk--> o3 --owner--> o4
    return {
        1: Obj("L2", {"mD": None, "aD": Loc(2)}),
        2: Obj("TB", {"owner": None, "lnk": Loc(3)}),
        3: Obj("LP", {"owner": Loc(4)}),
        4: Obj("L1", {"mD": None}),
    }


def test_saturate_chain():
    pairs = traversal_saturate(heap_chain(), 1)
    assert (4, frozenset({"aD", "lnk", "owner"})) in pairs
    assert (1, frozenset()) in pairs


def test_saturate_single_object():
    heap = {1: Obj("K", {"f": None})}
    assert traversal_saturate(heap, 1) == frozenset({(1, frozenset())})


def test_saturate_two_cycle():
    heap = {
        1: Obj("K", {"f": Loc(2), "g": None}),
        2: Obj("K", {"f": None, "g": Loc(1)}),
    }
    pairs = traversal_saturate(heap, 1)
    assert (1, frozenset({"f", "g"})) in pairs
    assert (1, frozenset({"f"})) not in pairs
    assert cycle_field_sets(heap, 1) == frozenset({frozenset({"f", "g"})})


def test_saturate_monotone_under_edges():
    heap = {
        1: Obj("K", {"f": Loc(2), "g": None}),
        2: Obj("K", {"f": None, "g": None}),
    }
    before = traversal_saturate(heap, 1)
    heap[2].fields["g"] = Loc(1)
    after = traversal_saturate(heap, 1)
    assert before <= after


def brute_cycle_sets(heap, src):
    """The definition: the traversal set of every closed walk of at least one
    step through a location reachable from ``src``."""
    return frozenset(
        fs
        for loc in reachable(heap, src)
        for target, fs in walk_saturate(heap, loc, require_step=True)
        if target == loc
    )


@st.composite
def random_heaps(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    fields = ("f", "g", "h", "k")[: draw(st.integers(min_value=1, max_value=4))]
    value = st.one_of(st.none(), st.integers(min_value=1, max_value=size).map(Loc))
    return {a: Obj("K", {f: draw(value) for f in fields}) for a in range(1, size + 1)}


@settings(max_examples=300)
@given(random_heaps())
def test_cycle_sets_match_per_location_saturation(heap):
    for src in heap:
        assert cycle_field_sets(heap, src) == brute_cycle_sets(heap, src)
        for require_step in (False, True):
            assert traversal_saturate(heap, src, require_step) == walk_saturate(
                heap, src, require_step
            )


@st.composite
def heaps_with_any(draw):
    """A random heap and a universe tracking a strict subset of its fields,
    so the others fold into ``any``."""
    heap = draw(random_heaps())
    fields = sorted(heap[1].fields)
    tracked = draw(st.lists(st.sampled_from(fields), unique=True, max_size=len(fields) - 1))
    return heap, FieldUniverse.tracked(fields, tracked)


def table_of(universe, field_sets):
    table = 0
    for fs in field_sets:
        table |= 1 << universe.abstract_mask(fs)
    return table


def alpha_per_location(heap, universe):
    """``alpha_state`` of a frame with one variable on each location."""
    frame = {f"v{a}": Loc(a) for a in heap}
    return alpha_state(ConcreteState(frame, heap), universe, sorted(frame))


@settings(max_examples=300)
@given(heaps_with_any())
def test_mask_tables_abstract_the_reference_sets(case):
    heap, universe = case
    assert universe.has_any
    value = alpha_per_location(heap, universe)
    for a in heap:
        expected_cyc = 1 | table_of(universe, brute_cycle_sets(heap, a))
        assert value.cyc[f"v{a}"] == expected_cyc
        pairs = walk_saturate(heap, a)
        for b in heap:
            expected = table_of(universe, (fs for target, fs in pairs if target == b))
            assert value.reach[(f"v{a}", f"v{b}")] == expected


@st.composite
def edit_logs(draw, link_fresh=False):
    """A log of allocations, field writes and records from the empty heap,
    in the interpreter's layout, with a universe carrying ``any``, and the
    heap at each record.  The first step allocates and links a random heap
    (``heaps_with_any``), one edge at a time; each later step may allocate,
    overwrite references, write null, rewrite a field with its own value,
    write several fields, or change nothing, and ends in a record.  With
    ``link_fresh``, a step first writes one reference from each object it
    allocates, so more steps add edges both from new objects and from old
    ones."""
    start, universe = draw(heaps_with_any())
    fields = sorted(start[1].fields)
    blank = tuple((f, None) for f in fields)
    heap, log, heaps = {}, [], []

    def allocate(a):
        heap[a] = Obj("K", dict(blank))
        log.append((a, "K", blank))

    def write(a, f, value):
        log.append((a, f, heap[a].fields[f], value))
        heap[a].fields[f] = value

    def record():
        log.append((0, {}))
        heaps.append(copy.deepcopy(heap))

    for a in start:
        allocate(a)
    for a, o in start.items():
        for f, v in o.fields.items():
            if v is not None:
                write(a, f, v)
    record()
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        fresh = range(len(heap) + 1, len(heap) + 1 + draw(st.integers(min_value=0, max_value=2)))
        for a in fresh:
            allocate(a)
        if link_fresh:
            for a in fresh:
                write(a, draw(st.sampled_from(fields)), Loc(draw(st.sampled_from(sorted(heap)))))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            src = draw(st.sampled_from(sorted(heap)))
            target = draw(st.one_of(st.none(), st.sampled_from(sorted(heap)).map(Loc)))
            write(src, draw(st.sampled_from(fields)), target)
        record()
    return log, heaps, universe


def fresh_tables(heap, universe):
    """The reach and cycle table of every location of ``heap``, built over
    that heap alone."""
    tables = _HeapTables(universe, heap)
    return {a: (tables.reach(a), tables.cycles[a]) for a in heap}


def kept_tables(tables):
    return {a: (table, tables.cycles[a]) for a, table in tables.reached.items()}


def replay(tables, log):
    """Applies the edits of ``log`` and yields at each record, as the check
    does."""
    for event in log:
        if len(event) == 2:
            yield event
        else:
            tables.apply(event)


@pytest.mark.parametrize("link_fresh", [False, True], ids=["writes", "fresh-links"])
@settings(max_examples=200)
@given(data=st.data())
def test_replayed_tables_match_a_fresh_build(link_fresh, data):
    """Replaying a log, with a random subset of the addresses live after
    each record checked, the kept tables in random order, and some records
    passed over, as the check passes over a state with no location, gives
    the tables of a fresh build at every record checked: those asked for
    and those kept."""
    log, heaps, universe = data.draw(edit_logs(link_fresh=link_fresh))
    tables = _HeapTables(universe)
    for k, _ in enumerate(replay(tables, log)):
        heap = heaps[k]
        if k < len(heaps) - 1 and data.draw(st.booleans()):
            continue
        expected = fresh_tables(heap, universe)
        order = data.draw(st.permutations(sorted(heap)))
        for a in order[: data.draw(st.integers(min_value=0, max_value=len(order)))]:
            assert (tables.reach(a), tables.cycles[a]) == expected[a]
        assert kept_tables(tables) == {a: expected[a] for a in tables.reached}
        tables.live = set(data.draw(st.lists(st.sampled_from(sorted(heap)), unique=True)))
        # the order the kept tables are visited in must not matter
        tables.reached = dict(data.draw(st.permutations(list(tables.reached.items()))))


def allocation(a, fields):
    return (a, "K", tuple((f, None) for f in fields))


def test_a_fresh_location_takes_its_successors_tables(monkeypatch):
    # a ring 1 <-f-> 2, then 3 allocated with 3 -g-> 1: 3 has no closed walk
    # through it and 1 does not reach 3, so 3 takes the tables of 1 with g
    # added to every mask, and 1's cycle table, and nothing is saturated
    u = FieldUniverse.of(["f", "g"])
    ring = {1: Obj("K", {"f": Loc(2), "g": None}), 2: Obj("K", {"f": Loc(1), "g": None})}
    grown = {**ring, 3: Obj("K", {"f": None, "g": Loc(1)})}
    tables = _HeapTables(u, ring)
    for a in ring:
        tables.reach(a)
    tables.live = set(ring)
    calls = []

    def spy(*args):
        calls.append(args)
        return saturate(*args)

    monkeypatch.setattr(oracle_module, "saturate", spy)
    tables.apply(allocation(3, "fg"))
    tables.apply((3, "g", None, Loc(1)))
    assert calls == []
    monkeypatch.undo()
    assert kept_tables(tables) == fresh_tables(grown, u)
    g, fg = table_of(u, [("g",)]), table_of(u, [("f", "g")])
    assert tables.reached[3] == {3: 1, 1: g | fg, 2: fg}
    assert tables.cycles[3] == tables.cycles[1] == table_of(u, [("f",)])


def test_a_removed_edge_drops_the_tables_that_reach_it(monkeypatch):
    # the same reference under another field is another edge; a write that
    # removes an edge drops the kept tables that reach its source, and
    # anchors afresh only when the heap had a closed walk
    u = FieldUniverse.of(["f", "g"])
    steps = [
        ("on_f", [allocation(1, "fg"), allocation(2, "fg"), (1, "f", None, Loc(2))]),
        ("on_g", [(1, "f", Loc(2), None), (1, "g", None, Loc(2))]),  # one removed, one added
        ("on_f_again", [(1, "f", None, Loc(2)), (1, "g", Loc(2), None)]),  # the edges of on_f
        ("rewritten", [(1, "f", Loc(2), Loc(2))]),  # the same edge written again
        ("allocated", [allocation(3, "fg")]),
        ("closed", [(2, "g", None, Loc(1))]),  # an edge added, closing a cycle
        ("reopened", [(1, "f", Loc(2), None)]),  # the cycle's edge removed
    ]
    anchored = []
    anchor = _HeapTables._anchor
    monkeypatch.setattr(_HeapTables, "_anchor", lambda self: anchored.append(self) or anchor(self))
    tables = _HeapTables(u)
    heap = {}
    moves = []
    for name, events in steps:
        anchored.clear()
        for event in events:
            tables.apply(event)
            if len(event) == 3:
                heap[event[0]] = Obj("K", dict(event[2]))
            else:
                heap[event[0]].fields[event[1]] = event[3]
        moves.append((tables in anchored, sorted(tables.reached)))
        for a in heap:
            tables.reach(a)
        assert kept_tables(tables) == fresh_tables(heap, u), name
        if name == "closed":
            assert tables.cycles[1] == table_of(u, [("f", "g")])
        tables.live = set(heap)
    assert moves == [
        (False, [1, 2]),  # built from the empty heap
        (False, [2]),
        (False, [2]),
        (False, [1, 2]),
        (False, [1, 2, 3]),
        (False, [1, 2, 3]),
        (True, [3]),
    ]
    assert tables.anchors == {}


def test_a_load_anchors_only_the_edges_inside_a_component(monkeypatch):
    # a chain 1 -f-> 2 -f-> 3 feeding the cycle 3 -g-> 4 -h-> 5 -f-> 3, with
    # a self-loop on 4 and an edge from the cycle out to 6
    heap = {
        1: Obj("K", {"f": Loc(2), "g": None, "h": None}),
        2: Obj("K", {"f": Loc(3), "g": None, "h": None}),
        3: Obj("K", {"f": None, "g": Loc(4), "h": None}),
        4: Obj("K", {"f": Loc(4), "g": Loc(6), "h": Loc(5)}),
        5: Obj("K", {"f": Loc(3), "g": None, "h": None}),
        6: Obj("K", {"f": None, "g": None, "h": None}),
    }
    u = FieldUniverse.of(["f", "g", "h"])
    starts = []

    def spy(succ, halves, reached, pending):
        starts.append(next(iter(pending)))
        return saturate(succ, halves, reached, pending)

    monkeypatch.setattr(oracle_module, "saturate", spy)
    tables = _HeapTables(u, heap)
    # one saturation per target of an edge inside the component
    assert sorted(starts) == [3, 4, 5]
    assert set(tables.anchors) == {3, 4, 5}
    fgh = table_of(u, [("f", "g", "h")])
    assert tables.anchors == {3: fgh, 4: fgh | table_of(u, [("f",)]), 5: fgh}
    monkeypatch.undo()
    for a in heap:
        assert cycle_field_sets(heap, a) == brute_cycle_sets(heap, a)
    assert cycle_field_sets(heap, 1) == {frozenset({"f", "g", "h"}), frozenset({"f"})}
    assert cycle_field_sets(heap, 6) == frozenset()


def test_records_list_every_state_once_in_run_order():
    """Over every corpus program with a ``main``, ``records`` holds one state
    per record of the log, in the log's order and with the log's frames,
    each state once, and grouping it by point gives ``point_states``; each
    view is built once."""
    programs = 0
    for name, source in sorted(CORPUS.items()):
        program, ct, info = build(source)
        if program.main is None:
            continue
        programs += 1
        oracle = run_concrete(program, ct)
        records = oracle.records
        assert records is oracle.records, name
        logged = [event for event in oracle.log if len(event) == 2]
        assert [(nid, id(s.frame)) for nid, s in records] == [
            (nid, id(frame)) for nid, frame in logged
        ], name
        assert len({id(s) for _, s in records}) == len(records), name
        grouped = {}
        for nid, state in records:
            grouped.setdefault(nid, []).append(state)
        assert oracle.point_states is oracle.point_states, name
        assert grouped.keys() == oracle.point_states.keys(), name
        for nid, states in grouped.items():
            assert [id(s) for s in states] == [id(s) for s in oracle.point_states[nid]], name
    assert programs > 20


def test_the_log_is_exact():
    """Over every corpus program with a ``main``, the log names each
    allocation at the next fresh address with its class's fields at their
    initial values, and each field write with the value the field held
    before it; its edits, replayed, end at the run's final heap."""
    programs = 0
    for name, source in sorted(CORPUS.items()):
        program, ct, info = build(source)
        if program.main is None:
            continue
        programs += 1
        oracle = run_concrete(program, ct)
        heap = {}
        for event in oracle.log:
            if len(event) == 3:
                a, classname, fields = event
                assert a == len(heap) + 1, name
                initial = tuple((f, 0 if t == "int" else None) for f, t in ct.fields_of(classname))
                assert fields == initial, name
                heap[a] = Obj(classname, dict(fields))
            elif len(event) == 4:
                a, f, old, new = event
                assert heap[a].fields[f] == old, name
                heap[a].fields[f] = new
        assert heap == oracle.final.heap, name
        assert len(heap) == oracle.allocations, name
    assert programs > 20


def test_cycle_sets_of_nested_components():
    # 1 <-f/g-> 2 is one component; without g, 2 -f-> 2 alone is a cycle;
    # 3 -h-> 1 leads into it; 4 has its own h-cycle and leads to 3
    heap = {
        1: Obj("K", {"f": Loc(2), "g": None, "h": None}),
        2: Obj("K", {"f": Loc(2), "g": Loc(1), "h": None}),
        3: Obj("K", {"f": None, "g": None, "h": Loc(1)}),
        4: Obj("K", {"f": None, "g": Loc(3), "h": Loc(4)}),
    }
    sets = {frozenset({"f", "g"}), frozenset({"f"})}
    assert cycle_field_sets(heap, 1) == sets
    assert cycle_field_sets(heap, 3) == sets
    assert cycle_field_sets(heap, 4) == sets | {frozenset({"h"})}
    assert all(cycle_field_sets(heap, a) == brute_cycle_sets(heap, a) for a in heap)


# --------------------------------------------------------------------------
# abstraction


def test_alpha_two_step_path():
    u = FieldUniverse.of(["fld1", "fld2"])
    heap = {
        1: Obj("K", {"fld1": Loc(3), "fld2": None}),
        2: Obj("K", {"fld1": None, "fld2": None}),
        3: Obj("K", {"fld1": None, "fld2": Loc(2)}),
    }
    state = ConcreteState({"v": Loc(1), "w": Loc(2)}, heap)
    value = alpha_state(state, u, ["v", "w"])
    assert value.reach_at("v", "w") == pf(u, ["fld1", "fld2"])
    assert value.reach_at("w", "v").is_false
    assert value.cyc_at("v") == pf(u, [])


def test_alpha_all_null_is_bottom():
    u = FieldUniverse.of(["f"])
    state = ConcreteState({"v": None, "w": None}, {})
    value = alpha_state(state, u, ["v", "w"])
    assert all(value.reach_at(v, w).is_false for v, w in value.reach)
    assert all(value.cyc_at(v).is_false for v in value.cyc)


def test_alpha_is_in_normal_form():
    src = open("tests/data/dll.lang").read()
    oracle, program, ct, info = run(src)
    u = FieldUniverse.of(ct.reference_fields)
    value = alpha_state(oracle.final, u, ["tmp", "x"])
    assert value.is_normal()


def test_dll_final_cycles():
    src = open("tests/data/dll.lang").read()
    oracle, program, ct, info = run(src)
    u = FieldUniverse.of(ct.reference_fields)
    value = alpha_state(oracle.final, u, ["tmp", "x"])
    models = set(value.cyc_at("x").model_sets())
    assert () in models
    assert all(set(m) >= {"n", "p"} for m in models if m)
    assert ("n", "p") in models


def test_deep_share_pairs():
    heap = {
        1: Obj("K", {"f": Loc(3), "g": None}),
        2: Obj("K", {"f": Loc(3), "g": None}),
        3: Obj("K", {"f": None, "g": None}),
        4: Obj("K", {"f": None, "g": None}),
    }
    state = ConcreteState(
        {"x": Loc(1), "y": Loc(2), "m1": Loc(4), "m2": Loc(4)}, heap
    )
    pairs = deep_share_pairs(state, ["x", "y", "m1", "m2"])
    assert ("x", "y") in pairs
    assert ("m1", "m2") not in pairs  # aliases without depth do not deep-share


# --------------------------------------------------------------------------
# soundness harness behavior


def test_corrupted_abstract_value_is_flagged():
    src = open("tests/data/dll.lang").read()
    program, ct, info = build(src)
    result = analyze_program(program, ct, info)
    oracle = run_concrete(program, ct)
    clean = check_soundness(result, oracle)
    assert clean.ok
    # force one reaching pair to the contradiction: the checker must object
    nid, value = next(
        (nid, v)
        for nid, v in sorted(result.point_post.items())
        if not v.reach_at("x", "tmp").is_false
    )
    result.point_post[nid] = with_entries(value, reach={("x", "tmp"): 0})
    report = check_soundness(result, oracle)
    assert not report.ok
    assert any(v.kind == "reach" and v.subject == ("x", "tmp") for v in report.violations)


def test_corrupted_cycle_value_is_flagged():
    src = open("tests/data/dll.lang").read()
    program, ct, info = build(src)
    result = analyze_program(program, ct, info)
    oracle = run_concrete(program, ct)
    assert check_soundness(result, oracle).ok
    # at the first point where the run closes an {n,p} cycle reachable from x,
    # let the abstract value admit only the empty cycle: the checker must object
    u = result.universe
    cycle = u.mask_of(["n", "p"])
    nid = next(
        nid
        for nid, states in sorted(oracle.point_states.items())
        if any(alpha_state(s, u, ["x"]).cyc_at("x").has_model(cycle) for s in states)
    )
    value = result.point_post[nid]
    assert value.cyc_at("x").has_model(cycle)
    result.point_post[nid] = with_entries(value, cyc={"x": PathFormula.only(u, ()).table})
    report = check_soundness(result, oracle)
    assert not report.ok
    line = next(
        str(v)
        for v in report.violations
        if v.kind == "cyc" and v.nid == nid and v.subject == ("x",) and v.witness == ("n", "p")
    )
    assert line.startswith(f"point {nid}: concrete cyc x realizes {{n,p}} outside the abstract value")


def test_violation_lines_name_the_witness_in_universe_order():
    """A witness prints in query syntax, its fields in universe order (the
    stand-in last), so a line is the same under every hash seed."""
    assert str(Violation(7, "reach", ("x", "tmp"), ("next", "prev"), 2)) == (
        "point 7: concrete reach (x,tmp) realizes {next,prev} outside the abstract value (state #2)"
    )
    u = FieldUniverse.tracked(["left", "right"], ["right"])
    witness = u.names_of(u.mask_of(["right", "any"]))
    assert str(Violation(3, "cyc", ("h",), witness, 0)) == (
        "point 3: concrete cyc h realizes {right,any} outside the abstract value (state #0)"
    )
    assert str(Violation(5, "cyc", ("x",), (), 1)) == (
        "point 5: concrete cyc x realizes {} outside the abstract value (state #1)"
    )


def test_empty_program_vacuously_sound():
    program, ct, info = build("main { skip; }")
    result = analyze_program(program, ct, info)
    oracle = run_concrete(program, ct)
    report = check_soundness(result, oracle)
    assert report.ok


def test_realized_sets_are_viable():
    # whatever the interpreter realizes, the viability test must admit
    src = open("tests/data/dll.lang").read()
    oracle, program, ct, info = run(src)
    result = analyze_program(program, ct, info)
    for states in oracle.point_states.values():
        for state in states:
            for v in ("tmp", "x"):
                val = state.frame.get(v)
                if not isinstance(val, Loc):
                    continue
                for _, fs in traversal_saturate(state.heap, val.addr):
                    assert result.via.is_viable_mask(result.universe.mask_of(fs))


# --------------------------------------------------------------------------
# the check against its reference


def reference_check(result, oracle) -> SoundnessReport:
    """The check as a comparison of ``alpha_state`` with the abstract value
    at each recorded state, entry by entry: reach pairs in scope order, then
    cycles, the smallest realized mask outside an entry as the witness."""
    violations, missing, points, states = [], [], 0, 0
    for nid, state_list in sorted(oracle.point_states.items()):
        abstract = result.point_post.get(nid)
        if abstract is None:
            missing.append(nid)
            continue
        points += 1
        for idx, state in enumerate(state_list):
            states += 1
            shared = [v for v in abstract.cyc if v in state.frame]
            exact = alpha_state(state, result.universe, shared)
            for (v, w), t in exact.reach.items():
                outside = t & ~abstract.reach[(v, w)]
                if outside:
                    witness = result.universe.names_of(next(models_of(outside)))
                    violations.append(Violation(nid, "reach", (v, w), witness, idx))
            for v, t in exact.cyc.items():
                outside = t & ~abstract.cyc[v]
                if outside:
                    witness = result.universe.names_of(next(models_of(outside)))
                    violations.append(Violation(nid, "cyc", (v,), witness, idx))
    return SoundnessReport(violations, points, states, missing)


DLL_LOOP = """
class Node { Node nx; Node pv; }
main {
  int i;
  Node tmp;
  Node x;
  i := 0;
  tmp := new Node;
  x := tmp;
  while (i < TRIPS) {
    x := new Node;
    x.nx := tmp;
    tmp.pv := x;
    tmp := x;
    i := i + 1;
  }
}
"""

TREE_LOOP = """
class Tree {
  Tree left;
  Tree right;
  Tree parent;

  Tree join(Tree l, Tree r) {
    Tree t;  t := new Tree;
    t.left := l;
    t.right := r;
    if (l != null) then l.parent := t;
    if (r != null) then r.parent := t;
    return t;
  }
}
main {
  int i;
  Tree h;
  Tree x;
  Tree t;
  h := new Tree;
  x := new Tree;
  i := 0;
  while (i < TRIPS) {
    t := new Tree;
    x := h.join(x, t);
    i := i + 1;
  }
}
"""

# Seven fields, a ring closed through two of them, and a write that removes
# an edge on every trip, so some snapshots start afresh from the empty base.
WIDE7 = """
class N { N f0; N f1; N f2; N f3; N f4; L g; }
class L { L h; }
main {
  int i;
  N a; N b; N c; N d;
  L p; L q;
  a := new N; b := new N; c := new N;
  p := new L; q := new L;
  p.h := q;
  i := 0;
  while (i < 3) {
    d := new N;
    d.f1 := a;
    a.f2 := d;
    d.g := p;
    c := a.f0;
    b.f0 := d;
    if (c != null) then c.f3 := b;
    b.f4 := a;
    a := d;
    i := i + 1;
  }
}
"""

# Writes the replay must treat as no edit, or as half of one: a field
# written with its own value, int fields, allocations never linked.
QUIET_WRITES = """
class N { N f; N g; int k; }
main {
  int i;
  N a; N b; N c;
  a := new N; b := new N;
  a.f := b;
  a.f := b;
  b.g := a;
  b.g := a;
  a.k := 3;
  c := new N;
  c := new N;
  i := 0;
  while (i < 3) {
    b.k := i;
    c := a.f;
    c.f := c;
    c.f := c;
    c.f := null;
    c.f := null;
    a.k := b.k + a.k;
    i := i + 1;
  }
  a.f := null;
}
"""

# Three fields, so a tracked universe of one leaves two on the stand-in
# bit: both point at b from a, and cutting one must keep the edge.  Under
# all fields the analysis misses a path of this program (see
# ``test_a_write_closing_a_cycle_over_parallel_edges_is_sound``).
STAND_IN = """
class N { N f; N g; N h; }
main {
  N a; N b; N c;
  a := new N; b := new N; c := new N;
  a.f := b; a.g := b; a.h := b;
  b.f := a;
  a.f := null;
  a.g := c;
  c.h := a;
  a.h := null;
  a.g := null;
  a.f := b;
  b.f := null;
}
"""

# Writes inside callees, to the receiver, to an argument and to a fresh
# object, from several call sites.
CALLEE_WRITES = """
class N {
  N f; N g;
  N link(N o) {
    N t;
    t := new N;
    this.f := o;
    t.g := this;
    o.g := t;
    return t;
  }
  N cut() {
    this.f := null;
    return this;
  }
}
main {
  N a; N b; N c;
  a := new N; b := new N;
  c := a.link(b);
  c := c.link(a);
  b := a.cut();
  c := b.link(c);
}
"""

CHECK_CASES = {
    **{f"corpus/{name}": src for name, src in CORPUS.items()},
    "data/dll.lang": (DATA / "dll.lang").read_text(),
    "data/tree_main.lang": (DATA / "tree_main.lang").read_text(),
    **{f"dll@{n}": DLL_LOOP.replace("TRIPS", str(n)) for n in (1, 4, 9)},
    **{f"tree-loop@{n}": TREE_LOOP.replace("TRIPS", str(n)) for n in (1, 3, 5)},
    "wide7": WIDE7,
    "quiet-writes": QUIET_WRITES,
    "callee-writes": CALLEE_WRITES,
}


def thinned(result, rng):
    """``result`` with each entry of about half the point values thinned by
    a random mask, and sometimes one point value dropped."""
    size = 1 << result.universe.size
    post = {}
    for nid, value in result.point_post.items():
        if rng.random() < 0.5:
            value = RcValue.of(
                value.universe,
                value.scope.names,
                {k: t & rng.getrandbits(size) for k, t in value.reach.items()},
                {v: t & rng.getrandbits(size) for v, t in value.cyc.items()},
            )
        post[nid] = value
    if post and rng.random() < 0.3:
        del post[rng.choice(sorted(post))]
    return replaced(result, point_post=post)


def check_case(name, tracked: bool, seed: int = 0):
    """The analysis and the run of one case, its universe all fields or,
    with ``tracked``, a seeded subset that leaves a stand-in bit, and the
    same analysis with thinned point values."""
    program, ct, info = build({**CHECK_CASES, "stand-in": STAND_IN}[name].lstrip("\n"))
    rng = random.Random(f"{name}:{tracked}:{seed}")
    fields = sorted(ct.reference_fields)
    subset = rng.sample(fields, len(fields) // 2) if tracked else None
    result = analyze_program(program, ct, info, tracked=subset)
    assert result.universe.has_any == (tracked and bool(fields))
    return result, thinned(result, rng), run_concrete(program, ct)


@pytest.mark.parametrize("tracked", [False, True], ids=["all", "tracked"])
@pytest.mark.parametrize("name", sorted(CHECK_CASES))
def test_check_equals_its_reference(name, tracked):
    """The check compares realized tables directly; it must report exactly
    what the comparison of ``alpha_state`` with each abstract value reports,
    on the analysis's own values and on thinned ones that it violates."""
    result, thin, oracle = check_case(name, tracked)
    report = check_soundness(result, oracle)
    assert report == reference_check(result, oracle)
    assert report.ok
    assert check_soundness(thin, oracle) == reference_check(thin, oracle)


@pytest.mark.parametrize("tracked", [False, True], ids=["all", "tracked"])
def test_check_equals_its_reference_over_parallel_edges(tracked):
    """Two fields of one bit pointing from one object to another are one
    edge twice over: cutting one of them removes no edge.  The check must
    report what the reference reports, on the analysis's own values and on
    thinned ones."""
    result, thin, oracle = check_case("stand-in", tracked)
    assert check_soundness(result, oracle) == reference_check(result, oracle)
    assert check_soundness(thin, oracle) == reference_check(thin, oracle)


@pytest.mark.parametrize("tracked", [None, ["f", "g0"]], ids=["all", "tracked"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_write_closing_a_cycle_over_parallel_edges_is_sound(k, tracked):
    # after b.f := a, a walk from b to a may go round the new cycle once
    # through each of the parallel fields, realizing {f,g0,...}: the ways
    # back must be closed under union before they join the new edge
    program, ct, info = build(parallel_edges(k))
    result = analyze_program(program, ct, info, tracked=tracked)
    assert check_soundness(result, run_concrete(program, ct)).ok


def test_thinned_values_reach_every_part_of_the_report():
    """The thinned cases above violate in later states, with reach and cycle
    violations in one state, an empty cycle as a witness, and a stand-in
    field in a witness; so a check that read only a point's first state,
    put cycles first or forgot the empty cycle would differ from the
    reference."""
    reports = [
        reference_check(thin, oracle)
        for name in ("dll@4", "tree-loop@3", "wide7")
        for tracked in (False, True)
        for _, thin, oracle in [check_case(name, tracked)]
    ]
    violations = [v for r in reports for v in r.violations]
    assert any(v.state_index > 0 for v in violations)
    kinds = {}
    for v in violations:
        kinds.setdefault((v.nid, v.state_index), set()).add(v.kind)
    assert {"reach", "cyc"} in kinds.values()
    assert any(v.kind == "cyc" and v.witness == () for v in violations)
    assert any("any" in v.witness for v in violations)
    assert any(r.missing_points for r in reports)
