"""Bounded concrete interpreter and the ground-truth abstraction.

The interpreter executes main directly, records the concrete state after
every command (including inside callees, keyed by the shared node ids), and
aborts cleanly when the step budget or the call depth budget runs out.  It
dispatches on the exact type of each node, so a node class it does not
know, a subclass included, is a ``TypeError``.  The step budget also
bounds the cells the records copy, counted apart from the steps: the
entries of each new snapshot and the slots of each frame copy.  Recorded
states are copy-on-write.  Consecutive records with no allocation
or field write in between share one heap snapshot, and a new snapshot is a
shallow copy of the last one in which only the objects allocated or written
since are fresh copies.  A recorded object is never changed, so snapshots
share the objects that did not change (path copying, after Driscoll,
Sarnak, Sleator and Tarjan, "Making Data Structures Persistent", 1989).
The run keeps, per snapshot, the snapshot it was copied from and the
addresses that changed in between.  Frames are shared the same way: a
record copies its frame only when the frame was assigned since its last
copy.

The abstraction works on field bits, not on sets of field names.  A check
labels each object's references with the universe bit of their field (an
untracked field takes the stand-in bit).  Saturation keeps, per target, a
truth table with one bit per traversed mask, and pushes the masks new at a
location along its references as one table; finite on cyclic heaps because
masks are.  That table is the reach entry.  The saturation is
``formula.saturate``, which also decides viability over the class graph.
The check carries path copying over to its results: a snapshot's successor
lists are its parent's plus its changed objects relabelled, and its edge set
is a base plus added edges.  The base is the parent's edge set when the
write only added edges, and the empty edge set when the snapshot has no
history or its write removed an edge.  Its reach tables continue the base's
saturation from the tables at the added edges' sources, and its cycle masks
come from anchors on those edges, since every closed walk not in the base
has an added edge.  A location the base lacks has only added out-edges and
no base edge into it, so its reach table starts from its successors' base
tables, one step longer, and continues from the added edges' sources too.
A location's cycle table is the union of its successors' in the same edge
set, since a closed walk reachable from it is reachable from a successor.
A state thus abstracts to the exact
reachability/cyclicity value: the models of an entry are precisely the field
sets realized in the state.  ``alpha_state`` builds that value; it is kept
for callers and as the tests' reference for the check.  ``check_soundness``
builds no value per state: it compares the realized tables of the pairs of
non-null variables directly with the abstract entries, since a null variable
or a pair with no path realizes nothing.  ``traversal_saturate`` and
``cycle_field_sets`` decode the same results to field names, over a universe
of the heap's own fields; they are the oracle's only views in names, and the
tests hold the set-based definitions (walks, address reachability, deep
sharing) they are checked against.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Union

from .classtable import ClassTable
from .domain import RcValue
from .formula import FieldUniverse, models_of, saturate
from .record import FrozenRecord, Record
from .semantics import AnalysisResult
from .syntax import (
    Assign,
    BinOp,
    Command,
    Comparison,
    Expr,
    FieldRead,
    FieldWrite,
    If,
    IntLit,
    MethodCall,
    NewObject,
    NullLit,
    Program,
    Return,
    Skip,
    VarRef,
    While,
    INT_TYPE,
    OUT_VAR,
)

# calls nested deeper than this abort the run like an exhausted step budget
MAX_CALL_DEPTH = 100

# integer arithmetic wraps at 64 bits, two's complement
WRAP = 1 << 64
SIGN = 1 << 63


# the order comparisons of guards, by operator
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _wrap(n: int) -> int:
    n &= WRAP - 1
    return n - WRAP if n & SIGN else n


class Obj(Record):
    __slots__ = ("classname", "fields")
    _fields = __slots__

    def __init__(self, classname: str, fields: dict[str, "Val"]):
        self.classname = classname
        self.fields = fields


class Loc(FrozenRecord):
    __slots__ = ("addr",)
    _fields = __slots__

    def __init__(self, addr: int):
        self.addr = addr


Val = Union[int, Loc, None]


class ConcreteState(Record):
    """A frame and a heap.  A recorded state's frame and heap may be shared
    with other recorded states, and its objects are shared between
    snapshots, so none of them must be changed."""

    __slots__ = ("frame", "heap")
    _fields = __slots__

    def __init__(self, frame: dict[str, Val], heap: dict[int, Obj]):
        self.frame = frame
        self.heap = heap


class NullDereference(Exception):
    def __init__(self, line: int):
        super().__init__(f"null dereference at line {line}")
        self.line = line


class BudgetExceeded(Exception):
    pass


# a snapshot, the snapshot it was copied from, and the addresses allocated
# or written in between
Edit = tuple[dict[int, Obj], dict[int, Obj], frozenset[int]]


class OracleResult(Record):
    __slots__ = ("point_states", "final", "steps", "allocations", "history")
    _fields = __slots__

    def __init__(
        self,
        point_states: dict[int, list[ConcreteState]],
        final: ConcreteState,
        steps: int,
        allocations: int,
        history: Optional[dict[int, Edit]] = None,
    ):
        self.point_states = point_states
        self.final = final
        self.steps = steps
        self.allocations = allocations
        # the edit that made each recorded snapshot, keyed by the snapshot's id
        self.history = {} if history is None else history


class _Interp:
    def __init__(self, program: Program, ct: ClassTable, budget: int, record: bool):
        self.program = program
        self.ct = ct
        self.budget = budget
        self.record = record
        self.steps = 0
        self.cells = 0  # snapshot entries and frame slots recorded so far
        self.allocations = 0
        self.next_addr = 1
        self.heap: dict[int, Obj] = {}
        # the heap as of the last record, and the addresses allocated or
        # written since; its objects are copies that are never changed
        self.snapshot: dict[int, Obj] = {}
        self.dirty: set[int] = set()
        self.history: dict[int, Edit] = {}
        # per call in progress, main's first: the last recorded copy of its
        # frame, or None when the frame was assigned since
        self.frames: list[Optional[dict[str, Val]]] = [None]
        self.point_states: dict[int, list[ConcreteState]] = {}

    def run_main(self) -> OracleResult:
        if self.program.main is None:
            raise ValueError("program has no main block")
        frame: dict[str, Val] = {}
        env = {n: t for t, n in self.program.main.locals}
        for name, t in env.items():
            frame[name] = 0 if t == INT_TYPE else None
        self.exec_body(self.program.main.body, frame)
        return OracleResult(
            self.point_states,
            ConcreteState(frame, self.heap),
            self.steps,
            self.allocations,
            self.history,
        )

    # -- execution

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceeded(f"step budget {self.budget} exceeded")

    def exec_body(self, body: list[Command], frame: dict[str, Val]) -> None:
        for cmd in body:
            self.exec_cmd(cmd, frame)

    def exec_cmd(self, cmd: Command, frame: dict[str, Val]) -> None:
        """Executes one command, then records the state after it."""
        self._tick()
        kind = type(cmd)
        if kind is Assign or kind is Return:
            frame[cmd.var] = self.eval_expr(cmd.expr, frame)
            self.frames[-1] = None
        elif kind is FieldWrite:
            value = self.eval_expr(cmd.expr, frame)
            base = frame.get(cmd.var)
            if type(base) is not Loc:
                raise NullDereference(cmd.line)
            self.heap[base.addr].fields[cmd.fieldname] = value
            self.dirty.add(base.addr)
        elif kind is If:
            if self.eval_guard(cmd.guard, frame):
                self.exec_body(cmd.then_body, frame)
            else:
                self.exec_body(cmd.else_body, frame)
        elif kind is While:
            while self.eval_guard(cmd.guard, frame):
                self.exec_body(cmd.body, frame)
                self._tick()
        elif kind is not Skip:
            raise TypeError(f"unsupported command {cmd!r}")
        if not self.record:
            return
        copy = self.frames[-1]
        dirty = self.dirty
        # counted before copying: a run that never ends must not exhaust
        # memory before it exhausts the budget
        if copy is None:
            self.cells += len(frame)
        if dirty:
            self.cells += len(self.heap)
        if self.cells > self.budget:
            raise BudgetExceeded(f"recorded states exceed the budget of {self.budget} cells")
        if copy is None:
            copy = self.frames[-1] = dict(frame)
        if dirty:
            # share the unchanged objects, copy only the changed ones
            snapshot = dict(self.snapshot)
            heap = self.heap
            for a in dirty:
                o = heap[a]
                snapshot[a] = Obj(o.classname, dict(o.fields))
            self.history[id(snapshot)] = (snapshot, self.snapshot, frozenset(dirty))
            dirty.clear()
            self.snapshot = snapshot
        self.point_states.setdefault(cmd.nid, []).append(ConcreteState(copy, self.snapshot))

    def eval_guard(self, guard: Comparison, frame: dict[str, Val]) -> bool:
        left = self.eval_expr(guard.left, frame)
        right = self.eval_expr(guard.right, frame)
        op = guard.op
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        assert type(left) is int and type(right) is int
        return _ORDER[op](left, right)

    def eval_expr(self, e: Expr, frame: dict[str, Val]) -> Val:
        kind = type(e)
        if kind is VarRef:
            return frame[e.name]
        if kind is IntLit:
            return _wrap(e.value)
        if kind is FieldRead:
            base = frame.get(e.var)
            if type(base) is not Loc:
                raise NullDereference(e.line)
            return self.heap[base.addr].fields[e.fieldname]
        if kind is BinOp:
            left = self.eval_expr(e.left, frame)
            right = self.eval_expr(e.right, frame)
            assert type(left) is int and type(right) is int
            if e.op == "+":
                return _wrap(left + right)
            if e.op == "-":
                return _wrap(left - right)
            return _wrap(left * right)
        if kind is NewObject:
            return self.allocate(e.classname)
        if kind is NullLit:
            return None
        if kind is MethodCall:
            return self.call(e, frame)
        raise TypeError(f"unsupported expression {e!r}")

    def allocate(self, classname: str) -> Loc:
        addr = self.next_addr
        self.next_addr += 1
        self.allocations += 1
        fields = {
            fname: (0 if ftype == INT_TYPE else None)
            for fname, ftype in self.ct.fields_of(classname)
        }
        self.heap[addr] = Obj(classname, fields)
        self.dirty.add(addr)
        return Loc(addr)

    def call(self, e: MethodCall, frame: dict[str, Val]) -> Val:
        receiver = frame.get(e.receiver)
        if type(receiver) is not Loc:
            raise NullDereference(e.line)
        runtime_class = self.heap[receiver.addr].classname
        sig = self.ct.resolve_method(runtime_class, e.method)
        if sig is None:
            raise NullDereference(e.line)
        callee_frame: dict[str, Val] = {"this": receiver}
        for formal, actual in zip(sig.param_names, e.args):
            callee_frame[formal] = frame[actual]
        for ltype, lname in self.ct.method_locals(sig):
            callee_frame[lname] = 0 if ltype == INT_TYPE else None
        callee_frame[OUT_VAR] = None
        if len(self.frames) > MAX_CALL_DEPTH:
            raise BudgetExceeded(f"call depth budget {MAX_CALL_DEPTH} exceeded at line {e.line}")
        self.frames.append(None)
        self.exec_body(self.ct.method_body(sig), callee_frame)
        self.frames.pop()
        return callee_frame.get(OUT_VAR)


def run_concrete(
    program: Program, ct: ClassTable, budget: int = 100_000, record: bool = True
) -> OracleResult:
    try:
        return _Interp(program, ct, budget, record).run_main()
    except RecursionError:  # nested blocks inside calls can outgrow the stack
        raise BudgetExceeded("execution nests deeper than the interpreter's stack") from None


# --------------------------------------------------------------------------
# saturation and abstraction

Out = tuple[tuple[int, int], ...]  # (field bit, target address) per reference
Succ = dict[int, Out]  # address -> its labelled references
Edge = tuple[int, int, int]  # (source address, field bit, target address)


def _label(obj: Obj, universe: FieldUniverse, bits: dict[str, int]) -> Out:
    """The references of one object, each labelled with the abstract bit of
    its field.  ``bits`` caches the bit of each field name across the
    objects of one universe."""
    out = []
    for f, v in obj.fields.items():
        if isinstance(v, Loc):
            bit = bits.get(f)
            if bit is None:
                bit = bits[f] = universe.abstract_mask((f,))
            out.append((bit, v.addr))
    return tuple(out)


def _own_universe(heap: dict[int, Obj]) -> FieldUniverse:
    """A universe of the fields the heap's references carry, one bit per
    field, so masks decode back to field names."""
    return FieldUniverse.of(
        f for o in heap.values() for f, v in o.fields.items() if isinstance(v, Loc)
    )


def traversal_saturate(
    heap: dict[int, Obj], src: int, require_step: bool = False
) -> frozenset[tuple[int, frozenset[str]]]:
    """All (target, traversed-field-set) pairs achievable from ``src``.

    Without ``require_step`` the pair (src, {}) for the empty path is
    included.  Finite because targets and field subsets are."""
    universe = _own_universe(heap)
    bits: dict[str, int] = {}
    succ = {a: _label(o, universe, bits) for a, o in heap.items()}
    reached = saturate(succ, universe.halves, {} if require_step else {src: 1}, {src: 1})
    return frozenset(
        (target, frozenset(universe.names_of(m)))
        for target, table in reached.items()
        for m in models_of(table)
    )


def cycle_field_sets(heap: dict[int, Obj], src: int) -> frozenset[frozenset[str]]:
    """Traversal sets of the non-empty cycles reachable from ``src``."""
    universe = _own_universe(heap)
    table = _SnapshotMemo(universe).cycles(heap, src)
    return frozenset(frozenset(universe.names_of(m)) for m in models_of(table))


class _EdgeResults:
    """What a check learns of one labelled edge set: the reach tables from
    each source, the cycle table of each location and, once needed, the
    anchors.  ``succ`` holds the successor lists of the heap that first had
    the edge set; ``base`` is the edge set it adds ``added`` to, or None for
    the empty edge set."""

    __slots__ = ("succ", "base", "added", "reached", "cycles", "anchors")

    def __init__(
        self, succ: Succ, base: Optional["_EdgeResults"] = None, added: tuple[Edge, ...] = ()
    ) -> None:
        self.succ = succ
        self.base = base
        self.added = added
        self.reached: dict[int, dict[int, int]] = {}
        self.cycles: dict[int, int] = {}
        self.anchors: Optional[dict[int, int]] = None


class _SnapshotMemo:
    """Heap results for one universe, kept for one check.

    A heap's edge set is a base edge set plus added edges.  A heap with a
    history (``OracleResult.history``) is labelled from the snapshot it was
    copied from: its successor lists are its parent's, with the changed
    objects relabelled.  The edges of the changed objects sort the heap into
    three cases.

    * No change: it shares the parent's results.  An object allocated since
      has no reference yet, so only itself is reachable from it.
    * Additions only: the base is the parent's edge set.
    * An edge removed, or no history: the base is the empty edge set, and
      every edge of the heap is added.

    Reach tables continue the base's saturation by pushing its tables at the
    added edges' sources again.  A source the base lacks is seeded instead
    (``_seed``): every out-edge of it is added and no base edge enters it,
    so the walks from it that take no added edge after their first are its
    empty walk and one step to each successor followed by that successor's
    base table.  The seed holds only masks of walks, and it is closed under
    the base edges, since each base table is; a walk that takes a later
    added edge is found by pushing the seed's tables at the added edges'
    sources, the source itself included.  Where a successor's base table is
    not cached, the table is saturated from scratch.

    Cycle masks come from successors or from anchors.  A location's cycle
    table is the union of its successors' in the same edge set, when all of
    those are known: a closed walk through a location reached from it is
    reached from its first step's target, and a closed walk through the
    location itself is reached from the target of the walk's step out of
    it.  Conversely, whatever a successor reaches, the location reaches.
    Otherwise the anchors are scanned.  The anchor of an added edge
    (a, bit, b) is the heap's own reach table from b to a with ``bit`` added
    to every mask, one masked shift, and a location's cycle table is the
    union of the anchors at the locations it reaches, the base's anchors
    included.  This is exact.  Rotate any closed walk so that it starts at
    its latest-added edge: the rest walks from that edge's target back to
    its source over edges the heap has, so the walk's mask is in that edge's
    anchor, at a location on the walk.  A closed walk has an edge, and the
    empty edge set has none, so over the empty base every closed walk of the
    heap has an added edge and is counted; the empty base itself has no
    anchors.  Conversely, each anchor mask is the mask of a closed walk
    through the anchor's location.

    The labels may be abstract bits, where several fields share the
    stand-in bit.  Labelling changes neither which walks exist nor which are
    closed, and the mask of a walk is the union of its fields' bits, which
    is the abstraction of the field set it traverses.  So the results are
    exactly the abstractions of the concrete reach and cycle sets.  An
    edge set's tables are computed on demand, an ancestor's first, so a
    chain of edits is walked once, without recursion.  The heaps it has seen
    must not change while it is used; it holds them, so their identities
    are not reused."""

    def __init__(
        self, universe: FieldUniverse, history: Optional[dict[int, Edit]] = None
    ) -> None:
        self.universe = universe
        self.history = history or {}
        self.bits: dict[str, int] = {}
        self.heaps: dict[int, tuple[dict[int, Obj], Succ, _EdgeResults]] = {}
        self.empty = _EdgeResults({})
        self.empty.anchors = {}

    def edge_results(self, heap: dict[int, Obj]) -> _EdgeResults:
        entry = self.heaps.get(id(heap))
        if entry is None:
            chain = [heap]  # with the ancestors not labelled yet
            edit = self.history.get(id(heap))
            while edit is not None and id(edit[1]) not in self.heaps:
                chain.append(edit[1])
                edit = self.history.get(id(edit[1]))
            for h in reversed(chain):
                entry = self.heaps[id(h)] = (h, *self._successors(h))
        return entry[2]

    def _successors(self, heap: dict[int, Obj]) -> tuple[Succ, _EdgeResults]:
        edit = self.history.get(id(heap))
        if edit is None:
            succ = {a: _label(o, self.universe, self.bits) for a, o in heap.items()}
        else:
            _, before, results = self.heaps[id(edit[1])]
            succ = dict(before)
            added: list[Edge] = []
            removed = False
            for a in edit[2]:
                out = succ[a] = _label(heap[a], self.universe, self.bits)
                old = before.get(a, ())
                if out != old:
                    new_edges, old_edges = set(out), set(old)
                    removed = removed or not old_edges <= new_edges
                    added += [(a, bit, b) for bit, b in new_edges - old_edges]
            if not removed:
                return succ, _EdgeResults(succ, results, tuple(added)) if added else results
        # no history, or an edge removed: the empty edge set plus every edge
        every = tuple((a, bit, b) for a, out in succ.items() for bit, b in out)
        return succ, _EdgeResults(succ, self.empty, every)

    def _reach(self, results: _EdgeResults, src: int) -> dict[int, int]:
        if src not in results.succ:  # allocated since the edge set was first seen
            return {src: 1}
        chain = []  # the edge sets, newest first, that lack the table
        base = results
        while src not in base.reached:
            chain.append(base)
            if src not in base.base.succ:
                break
            base = base.base
        halves = self.universe.halves
        for r in reversed(chain):
            before = r.base.reached.get(src)
            table = dict(before) if before is not None else self._seed(r, src)
            if table is None:  # a successor's base table is not cached
                r.reached[src] = saturate(r.succ, halves, {src: 1}, {src: 1})
            else:
                # a walk new to this edge set takes an added edge, so only
                # the tables at the added edges' sources are pushed again
                pending = {a: table[a] for a, _, _ in r.added if a in table}
                r.reached[src] = saturate(r.succ, halves, table, pending)
        return results.reached[src]

    def _seed(self, r: _EdgeResults, src: int) -> Optional[dict[int, int]]:
        """The walks from a location the base edge set lacks that take no
        added edge after their first: its empty walk, and each step to a
        successor followed by that successor's base table.  None when a
        successor's base table is not cached."""
        base = r.base.reached
        halves = self.universe.halves
        seed = {src: 1}
        for bit, b in r.succ[src]:
            after = base.get(b)
            if after is None:
                return None
            without, with_ = halves[bit]
            for a, t in after.items():
                seed[a] = seed.get(a, 0) | ((t & without) << bit) | (t & with_)
        return seed

    def _anchors(self, results: _EdgeResults) -> dict[int, int]:
        chain = []  # the edge sets, newest first, that lack their anchors
        base = results
        while base.anchors is None:
            chain.append(base)
            base = base.base
        for r in reversed(chain):
            anchors = r.base.anchors
            for a, bit, b in r.added:
                t = self._reach(r, b).get(a, 0)
                without, with_ = self.universe.halves[bit]
                table = ((t & without) << bit) | (t & with_)
                if table:
                    if anchors is r.base.anchors:  # copied on the first new anchor
                        anchors = dict(anchors)
                    anchors[a] = anchors.get(a, 0) | table
            r.anchors = anchors
        return results.anchors

    def cycles(self, heap: dict[int, Obj], src: int) -> int:
        """Truth table of the masks of the non-empty closed walks reachable
        from ``src``."""
        return self._cycles(self.edge_results(heap), src)

    def _cycles(self, results: _EdgeResults, src: int) -> int:
        cycles = results.cycles
        table = cycles.get(src)
        if table is None:
            table = 0
            for _, b in results.succ.get(src, ()):
                t = cycles.get(b)
                if t is None:  # a successor's table is not known: scan the anchors
                    reached = self._reach(results, src)
                    table = 0
                    for a, t in self._anchors(results).items():
                        if a in reached:
                            table |= t
                    break
                table |= t
            cycles[src] = table
        return table


def alpha_state(
    state: ConcreteState,
    universe: FieldUniverse,
    variables: Iterable[str],
    memo: Optional[_SnapshotMemo] = None,
) -> RcValue:
    """The exact abstraction of one state over the given reference variables:
    entry models are precisely the realized traversal sets.  ``memo``, made
    for the same universe, carries heap results over from earlier states."""
    memo = memo or _SnapshotMemo(universe)
    variables = tuple(variables)
    locs = {v: state.frame[v].addr for v in variables if isinstance(state.frame.get(v), Loc)}
    if not locs:
        return RcValue.bottom(universe, variables)
    results = memo.edge_results(state.heap)
    reach = {addr: memo._reach(results, addr) for addr in set(locs.values())}
    entries: dict[tuple[str, str], int] = {}
    for v, av in locs.items():
        for w, aw in locs.items():
            table = reach[av].get(aw)
            if table:
                entries[v, w] = table
    # a non-null variable has its empty cycle
    cycles = {v: 1 | memo._cycles(results, av) for v, av in locs.items()}
    return RcValue.of(universe, variables, entries, cycles)


# --------------------------------------------------------------------------
# soundness comparison


class Violation(Record):
    __slots__ = ("nid", "kind", "subject", "witness", "state_index")
    _fields = __slots__

    def __init__(
        self, nid: int, kind: str, subject: tuple, witness: tuple[str, ...], state_index: int
    ):
        self.nid = nid
        self.kind = kind  # 'reach' | 'cyc'
        self.subject = subject
        self.witness = witness
        self.state_index = state_index

    def __str__(self) -> str:
        # the witness's fields in universe order, in query syntax
        what = f"({','.join(self.subject)})" if self.kind == "reach" else self.subject[0]
        return (
            f"point {self.nid}: concrete {self.kind} {what} realizes "
            f"{{{','.join(self.witness)}}} outside the abstract value "
            f"(state #{self.state_index})"
        )


class SoundnessReport(Record):
    __slots__ = ("violations", "points_checked", "states_checked", "missing_points")
    _fields = __slots__

    def __init__(
        self,
        violations: list[Violation],
        points_checked: int,
        states_checked: int,
        missing_points: list[int],
    ):
        self.violations = violations
        self.points_checked = points_checked
        self.states_checked = states_checked
        self.missing_points = missing_points

    @property
    def ok(self) -> bool:
        return not self.violations and not self.missing_points


def check_soundness(result: AnalysisResult, oracle: OracleResult) -> SoundnessReport:
    """Every realized traversal set at every recorded point must be a model
    of the corresponding abstract entry.  A concretely reached point the
    analysis never produced a value for counts against the check.

    Per state, the realized tables of the variables of the point's scope
    that hold a location are compared directly with the abstract entries,
    each distinct address's reach table taken once: reach pairs first, in
    scope order, then cycles, a non-null variable having its empty cycle.
    A null variable and a pair with no path realize nothing, so this finds
    exactly what comparing ``alpha_state`` over the scope would find, without
    building its value.  The witness of a violation is the smallest realized
    mask outside the abstract entry."""
    memo = _SnapshotMemo(result.universe, oracle.history)
    heaps = memo.heaps
    names_of = result.universe.names_of
    violations: list[Violation] = []
    missing: list[int] = []
    points = 0
    states = 0
    for nid, state_list in sorted(oracle.point_states.items()):
        abstract = result.point_post.get(nid)
        if abstract is None:
            missing.append(nid)
            continue
        points += 1
        states += len(state_list)
        entries, n, nn = abstract.tables, abstract.scope.n, abstract.scope.nn
        scope = list(enumerate(abstract.scope.names))
        for idx, state in enumerate(state_list):
            frame = state.frame
            # (name, position, address) of each variable holding a location
            locs = [(v, i, val.addr) for i, v in scope if isinstance(val := frame.get(v), Loc)]
            if not locs:
                continue
            # the memo's caches read directly; the memo is called on a miss
            entry = heaps.get(id(state.heap))
            results = memo.edge_results(state.heap) if entry is None else entry[2]
            reached, cycles = results.reached, results.cycles
            reach: dict[int, dict[int, int]] = {}
            for _, _, a in locs:
                if a not in reach:
                    reach[a] = reached.get(a) or memo._reach(results, a)
            for v, i, av in locs:
                row = reach[av]
                for w, j, aw in locs:
                    table = row.get(aw)
                    if table:
                        outside = table & ~entries[i * n + j]
                        if outside:
                            witness = names_of(next(models_of(outside)))
                            violations.append(Violation(nid, "reach", (v, w), witness, idx))
            for v, i, av in locs:
                table = cycles.get(av)
                if table is None:
                    table = memo._cycles(results, av)
                outside = (1 | table) & ~entries[nn + i]
                if outside:
                    witness = names_of(next(models_of(outside)))
                    violations.append(Violation(nid, "cyc", (v,), witness, idx))
    return SoundnessReport(violations, points, states, missing)
