"""Bounded concrete interpreter and the ground-truth abstraction.

The interpreter executes main directly and aborts cleanly when the step
budget or the call depth budget runs out.  It dispatches on the exact type
of each node, so a node class it does not know, a subclass included, is a
``TypeError``.  Recording, it keeps one flat log of the run, in run order:
each allocation (address, class, initial fields), each field write
(address, field, old value, new value), and after every command, inside
callees too, a record (the command's node id, a copy of the frame).  A
record copies its frame only when the frame was assigned since its last
copy, so consecutive records share it.  The step budget also bounds the
recorded cells, counted apart from the steps: the log's entries and the
copied frame slots, linear in the steps.  The recorded states themselves
(``OracleResult.records`` and ``point_states``) are rebuilt from the log
only when asked for, with path copying: a new heap snapshot shares the
objects that did not change since the last one (Driscoll, Sarnak, Sleator
and Tarjan, "Making Data Structures Persistent", 1989).

The abstraction works on field bits, not on sets of field names.  A check
labels each object's references with the universe bit of their field (an
untracked field takes the stand-in bit); labelling changes neither which
walks exist nor which are closed, and a walk's mask is the abstraction of
the field set it traverses.  Saturation (``formula.saturate``, which also
decides viability over the class graph) keeps, per target, a truth table
with one bit per traversed mask, and pushes the masks new at a location
along its references as one table; finite on cyclic heaps because masks
are.  That table is the reach entry.  Cycle masks come from anchors: an
edge (a, bit, b) anchors at a the masks of the walks from b back to a with
``bit`` added, taken when the edge is inserted, and a location's cycle
masks are the anchors at the locations it reaches.  Rotating a closed walk
to its latest-inserted edge shows this is exact: the rest of the walk goes
from that edge's target back to its source over edges inserted before.

``check_soundness`` replays the log forward over one labelled heap
(``_HeapTables``), starting from the empty heap, and checks each record as
it comes.  An allocation adds a location whose table holds only itself; a
write of a reference cuts at most one edge and inserts at most one,
labelled by the bit of its field.  Each rule that keeps this cheap is
exact.  An inserted edge pushes, in place, each kept reach table that
holds its source, since a new walk takes an added edge.  A cut edge drops
the kept tables that reach its source, since only their walks can take it,
and anchors afresh when the heap had a closed walk (a removal makes none).
Tables are kept only for the addresses the last checked state held; the
others are dropped at the next edit and saturated afresh when asked for.
A location with no closed walk through it that gains an edge to a location
whose kept table does not reach it takes that table, one step longer, and
its cycle table: every new walk takes the edge once and never returns.
Anchoring afresh, after a removal or when a whole heap is loaded, anchors
only the edges inside one strongly connected component (one pass of
Tarjan's algorithm), since a closed walk never leaves it.

So a state abstracts to the exact reachability/cyclicity value.
``alpha_state`` builds it over one heap, for callers and as the tests'
reference for the check, which compares the realized tables of the pairs
of non-null variables directly with the abstract entries instead.
``traversal_saturate`` and ``cycle_field_sets`` decode the same results to
field names, over a universe of the heap's own fields; they are the
oracle's only views in names, and the tests hold the set-based definitions
(walks, address reachability, deep sharing) they are checked against.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Container, Iterable, Optional, Union

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


class Loc(FrozenRecord):
    __slots__ = ("addr",)


Val = Union[int, Loc, None]


class ConcreteState(Record):
    """A frame and a heap.  A recorded state's frame and heap may be shared
    with other recorded states, and its objects are shared between
    snapshots, so none of them must be changed."""

    __slots__ = ("frame", "heap")


class NullDereference(Exception):
    def __init__(self, line: int):
        super().__init__(f"null dereference at line {line}")
        self.line = line


class BudgetExceeded(Exception):
    """The run was cut short.  ``budget`` is the step and cell budget it was
    given when that ran out, and None when calls or blocks nested too deep."""

    def __init__(self, message: str, budget: Optional[int] = None):
        super().__init__(message)
        self.budget = budget


# one entry of a run's log: an allocation (address, class, its fields with
# their initial values), a field write (address, field, old value, new
# value) or a record (point, frame)
Event = tuple


class OracleResult(Record):
    """A run: its log, its final state and its counts.  ``records`` (every
    recorded state with its point, in run order) and ``point_states`` (the
    same states by point) are rebuilt from the log on first access."""

    __slots__ = ("log", "final", "steps", "allocations", "records", "point_states")
    _fields = ("log", "final", "steps", "allocations")

    def __getattr__(self, name: str):  # called only for an attribute not set yet
        if name not in ("records", "point_states"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.records, self.point_states = _recorded_states(self.log)
        return getattr(self, name)


def _recorded_states(
    log: list[Event],
) -> tuple[list[tuple[int, ConcreteState]], dict[int, list[ConcreteState]]]:
    """The recorded states of a log, in run order and by point.  Records with
    no allocation or field write in between share one heap snapshot, and a
    new snapshot is a shallow copy of the last one in which only the objects
    allocated or written since are fresh copies (path copying)."""
    heap: dict[int, Obj] = {}
    snapshot: dict[int, Obj] = {}
    changed: set[int] = set()  # allocated or written since the last snapshot
    records, by_point = [], {}
    for event in log:
        if len(event) == 2:
            if changed:
                snapshot = dict(snapshot)
                for a in changed:
                    o = heap[a]
                    snapshot[a] = Obj(o.classname, dict(o.fields))
                changed.clear()
            nid, frame = event
            state = ConcreteState(frame, snapshot)
            records.append((nid, state))
            by_point.setdefault(nid, []).append(state)
        elif len(event) == 3:
            a, classname, fields = event
            heap[a] = Obj(classname, dict(fields))
            changed.add(a)
        else:
            a, f, _, new = event
            heap[a].fields[f] = new
            changed.add(a)
    return records, by_point


class _Interp:
    def __init__(self, program: Program, ct: ClassTable, budget: int, record: bool):
        self.program = program
        self.ct = ct
        self.budget = budget
        self.record = record
        self.steps = 0
        self.slots = 0  # frame slots copied so far
        self.cells = 0  # frame slots copied and log entries, as of the last record
        self.allocations = 0
        self.next_addr = 1
        self.heap: dict[int, Obj] = {}
        self.log: list[Event] = []
        # per class, its fields with their initial values
        self.initial: dict[str, tuple[tuple[str, Val], ...]] = {}
        # per call in progress, main's first: the last recorded copy of its
        # frame, or None when the frame was assigned since
        self.frames: list[Optional[dict[str, Val]]] = [None]

    def run_main(self) -> OracleResult:
        if self.program.main is None:
            raise ValueError("program has no main block")
        frame: dict[str, Val] = {}
        env = {n: t for t, n in self.program.main.locals}
        for name, t in env.items():
            frame[name] = 0 if t == INT_TYPE else None
        self.exec_body(self.program.main.body, frame)
        return OracleResult(self.log, ConcreteState(frame, self.heap), self.steps, self.allocations)

    # -- execution

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceeded(f"step budget {self.budget} exceeded", self.budget)

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
            fields = self.heap[base.addr].fields
            if self.record:
                self.log.append((base.addr, cmd.fieldname, fields[cmd.fieldname], value))
            fields[cmd.fieldname] = value
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
        if copy is None:
            self.slots += len(frame)
        # the record about to be logged included, and counted before the
        # copy: a run that never ends must not exhaust memory before it
        # exhausts the budget
        self.cells = self.slots + len(self.log) + 1
        if self.cells > self.budget:
            raise BudgetExceeded(
                f"recorded states exceed the budget of {self.budget} cells", self.budget
            )
        if copy is None:
            copy = self.frames[-1] = dict(frame)
        self.log.append((cmd.nid, copy))

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
        initial = self.initial.get(classname)
        if initial is None:
            initial = self.initial[classname] = tuple(
                (fname, 0 if ftype == INT_TYPE else None)
                for fname, ftype in self.ct.fields_of(classname)
            )
        self.heap[addr] = Obj(classname, dict(initial))
        if self.record:
            self.log.append((addr, classname, initial))
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
    tables = _HeapTables(universe, heap)
    reached = saturate(tables.succ, universe.halves, {} if require_step else {src: 1}, {src: 1})
    return frozenset(
        (target, frozenset(universe.names_of(m)))
        for target, table in reached.items()
        for m in models_of(table)
    )


def cycle_field_sets(heap: dict[int, Obj], src: int) -> frozenset[frozenset[str]]:
    """Traversal sets of the non-empty cycles reachable from ``src``."""
    universe = _own_universe(heap)
    tables = _HeapTables(universe, heap)
    tables.reach(src)
    return frozenset(frozenset(universe.names_of(m)) for m in models_of(tables.cycles[src]))


def _components(succ: Succ) -> dict[int, int]:
    """Per address, a representative of its strongly connected component:
    one pass of Tarjan's algorithm, iterative, so a long chain does not
    outgrow the stack."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    stack: list[int] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, steps = work[-1]
            for _, w in steps:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in comp and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                # v roots a component: pop it off the stack, v last
                while low[v] == index[v] and v not in comp:
                    comp[stack.pop()] = v
    return comp


class _HeapTables:
    """The reach and cycle tables of one labelled heap, kept in step with
    its edits by the rules of the module docstring.  ``succ`` holds each
    address's labelled references, one per field that holds a location;
    ``reached`` and ``cycles`` the reach table (per target, the masks of the
    walks to it, the empty walk included) and the cycle table of each kept
    address; ``anchors`` the union of the anchors at each address.  The
    tables start from a whole heap, loaded, or from the empty one, and
    ``apply`` follows one allocation or field write of a run's log; the
    first edit after the caller sets ``live`` drops the tables of the
    addresses not in it."""

    def __init__(self, universe: FieldUniverse, heap: Optional[dict[int, Obj]] = None):
        self.universe = universe
        self.halves = universe.halves
        self.bits: dict[str, int] = {}
        self.succ: Succ = {
            a: tuple((self._bit(f), v.addr) for f, v in o.fields.items() if type(v) is Loc)
            for a, o in (heap or {}).items()
        }
        self.reached: dict[int, dict[int, int]] = {}
        self.cycles: dict[int, int] = {}
        self.live: Optional[Container[int]] = None
        self._anchor()

    def _bit(self, f: str) -> int:
        """The universe bit of field ``f``, cached."""
        bit = self.bits.get(f)
        if bit is None:
            bit = self.bits[f] = self.universe.abstract_mask((f,))
        return bit

    def apply(self, event: Event) -> None:
        """Brings the tables to the heap after ``event``, an allocation or a
        field write.  A write of a reference cuts at most one edge and
        inserts at most one; another field of the same bit may hold the
        same edge, so ``succ`` keeps one edge per field."""
        reached, live = self.reached, self.live
        if live is not None:
            for a in [a for a in reached if a not in live]:
                del reached[a], self.cycles[a]
            self.live = None
        if len(event) == 3:  # allocated: no reference, and none into it
            a = event[0]
            self.succ[a] = ()
            reached[a], self.cycles[a] = {a: 1}, 0
            return
        a, f, old, new = event
        was, now = type(old) is Loc, type(new) is Loc
        if not (was or now) or (was and now and old.addr == new.addr):
            return  # no edge changes
        bit = self._bit(f)
        out = self.succ[a]
        if was:
            edge = (bit, old.addr)
            i = out.index(edge)
            out = self.succ[a] = out[:i] + out[i + 1 :]
            if edge not in out:
                self._cut(a)
        if now:
            edge = (bit, new.addr)
            self.succ[a] = out + (edge,)
            if edge not in out:
                self._insert(a, bit, new.addr)

    def _insert(self, a: int, bit: int, b: int) -> None:
        """Brings the kept tables and the anchors to the heap with the edge
        (a, bit, b) just added to ``succ``."""
        without, with_ = self.halves[bit]
        reached, cycles, anchors = self.reached, self.cycles, self.anchors
        to = reached.get(b)
        for s, table in reached.items():
            t = table.get(a)
            if t is None:
                continue
            if s == a and t == 1 and to is not None and a not in to:
                for c, u in to.items():
                    table[c] = table.get(c, 0) | ((u & without) << bit) | (u & with_)
                cycles[s] |= cycles[b]
                continue
            old = table.get(b, 0)
            new = (((t & without) << bit) | (t & with_)) & ~old
            if new:
                size = len(table)
                table[b] = old | new
                saturate(self.succ, self.halves, table, {b: new})
                # saturation appends the addresses it reaches first
                for c in islice(table, size, None):
                    cycles[s] |= anchors.get(c, 0)
        if to is None:
            to = saturate(self.succ, self.halves, {b: 1}, {b: 1})
        back = to.get(a, 0)
        anchor = ((back & without) << bit) | (back & with_)
        if anchor:
            anchors[a] = anchors.get(a, 0) | anchor
            for s, table in reached.items():
                if a in table:
                    cycles[s] |= anchor

    def _cut(self, a: int) -> None:
        """Brings the kept tables and the anchors to the heap with an edge
        out of ``a`` just removed from ``succ``."""
        reached = self.reached
        for s in [s for s, table in reached.items() if a in table]:
            del reached[s], self.cycles[s]
        if self.anchors:
            self._anchor()

    def _anchor(self) -> None:
        """Anchors the edges of the current heap afresh, as if all were
        inserted at once: one saturation per target of an edge inside a
        component, over the component's own edges, which every walk back to
        the edge's source takes."""
        succ, halves = self.succ, self.halves
        comp = _components(succ)
        inner: dict[int, list[tuple[int, int]]] = {}
        into: dict[int, list[tuple[int, int]]] = {}
        for a, out in succ.items():
            for bit, b in out:
                if comp[b] == comp[a]:
                    inner.setdefault(a, []).append((bit, b))
                    into.setdefault(b, []).append((a, bit))
        self.anchors = anchors = {}
        for b, edges in into.items():
            back = saturate(inner, halves, {b: 1}, {b: 1})
            for a, bit in edges:
                without, with_ = halves[bit]
                t = back.get(a, 0)
                anchors[a] = anchors.get(a, 0) | ((t & without) << bit) | (t & with_)

    def reach(self, src: int) -> dict[int, int]:
        """The reach table of ``src``, kept, with its cycle table in ``cycles``."""
        table = self.reached.get(src)
        if table is None:
            table = self.reached[src] = saturate(self.succ, self.halves, {src: 1}, {src: 1})
            anchors = self.anchors
            t = 0
            for a in table:
                t |= anchors.get(a, 0)
            self.cycles[src] = t
        return table


def alpha_state(state: ConcreteState, universe: FieldUniverse, variables: Iterable[str]) -> RcValue:
    """The exact abstraction of one state over the given reference variables:
    entry models are precisely the realized traversal sets."""
    variables = tuple(variables)
    locs = {v: state.frame[v].addr for v in variables if isinstance(state.frame.get(v), Loc)}
    if not locs:
        return RcValue.bottom(universe, variables)
    tables = _HeapTables(universe, state.heap)
    reach = {addr: tables.reach(addr) for addr in set(locs.values())}
    entries: dict[tuple[str, str], int] = {}
    for v, av in locs.items():
        for w, aw in locs.items():
            table = reach[av].get(aw)
            if table:
                entries[v, w] = table
    # a non-null variable has its empty cycle
    cycles = {v: 1 | tables.cycles[av] for v, av in locs.items()}
    return RcValue.of(universe, variables, entries, cycles)


# --------------------------------------------------------------------------
# soundness comparison


class Violation(Record):
    __slots__ = ("nid", "kind", "subject", "witness", "state_index")  # kind: 'reach' | 'cyc'

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

    @property
    def ok(self) -> bool:
        return not self.violations and not self.missing_points


def check_soundness(result: AnalysisResult, oracle: OracleResult) -> SoundnessReport:
    """Every realized traversal set at every recorded point must be a model
    of the corresponding abstract entry.  A concretely reached point the
    analysis never produced a value for counts against the check.

    The run's log is replayed in order over one ``_HeapTables``, and each
    record is checked as it comes, with ``live`` set to the addresses it
    held.  Per state, the realized
    tables of the variables of the point's scope that hold a location are
    compared directly with the abstract entries, each distinct address's
    reach table taken once: reach pairs first, in scope order, then cycles, a non-null
    variable having its empty cycle.  A null variable and a pair with no
    path realize nothing, so this finds exactly what comparing
    ``alpha_state`` over the scope would find, without building its value.
    The witness of a violation is the smallest realized mask outside the
    abstract entry.  The violations are listed by point, then state, then
    comparison."""
    tables = _HeapTables(result.universe)
    apply = tables.apply
    names_of = result.universe.names_of
    violations: list[Violation] = []
    missing: set[int] = set()
    seen: dict[int, int] = {}  # per point, the states checked so far
    points = {
        nid: (value.tables, value.scope.n, value.scope.nn, list(enumerate(value.scope.names)))
        for nid, value in result.point_post.items()
    }
    for event in oracle.log:
        if len(event) != 2:
            apply(event)
            continue
        nid, frame = event
        point = points.get(nid)
        if point is None:
            missing.add(nid)
            continue
        entries, n, nn, scope = point
        idx = seen.get(nid, 0)
        seen[nid] = idx + 1
        # (name, position, address) of each variable holding a location
        locs = [(v, i, val.addr) for i, v in scope if isinstance(val := frame.get(v), Loc)]
        if not locs:
            continue
        reached, cycles = tables.reached, tables.cycles
        reach: dict[int, dict[int, int]] = {}
        for _, _, a in locs:
            if a not in reach:
                reach[a] = reached.get(a) or tables.reach(a)
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
            outside = (1 | cycles[av]) & ~entries[nn + i]
            if outside:
                witness = names_of(next(models_of(outside)))
                violations.append(Violation(nid, "cyc", (v,), witness, idx))
        tables.live = reach
    # the states of a point are visited in order, so sorting by point alone
    # (a stable sort) puts the violations in point, state, comparison order
    violations.sort(key=operator.attrgetter("nid"))
    return SoundnessReport(violations, len(seen), sum(seen.values()), sorted(missing))
