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
copy.  The run also lists every recorded state with its point, in run
order.

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

``check_soundness`` replays the run: it visits the recorded states in run
order and carries one labelled heap (``_HeapTables``) through the
snapshots' edits, relabelling only the changed objects.  Each rule that
keeps this cheap is exact.  Added edges push, in place, each kept reach
table that holds their source, since a new walk takes an added edge.  A
removed edge drops the kept tables that reach its source, since only their
walks can take it, and anchors afresh when the heap had a closed walk (a
removal makes none).  Tables are kept only for the addresses the last
checked state held; the others are dropped at the next edit and saturated
afresh when asked for.  A location with no closed walk through it that
gains an edge to a location whose kept table does not reach it takes that
table, one step longer, and its cycle table: every new walk takes the edge
once and never returns.  Anchoring afresh, for the first heap or after a
removal, anchors only the edges inside one strongly connected component
(one pass of Tarjan's algorithm), since a closed walk never leaves it.

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
    __slots__ = ("point_states", "records", "final", "steps", "allocations", "history")
    _fields = __slots__

    def __init__(
        self,
        point_states: dict[int, list[ConcreteState]],
        records: list[tuple[int, ConcreteState]],
        final: ConcreteState,
        steps: int,
        allocations: int,
        history: Optional[dict[int, Edit]] = None,
    ):
        self.point_states = point_states
        # every recorded state with its point, in the order the run made them
        self.records = records
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
        self.records: list[tuple[int, ConcreteState]] = []

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
            self.records,
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
        state = ConcreteState(copy, self.snapshot)
        self.point_states.setdefault(cmd.nid, []).append(state)
        self.records.append((cmd.nid, state))

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
    tables = _HeapTables(universe)
    tables.load(heap)
    reached = saturate(tables.succ, universe.halves, {} if require_step else {src: 1}, {src: 1})
    return frozenset(
        (target, frozenset(universe.names_of(m)))
        for target, table in reached.items()
        for m in models_of(table)
    )


def cycle_field_sets(heap: dict[int, Obj], src: int) -> frozenset[frozenset[str]]:
    """Traversal sets of the non-empty cycles reachable from ``src``."""
    universe = _own_universe(heap)
    tables = _HeapTables(universe)
    tables.load(heap)
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
    address's labelled references; ``reached`` and ``cycles`` the reach
    table (per target, the masks of the walks to it, the empty walk
    included) and the cycle table of each kept address; ``anchors`` the
    union of the anchors at each address.  ``move_to`` follows a heap's
    history (``OracleResult.history``) from the current heap, or else loads
    it; the caller sets ``live``.  The heaps must not change while they are
    used; the history holds them, so their identities are not reused."""

    def __init__(self, universe: FieldUniverse, history: Optional[dict[int, Edit]] = None):
        self.universe = universe
        self.halves = universe.halves
        self.history = history or {}
        self.bits: dict[str, int] = {}
        self.heap: Optional[dict[int, Obj]] = None
        self.succ: Succ = {}
        self.reached: dict[int, dict[int, int]] = {}
        self.cycles: dict[int, int] = {}
        self.anchors: dict[int, int] = {}
        self.live: Container[int] = ()

    def load(self, heap: dict[int, Obj]) -> None:
        self.heap = heap
        self.succ = {a: _label(o, self.universe, self.bits) for a, o in heap.items()}
        self.reached, self.cycles = {}, {}
        self._anchor()

    def move_to(self, heap: dict[int, Obj]) -> None:
        if heap is self.heap:
            return
        chain, h = [], heap
        while h is not self.heap:
            edit = self.history.get(id(h))
            if edit is None:
                self.load(heap)
                return
            chain.append(edit)
            h = edit[1]
        live, reached = self.live, self.reached
        for a in [a for a in reached if a not in live]:
            del reached[a], self.cycles[a]
        for edit in reversed(chain):
            self._apply(edit)

    def _apply(self, edit: Edit) -> None:
        heap, _, changed = edit
        self.heap = heap
        succ = self.succ
        added = []
        cut = []  # the addresses that lost an edge
        for a in changed:
            out = _label(heap[a], self.universe, self.bits)
            old = succ.get(a)
            if old is None:  # allocated since: no reference, and none into it
                succ[a] = old = ()
                self.reached[a], self.cycles[a] = {a: 1}, 0
            if out != old:
                now = set(out)
                kept = tuple(edge for edge in old if edge in now)
                if len(kept) < len(old):
                    succ[a] = kept
                    cut.append(a)
                added += [(a, edge) for edge in now.difference(old)]
        if cut:
            self._cut(cut)
        for a, edge in added:
            succ[a] += (edge,)
            self._insert(a, *edge)

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

    def _cut(self, cut: list[int]) -> None:
        """Brings the kept tables and the anchors to the heap with edges out
        of ``cut`` just removed from ``succ``."""
        reached = self.reached
        for s in [s for s, table in reached.items() if any(a in table for a in cut)]:
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
    tables = _HeapTables(universe)
    tables.load(state.heap)
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

    The states are visited in run order (``OracleResult.records``), with
    ``live`` set to the addresses each one held.  Per state, the realized
    tables of the variables of the point's scope that hold a location are
    compared directly with the abstract entries, each distinct address's
    reach table taken once: reach pairs first, in scope order, then cycles, a non-null
    variable having its empty cycle.  A null variable and a pair with no
    path realize nothing, so this finds exactly what comparing
    ``alpha_state`` over the scope would find, without building its value.
    The witness of a violation is the smallest realized mask outside the
    abstract entry.  The violations are listed by point, then state, then
    comparison."""
    tables = _HeapTables(result.universe, oracle.history)
    names_of = result.universe.names_of
    violations: list[Violation] = []
    missing: set[int] = set()
    seen: dict[int, int] = {}  # per point, the states checked so far
    points = {
        nid: (value.tables, value.scope.n, value.scope.nn, list(enumerate(value.scope.names)))
        for nid, value in result.point_post.items()
    }
    for nid, state in oracle.records:
        point = points.get(nid)
        if point is None:
            missing.add(nid)
            continue
        entries, n, nn, scope = point
        idx = seen.get(nid, 0)
        seen[nid] = idx + 1
        frame = state.frame
        # (name, position, address) of each variable holding a location
        locs = [(v, i, val.addr) for i, v in scope if isinstance(val := frame.get(v), Loc)]
        if not locs:
            continue
        tables.move_to(state.heap)
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
