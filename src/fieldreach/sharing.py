"""Deep-sharing and purity analysis.

Two variables deep-share when both can reach a common heap location through
non-empty paths.  The analyzer tracks two symmetric may-relations per point:

* ``sh`` — the variables' regions (the objects they point to plus everything
  reachable from them) may overlap at all; this covers aliasing and
  reachability and exists to keep the deep-sharing transfer sound;
* ``ds`` — the regions may overlap strictly below both variables; this is
  the relation the reachability analysis consumes.

A method argument is impure when the body (or anything it calls) may update
the structure the argument pointed to on entry; entry structures are pinned
with internal shadow variables so reassignment of a parameter does not lose
them.  Method summaries map an entry state over the formals to an exit state
over formals plus the return value, with the set of possibly-impure argument
positions (0 is the receiver).  A ``Fixpoint`` grows one summary per
context (method, entry state) by union; a context re-runs only when a
summary it read has grown.  The fixpoint finds a context by its key, the
method and the state by value, once per call site and run; from then on the
analyses hold its ``Context`` record.  With no widening, any fair order of
runs reaches the same least fixpoint, so the analysis solves a context where
a call first meets it, while the Python stack has room (past that, contexts
queue): a call then reads a final summary, and a program without recursion
runs ``main`` and each context once, instead of running ``main`` again once
its callees have grown from bottom.

A state holds each relation as one int: a symmetric n×n bit matrix over a
name index, bit ``i * n + j`` relating names i and j.  Each analysis has
one index, over every variable of every body, the shadow of every method
input, the result variable and ``out``, and every state of the analysis
lies over it, so each transfer is a few big-int operations: ``kill`` is an
``&`` with a mask kept per name, ``union`` is ``|``, a lookup is one shift,
and ``clique``, ``copy_alias`` and ``relate`` OR in the rows and columns
they touch.  Facts from outside the analysis (the ``//@ init`` facts, a
caller's entry pairs) come in as pairs of names, which
``SharingAnalysis.state`` turns into a state over the index; a state over
another index is an error where it enters and in ``union``.  ``sh`` and
``ds`` decode a state into pairs of names.

Each run of a body, ``main`` or a context, walks it in one frame
(``_Body``): the type environment, the shadows, the impure positions found
so far and the point tables, which hold the states before and after each
point and, per call site, its ``CallRecord``: the call effect and each
callee's formals and context.  ``main`` is the frame with no shadows.  A
run's frame replaces the last one, as ``SharingAnalysis.main`` or as its
context's ``run``, so each ends as the last run, which read only final
summaries.  The reachability analysis walks a body together with its
sharing frame and reads the state before a point and a call's record from
it by node id.  ``return e`` runs as ``out := e``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

from .classtable import ClassTable, MethodSig
from .fixpoint import Context, Fixpoint
from .record import FrozenRecord, Record
from .syntax import (
    Assign,
    BinOp,
    Command,
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
    RESULT_VAR,
    shallow_name,
)
from .typecheck import TypeEnv, TypeInfo

Pair = tuple[str, str]


def _norm(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


class _Index:
    """A name index: name i owns row i of an n×n bit matrix, whose bit
    ``i * n + j`` relates names i and j, and this holds the masks the
    transfers apply to such a matrix."""

    __slots__ = ("names", "pos", "n", "row0", "col0", "keep")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(dict.fromkeys(names))
        self.pos = {v: i for i, v in enumerate(self.names)}
        n = self.n = len(self.names)
        self.row0 = (1 << n) - 1  # row 0, and the width of every row
        full = (1 << n * n) - 1
        # column 0: bit i * n for each i, the sum of a geometric series
        self.col0 = full // self.row0 if n else 0
        # per position, everything but its row and column
        self.keep = [full ^ (self.row0 << i * n | self.col0 << i) for i in range(n)]

    def mask(self, names: Iterable[str]) -> int:
        """The positions of the names, as a row."""
        m = 0
        for v in names:
            m |= 1 << self.pos[v]
        return m

    def column(self, row: int) -> int:
        """Bit ``i * n`` for each position i of the row: the row turned into
        column 0."""
        out, n = 0, self.n
        while row:
            low = row & -row
            out |= 1 << (low.bit_length() - 1) * n
            row ^= low
        return out

    def matrix(self, pairs: Iterable[Pair]) -> int:
        """The symmetric matrix of the pairs."""
        out, pos, n = 0, self.pos, self.n
        for a, b in pairs:
            i, j = pos[a], pos[b]
            out |= 1 << i * n + j | 1 << j * n + i
        return out

    def pairs(self, matrix: int) -> frozenset[Pair]:
        out, names, n = set(), self.names, self.n
        while matrix:
            low = matrix & -matrix
            i, j = divmod(low.bit_length() - 1, n)
            if i <= j:
                out.add(_norm(names[i], names[j]))
            matrix ^= low
        return frozenset(out)


def _alias(ix: _Index, m: int, s: int, d: int) -> int:
    """Matrix ``m`` with name d bound to the location of name s: d's row
    and column become s's, and a self pair of s relates d to s and to
    itself too."""
    n = ix.n
    m &= ix.keep[d]
    row = m >> s * n & ix.row0
    if row >> s & 1:
        row |= 1 << d
    return m | row << d * n | (m & ix.col0 << s) >> s << d


class SharingState:
    """The two relations as symmetric bit matrices over one name index.

    Every operation takes names, or rows of positions, on the state's own
    index; a name it does not hold raises ``KeyError``, and a ``union`` of
    states over two indexes raises ``ValueError``.  Two states are equal
    when their indexes list the same names and their matrices are equal.
    ``sh`` and ``ds`` decode the relations into pairs."""

    __slots__ = ("index", "_sh", "_ds")

    def __init__(self, index: _Index, sh: int = 0, ds: int = 0):
        self.index, self._sh, self._ds = index, sh, ds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SharingState):
            return NotImplemented
        return (
            self._sh == other._sh
            and self._ds == other._ds
            and (self.index is other.index or self.index.names == other.index.names)
        )

    def __hash__(self) -> int:
        return hash((self._sh, self._ds))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharingState(sh={sorted(self.sh)}, ds={sorted(self.ds)})"

    @property
    def sh(self) -> frozenset[Pair]:
        return self.index.pairs(self._sh)

    @property
    def ds(self) -> frozenset[Pair]:
        return self.index.pairs(self._ds)

    def has_sh(self, a: str, b: str) -> bool:
        ix = self.index
        return bool(self._sh >> ix.pos[a] * ix.n + ix.pos[b] & 1)

    def has_ds(self, a: str, b: str) -> bool:
        ix = self.index
        return bool(self._ds >> ix.pos[a] * ix.n + ix.pos[b] & 1)

    def rows(self, v: str) -> tuple[int, int]:
        """v's rows of ``sh`` and ``ds``: the names each relation pairs it with."""
        ix = self.index
        at = ix.pos[v] * ix.n
        return self._sh >> at & ix.row0, self._ds >> at & ix.row0

    def shset(self, row: int) -> int:
        """The names whose region may overlap that of a name of the row, the
        row's names included."""
        ix = self.index
        out, n, sh, row0 = row, ix.n, self._sh, ix.row0
        while row:
            low = row & -row
            out |= sh >> (low.bit_length() - 1) * n & row0
            row ^= low
        return out

    def kill(self, v: str) -> "SharingState":
        keep = self.index.keep[self.index.pos[v]]
        return SharingState(self.index, self._sh & keep, self._ds & keep)

    def relate(self, v: str, sh_row: int, ds_row: int) -> "SharingState":
        """Pair v with the names of ``sh_row`` in ``sh`` and with those of
        ``ds_row`` in ``ds``."""
        ix = self.index
        i = ix.pos[v]
        at = i * ix.n
        return SharingState(
            ix,
            self._sh | sh_row << at | ix.column(sh_row) << i,
            self._ds | ds_row << at | ix.column(ds_row) << i,
        )

    def union(self, other: "SharingState") -> "SharingState":
        if other.index is not self.index:
            raise ValueError("union of sharing states over two name indexes")
        return SharingState(self.index, self._sh | other._sh, self._ds | other._ds)

    def clique(self, row: int) -> "SharingState":
        """Relate every two names of the row, each to itself too, in both
        relations."""
        block = self.index.column(row) * row  # no carries: rows are n bits apart
        return SharingState(self.index, self._sh | block, self._ds | block)

    def copy_alias(self, src: str, dst: str) -> "SharingState":
        """Bind ``dst`` to the same location as ``src``."""
        if src == dst:
            return self
        ix = self.index
        s, d = ix.pos[src], ix.pos[dst]
        return SharingState(ix, _alias(ix, self._sh, s, d), _alias(ix, self._ds, s, d))

    def remap_from(self, sources: Mapping[str, str]) -> "SharingState":
        """Rebuild over new names; ``sources[d]`` is the old name feeding d.

        Two new names fed by the same old name become related whenever the
        old name related to itself.
        """
        return self._remap(sources.items())

    def remap_to(self, mapping: Mapping[str, str]) -> "SharingState":
        """Carry pairs through an old-name to new-name mapping; unmapped
        names drop out."""
        return self._remap((new, old) for old, new in mapping.items())

    def _remap(self, feeds: Iterable[Pair]) -> "SharingState":
        """The state over the new names of the (new, old) feeds: two new
        names are related when their old names were."""
        ix = self.index
        n, row0, pos = ix.n, ix.row0, ix.pos
        feeds = [(pos[new], pos[old]) for new, old in feeds]
        sh = ds = 0
        for d, s in feeds:
            row_sh, row_ds = self._sh >> s * n & row0, self._ds >> s * n & row0
            if not (row_sh or row_ds):
                continue
            for d2, s2 in feeds:
                sh |= (row_sh >> s2 & 1) << d * n + d2
                ds |= (row_ds >> s2 & 1) << d * n + d2
        return SharingState(ix, sh, ds)


class SharingSummary(FrozenRecord):
    """Effect of a method on its inputs' entry structures plus the result:
    ``exit_state`` has pairs over the formal names ('this', params) and
    'out', and ``impure`` the argument positions possibly updated, 0 being
    the receiver."""

    __slots__ = ("exit_state", "impure")

    def union(self, other: "SharingSummary") -> "SharingSummary":
        return SharingSummary(
            self.exit_state.union(other.exit_state), self.impure | other.impure
        )


class CallRecord(NamedTuple):
    """What a call site did (``call_effect``): the callees' summary pairs
    over the caller's names and the impure positions, and per callee, in
    ``call_targets`` order, its formals mapped to the actuals and its
    context."""

    after: SharingState
    impure: frozenset[int]
    callees: list[tuple[dict[str, str], Context]]


class _Body(Record):
    """The frame of one run of a body: its type environment, the shadows
    that pin the reference arguments' entry structures (position -> shadow
    name), the positions an update has reached so far, and the point tables
    the run records: the states before and after each point, and per call
    site its ``CallRecord``.  ``main`` has no shadows, so nothing marks it
    impure.  Each visit of a point overwrites its entries, and the last
    visit's stand: the states a run meets at a point only grow (a loop head
    only grows, the summaries the run reads only grow, and every transfer is
    monotone), so its last one is the point's join."""

    __slots__ = ("env", "shadows", "impure", "pre", "post", "calls")

    def __init__(
        self,
        env: TypeEnv,
        shadows: Optional[dict[int, str]] = None,
        impure: Optional[set[int]] = None,
        pre: Optional[dict[int, SharingState]] = None,
        post: Optional[dict[int, SharingState]] = None,
        calls: Optional[dict[int, CallRecord]] = None,
    ):
        self.env = env
        self.shadows = {} if shadows is None else shadows
        self.impure = set() if impure is None else impure
        self.pre = {} if pre is None else pre
        self.post = {} if post is None else post
        self.calls = {} if calls is None else calls

    def touch(self, st: SharingState, var: str) -> None:
        """An update through ``var`` reaches every entry structure it may
        share with."""
        for i, sh_name in self.shadows.items():
            if st.has_sh(var, sh_name):
                self.impure.add(i)


class SharingAnalysis:
    def __init__(self, program: Program, ct: ClassTable, typeinfo: TypeInfo):
        self.program = program
        self.ct = ct
        self.typeinfo = typeinfo
        names = [v for env in typeinfo.envs.values() for v in env.variables]
        names += [shallow_name(v) for sig in ct.all_method_sigs() for v in sig.input_vars]
        # every state of the analysis lies over this index
        self.index = _Index([*names, RESULT_VAR, OUT_VAR])
        self.none = SharingState(self.index)
        self.res_bit = self.index.mask([RESULT_VAR])
        # context (method, entry state) -> sharing summary, and its last run
        self.memo = Fixpoint(
            self._compute_summary,
            lambda ctx, new: ctx.summary.union(new),
            lambda inp: SharingSummary(self.none, frozenset()),
            on_the_spot=True,
        )
        self.main: Optional[_Body] = None  # the last run of ``main``

    def state(self, sh: Iterable[Pair] = (), ds: Iterable[Pair] = ()) -> SharingState:
        """The state of these pairs of names, over the analysis's index."""
        ix = self.index
        return SharingState(ix, ix.matrix(sh), ix.matrix(ds))

    def _own(self, state: SharingState) -> SharingState:
        """The state, which must lie over the analysis's index."""
        if state.index is not self.index:
            raise ValueError("a sharing state over another name index")
        return state

    # -- public drivers

    def analyze_main(self, entry_state: Optional[SharingState] = None) -> SharingState:
        if self.program.main is None:
            raise ValueError("program has no main block")
        entry = self.none if entry_state is None else self._own(entry_state)
        env, body = self.typeinfo.env_for("main"), self.program.main.body

        def run() -> SharingState:
            self.main = _Body(env)
            return self._exec_body(body, entry, self.main)

        return self.memo.solve(run)[0]

    def analyze_method_entry(self, sig: MethodSig, entry_state: SharingState) -> Context:
        """The method entered in the state: its context, solved."""
        self._own(entry_state)
        return self.memo.solve(lambda: self.context(sig, entry_state))[0]

    def context(self, sig: MethodSig, entry_state: SharingState) -> Context:
        """A method entered in a state: its context, whose summary grows
        until the fixpoint is solved."""
        return self.memo.lookup((sig.key, entry_state), (sig, entry_state))

    # -- summary computation

    def _compute_summary(self, ctx: Context) -> SharingSummary:
        sig, entry_state = ctx.input
        env = self.typeinfo.env_for(sig.key)
        st, shadows = entry_state, {}
        for i, name in enumerate(sig.input_vars):
            if env.type_of(name) != INT_TYPE:
                shadows[i] = shallow_name(name)
                st = st.copy_alias(name, shadows[i])
        frame = ctx.run = _Body(env, shadows)
        exit_state = self._exec_body(self.ct.method_decl(sig).body, st, frame)
        keep = {sh_name: sig.input_vars[i] for i, sh_name in shadows.items()}
        keep[OUT_VAR] = OUT_VAR
        return SharingSummary(exit_state.remap_to(keep), frozenset(frame.impure))

    # -- command transfer

    def _exec_body(self, body: list[Command], st: SharingState, frame: _Body) -> SharingState:
        for cmd in body:
            st = self._exec(cmd, st, frame)
        return st

    def _exec(self, cmd: Command, st: SharingState, frame: _Body) -> SharingState:
        frame.pre[cmd.nid] = st
        if isinstance(cmd, Skip):
            out = st
        elif isinstance(cmd, (Assign, Return)):
            out = self._eval(cmd.expr, st, frame)
            if frame.env.type_of(cmd.var) != INT_TYPE:
                out = out.copy_alias(RESULT_VAR, cmd.var)
            out = out.kill(RESULT_VAR)
        elif isinstance(cmd, FieldWrite):
            out = self._eval(cmd.expr, st, frame)
            frame.touch(out, cmd.var)
            if self.ct.field_type(cmd.fieldname) != INT_TYPE and not isinstance(cmd.expr, NullLit):
                out = out.clique(out.shset(self.index.mask([cmd.var]) | self.res_bit))
            out = out.kill(RESULT_VAR)
        elif isinstance(cmd, If):
            t = self._exec_body(cmd.then_body, st, frame)
            out = t.union(self._exec_body(cmd.else_body, st, frame))
        elif isinstance(cmd, While):
            out = st
            while (head := out.union(self._exec_body(cmd.body, out, frame))) != out:
                out = head
        else:
            raise TypeError(f"unsupported command {cmd!r}")
        frame.post[cmd.nid] = out
        return out

    # -- expression transfer (binds RESULT_VAR)

    def _eval(self, e: Expr, st: SharingState, frame: _Body) -> SharingState:
        if isinstance(e, (IntLit, NullLit)):
            return st.kill(RESULT_VAR)
        if isinstance(e, BinOp):
            st1 = self._eval(e.left, st, frame).kill(RESULT_VAR)
            return self._eval(e.right, st1, frame).kill(RESULT_VAR)
        if isinstance(e, NewObject):
            return st.kill(RESULT_VAR).relate(RESULT_VAR, self.res_bit, 0)
        if isinstance(e, VarRef):
            if frame.env.type_of(e.name) == INT_TYPE:
                return st.kill(RESULT_VAR)
            return st.copy_alias(e.name, RESULT_VAR)
        if isinstance(e, FieldRead):
            frame.pre[e.nid] = st
            st1 = st.kill(RESULT_VAR)
            if self.ct.field_type(e.fieldname) == INT_TYPE:
                return st1
            # the result shares with all v shares with, and with v; v's self
            # pair in a relation relates the result to itself there too
            v_bit = self.index.mask([e.var])
            sh_row, ds_row = st1.rows(e.var)
            if sh_row & v_bit:
                sh_row |= self.res_bit
            if ds_row & v_bit:
                ds_row |= self.res_bit
            return st1.relate(RESULT_VAR, sh_row | v_bit, ds_row)
        if isinstance(e, MethodCall):
            frame.pre[e.nid] = st
            return self._eval_call(e, st, frame)
        raise TypeError(f"unsupported expression {e!r}")

    def call_effect(self, e: MethodCall, st: SharingState) -> CallRecord:
        """One call site entered in the state ``st``: the summary pairs
        renamed to caller names (the result under the internal result
        variable), the combined impure positions, and per callee its
        formals mapped to the actuals and its context, the callee entered
        in the pairs among the actuals in ``st``, renamed to the formals."""
        actuals = [e.receiver, *e.args]
        renamed, impure, callees = self.none, frozenset(), []
        for sig in self.typeinfo.call_targets[e.nid]:
            formal_to_actual = dict(zip(sig.input_vars, actuals))
            callee = self.context(sig, st.remap_from(formal_to_actual))
            summ = callee.summary
            impure |= summ.impure
            mapping = {**formal_to_actual, OUT_VAR: RESULT_VAR}
            renamed = renamed.union(summ.exit_state.remap_to(mapping))
            callees.append((formal_to_actual, callee))
        return CallRecord(renamed, impure, callees)

    def _eval_call(self, e: MethodCall, st: SharingState, frame: _Body) -> SharingState:
        actuals = [e.receiver, *e.args]
        renamed, impure, _ = frame.calls[e.nid] = self.call_effect(e, st)
        # an impure callee argument may update structures shared with the
        # enclosing method's own entry arguments
        for i in impure:
            frame.touch(st, actuals[i])
        st1 = st.kill(RESULT_VAR)
        if impure:
            refs = self.index.mask(a for a in actuals if frame.env.type_of(a) != INT_TYPE)
            return st1.clique(self.res_bit | st1.shset(refs))
        # pure call: the existing heap is untouched; only wire the result to
        # the regions of what the callee relates it to (itself included, as
        # st1 relates the result to nothing else)
        sh_row, ds_row = renamed.rows(RESULT_VAR)
        # the result may be a fresh object
        return st1.relate(RESULT_VAR, self.res_bit | st1.shset(sh_row), st1.shset(ds_row))


# --------------------------------------------------------------------------
# module-level entry points


def analyze_purity(
    program: Program, ct: ClassTable, typeinfo: TypeInfo
) -> dict[tuple[str, str], frozenset[int]]:
    """Per-method impure argument positions, assuming arguments that start
    out non-null but mutually unrelated."""
    analysis = SharingAnalysis(program, ct, typeinfo)
    out: dict[tuple[str, str], frozenset[int]] = {}
    for sig in ct.all_method_sigs():
        env = typeinfo.env_for(sig.key)
        entry = analysis.state([(n, n) for n in sig.input_vars if env.type_of(n) != INT_TYPE])
        out[sig.key] = analysis.analyze_method_entry(sig, entry).summary.impure
    return out
