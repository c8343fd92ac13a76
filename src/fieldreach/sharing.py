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
positions (0 is the receiver).  A ``Fixpoint`` worklist grows one summary per
context (method, entry state) by union; a context re-runs only when a
summary it read has grown.  A state is its own key, by value.

Each run of a body, ``main`` or a context, walks it in one frame
(``_Body``): the type environment, the shadows, the impure positions found
so far and the point tables.  ``main`` is the frame with no shadows.  Each
run's tables replace the context's, so they end with its last run, which
read only final summaries.  ``return e`` runs as ``out := e``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .classtable import ClassTable, MethodSig
from .fixpoint import Fixpoint
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
CtxKey = Union[str, tuple[tuple[str, str], "SharingState"]]  # "main" or (method, entry state)


def _norm(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


def _partners(rel: frozenset[Pair], v: str) -> list[str]:
    """The names a relation pairs with ``v``; ``v`` itself if it has a self pair."""
    return [b if a == v else a for a, b in rel if a == v or b == v]


@dataclass(frozen=True)
class SharingState:
    sh: frozenset[Pair]
    ds: frozenset[Pair]

    @staticmethod
    def empty() -> "SharingState":
        return SharingState(frozenset(), frozenset())

    def has_sh(self, a: str, b: str) -> bool:
        return _norm(a, b) in self.sh

    def has_ds(self, a: str, b: str) -> bool:
        return _norm(a, b) in self.ds

    def shset(self, v: str) -> frozenset[str]:
        """The variables whose region may overlap v's, v included."""
        out = {v}
        for a, b in self.sh:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return frozenset(out)

    def kill(self, v: str) -> "SharingState":
        return SharingState(
            frozenset(p for p in self.sh if v not in p),
            frozenset(p for p in self.ds if v not in p),
        )

    def add_sh(self, pairs: Iterable[Pair]) -> "SharingState":
        return SharingState(self.sh | {_norm(a, b) for a, b in pairs}, self.ds)

    def add_ds(self, pairs: Iterable[Pair]) -> "SharingState":
        return SharingState(self.sh, self.ds | {_norm(a, b) for a, b in pairs})

    def union(self, other: "SharingState") -> "SharingState":
        return SharingState(self.sh | other.sh, self.ds | other.ds)

    def clique(self, names: Iterable[str]) -> "SharingState":
        """Relate every two of the names, each to itself too, in both relations."""
        names = list(names)
        pairs = {_norm(a, b) for a in names for b in names}
        return SharingState(self.sh | pairs, self.ds | pairs)

    def copy_alias(self, src: str, dst: str) -> "SharingState":
        """Bind ``dst`` to the same location as ``src``."""
        if src == dst:
            return self
        st = self.kill(dst)
        new_sh: set[Pair] = set()
        new_ds: set[Pair] = set()
        for rel, new in ((st.sh, new_sh), (st.ds, new_ds)):
            for a, b in rel:
                if a == src or b == src:
                    other = b if a == src else a
                    if other == src:  # a self pair transfers fully
                        new.add(_norm(dst, dst))
                        new.add(_norm(dst, src))
                    else:
                        new.add(_norm(dst, other))
        return SharingState(st.sh | new_sh, st.ds | new_ds)

    def remap_from(self, sources: Mapping[str, str]) -> "SharingState":
        """Rebuild over new names; ``sources[d]`` is the old name feeding d.

        Two new names fed by the same old name become related whenever the
        old name related to itself.
        """
        names = list(sources)
        sh: set[Pair] = set()
        ds: set[Pair] = set()
        for i, a in enumerate(names):
            for b in names[i:]:
                old = _norm(sources[a], sources[b])
                if old in self.sh:
                    sh.add(_norm(a, b))
                if old in self.ds:
                    ds.add(_norm(a, b))
        return SharingState(frozenset(sh), frozenset(ds))

    def remap_to(self, mapping: Mapping[str, str]) -> "SharingState":
        """Carry pairs through an old-name to new-name mapping; unmapped
        names drop out."""
        sh: set[Pair] = set()
        ds: set[Pair] = set()
        for rel, new in ((self.sh, sh), (self.ds, ds)):
            for a, b in rel:
                if a in mapping and b in mapping:
                    new.add(_norm(mapping[a], mapping[b]))
        return SharingState(frozenset(sh), frozenset(ds))


@dataclass(frozen=True)
class SharingSummary:
    """Effect of a method on its inputs' entry structures plus the result."""

    exit_state: SharingState  # pairs over formal names ('this', params) and 'out'
    impure: frozenset[int]  # argument positions possibly updated; 0 = receiver

    @staticmethod
    def bottom() -> "SharingSummary":
        return SharingSummary(SharingState.empty(), frozenset())

    def union(self, other: "SharingSummary") -> "SharingSummary":
        return SharingSummary(
            self.exit_state.union(other.exit_state), self.impure | other.impure
        )


@dataclass
class _Body:
    """The frame of one run of a body: its type environment, the shadows
    that pin the reference arguments' entry structures (position -> shadow
    name), the positions an update has reached so far, and the point tables
    the run records.  ``main`` has no shadows, so nothing marks it impure."""

    env: TypeEnv
    shadows: dict[int, str] = field(default_factory=dict)
    impure: set[int] = field(default_factory=set)
    pre: dict[int, SharingState] = field(default_factory=dict)
    post: dict[int, SharingState] = field(default_factory=dict)

    def touch(self, st: SharingState, var: str) -> None:
        """An update through ``var`` reaches every entry structure it may
        share with."""
        for i, sh_name in self.shadows.items():
            if st.has_sh(var, sh_name):
                self.impure.add(i)

    @staticmethod
    def record(table: dict[int, SharingState], nid: int, st: SharingState) -> None:
        prev = table.get(nid)
        table[nid] = st if prev is None else prev.union(st)


class SharingAnalysis:
    def __init__(self, program: Program, ct: ClassTable, typeinfo: TypeInfo):
        self.program = program
        self.ct = ct
        self.typeinfo = typeinfo
        # context (method, entry state) -> sharing summary
        self.memo = Fixpoint(
            self._compute_summary,
            lambda key, old, new: old.union(new),
            lambda inp: SharingSummary.bottom(),
        )
        # per context: the sharing state before/after each point in its last run
        self.point_pre: dict[CtxKey, dict[int, SharingState]] = {}
        self.point_post: dict[CtxKey, dict[int, SharingState]] = {}

    # -- public drivers

    def analyze_main(self, entry_state: Optional[SharingState] = None) -> SharingState:
        if self.program.main is None:
            raise ValueError("program has no main block")
        entry = entry_state or SharingState.empty()
        env, body = self.typeinfo.env_for("main"), self.program.main.body
        return self.memo.solve(
            lambda: self._exec_body(body, entry, self._start("main", _Body(env)))
        )[0]

    def analyze_method_entry(self, sig: MethodSig, entry_state: SharingState) -> SharingSummary:
        return self.memo.solve(lambda: self.summary(sig, entry_state))[0]

    def summary(self, sig: MethodSig, entry_state: SharingState) -> SharingSummary:
        """Memoized method denotation; grows until the fixpoint is solved."""
        return self.memo.lookup(self.ctx_key(sig, entry_state), (sig, entry_state))

    def ctx_key(self, sig: MethodSig, entry_state: SharingState) -> CtxKey:
        return (sig.key, entry_state)

    def state_before(self, ctx: CtxKey, nid: int) -> SharingState:
        return self.point_pre[ctx][nid]  # a miss raises: empty would be unsound

    # -- summary computation

    def _start(self, ctx: CtxKey, frame: _Body) -> _Body:
        """Begin a run of a context: its frame's tables replace the last run's."""
        self.point_pre[ctx], self.point_post[ctx] = frame.pre, frame.post
        return frame

    def _compute_summary(self, ctx: CtxKey, inp: tuple) -> SharingSummary:
        sig, entry_state = inp
        env = self.typeinfo.env_for(sig.key)
        st, shadows = entry_state, {}
        for i, name in enumerate(sig.input_vars):
            if env.type_of(name) != INT_TYPE:
                shadows[i] = shallow_name(name)
                st = st.copy_alias(name, shadows[i])
        frame = self._start(ctx, _Body(env, shadows))
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
        frame.record(frame.pre, cmd.nid, st)
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
                out = out.clique(out.shset(cmd.var) | out.shset(RESULT_VAR))
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
        frame.record(frame.post, cmd.nid, out)
        return out

    # -- expression transfer (binds RESULT_VAR)

    def _eval(self, e: Expr, st: SharingState, frame: _Body) -> SharingState:
        if isinstance(e, (IntLit, NullLit)):
            return st.kill(RESULT_VAR)
        if isinstance(e, BinOp):
            st1 = self._eval(e.left, st, frame).kill(RESULT_VAR)
            return self._eval(e.right, st1, frame).kill(RESULT_VAR)
        if isinstance(e, NewObject):
            return st.kill(RESULT_VAR).add_sh([(RESULT_VAR, RESULT_VAR)])
        if isinstance(e, VarRef):
            if frame.env.type_of(e.name) == INT_TYPE:
                return st.kill(RESULT_VAR)
            return st.copy_alias(e.name, RESULT_VAR)
        if isinstance(e, FieldRead):
            frame.record(frame.pre, e.nid, st)
            st1 = st.kill(RESULT_VAR)
            if self.ct.field_type(e.fieldname) == INT_TYPE:
                return st1
            v = e.var
            sh_pairs = [(RESULT_VAR, x) for x in st1.shset(v)]
            if st1.has_sh(v, v):
                sh_pairs.append((RESULT_VAR, RESULT_VAR))
            # v's own ds self pair makes v one of its partners
            ds_pairs = [(RESULT_VAR, x) for x in _partners(st1.ds, v)]
            if st1.has_ds(v, v):
                ds_pairs.append((RESULT_VAR, RESULT_VAR))
            return st1.add_sh(sh_pairs).add_ds(ds_pairs)
        if isinstance(e, MethodCall):
            frame.record(frame.pre, e.nid, st)
            return self._eval_call(e, st, frame)
        raise TypeError(f"unsupported expression {e!r}")

    @staticmethod
    def binding(
        e: MethodCall, sig: MethodSig, st: SharingState
    ) -> tuple[dict[str, str], SharingState]:
        """The formals of one callee of a call site mapped to its actuals,
        and the state the callee is entered in: the pairs among the actuals
        in the call site's state ``st``, renamed to the formals.  The
        reachability analysis reads the callee's point tables by this state,
        so both analyses take it from here."""
        formal_to_actual = dict(zip(sig.input_vars, [e.receiver, *e.args]))
        return formal_to_actual, st.remap_from(formal_to_actual)

    def call_effect(self, e: MethodCall, st: SharingState) -> tuple[SharingState, frozenset[int]]:
        """Summary pairs renamed to caller names (result under the internal
        result variable) plus the combined impure positions, for one call
        site entered in the given state."""
        renamed, impure = SharingState.empty(), frozenset()
        for sig in self.typeinfo.call_targets[e.nid]:
            mapping, callee_in = self.binding(e, sig, st)
            summ = self.summary(sig, callee_in)
            impure |= summ.impure
            mapping[OUT_VAR] = RESULT_VAR
            renamed = renamed.union(summ.exit_state.remap_to(mapping))
        return renamed, impure

    def _eval_call(self, e: MethodCall, st: SharingState, frame: _Body) -> SharingState:
        actuals = [e.receiver, *e.args]
        renamed, impure = self.call_effect(e, st)
        # an impure callee argument may update structures shared with the
        # enclosing method's own entry arguments
        for i in impure:
            frame.touch(st, actuals[i])
        st1 = st.kill(RESULT_VAR)
        if impure:
            refs = [a for a in actuals if frame.env.type_of(a) != INT_TYPE]
            return st1.clique({RESULT_VAR}.union(*map(st1.shset, refs)))
        # pure call: the existing heap is untouched; only wire the result to
        # the regions of what the callee relates it to (itself included, as
        # st1 relates the result to nothing else)
        sh, ds = (
            [(RESULT_VAR, y) for x in _partners(rel, RESULT_VAR) for y in st1.shset(x)]
            for rel in (renamed.sh, renamed.ds)
        )
        # the result may be a fresh object
        return st1.add_sh([(RESULT_VAR, RESULT_VAR), *sh]).add_ds(ds)


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
        entry = SharingState.empty().add_sh(
            [(n, n) for n in sig.input_vars if env.type_of(n) != INT_TYPE]
        )
        out[sig.key] = analysis.analyze_method_entry(sig, entry).impure
    return out
