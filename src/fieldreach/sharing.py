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
summary it read has grown.  Each run replaces the context's point tables, so
they end with its last run, which read only final summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
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
CtxKey = Union[str, tuple[tuple[str, str], tuple]]


def _norm(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


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

    def key(self):
        return (tuple(sorted(self.sh)), tuple(sorted(self.ds)))


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
        env = self.typeinfo.env_for("main")
        exit_state = entry

        def run_main() -> None:
            nonlocal exit_state
            self.point_pre["main"], self.point_post["main"] = {}, {}
            exit_state = self._exec_body(self.program.main.body, entry, "main", env, None, None)

        self.memo.solve(run_main)
        return exit_state

    def analyze_method_entry(self, sig: MethodSig, entry_state: SharingState) -> SharingSummary:
        self.memo.solve(lambda: self.summary(sig, entry_state))
        return self.summary(sig, entry_state)

    def summary(self, sig: MethodSig, entry_state: SharingState) -> SharingSummary:
        """Memoized method denotation; grows until the fixpoint is solved."""
        return self.memo.lookup(self.ctx_key(sig, entry_state), (sig, entry_state))

    def ctx_key(self, sig: MethodSig, entry_state: SharingState) -> CtxKey:
        return (sig.key, entry_state.key())

    def state_before(self, ctx: CtxKey, nid: int) -> SharingState:
        return self.point_pre[ctx][nid]  # a miss raises: empty would be unsound

    # -- summary computation

    def _compute_summary(self, ctx: CtxKey, inp: tuple) -> SharingSummary:
        sig, entry_state = inp
        env = self.typeinfo.env_for(sig.key)
        decl = self.ct.method_decl(sig)
        ref_params = [
            (i, name)
            for i, name in enumerate(sig.input_vars)
            if env.type_of(name) != INT_TYPE
        ]
        st = entry_state
        shadows: dict[int, str] = {}
        for i, name in ref_params:
            sh_name = shallow_name(name)
            shadows[i] = sh_name
            st = st.copy_alias(name, sh_name)
        impure: set[int] = set()
        self.point_pre[ctx], self.point_post[ctx] = {}, {}
        exit_state = self._exec_body(decl.body, st, ctx, env, shadows, impure)
        keep = {shadows[i]: name for i, name in ref_params}
        keep[OUT_VAR] = OUT_VAR
        exit_over_inputs = exit_state.remap_to(keep)
        return SharingSummary(exit_over_inputs, frozenset(impure))

    # -- recording

    def _record(self, ctx: CtxKey, table: dict, nid: int, st: SharingState) -> None:
        slot = table[ctx]
        prev = slot.get(nid)
        slot[nid] = st if prev is None else prev.union(st)

    # -- command transfer

    def _exec_body(
        self,
        body: list[Command],
        st: SharingState,
        ctx: CtxKey,
        env: TypeEnv,
        shadows: Optional[dict[int, str]],
        impure: Optional[set[int]],
    ) -> SharingState:
        for cmd in body:
            st = self._exec(cmd, st, ctx, env, shadows, impure)
        return st

    def _exec(self, cmd, st, ctx, env, shadows, impure) -> SharingState:
        self._record(ctx, self.point_pre, cmd.nid, st)
        if isinstance(cmd, Skip):
            out = st
        elif isinstance(cmd, Assign):
            st1 = self._eval(cmd.expr, st, ctx, env, shadows, impure)
            if env.type_of(cmd.var) == INT_TYPE:
                out = st1.kill(RESULT_VAR)
            else:
                out = st1.copy_alias(RESULT_VAR, cmd.var).kill(RESULT_VAR)
        elif isinstance(cmd, FieldWrite):
            st1 = self._eval(cmd.expr, st, ctx, env, shadows, impure)
            if impure is not None and shadows:
                for i, sh_name in shadows.items():
                    if st1.has_sh(cmd.var, sh_name):
                        impure.add(i)
            if (
                self.ct.field_type(cmd.fieldname) == INT_TYPE
                or isinstance(cmd.expr, NullLit)
            ):
                out = st1.kill(RESULT_VAR)
            else:
                group = st1.shset(cmd.var) | st1.shset(RESULT_VAR)
                pairs = [(a, b) for a in group for b in group]
                out = st1.add_sh(pairs).add_ds(pairs).kill(RESULT_VAR)
        elif isinstance(cmd, If):
            t = self._exec_body(cmd.then_body, st, ctx, env, shadows, impure)
            e = self._exec_body(cmd.else_body, st, ctx, env, shadows, impure)
            out = t.union(e)
        elif isinstance(cmd, While):
            h = st
            while True:
                e = self._exec_body(cmd.body, h, ctx, env, shadows, impure)
                h2 = h.union(e)
                if h2 == h:
                    break
                h = h2
            out = h
        elif isinstance(cmd, Return):
            st1 = self._eval(cmd.expr, st, ctx, env, shadows, impure)
            out = st1.copy_alias(RESULT_VAR, OUT_VAR).kill(RESULT_VAR)
        else:
            raise TypeError(f"unsupported command {cmd!r}")
        self._record(ctx, self.point_post, cmd.nid, out)
        return out

    # -- expression transfer (binds RESULT_VAR)

    def _eval(self, e: Expr, st, ctx, env, shadows, impure) -> SharingState:
        if isinstance(e, (IntLit, NullLit)):
            return st.kill(RESULT_VAR)
        if isinstance(e, BinOp):
            st1 = self._eval(e.left, st, ctx, env, shadows, impure).kill(RESULT_VAR)
            st2 = self._eval(e.right, st1, ctx, env, shadows, impure)
            return st2.kill(RESULT_VAR)
        if isinstance(e, NewObject):
            return st.kill(RESULT_VAR).add_sh([(RESULT_VAR, RESULT_VAR)])
        if isinstance(e, VarRef):
            if env.type_of(e.name) == INT_TYPE:
                return st.kill(RESULT_VAR)
            return st.copy_alias(e.name, RESULT_VAR)
        if isinstance(e, FieldRead):
            self._record(ctx, self.point_pre, e.nid, st)
            st1 = st.kill(RESULT_VAR)
            if self.ct.field_type(e.fieldname) == INT_TYPE:
                return st1
            v = e.var
            sh_pairs = [(RESULT_VAR, x) for x in st1.shset(v)]
            if st1.has_sh(v, v):
                sh_pairs.append((RESULT_VAR, RESULT_VAR))
            ds_pairs = [
                (RESULT_VAR, x)
                for a, b in st1.ds
                if v in (a, b)
                for x in ((b,) if a == v else (a,))
            ]
            if st1.has_ds(v, v):
                ds_pairs += [(RESULT_VAR, RESULT_VAR), (RESULT_VAR, v)]
            return st1.add_sh(sh_pairs).add_ds(ds_pairs)
        if isinstance(e, MethodCall):
            self._record(ctx, self.point_pre, e.nid, st)
            return self._eval_call(e, st, ctx, env, shadows, impure)
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
        combined = SharingSummary.bottom()
        renamed = SharingState.empty()
        for sig in self.typeinfo.call_targets[e.nid]:
            mapping, callee_in = self.binding(e, sig, st)
            summ = self.summary(sig, callee_in)
            combined = combined.union(summ)
            mapping[OUT_VAR] = RESULT_VAR
            renamed = renamed.union(summ.exit_state.remap_to(mapping))
        return renamed, combined.impure

    def _eval_call(self, e: MethodCall, st, ctx, env, shadows, impure) -> SharingState:
        actuals = [e.receiver] + list(e.args)
        ref_actuals = [a for a in actuals if env.type_of(a) != INT_TYPE]
        renamed, impure_positions = self.call_effect(e, st)
        # an impure callee argument may update structures shared with the
        # enclosing method's own entry arguments
        if impure is not None and shadows:
            for idx in impure_positions:
                actual = actuals[idx]
                for i, sh_name in shadows.items():
                    if st.has_sh(actual, sh_name):
                        impure.add(i)
        st1 = st.kill(RESULT_VAR)
        if impure_positions:
            group: set[str] = {RESULT_VAR}
            for a in ref_actuals:
                group |= st1.shset(a)
            pairs = [(a, b) for a in group for b in group]
            return st1.add_sh(pairs).add_ds(pairs)
        # pure call: the existing heap is untouched; only wire the result
        out_sh: list[Pair] = []
        out_ds: list[Pair] = []
        for rel, acc in ((renamed.sh, out_sh), (renamed.ds, out_ds)):
            for a, b in rel:
                if RESULT_VAR not in (a, b):
                    continue
                other = b if a == RESULT_VAR else a
                if other == RESULT_VAR:
                    acc.append((RESULT_VAR, RESULT_VAR))
                else:
                    acc.extend((RESULT_VAR, y) for y in st1.shset(other))
        st1 = st1.add_sh([(RESULT_VAR, RESULT_VAR)])  # result may be a fresh object
        return st1.add_sh(out_sh).add_ds(out_ds)


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
