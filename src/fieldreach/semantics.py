"""Abstract semantics: transfer functions over reachability/cyclicity values
and the interprocedural fixpoint.

Expressions bind their effect to the internal result variable; commands
consume it.  A field access turns the base variable's rows into result rows
through the path operators; a field update joins in the paths the new edge
can create, including the cycle it may close; a call combines the callee
summaries with purity- and deep-sharing-guarded repair of everything the
callee might have rewired, reading the call effect and the callees'
contexts the sharing analysis recorded at the call site.  Each transfer
builds its output once: it writes, by position in the value's flat list of
tables, into one fresh copy of its input, and computes only the terms whose
operands are non-zero: ``concat`` and ``difference`` give the zero table
when either operand is zero and ``t |= 0`` changes nothing, so a skipped
term is one that adds nothing.  Most entries are zero, since most paths and
cycles are impossible.  A transfer writes only into a value it built in
this visit, never into its input or any value a run record, a trace row, a
context or a caller holds (the rule of ``domain``): an expression hands
back its input untouched or a value it built, and the command moves the
result variable onto its target, or drops it, in place in the latter.  So
an assignment, too, builds one fresh copy of its input, and one that
changes nothing, such as ``i := i + 1``, builds none.  A loop widens the
join it has just built.

Method denotations map an abstract entry value over the inputs to an exit
value over inputs plus the return value.  A ``Fixpoint`` worklist holds one
per context (the callee's sharing context, entry value), joined under
per-entry widening; a context re-runs only when a denotation it read has
grown, and the entry body only once no context is pending.  As in the
sharing analysis, a new context is solved where a call meets it, and queued
only past the fixpoint's stack bound, so a program without recursion runs
its entry once (the report's ``iterations`` counts the entry runs).  A run
walks a body with one record (``_Run``): it holds the sharing analysis's
last run of the body, so a field read or a call reads the sharing state
before it, and a call its record, by node id, and it records the run's
per-point values afresh.  It is its context's
``run``, so once the denotations are stable the last run of the entry and
of each context, which read only final denotations, holds them.  Inside a
body, shadow copies of the parameters pin the structures the inputs pointed
to on entry, so reassigning a parameter does not lose its summary rows.
Loops iterate to a local fixpoint with per-entry widening to the tautology
after a configurable number of changes.
"""

from __future__ import annotations

import time
from itertools import compress, count
from operator import ne
from typing import Iterable, Optional, Sequence, Union

from .classtable import ClassTable, MethodSig
from .domain import RcValue, Scope
from .fixpoint import Context, Fixpoint
from .formula import MAX_FIELDS, FieldUniverse, Viability, concat, difference
from .record import Record
from .sharing import Pair, SharingAnalysis, SharingState, _Body
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
    SourceError,
    VarRef,
    While,
    INT_TYPE,
    OUT_VAR,
    RESULT_VAR,
    shallow_name,
)
from .typecheck import TypeInfo

class AnalysisError(SourceError):
    pass


class TraceRow(Record):
    __slots__ = ("line", "visit", "value")


class AnalysisResult(Record):
    """The outcome of one analysis.  ``final``, ``trace`` and ``point_post``
    hold canonical values (``RcValue.canonical``): every entry is already its
    own ``drop_nonviable``, so readers show and query it as it is.  They
    share value objects, and each distinct object is canonicalised once.
    ``sharing`` is the deep-sharing analysis whose runs it read."""

    __slots__ = (
        "universe", "entry", "display_vars", "final", "trace", "point_post", "denotations",
        "rounds", "loop_passes", "widenings", "via", "sharing", "elapsed",
    )

    def query_cycle(self, var: str, fields: Iterable[str]) -> bool:
        """May a cycle traversing exactly these fields be reachable from the
        variable?  False means such a cycle is provably impossible."""
        value = self.final
        if var not in value.scope.pos:
            raise AnalysisError(f"unknown reference variable {var!r}")
        try:
            mask = self.universe.mask_of(fields)
        except KeyError as exc:
            raise AnalysisError(f"field {exc.args[0]!r} is not tracked") from exc
        cyc = value.tables[value.scope.nn + value.scope.pos[var]]
        return bool(cyc >> mask & 1) and self.via.is_viable_mask(mask)

    def query_reach(self, v: str, w: str) -> list[list[str]]:
        value = self.final
        if v not in value.scope.pos or w not in value.scope.pos:
            raise AnalysisError(f"unknown reference variables ({v},{w})")
        return value.reach_at(v, w).json_models()


class _Run(Record):
    """One run of the entry or of a context: the sharing analysis's last
    run of the body, whether it records trace rows, and what it saw."""

    __slots__ = ("sp_run", "trace_on", "trace", "visits", "point_post", "loop_passes", "widenings")

    def __init__(
        self,
        sp_run: Optional[_Body],
        trace_on: bool = False,
        trace: Optional[list[TraceRow]] = None,
        visits: Optional[dict[int, int]] = None,
        point_post: Optional[dict[int, RcValue]] = None,
        loop_passes: Optional[dict[int, int]] = None,
        widenings: int = 0,
    ):
        self.sp_run = sp_run
        self.trace_on = trace_on
        self.trace = [] if trace is None else trace
        self.visits = {} if visits is None else visits
        self.point_post = {} if point_post is None else point_post
        self.loop_passes = {} if loop_passes is None else loop_passes
        self.widenings = widenings

    def trace_line(self, line: int, value: RcValue) -> None:
        n = self.visits.get(line, 0) + 1
        self.visits[line] = n
        self.trace.append(TraceRow(line, n, value))

    def post(self, nid: int, value: RcValue) -> None:
        prev = self.point_post.get(nid)
        self.point_post[nid] = value if prev is None else prev.join(value)


class Analyzer:
    def __init__(
        self,
        program: Program,
        ct: ClassTable,
        typeinfo: TypeInfo,
        sharing: SharingAnalysis,
        universe: FieldUniverse,
        widening_k: Optional[int] = 16,
    ):
        self.program = program
        self.ct = ct
        self.typeinfo = typeinfo
        self.sharing = sharing
        self.universe = universe
        self.via = Viability(ct, universe)
        self.widening_k = widening_k
        self.scopes = {
            sig.key: Scope.of(summary_scope(sig, typeinfo)) for sig in ct.all_method_sigs()
        }
        # per reference field, its bit in the universe's masks
        self.field_bits = {f: universe.abstract_mask([f]) for f in ct.reference_fields}
        # (callee's sharing context, entry value key) -> method denotation,
        # and the last run's recording; the input is (method, entry value,
        # sharing context)
        self.memo = Fixpoint(
            self._run_method,
            self._widen_memo,
            lambda inp: RcValue.bottom(universe, self.scopes[inp[0].key].names),
        )
        # per context, how often each entry of its denotation has changed
        self.counters: dict[Context, list[int]] = {}
        self.root: Optional[Context] = None  # the entry's input and last run

    # ------------------------------------------------------------------
    # helpers

    def _assert_normal(self, value: RcValue) -> None:
        if not value.is_normal():
            raise AssertionError("transfer produced a value out of normal form")

    @staticmethod
    def _drop_result(value: RcValue, I: RcValue) -> RcValue:
        """``value``, which is ``I`` or a value built in this visit, with the
        result variable forgotten: in place in a built value; ``I`` itself
        when its result entries are already false."""
        s = value.scope
        r = s.pos[RESULT_VAR]
        if value is not I:
            return value._drop_in_place(r)
        n, t = s.n, I.tables
        if t[s.nn + r] or any(t[r * n : r * n + n]) or any(t[r : s.nn : n]):
            return I.project([RESULT_VAR])
        return I

    # ------------------------------------------------------------------
    # expressions

    def eval_expr(self, e: Expr, I: RcValue, run: _Run) -> RcValue:
        """The value after the expression, which binds the result variable:
        ``I`` itself, untouched, or a value built in this visit."""
        if isinstance(e, (IntLit, NullLit)):
            return I
        if isinstance(e, NewObject):
            out = I._fresh()
            s = I.scope
            r = s.pos[RESULT_VAR]
            # the one model of the table 1 is the empty path
            out.tables[r * s.n + r] = out.tables[s.nn + r] = 1
            return out
        if isinstance(e, VarRef):  # an int variable is outside the scope: I stays
            return I.copy_var(e.name, RESULT_VAR)
        if isinstance(e, BinOp):
            left = self._drop_result(self.eval_expr(e.left, I, run), I)
            # the right operand hands back ``left``, which is I or built here,
            # or a value it built
            return self._drop_result(self.eval_expr(e.right, left, run), I)
        if isinstance(e, FieldRead):
            return self._eval_field_read(e, I, run)
        if isinstance(e, MethodCall):
            return self._eval_call(e, I, run)
        raise AnalysisError(f"unsupported expression {e!r}")

    def _eval_field_read(self, e: FieldRead, I: RcValue, run: _Run) -> RcValue:
        fld_mask = self.field_bits.get(e.fieldname)
        if fld_mask is None:  # an int field
            return I
        u = self.universe
        s = I.scope
        n, names = s.n, s.names
        v, r = s.pos[e.var], s.pos[RESULT_VAR]
        fld = 1 << fld_mask
        # the variables v deep-shares with, as a row of the sharing index
        ds_v = self.sharing.ds_row(run.sp_run.pre[e.nid], e.var)
        at = self.sharing.index.pos
        t = I.tables
        out = I._fresh()
        new = out.tables
        new[s.nn + r] |= t[s.nn + v]
        new[r * n + r] |= t[s.nn + v]
        for w in range(n):
            if w == r:
                continue
            from_v = t[v * n + w]
            if from_v:
                new[r * n + w] |= difference(u, from_v, fld)
            if ds_v >> at[names[w]] & 1:
                new[w * n + r] = u.full_table
                continue
            into = t[w * n + v]
            if into:
                new[w * n + r] |= concat(u, into, fld)
            # the read value may be w itself: exactly when the one-step
            # path through this field is an admitted way from v to w
            if from_v >> fld_mask & 1:
                new[w * n + r] |= 1
        return out._normalize_in_place()

    def _eval_call(self, e: MethodCall, I: RcValue, run: _Run) -> RcValue:
        sp = run.sp_run.pre[e.nid]
        sp_after, impure, callees = run.sp_run.calls[e.nid]
        u = self.universe
        true = u.full_table
        s = I.scope
        n, nn, pos, names = s.n, s.nn, s.pos, s.names
        t = I.tables
        actuals = [e.receiver] + list(e.args)

        summary_back = None  # a lone callee's remapped summary is the join
        for formal_to_actual, sp_callee in callees:
            sig = sp_callee.input[0]
            es = self.scopes[sig.key]
            et = [0] * (es.nn + es.n)
            # (formal position, actual position) for each reference formal
            fa = [(es.pos[f], pos[formal_to_actual[f]]) for f in sig.input_vars if f in es.pos]
            for f1, a1 in fa:
                for f2, a2 in fa:
                    et[f1 * es.n + f2] = t[a1 * n + a2]
                et[es.nn + f1] = t[nn + a1]
            output = self._denotation(sig, RcValue(u, es, et), sp_callee)
            mapping = {**formal_to_actual, OUT_VAR: RESULT_VAR}
            remapped = output.remap(mapping, names)
            summary_back = remapped if summary_back is None else summary_back.join(remapped)
        back = summary_back.tables
        out = I.join(summary_back)
        new = out.tables
        stitch_paths(u, s, t, back, new, actuals, impure, sp, sp_after)

        # result rows: what the result may reach among caller variables.  The
        # ``difference`` term is the rest of a path from vk to w after the
        # leg from vk to the result.  It is needed: ``back[(vk, %res)]`` does
        # not imply DS(vk, %res) when entry facts state reachability without
        # a ``ds`` line (test_call_result_keeps_the_alias_through_the_receiver)
        r = pos[RESULT_VAR]
        others = [w for w in range(n) if w != r]
        refs = [v for v in dict.fromkeys(actuals) if v in pos]
        # deep sharing by rows of the sharing index: ``at`` gives each
        # variable's position in it, and a row has one bit per position
        ds_row, ix_pos = self.sharing.ds_row, self.sharing.index.pos
        at = [ix_pos[w] for w in names]
        ds_res = ds_row(sp_after, RESULT_VAR)
        if any(ds_res >> ix_pos[vk] & 1 for vk in refs):
            for w in others:
                new[r * n + w] = true
        else:
            for vk in refs:
                k = pos[vk]
                to_k, from_k = back[r * n + k], back[k * n + r]
                if not (to_k or from_k):
                    continue
                for w in others:
                    path = t[k * n + w]
                    if not path:
                        continue
                    if to_k:
                        new[r * n + w] |= concat(u, to_k, path)
                    if from_k:
                        new[r * n + w] |= difference(u, path, from_k)

        # and the reverse direction: the result may sit inside an argument's
        # structure, so anything leading into that argument may lead to it —
        # including plain aliasing when the argument reaches both — and the
        # result may reach the argument's cycles
        for vk in refs:
            k = pos[vk]
            leg = back[k * n + r]
            ds_k = ds_row(sp, vk)
            for w in others:
                if ds_k >> at[w] & 1:
                    new[w * n + r] = true
                elif leg:
                    if t[w * n + k]:
                        new[w * n + r] |= concat(u, t[w * n + k], leg)
                    if t[k * n + w]:
                        new[w * n + r] |= 1
            if leg:
                new[nn + r] |= t[nn + k]

        # cyclicity: cycles built inside an impure argument spread to
        # everything sharing with it in any direction
        for i, vi in enumerate(actuals):
            if vi not in pos or i not in impure:
                continue
            a = pos[vi]
            ci = back[nn + a]
            if not ci:
                continue
            ds_i = ds_row(sp, vi)
            for w in others:
                if t[w * n + a] or t[a * n + w] or ds_i >> at[w] & 1:
                    new[nn + w] |= ci

        return out._normalize_in_place()

    # ------------------------------------------------------------------
    # commands

    def exec_body(self, body: list[Command], I: RcValue, run: _Run) -> RcValue:
        for cmd in body:
            I = self.exec_cmd(cmd, I, run)
        return I

    def exec_cmd(self, cmd: Command, I: RcValue, run: _Run) -> RcValue:
        out = self._exec(cmd, I, run)
        self._assert_normal(out)
        run.post(cmd.nid, out)
        if run.trace_on:
            run.trace_line(cmd.line, out)
        return out

    def _exec(self, cmd: Command, I: RcValue, run: _Run) -> RcValue:
        if isinstance(cmd, Skip):
            return I
        if isinstance(cmd, (Assign, Return)):
            evaluated = self.eval_expr(cmd.expr, I, run)
            pos = I.scope.pos
            if cmd.var not in pos:
                # an int target still consumes the expression result
                return self._drop_result(evaluated, I)
            if evaluated is I:
                return I.rename(RESULT_VAR, cmd.var)
            return evaluated._move_in_place(pos[RESULT_VAR], pos[cmd.var])
        if isinstance(cmd, FieldWrite):
            return self._exec_field_write(cmd, I, run)
        if isinstance(cmd, If):
            # trace rows inside branches would collide with the joined row
            trace_on, run.trace_on = run.trace_on, False
            t = self.exec_body(cmd.then_body, I, run)
            e = self.exec_body(cmd.else_body, I, run)
            run.trace_on = trace_on
            return t.join(e)
        if isinstance(cmd, While):
            return self._exec_while(cmd, I, run)
        raise AnalysisError(f"unsupported command {cmd!r}")

    def _exec_field_write(self, cmd: FieldWrite, I: RcValue, run: _Run) -> RcValue:
        evaluated = self.eval_expr(cmd.expr, I, run)
        fld_mask = self.field_bits.get(cmd.fieldname)
        if fld_mask is None:  # an int field
            return self._drop_result(evaluated, I)
        u = self.universe
        s = evaluated.scope
        n, nn = s.n, s.nn
        v, r = s.pos[cmd.var], s.pos[RESULT_VAR]
        t = evaluated.tables
        fld = 1 << fld_mask
        # the new edge alone, or the new edge plus the cycle it may close,
        # gone round any number of times: so the ways back are closed under
        # union, which one model or an up-closed table already is
        mid, cyc_new = fld, t[nn + r]
        back_to_v = t[r * n + v]
        if back_to_v:
            if back_to_v & (back_to_v - 1) and u.up(back_to_v) != back_to_v:
                while (more := concat(u, back_to_v, back_to_v)) != back_to_v:
                    back_to_v = more
            mid |= concat(u, fld, back_to_v)
            cyc_new |= concat(u, back_to_v, fld)
        # a new path runs from a variable that reaches v to one the written
        # value reaches: the result row and v's column, read before the
        # result is dropped and the new paths are written
        others = [w for w in range(n) if w != r]
        tails = [(w2, t[r * n + w2]) for w2 in others if t[r * n + w2]]
        intos = [(w1, t[w1 * n + v]) for w1 in others if t[w1 * n + v]]
        out = (I._fresh() if evaluated is I else evaluated)._drop_in_place(r)
        new = out.tables
        for w1, into in intos:
            head = concat(u, into, mid)
            for w2, tail in tails:
                new[w1 * n + w2] |= concat(u, head, tail)
            new[nn + w1] |= cyc_new
        return out._normalize_in_place()

    def _exec_while(self, cmd: While, I: RcValue, run: _Run) -> RcValue:
        head = I.canonical(self.via)
        counters = [0] * len(I.tables)
        passes = 0
        while True:
            if run.trace_on:
                run.trace_line(cmd.line, head)
            after = self.exec_body(cmd.body, head, run)
            passes += 1
            joined = head.join(after).canonical(self.via)
            widened = self._widen_in_place(head, joined, counters)
            if widened == head:
                break
            head = widened
        run.loop_passes[cmd.nid] = passes
        # every change of an entry past the k-th widened it once
        k = self.widening_k
        run.widenings += 0 if k is None else sum(c - k for c in counters if c > k)
        return head

    def _widen_in_place(self, old: RcValue, new: RcValue, counters: list[int]) -> RcValue:
        """``new``, a join the caller has just built, with every entry that
        has changed more than k times, by the position counts in
        ``counters``, widened to the tautology in place."""
        if self.widening_k is None:
            return new
        t, full, k = new.tables, self.universe.full_table, self.widening_k
        # an entry is widened only after the comparison has passed it
        for i in compress(count(), map(ne, t, old.tables)):
            counters[i] += 1
            if counters[i] > k:
                t[i] = full
        return new._normalize_in_place()

    # ------------------------------------------------------------------
    # method denotations

    def _denotation(self, sig: MethodSig, entry: RcValue, sp_callee: Context) -> RcValue:
        return self.memo.lookup((sp_callee, entry.key()), (sig, entry, sp_callee)).summary

    def _widen_memo(self, ctx: Context, new: RcValue) -> RcValue:
        old = ctx.summary
        counters = self.counters.setdefault(ctx, [0] * len(old.tables))
        return self._widen_in_place(old, old.join(new), counters)

    def _run_method(self, ctx: Context, trace_on: bool = False) -> RcValue:
        """One run of a method body from a context's input (method, entry
        value, sharing context), recorded in the context's ``run``."""
        sig, entry, sp_ctx = ctx.input
        env = self.typeinfo.env_for(sig.key)
        decl = self.ct.method_decl(sig)
        scope = self.scopes[sig.key]
        shadows = {w: shallow_name(w) for w in sig.param_names if env.type_of(w) != INT_TYPE}
        # inputs and locals, then ``out``, which the body does not declare
        body = (
            *env.ref_vars, *(v for v in scope.names if v not in env), *shadows.values(), RESULT_VAR
        )
        I0 = entry.remap({x: x for x in entry.scope.names}, body)
        pos = I0.scope.pos
        for w, u in shadows.items():
            I0._copy_in_place(pos[w], pos[u])
        run = ctx.run = _Run(sp_ctx.run, trace_on)
        if trace_on:
            run.trace_line(decl.line, I0)
        I1 = self.exec_body(decl.body, I0, run)
        # the summary speaks of the inputs' entry structures, which the
        # shadows pinned, of ``this`` and of the result
        outputs = {u: w for w, u in shadows.items()}
        outputs.update({"this": "this", OUT_VAR: OUT_VAR})
        return I1.remap(outputs, scope.names)._normalize_in_place().canonical(self.via)

    # ------------------------------------------------------------------
    # drivers

    def analyze(
        self, entry: Union[str, MethodSig], start: RcValue, sp_start: SharingState
    ) -> tuple[RcValue, int]:
        """Solve the fixpoint from the entry; returns the entry's final value
        and the number of entry runs.  ``root`` and every context then hold
        their last run."""
        if entry == "main":
            self.sharing.analyze_main(sp_start)
            sp_ctx = None
        else:
            sp_ctx = self.sharing.analyze_method_entry(entry, sp_start)
        self.root = Context((entry, start, sp_ctx), None)
        return self.memo.solve(self._run_entry)

    def _run_entry(self) -> RcValue:
        entry, start, _ = self.root.input
        if entry != "main":
            return self._run_method(self.root, trace_on=True)
        run = self.root.run = _Run(self.sharing.main, trace_on=True)
        run.trace_line(self.program.main.line, start)
        return self.exec_body(self.program.main.body, start, run)


# --------------------------------------------------------------------------
# top-level driver


def find_entry_sig(ct: ClassTable, name: str) -> MethodSig:
    matches = [s for s in ct.all_method_sigs() if s.name == name or f"{s.owner}.{s.name}" == name]
    if not matches:
        raise AnalysisError(f"no method named {name!r}")
    if len(matches) > 1:
        raise AnalysisError(
            f"ambiguous entry {name!r}; qualify as Class.method (candidates: "
            + ", ".join(str(s) for s in matches)
            + ")"
        )
    return matches[0]


def stitch_paths(
    u: FieldUniverse,
    scope: Scope,
    t: list[int],
    back: list[int],
    new: list[int],
    actuals: list[str],
    impure: frozenset[int],
    sp: SharingState,
    sp_after: SharingState,
) -> None:
    """Join into ``new`` the paths a call may have created between caller
    variables w1 and w2: for an impure actual vi, a path from w1 into vi
    before the call (``t``), the callee's leg from vi to an actual vj
    (``back``) and a path from vj to w2 before the call.  Deep-sharing
    forfeits the field information of a side: of the way in when DS(w1, vi)
    held before the call, of the leg and the way out when DS(vi, vj) holds
    after it.  A stitched path needs a way into vi and a way out of vj.

    ``concat`` is associative, distributes over ``|``, and ``concat(x,
    true)`` is ``up(x)``, so the paths are one product in the path semiring
    (Tarjan, JACM 1981): per impure actual, each column w2 gathers the join
    of ``concat(leg, out)`` and the join of the outs over the vj without
    DS(vi, vj), and whether some vj with DS(vi, vj) leads there; then each
    (w1, w2) takes one ``concat``.  That is O(m·n·(m + n)) ``concat``s for
    m actuals and n variables, against O(m²n²) pair by pair, and no
    ``concat`` gets a zero operand."""
    true = u.full_table
    n, pos, names = scope.n, scope.pos, scope.names
    r = pos[RESULT_VAR]
    others = [w for w in range(n) if w != r]
    refs = [v for v in dict.fromkeys(actuals) if v in pos]
    for vi in dict.fromkeys(v for i, v in enumerate(actuals) if i in impure and v in pos):
        a = pos[vi]
        via = [0] * n  # per column, the legs and outs of the vj without DS(vi, vj)
        outs = [0] * n  # per column, the outs alone of those vj
        blurred = 0  # the columns some vj with DS(vi, vj) leads to, as bits
        for vj in refs:
            b = pos[vj]
            if sp_after.has_ds(vi, vj):
                for w2 in others:
                    if t[b * n + w2]:
                        blurred |= 1 << w2
                continue
            leg = back[a * n + b]
            for w2 in others:
                out_of = t[b * n + w2]
                if out_of:
                    outs[w2] |= out_of
                    if leg:
                        via[w2] |= concat(u, leg, out_of)
        shared_row = None  # a row sharing with vi: any way in, then ``true`` or an out
        for w1 in others:
            row = w1 * n
            if sp.has_ds(names[w1], vi):
                if shared_row is None:
                    shared_row = [
                        true if blurred >> w2 & 1 else u.up(o) if o else 0
                        for w2, o in enumerate(outs)
                    ]
                for w2 in others:
                    new[row + w2] |= shared_row[w2]
                continue
            into = t[row + a]
            if not into:
                continue
            up_into = u.up(into) if blurred else 0
            for w2 in others:
                if blurred >> w2 & 1:
                    new[row + w2] |= up_into
                elif via[w2]:
                    new[row + w2] |= concat(u, into, via[w2])


def summary_scope(sig: MethodSig, typeinfo: TypeInfo) -> tuple[str, ...]:
    """The reference variables of a method summary, in order: the
    reference formals, then ``out`` unless the method returns an int."""
    env = typeinfo.env_for(sig.key)
    refs = tuple(f for f in sig.input_vars if env.type_of(f) != INT_TYPE)
    return refs if sig.return_type == INT_TYPE else refs + (OUT_VAR,)


def entry_scope(
    program: Program,
    ct: ClassTable,
    typeinfo: TypeInfo,
    *,
    tracked: Optional[Iterable[str]] = None,
    entry: Union[str, MethodSig] = "main",
) -> tuple[FieldUniverse, Union[str, MethodSig], tuple[str, ...]]:
    """The field universe, the entry (``"main"`` or a method), and the
    reference variables the entry's ``//@ init`` lines may name, in order."""
    if tracked is None:
        universe = FieldUniverse.of(ct.reference_fields)
    else:
        try:
            universe = FieldUniverse.tracked(ct.reference_fields, tracked)
        except ValueError as exc:  # unknown tracked fields
            raise AnalysisError(str(exc)) from exc
    if universe.size > MAX_FIELDS:
        raise AnalysisError(
            f"the field universe has {universe.size} fields, more than {MAX_FIELDS}; "
            "track fewer with --track-fields"
        )
    if entry == "main":
        if program.main is None:
            raise AnalysisError("program has no main block")
        return universe, "main", typeinfo.env_for("main").ref_vars + (RESULT_VAR,)
    sig = entry if isinstance(entry, MethodSig) else find_entry_sig(ct, entry)
    return universe, sig, tuple(v for v in summary_scope(sig, typeinfo) if v != OUT_VAR)


def parse_init_annotations(
    program: Program,
    universe: FieldUniverse,
    variables: tuple[str, ...],
    ref_vars: frozenset[str],
) -> tuple[RcValue, tuple[Sequence[Pair], Sequence[Pair]]]:
    """Resolve the ``//@ init`` lines into the entry abstract value and the
    entry sharing facts, the ``(sh, ds)`` pairs of names that
    ``SharingAnalysis.state`` turns into a state; unannotated entries stay at
    the contradiction and share nothing.  The value's scope is ``variables``
    restricted to ``ref_vars``, in the order of ``variables``.  A declared
    reference field the universe does not track folds into the stand-in, as
    on concrete paths."""
    value = RcValue.bottom(universe, (v for v in variables if v in ref_vars))
    if not program.annotations:
        return value, ((), ())
    t, pos, n, nn = value.tables, value.scope.pos, value.scope.n, value.scope.nn
    sh: list[tuple[str, str]] = []
    ds: list[tuple[str, str]] = []
    declared = {
        name for cls in program.classes for name, typ in cls.fields if typ != INT_TYPE
    }
    mentioned: set[str] = set()
    for ann in program.annotations:
        for v in ann.variables:
            if v not in ref_vars:
                raise AnalysisError(
                    f"annotation names unknown reference variable {v!r}", ann.line, ann.col
                )
        mentioned.update(ann.variables)
        if ann.kind == "ds":
            a, b = ann.variables
            ds.append((a, b))
            sh += [(a, b), (a, a), (b, b)]
            continue
        table = 0
        for model in ann.models or []:
            for f in model:
                if f not in declared:
                    raise AnalysisError(
                        f"annotation names unknown field {f!r}", ann.line, ann.col
                    )
            table |= 1 << universe.abstract_mask(model)
        if ann.kind == "reach":
            a, b = ann.variables
            t[pos[a] * n + pos[b]] |= table
        else:
            (a,) = ann.variables
            t[nn + pos[a]] |= table
    # a variable asserted reachable/cyclic may be non-null: give it a region;
    # two variables one reaches the other share it (the nonzero entries off
    # the diagonal, position k = i * n + j)
    sh += [(v, v) for v in mentioned]
    names = value.scope.names
    sh += [(names[k // n], names[k % n]) for k in compress(range(nn), t) if k % (n + 1)]
    return value._normalize_in_place(), (sh, ds)


def analyze_program(
    program: Program,
    ct: ClassTable,
    typeinfo: TypeInfo,
    *,
    tracked: Optional[Iterable[str]] = None,
    entry: Union[str, MethodSig] = "main",
    init_rc: Optional[RcValue] = None,
    init_sp: Optional[tuple[Sequence[Pair], Sequence[Pair]]] = None,
    widening_k: Optional[int] = 16,
) -> AnalysisResult:
    """Analyse the entry (``"main"``, a method name or a ``MethodSig``) from
    the program's ``//@ init`` facts, with ``init_rc`` joined on top and the
    ``(sh, ds)`` pairs of ``init_sp`` added when given, as
    ``parse_init_annotations`` returns them."""
    started = time.perf_counter()
    universe, entry, scope = entry_scope(program, ct, typeinfo, tracked=tracked, entry=entry)
    start, (sh, ds) = parse_init_annotations(program, universe, scope, frozenset(scope))
    # empty facts join in nothing
    if init_rc is not None and any(init_rc.tables):
        start = start.join(init_rc.remap({x: x for x in init_rc.scope.names}, scope))
    if init_sp is not None:
        sh, ds = [*sh, *init_sp[0]], [*ds, *init_sp[1]]
    sharing = SharingAnalysis(program, ct, typeinfo)
    analyzer = Analyzer(program, ct, typeinfo, sharing, universe, widening_k)
    final, rounds = analyzer.analyze(entry, start.normalize(), sharing.state(sh, ds))
    # the entry's last run, then each context's, in the order the fixpoint met them
    contexts = analyzer.memo.contexts
    recordings = [analyzer.root.run] + [ctx.run for ctx in contexts.values()]
    merged = _Run(None)  # points join over the runs; a loop's last run counts
    for rec in recordings:
        for nid, value in rec.point_post.items():
            merged.post(nid, value)
        merged.loop_passes.update(rec.loop_passes)
        merged.widenings += rec.widenings
    denotations: dict[tuple[str, str], dict[tuple, RcValue]] = {}
    for (sp_ctx, entry_key), ctx in contexts.items():
        denotations.setdefault(ctx.input[0].key, {})[(entry_key, sp_ctx.input[1])] = ctx.summary
    # ``final``, the trace and the points share value objects: each distinct
    # one is canonicalised once, keyed by identity while ``distinct`` holds it
    recorded = [final, *(r.value for r in recordings[0].trace), *merged.point_post.values()]
    distinct = {id(v): v for v in recorded}
    canon = {key: v.canonical(analyzer.via) for key, v in distinct.items()}
    entry_key = "main" if entry == "main" else entry.key
    return AnalysisResult(
        universe=universe,
        entry=entry_key,
        display_vars=tuple(typeinfo.env_for(entry_key).ref_vars),
        final=canon[id(final)],
        trace=[TraceRow(r.line, r.visit, canon[id(r.value)]) for r in recordings[0].trace],
        point_post={nid: canon[id(v)] for nid, v in merged.point_post.items()},
        denotations=denotations,
        rounds=rounds,
        loop_passes=merged.loop_passes,
        widenings=merged.widenings,
        via=analyzer.via,
        sharing=sharing,
        elapsed=time.perf_counter() - started,
    )
