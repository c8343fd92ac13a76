"""Reference definitions the tests check the package against: saturation on
sets of field names and on (node, mask) pairs, the viability table built by
the latter, address reachability and deep sharing derived from it,
an AST fingerprint, a record copied with some fields changed,
truth-table submasks, trace lookup, a formula's JSON models by sorting,
a single move by ``remap``, the field halves by
division, ``concat`` by a loop over models, the concretizations of the
coarser domains of ``fieldreach.compare`` (on the same plain sets and dicts
as the abstractions) with the formula classes they are stated in, the dense
transfer functions, the stitched paths of a call pair by pair, the
abstract value as two name-keyed dicts, the
deep-sharing analysis on sets of name pairs, and the lexer and parser with
a match per blank run and a bound-checked lookahead.
None of it runs in the package."""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from fieldreach.compare import class_pairs_closure
from fieldreach.domain import RcValue
from fieldreach.formula import (
    FieldUniverse,
    PathFormula,
    Viability,
    class_graph,
    class_reach_closure,
    concat,
    difference,
    models_of,
)
from fieldreach.oracle import Loc
from fieldreach.parser import KEYWORDS, MAX_NESTING, ParseError
from fieldreach.record import Record
from fieldreach.semantics import Analyzer, _Run, summary_scope
from fieldreach.sharing import SharingAnalysis, _Body
from fieldreach.syntax import (
    INT_TYPE,
    OUT_VAR,
    RESULT_VAR,
    Assign,
    BinOp,
    ClassDecl,
    Command,
    Comparison,
    Expr,
    FieldRead,
    FieldWrite,
    If,
    IntLit,
    MainBlock,
    MethodCall,
    MethodDecl,
    NewObject,
    NullLit,
    Program,
    Return,
    Skip,
    VarRef,
    While,
    walk_exprs,
)

# --------------------------------------------------------------------------
# concrete heaps


def walk_saturate(heap, src, require_step=False):
    """The definition of saturation, on sets of field names: every (target,
    traversed-field-set) pair of a walk from ``src``, of at least one step
    under ``require_step``.  Kept apart from the package's mask-space core."""
    start = [(src, frozenset())]
    if require_step:
        start = [
            (value.addr, frozenset([fname]))
            for fname, value in heap[src].fields.items()
            if isinstance(value, Loc)
        ]
    out = set(start)
    work = list(out)
    while work:
        loc, traversed = work.pop()
        for fname, value in heap[loc].fields.items():
            if isinstance(value, Loc):
                pair = (value.addr, traversed | {fname})
                if pair not in out:
                    out.add(pair)
                    work.append(pair)
    return frozenset(out)


def pairwise_saturate(succ, reached, work):
    """Expands the (node, mask) pairs on ``work`` along ``succ``, which maps
    each node to its (label bit, successor) steps, into ``reached``: per
    node, the truth table of the masks of the walks that end there.  A pair
    is expanded only when its bit is new, so this ends on cyclic graphs
    too.  The package's ``saturate`` pushes whole tables instead."""
    while work:
        node, mask = work.pop()
        for bit, dst in succ[node]:
            m = mask | bit
            t = reached.get(dst, 0)
            if not t >> m & 1:
                reached[dst] = t | 1 << m
                work.append((dst, m))
    return reached


def pairwise_viability(ct, universe):
    """``Viability(ct, universe).table`` by ``pairwise_saturate``: the empty
    mask, every mask with the stand-in, and the masks of the class graph's
    walks from every class."""
    graph = class_graph(ct, {f: 1 << i for i, f in enumerate(universe.fields)})
    table = universe.halves[universe.any_bit][1] | 1 if universe.has_any else 1
    for t in pairwise_saturate(graph, {}, [(c, 0) for c in graph]).values():
        table |= t
    return table


def reachable(heap, src, require_step=False):
    """Locations a walk from ``src`` reaches, of at least one step under
    ``require_step``."""
    return frozenset(target for target, _ in walk_saturate(heap, src, require_step))


def deep_share_pairs(state, variables):
    """Sorted variable pairs whose locations reach a common location, each
    through at least one step; a variable pairs with itself."""
    regions = {
        v: reachable(state.heap, state.frame[v].addr, require_step=True)
        for v in variables
        if isinstance(state.frame.get(v), Loc)
    }
    names = sorted(regions)
    return frozenset(
        (a, b) for i, a in enumerate(names) for b in names[i:] if regions[a] & regions[b]
    )


# --------------------------------------------------------------------------
# programs and results

_POSITIONS = {"nid", "line", "col", "decl_at", "name_at"}


def fingerprint(node, positions=False):
    """The structure of an AST: every field of every node in order, node ids
    and source positions only when ``positions`` is set."""
    if isinstance(node, Record):
        return (type(node).__name__,) + tuple(
            fingerprint(getattr(node, f), positions)
            for f in node._fields
            if positions or f not in _POSITIONS
        )
    if isinstance(node, (list, tuple)):
        return tuple(fingerprint(x, positions) for x in node)
    return node


def replaced(record: Record, **changes) -> Record:
    """A copy of a package record with the given fields changed."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def submasks(mask):
    """All submasks of ``mask``, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def trace_cell(result, line, visit=1):
    """The value an ``AnalysisResult`` traces after ``line`` on ``visit``."""
    for row in result.trace:
        if row.line == line and row.visit == visit:
            return row.value
    raise KeyError(f"no trace row for line {line} (visit {visit})")


def sorted_json_models(f):
    """The JSON models of a formula by their definition: each model's field
    names sorted as strings, and the lists sorted."""
    return sorted(sorted(f.universe.names_of(m)) for m in models_of(f.table))


def rename_by_remap(value, src, dst):
    """``RcValue.rename(src, dst)`` as the ``remap`` of the whole scope onto
    itself: ``src`` onto ``dst``, every other variable but ``dst`` onto
    itself, and ``dst``'s own entries left behind."""
    if src not in value.cyc or dst not in value.cyc:
        return value
    full = {x: x for x in value.cyc if x != dst}
    full[src] = dst
    return value.remap(full, value.cyc)


def halves_by_division(universe):
    """``FieldUniverse.halves`` by its closed form: the run pattern of each
    bit is the full table divided by one period of ones and multiplied by
    one run of ones."""
    full = universe.full_table
    out = {}
    for i in range(universe.size):
        bit = 1 << i
        without = full // ((1 << 2 * bit) - 1) * ((1 << bit) - 1)
        out[bit] = (without, full ^ without)
    return out


def concat_by_models(universe, a, b):
    """``concat`` without the up-closed meet: each model of the sparser
    side widens the other table by its fields, one masked shift per field."""
    few, many = (a, b) if a.bit_count() <= b.bit_count() else (b, a)
    halves = universe.halves
    out = 0
    for x in models_of(few):
        t = many
        while x:
            bit = x & -x
            x ^= bit
            without, with_ = halves[bit]
            t = ((t & without) << bit) | (t & with_)
        out |= t
    return out


# --------------------------------------------------------------------------
# formula classes


def all_formulas(universe):
    """Every formula over a small universe, in truth-table order."""
    return (PathFormula(universe, t) for t in range(universe.full_table + 1))


def is_monotone(f):
    """Supersets of models are models."""
    return f.universe.up(f.table) == f.table


def is_positive(f):
    """The all-fields assignment is a model."""
    return f.has_model((1 << f.universe.size) - 1)


def is_definite(f):
    """Models are closed under intersection."""
    models = list(models_of(f.table))
    return all(f.has_model(a & b) for a in models for b in models)


# --------------------------------------------------------------------------
# concretizations of the coarser domains


def gamma_nofields(statements, universe, keys):
    empty_only = PathFormula.only(universe, ())
    true = PathFormula.true(universe)
    return {key: (true if key in statements else empty_only) for key in keys}


def class_pairs(ct):
    """Every class pair the declarations allow to be connected."""
    return class_pairs_closure(ct, class_reach_closure(ct, ct.reference_fields))


def gamma_class_pairs(pairs, ct, var_types):
    return frozenset(
        (a, b)
        for a, ta in var_types.items()
        for b, tb in var_types.items()
        if any(ct.is_subclass(ta, k1) and ct.is_subclass(tb, k2) for k1, k2 in pairs)
    )


def gamma_monotone(formulas):
    return dict(formulas)


def enumerate_monotone(universe):
    """All domain elements over a small universe: monotone formulas plus the
    contradiction."""
    return [f for f in all_formulas(universe) if is_monotone(f)]


def gamma_scapin(excluded, universe, keys):
    out = {}
    for key in keys:
        banned_mask = universe.mask_of(excluded[key])
        out[key] = PathFormula.from_models(
            universe, [m for m in range(1 << universe.size) if not (m & banned_mask)]
        )
    return out


def gamma_q(required, universe, variables):
    out = {}
    for var in variables:
        if var not in required:
            out[var] = PathFormula.false(universe)
        else:
            need = universe.mask_of(required[var])
            out[var] = PathFormula.from_models(
                universe, [m for m in range(1 << universe.size) if (m & need) == need]
            )
    return out


# --------------------------------------------------------------------------
# dense transfer functions


class DenseAnalyzer(Analyzer):
    """The analysis with the field read, field write and call transfers that
    compute every entry, zero operands included, by name into a value that
    is joined onto the input, and with the call effect and the callees'
    contexts computed afresh at each call.  The package skips the terms
    with a zero operand, works by position and reads the call records of
    the sharing analysis."""

    def _eval_field_read(self, e: FieldRead, I: RcValue, run: _Run) -> RcValue:
        if self.ct.field_type(e.fieldname) == INT_TYPE:
            return I
        sp = run.sp_run.pre[e.nid]
        u = self.universe
        v = e.var
        fld = self._only([e.fieldname])
        fld_mask = u.abstract_mask([e.fieldname])
        reach, cyc = I.reach, I.cyc
        extra_reach = {(RESULT_VAR, RESULT_VAR): cyc[v]}
        for w in cyc:
            if w == RESULT_VAR:
                continue
            extra_reach[(RESULT_VAR, w)] = difference(u, reach[(v, w)], fld)
            if sp.has_ds(w, v):
                extra_reach[(w, RESULT_VAR)] = u.full_table
            else:
                into = concat(u, reach[(w, v)], fld)
                # the read value may be w itself: exactly when the one-step
                # path through this field is an admitted way from v to w
                if reach[(v, w)] >> fld_mask & 1:
                    into |= self._only(())
                extra_reach[(w, RESULT_VAR)] = into
        extra = RcValue.of(u, cyc, extra_reach, {RESULT_VAR: cyc[v]})
        return I.join(extra).normalize()

    def _eval_call(self, e: MethodCall, I: RcValue, run: _Run) -> RcValue:
        sp = run.sp_run.pre[e.nid]
        u = self.universe
        true = u.full_table
        reach, cyc = I.reach, I.cyc
        actuals = [e.receiver] + list(e.args)
        ref_actual = [a for a in actuals if a in cyc]
        callees = self.typeinfo.call_targets[e.nid]
        sp_after, impure, bound = self.sharing.call_effect(e, sp)

        summary_back = RcValue.bottom(u, cyc)
        for sig, (formal_to_actual, sp_callee) in zip(callees, bound):
            scope = summary_scope(sig, self.typeinfo)
            formals = [f for f in sig.input_vars if f in scope]
            entry = RcValue.of(
                u,
                scope,
                {
                    (f1, f2): reach[(formal_to_actual[f1], formal_to_actual[f2])]
                    for f1 in formals
                    for f2 in formals
                },
                {f: cyc[formal_to_actual[f]] for f in formals},
            )
            output = self._denotation(sig, entry, sp_callee)
            mapping = {**formal_to_actual, OUT_VAR: RESULT_VAR}
            summary_back = summary_back.join(output.remap(mapping, cyc))
        back = summary_back.reach

        # paths the callee may have created between caller variables: for an
        # impure argument, pre-call reachability into it, the callee-computed
        # leg between arguments, and pre-call reachability out of the other
        # argument are stitched together; deep-sharing on either side forfeits
        # the field information for that side.
        assembled_reach: defaultdict = defaultdict(int)
        assembled_cyc: defaultdict = defaultdict(int)
        others = [w for w in cyc if w != RESULT_VAR]
        for i, vi in enumerate(actuals):
            if vi not in cyc or i not in impure:
                continue
            for vj in ref_actual:
                ds_ij_after = sp_after.has_ds(vi, vj)
                leg = back[(vi, vj)]
                for w1 in others:
                    ds_w1_vi = sp.has_ds(w1, vi)
                    into = reach[(w1, vi)]
                    for w2 in others:
                        out_of = reach[(vj, w2)]
                        if not out_of:
                            continue
                        if not ds_w1_vi and not ds_ij_after:
                            f = concat(u, concat(u, into, leg), out_of)
                        elif not ds_w1_vi and ds_ij_after:
                            f = concat(u, into, true)
                        elif ds_w1_vi and not ds_ij_after:
                            f = concat(u, true, out_of)
                        else:
                            f = true
                        assembled_reach[(w1, w2)] |= f

        # result rows: what the result may reach among caller variables
        for w in others:
            acc = 0
            for vk in ref_actual:
                if sp_after.has_ds(vk, RESULT_VAR):
                    acc |= true
                else:
                    acc |= concat(u, back[(RESULT_VAR, vk)], reach[(vk, w)]) | difference(
                        u, reach[(vk, w)], back[(vk, RESULT_VAR)]
                    )
            assembled_reach[(RESULT_VAR, w)] = acc

        # and the reverse direction: the result may sit inside an argument's
        # structure, so anything leading into that argument may lead to it —
        # including plain aliasing when the argument reaches both
        for w in others:
            acc = 0
            for vk in ref_actual:
                if sp.has_ds(w, vk):
                    acc |= true
                else:
                    leg = back[(vk, RESULT_VAR)]
                    acc |= concat(u, reach[(w, vk)], leg)
                    if leg and reach[(vk, w)]:
                        acc |= self._only(())
            assembled_reach[(w, RESULT_VAR)] = acc

        # cyclicity: cycles built inside an impure argument spread to
        # everything sharing with it in any direction
        for i, vi in enumerate(actuals):
            if vi not in cyc or i not in impure:
                continue
            ci = summary_back.cyc[vi]
            for w in others:
                if sp.has_ds(w, vi) or reach[(w, vi)] or reach[(vi, w)]:
                    assembled_cyc[w] |= ci
        crho = 0
        for vk in ref_actual:
            if back[(vk, RESULT_VAR)]:
                crho |= cyc[vk]
        assembled_cyc[RESULT_VAR] = crho

        assembled = RcValue.of(u, cyc, assembled_reach, assembled_cyc)
        return I.join(summary_back).join(assembled).normalize()

    def _exec_field_write(self, cmd: FieldWrite, I: RcValue, run: _Run) -> RcValue:
        evaluated = self.eval_expr(cmd.expr, I, run)
        if self.ct.field_type(cmd.fieldname) == INT_TYPE:
            return evaluated.project([RESULT_VAR])
        u = self.universe
        v = cmd.var
        reach = evaluated.reach
        fld = self._only([cmd.fieldname])
        # the ways back to v, closed under union: a walk may go round the
        # closed cycle any number of times (no shortcut for a table that is
        # closed already, as the package takes)
        back = reach[(RESULT_VAR, v)]
        while (more := concat(u, back, back)) != back:
            back = more
        # the new edge alone, or the new edge plus the cycle it may close
        mid = fld | concat(u, fld, back)
        refs = list(I.cyc)
        extra_reach = {}
        for w1 in refs:
            head = concat(u, reach[(w1, v)], mid)
            for w2 in refs:
                extra_reach[(w1, w2)] = concat(u, head, reach[(RESULT_VAR, w2)])
        cyc_new = concat(u, back, fld) | evaluated.cyc[RESULT_VAR]
        extra_cyc = {w: cyc_new for w in refs if reach[(w, v)]}
        extra = RcValue.of(u, refs, extra_reach, extra_cyc)
        return evaluated.join(extra).project([RESULT_VAR]).normalize()


def stitch_pair_by_pair(u, scope, t, back, new, actuals, impure, sp, sp_after):
    """``semantics.stitch_paths`` as ``Analyzer._eval_call`` computed it
    before it took one product per pair: per impure actual vi, reference
    actual vj, row w1 and column w2, two ``concat``s, zero operands
    included."""
    true = u.full_table
    n, pos, names = scope.n, scope.pos, scope.names
    ref_actual = [a for a in actuals if a in pos]
    r = pos[RESULT_VAR]
    others = [w for w in range(n) if w != r]
    for i, vi in enumerate(actuals):
        if vi not in pos or i not in impure:
            continue
        a = pos[vi]
        for vj in ref_actual:
            b = pos[vj]
            ds_ij_after = sp_after.has_ds(vi, vj)
            leg = back[a * n + b]
            outs = [(w2, t[b * n + w2]) for w2 in others if t[b * n + w2]]
            for w1 in others:
                ds_w1_vi = sp.has_ds(names[w1], vi)
                into = t[w1 * n + a]
                if not into and not ds_w1_vi:
                    continue
                for w2, out_of in outs:
                    if not ds_w1_vi and not ds_ij_after:
                        f = concat(u, concat(u, into, leg), out_of)
                    elif not ds_w1_vi and ds_ij_after:
                        f = concat(u, into, true)
                    elif ds_w1_vi and not ds_ij_after:
                        f = concat(u, true, out_of)
                    else:
                        f = true
                    new[w1 * n + w2] |= f


# --------------------------------------------------------------------------
# the abstract value as two name-keyed dicts


@dataclass
class DictRcValue:
    """The package's ``RcValue`` before it held one flat list of tables:
    its entries in two dicts keyed by name, verbatim but renamed."""

    universe: FieldUniverse
    reach: dict[tuple[str, str], int]  # truth tables over ``universe``
    cyc: dict[str, int]  # its keys are the scope, in order

    # -- constructors

    @staticmethod
    def bottom(universe: FieldUniverse, variables: Iterable[str]) -> "DictRcValue":
        """All entries false over the given reference variables, in order."""
        vs = tuple(variables)
        return DictRcValue(universe, {(v, w): 0 for v in vs for w in vs}, dict.fromkeys(vs, 0))

    def _fresh(self) -> "DictRcValue":
        return DictRcValue(self.universe, dict(self.reach), dict(self.cyc))

    # -- lookups

    def reach_at(self, v: str, w: str) -> PathFormula:
        return PathFormula(self.universe, self.reach[(v, w)])

    def cyc_at(self, v: str) -> PathFormula:
        return PathFormula(self.universe, self.cyc[v])

    # -- scope-preserving operations

    def project(self, variables: Iterable[str]) -> "DictRcValue":
        """Forget everything about the given variables: their rows, columns
        and cyclicity become false."""
        gone = self.cyc.keys() & variables
        if not gone:
            return self
        out = self._fresh()
        reach, cyc = out.reach, out.cyc
        for g in gone:
            cyc[g] = 0
            for x in cyc:
                reach[(g, x)] = reach[(x, g)] = 0
        return out

    def rename(self, src: str, dst: str) -> "DictRcValue":
        """Move ``src`` onto ``dst``: ``dst`` takes ``src``'s rows, columns
        and cyclicity, its own entries are discarded, and ``src`` is
        forgotten.  Unchanged when ``src == dst`` or either is outside the
        scope."""
        if src == dst or src not in self.cyc or dst not in self.cyc:
            return self
        return self.copy_var(src, dst).project([src])

    def copy_var(self, src: str, dst: str) -> "DictRcValue":
        """Make ``dst`` an exact alias snapshot of ``src``: they alias each
        other, and ``dst`` inherits rows, columns and cyclicity."""
        if src == dst or src not in self.cyc or dst not in self.cyc:
            return self
        out = self._fresh()
        reach = self.reach
        self_reach = reach[(src, src)]
        out.cyc[dst] = self.cyc[src]
        out.reach[(dst, dst)] = out.reach[(src, dst)] = out.reach[(dst, src)] = self_reach
        for x in self.cyc:
            if x not in (src, dst):
                out.reach[(dst, x)] = reach[(src, x)]
                out.reach[(x, dst)] = reach[(x, src)]
        return out

    # -- lattice structure

    def _check(self, other: "DictRcValue") -> None:
        if self.universe != other.universe or self.cyc.keys() != other.cyc.keys():
            raise ValueError("values over different scopes")

    def join(self, other: "DictRcValue") -> "DictRcValue":
        self._check(other)
        out = self._fresh()
        reach, cyc = out.reach, out.cyc
        for key, t in other.reach.items():
            if t:
                reach[key] |= t
        for v, t in other.cyc.items():
            if t:
                cyc[v] |= t
        return out

    def leq(self, other: "DictRcValue") -> bool:
        self._check(other)
        reach, cyc = other.reach, other.cyc
        return not any(t & ~reach[key] for key, t in self.reach.items()) and not any(
            t & ~cyc[v] for v, t in self.cyc.items()
        )

    # -- normal form

    def normalize(self) -> "DictRcValue":
        """Fold self-reachability into cyclicity."""
        return self._fresh()._normalize_in_place()

    def _normalize_in_place(self) -> "DictRcValue":
        """``normalize`` without the copy, for a value no one else holds yet."""
        reach, cyc = self.reach, self.cyc
        for v in cyc:
            cyc[v] |= reach[(v, v)]
        return self

    def is_normal(self) -> bool:
        return not any(self.reach[(v, v)] & ~t for v, t in self.cyc.items())

    def canonical(self, via: Optional[Viability]) -> "DictRcValue":
        """Drop unrealizable models everywhere (display/fixpoint form)."""
        if via is None:
            return self
        full, viable = self.universe.full_table, via.table  # ``via.canonical``, inline
        return DictRcValue(
            self.universe,
            {key: t if t == full else t & viable for key, t in self.reach.items()},
            {v: t if t == full else t & viable for v, t in self.cyc.items()},
        )

    # -- scope changes

    def remap(self, mapping: Mapping[str, str], variables: Iterable[str]) -> "DictRcValue":
        """Rebuild over a new scope of reference variables; only mapped
        entries carry over, and several sources landing on one target join."""
        out = DictRcValue.bottom(self.universe, variables)
        live = {s: d for s, d in mapping.items() if s in self.cyc and d in out.cyc}
        reach, cyc = out.reach, out.cyc
        for (a, b), t in self.reach.items():
            if t and a in live and b in live:
                reach[(live[a], live[b])] |= t
        for v, t in self.cyc.items():
            if t and v in live:
                cyc[live[v]] |= t
        return out

    # -- identity / serialization

    def key(self):
        return tuple(sorted(self.reach.items())), tuple(sorted(self.cyc.items()))

    def to_json(self) -> dict:
        return {
            "reach": {
                f"({v},{w})": self.reach_at(v, w).json_models() for (v, w) in sorted(self.reach)
            },
            "cyc": {v: self.cyc_at(v).json_models() for v in sorted(self.cyc)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = [
            f"({v},{w})={self.reach_at(v, w).render()}"
            for (v, w), t in sorted(self.reach.items())
            if t
        ]
        rows += [f"cyc({v})={self.cyc_at(v).render()}" for v, t in sorted(self.cyc.items()) if t]
        return "<rc " + " ".join(rows) + ">"


# --------------------------------------------------------------------------
# deep sharing on pair sets

Pair = tuple[str, str]


def _norm(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


def _partners(rel: frozenset[Pair], v: str) -> list[str]:
    """The names a relation pairs with ``v``; ``v`` itself if it has a self pair."""
    return [b if a == v else a for a, b in rel if a == v or b == v]


@dataclass(frozen=True)
class PairSharingState:
    """The sharing state as two frozensets of name pairs, each pair with
    its names in order: the package's state before it held bit matrices."""

    sh: frozenset[Pair]
    ds: frozenset[Pair]

    @staticmethod
    def empty() -> "PairSharingState":
        return PairSharingState(frozenset(), frozenset())

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

    def kill(self, v: str) -> "PairSharingState":
        return PairSharingState(
            frozenset(p for p in self.sh if v not in p),
            frozenset(p for p in self.ds if v not in p),
        )

    def add_sh(self, pairs: Iterable[Pair]) -> "PairSharingState":
        return PairSharingState(self.sh | {_norm(a, b) for a, b in pairs}, self.ds)

    def add_ds(self, pairs: Iterable[Pair]) -> "PairSharingState":
        return PairSharingState(self.sh, self.ds | {_norm(a, b) for a, b in pairs})

    def union(self, other: "PairSharingState") -> "PairSharingState":
        return PairSharingState(self.sh | other.sh, self.ds | other.ds)

    def clique(self, names: Iterable[str]) -> "PairSharingState":
        """Relate every two of the names, each to itself too, in both relations."""
        names = list(names)
        pairs = {_norm(a, b) for a in names for b in names}
        return PairSharingState(self.sh | pairs, self.ds | pairs)

    def copy_alias(self, src: str, dst: str) -> "PairSharingState":
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
        return PairSharingState(st.sh | new_sh, st.ds | new_ds)

    def remap_from(self, sources: Mapping[str, str]) -> "PairSharingState":
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
        return PairSharingState(frozenset(sh), frozenset(ds))

    def remap_to(self, mapping: Mapping[str, str]) -> "PairSharingState":
        """Carry pairs through an old-name to new-name mapping; unmapped
        names drop out."""
        sh: set[Pair] = set()
        ds: set[Pair] = set()
        for rel, new in ((self.sh, sh), (self.ds, ds)):
            for a, b in rel:
                if a in mapping and b in mapping:
                    new.add(_norm(mapping[a], mapping[b]))
        return PairSharingState(frozenset(sh), frozenset(ds))


def as_pairs(state):
    """A state as a ``PairSharingState``: the decoded pairs of a package one."""
    if isinstance(state, PairSharingState):
        return state
    return PairSharingState(frozenset(state.sh), frozenset(state.ds))


class PairSharingAnalysis(SharingAnalysis):
    """The deep-sharing analysis over ``PairSharingState``, with the
    transfers that walk pairs.  An entry state, which ``state`` builds over
    the package's index, is decoded into pairs where it enters.  Each visit
    of a point joins its state into the point's entries, where the package
    keeps the last visit's."""

    def __init__(self, program, ct, typeinfo):
        super().__init__(program, ct, typeinfo)
        self.none = PairSharingState.empty()

    def analyze_main(self, entry_state=None):
        entry = self.none if entry_state is None else as_pairs(entry_state)
        env, body = self.typeinfo.env_for("main"), self.program.main.body

        def run():
            self.main = _Body(env)
            return self._exec_body(body, entry, self.main)

        return self.memo.solve(run)[0]

    def context(self, sig, entry_state):
        state = as_pairs(entry_state)
        return self.memo.lookup((sig.key, state), (sig, state))

    @staticmethod
    def _join(table, nid, st):
        prev = table.get(nid)
        table[nid] = st if prev is None else prev.union(st)

    def _exec(self, cmd: Command, st: PairSharingState, frame: _Body) -> PairSharingState:
        self._join(frame.pre, cmd.nid, st)
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
        self._join(frame.post, cmd.nid, out)
        return out

    def _eval(self, e: Expr, st: PairSharingState, frame: _Body) -> PairSharingState:
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
            self._join(frame.pre, e.nid, st)
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
            self._join(frame.pre, e.nid, st)
            return self._eval_call(e, st, frame)
        raise TypeError(f"unsupported expression {e!r}")

    def _eval_call(self, e: MethodCall, st: PairSharingState, frame: _Body) -> PairSharingState:
        actuals = [e.receiver, *e.args]
        renamed, impure, _ = frame.calls[e.nid] = self.call_effect(e, st)
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
# a lexer and parser with a match per blank run and per newline, a
# dataclass per token, ``peek`` with a bound check, and matches by kind and
# text: the reference the package's front end is compared against


# one alternative per token kind, tried in order: symbols longest first, and
# ``bad`` catches any character no other alternative starts with
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|(?P<comment>//[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<sym>:=|==|!=|<=|>=|[{}();,.<>+*-])|(?P<bad>.)"
)


@dataclass
class ReferenceToken:
    kind: str  # 'ident' | 'int' | 'kw' | 'sym' | 'eof'
    text: str
    line: int
    col: int


def reference_lex(source: str) -> tuple[list[ReferenceToken], list[tuple[int, str]]]:
    tokens: list[ReferenceToken] = []
    raw_annotations: list[tuple[int, str]] = []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind is None:  # blanks
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "comment":
            if text.startswith("//@"):
                raw_annotations.append((line, text[3:].strip()))
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        else:
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            tokens.append(ReferenceToken(kind, text, line, col))
    tokens.append(ReferenceToken("eof", "", line, len(source) - line_start + 1))
    return tokens, raw_annotations


class ReferenceParser:
    def __init__(self, tokens: list[ReferenceToken]):
        self.tokens = tokens
        self.pos = 0
        self._next_nid = 0
        self._depth = 0  # enclosing blocks, parentheses and unary minus signs
        self._height: dict[int, int] = {}  # operator node id -> expression tree height

    # -- token helpers

    def peek(self, offset: int = 0) -> ReferenceToken:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> ReferenceToken:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> ReferenceToken:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[ReferenceToken]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def nid(self) -> int:
        self._next_nid += 1
        return self._next_nid

    def _nest(self, tok: ReferenceToken, extra: int = 1) -> None:
        if self._depth + extra > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)

    def _binop(self, tok: ReferenceToken, op: str, left: Expr, right: Expr) -> BinOp:
        height = 1 + max(self._height.get(left.nid, 1), self._height.get(right.nid, 1))
        self._nest(tok, height)
        node = BinOp(self.nid(), tok.line, tok.col, op, left, right)
        self._height[node.nid] = height
        return node

    def _nested(self, tok: ReferenceToken, parse):
        self._nest(tok)
        self._depth += 1
        result = parse()
        self._depth -= 1
        return result

    def ident(self, what: str = "identifier") -> ReferenceToken:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        if tok.text == OUT_VAR:
            raise ParseError(f"'{OUT_VAR}' is reserved", tok.line, tok.col)
        return self.advance()

    # -- grammar

    def parse_program(self) -> Program:
        classes: list[ClassDecl] = []
        main: Optional[MainBlock] = None
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "kw" and tok.text == "class":
                classes.append(self.parse_class())
            elif tok.kind == "kw" and tok.text == "main":
                if main is not None:
                    raise ParseError("duplicate main block", tok.line, tok.col)
                main = self.parse_main()
            else:
                raise ParseError(
                    f"expected 'class' or 'main', found {tok.text!r}", tok.line, tok.col
                )
        return Program(classes, main, [])

    def parse_class(self) -> ClassDecl:
        kw = self.expect("kw", "class")
        name_tok = self.ident("class name")
        parent = None
        if self.accept("kw", "extends"):
            parent = self.ident("superclass name").text
        self.expect("sym", "{")
        fields: list[tuple[str, str]] = []
        methods: list[MethodDecl] = []
        while not self.accept("sym", "}"):
            ftype = self.parse_type()
            fname_tok = self.ident("member name")
            if self.peek().kind == "sym" and self.peek().text == "(":
                methods.append(self.parse_method_rest(ftype, fname_tok))
            else:
                self.expect("sym", ";")
                fields.append((fname_tok.text, ftype))
        return ClassDecl(
            name_tok.text, parent, fields, methods, kw.line, kw.col, (name_tok.line, name_tok.col)
        )

    def parse_type(self) -> str:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "int":
            self.advance()
            return INT_TYPE
        return self.ident("type name").text

    def parse_method_rest(self, return_type: str, name_tok: ReferenceToken) -> MethodDecl:
        self.expect("sym", "(")
        params: list[tuple[str, str]] = []
        decl_at: list[tuple[int, int]] = []
        if not self.accept("sym", ")"):
            while True:
                ptype = self.parse_type()
                pname = self.ident("parameter name")
                params.append((ptype, pname.text))
                decl_at.append((pname.line, pname.col))
                if self.accept("sym", ")"):
                    break
                self.expect("sym", ",")
        self.expect("sym", "{")
        locals_, body = self.parse_body(decl_at)
        return MethodDecl(
            name_tok.text,
            return_type,
            params,
            locals_,
            body,
            name_tok.line,
            name_tok.col,
            decl_at,
        )

    def parse_main(self) -> MainBlock:
        kw = self.expect("kw", "main")
        self.expect("sym", "{")
        decl_at: list[tuple[int, int]] = []
        locals_, body = self.parse_body(decl_at)
        return MainBlock(locals_, body, kw.line, kw.col, decl_at)

    def parse_body(
        self, decl_at: list[tuple[int, int]]
    ) -> tuple[list[tuple[str, str]], list[Command]]:
        """Parse declarations and commands up to the closing brace, adding
        the position of each declared name to ``decl_at``."""
        locals_: list[tuple[str, str]] = []
        body: list[Command] = []
        while not self.accept("sym", "}"):
            if self._at_declaration():
                dtype = self.parse_type()
                dname_tok = self.ident("variable name")
                locals_.append((dtype, dname_tok.text))
                decl_at.append((dname_tok.line, dname_tok.col))
                if self.accept("sym", ":="):
                    expr = self.parse_expr()
                    body.append(
                        Assign(self.nid(), dname_tok.line, dname_tok.col, dname_tok.text, expr)
                    )
                self.expect("sym", ";")
            else:
                body.append(self.parse_command())
        return locals_, body

    def _at_declaration(self) -> bool:
        tok, nxt = self.peek(), self.peek(1)
        if tok.kind == "kw" and tok.text == "int":
            return True
        return tok.kind == "ident" and nxt.kind == "ident"

    def parse_command(self) -> Command:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "{":
            # an explicit block folds into the surrounding sequence
            raise ParseError("nested bare blocks are not allowed here", tok.line, tok.col)
        if tok.kind == "kw":
            if tok.text == "skip":
                self.advance()
                self.expect("sym", ";")
                return Skip(self.nid(), tok.line, tok.col)
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "return":
                self.advance()
                expr = self.parse_expr()
                self.expect("sym", ";")
                return Return(self.nid(), tok.line, tok.col, expr)
        if tok.kind == "ident":
            name = self.advance()
            if self.accept("sym", ":="):
                expr = self.parse_expr()
                self.expect("sym", ";")
                return Assign(self.nid(), name.line, name.col, name.text, expr)
            if self.accept("sym", "."):
                fld = self.ident("field name").text
                self.expect("sym", ":=")
                expr = self.parse_expr()
                self.expect("sym", ";")
                return FieldWrite(self.nid(), name.line, name.col, name.text, fld, expr)
            raise ParseError(f"expected ':=' or '.' after {name.text!r}", name.line, name.col)
        raise ParseError(f"expected a command, found {tok.text!r}", tok.line, tok.col)

    def parse_stmt_or_block(self) -> list[Command]:
        if self.accept("sym", "{"):
            cmds: list[Command] = []
            while not self.accept("sym", "}"):
                cmds.append(self.parse_command())
            return cmds
        return [self.parse_command()]

    def parse_if(self) -> If:
        kw = self.expect("kw", "if")
        self.expect("sym", "(")
        guard = self.parse_guard()
        self.expect("sym", ")")
        self.accept("kw", "then")
        then_body = self._nested(kw, self.parse_stmt_or_block)
        else_body: list[Command] = []
        if self.accept("kw", "else"):
            else_body = self._nested(kw, self.parse_stmt_or_block)
        return If(self.nid(), kw.line, kw.col, guard, then_body, else_body)

    def parse_while(self) -> While:
        kw = self.expect("kw", "while")
        self.expect("sym", "(")
        guard = self.parse_guard()
        self.expect("sym", ")")
        self.accept("kw", "do")
        body = self._nested(kw, self.parse_stmt_or_block)
        return While(self.nid(), kw.line, kw.col, guard, body)

    def parse_guard(self) -> Comparison:
        start = self.peek()
        left = self.parse_expr()

        def reject_side_effects(e: Expr) -> None:
            for sub in walk_exprs(e):
                if isinstance(sub, (MethodCall, NewObject)):
                    raise ParseError(
                        "guard must be side-effect free (no calls or allocations)",
                        sub.line,
                        sub.col,
                    )

        op_tok = self.peek()
        if op_tok.kind != "sym" or op_tok.text not in ("==", "!=", "<", "<=", ">", ">="):
            reject_side_effects(left)
            raise ParseError(
                "guard must be a comparison (==, !=, <, <=, >, >=)", op_tok.line, op_tok.col
            )
        self.advance()
        right = self.parse_expr()
        reject_side_effects(left)
        reject_side_effects(right)
        return Comparison(self.nid(), start.line, start.col, op_tok.text, left, right)

    # expressions: '+'/'-' over '*' over atoms

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in ("+", "-"):
                self.advance()
                left = self._binop(tok, tok.text, left, self.parse_term())
            else:
                return left

    def parse_term(self) -> Expr:
        left = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "*":
                self.advance()
                left = self._binop(tok, "*", left, self.parse_atom())
            else:
                return left

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            limit = sys.get_int_max_str_digits()  # 0: no limit
            if limit and len(tok.text) > limit:
                raise ParseError(
                    f"integer literal of {len(tok.text)} digits is too long", tok.line, tok.col
                )
            return IntLit(self.nid(), tok.line, tok.col, int(tok.text))
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            inner = self._nested(tok, self.parse_atom)
            if isinstance(inner, IntLit):
                inner.value = -inner.value
                return inner
            zero = IntLit(self.nid(), tok.line, tok.col, 0)
            return self._binop(tok, "-", zero, inner)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            expr = self._nested(tok, self.parse_expr)
            self.expect("sym", ")")
            return expr
        if tok.kind == "kw" and tok.text == "null":
            self.advance()
            return NullLit(self.nid(), tok.line, tok.col)
        if tok.kind == "kw" and tok.text == "new":
            self.advance()
            cname = self.ident("class name").text
            return NewObject(self.nid(), tok.line, tok.col, cname)
        if tok.kind == "ident":
            name = self.advance()
            if self.peek().kind == "sym" and self.peek().text == ".":
                self.advance()
                member = self.ident("member name").text
                if self.accept("sym", "("):
                    args: list[str] = []
                    if not self.accept("sym", ")"):
                        while True:
                            args.append(self.ident("argument variable").text)
                            if self.accept("sym", ")"):
                                break
                            self.expect("sym", ",")
                    return MethodCall(self.nid(), name.line, name.col, name.text, member, args)
                return FieldRead(self.nid(), name.line, name.col, name.text, member)
            return VarRef(self.nid(), name.line, name.col, name.text)
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.line, tok.col)
