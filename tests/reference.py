"""Reference definitions the tests check the package against: saturation on
sets of field names, address reachability and deep sharing derived from it,
an AST fingerprint, truth-table submasks, trace lookup, and the
concretizations of the coarser domains of ``fieldreach.compare`` with the
formula classes they are stated in.  None of it runs in the package."""

import dataclasses

from fieldreach.compare import ClassPairsValue, MonotoneValue, NoFieldsValue, QValue, ScapinValue
from fieldreach.formula import PathFormula, class_reach_closure, models_of
from fieldreach.oracle import Loc

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

_POSITIONS = {"nid", "line", "col", "decl_at"}


def fingerprint(node):
    """The structure of an AST: every field of every node in order, node ids
    and source positions aside."""
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(
            fingerprint(getattr(node, f.name))
            for f in dataclasses.fields(node)
            if f.name not in _POSITIONS
        )
    if isinstance(node, (list, tuple)):
        return tuple(fingerprint(x) for x in node)
    return node


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


def gamma_nofields(v: NoFieldsValue, universe, keys):
    empty_only = PathFormula.only(universe, ())
    true = PathFormula.true(universe)
    return {key: (true if key in v.statements else empty_only) for key in keys}


def class_pairs(ct) -> ClassPairsValue:
    """Every class pair the declarations allow to be connected."""
    return ClassPairsValue.of(ct, class_reach_closure(ct, ct.reference_fields))


def gamma_class_pairs(v: ClassPairsValue, ct, var_types) -> NoFieldsValue:
    out = set()
    for a, ta in var_types.items():
        for b, tb in var_types.items():
            if any(
                ct.is_subclass(ta, k1) and ct.is_subclass(tb, k2)
                for k1, k2 in v.pairs
            ):
                out.add((a, b))
    return NoFieldsValue(frozenset(out))


def gamma_monotone(v: MonotoneValue):
    return {key: f for key, f in v.entries}


def enumerate_monotone(universe):
    """All domain elements over a small universe: monotone formulas plus the
    contradiction."""
    return [f for f in all_formulas(universe) if is_monotone(f)]


def gamma_scapin(v: ScapinValue, universe, keys):
    out = {}
    for key in keys:
        banned_mask = universe.mask_of(v.at(key))
        out[key] = PathFormula.from_models(
            universe, [m for m in range(1 << universe.size) if not (m & banned_mask)]
        )
    return out


def gamma_q(v: QValue, universe, variables):
    out = {}
    domain = v.domain()
    for var in variables:
        if var not in domain:
            out[var] = PathFormula.false(universe)
        else:
            need = universe.mask_of(v.at(var))
            out[var] = PathFormula.from_models(
                universe, [m for m in range(1 << universe.size) if (m & need) == need]
            )
    return out
