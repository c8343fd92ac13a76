"""Coarser abstractions of the reachability/cyclicity information, used to
demonstrate (and test) the precision the full formulas buy.

Each alternative domain abstracts one component — the per-pair reachability
map or the per-variable cyclicity map:

* plain reachability statements (v may reach w through a non-empty path),
  bounded by what the class hierarchy admits;
* pairs of classes that may be connected, closed downward under subclassing;
* monotone formulas only (conjunctions of positive clauses: fields a path
  must traverse);
* per-pair exclusion sets: fields no connecting path traverses, closed under
  subset;
* per-variable requirement sets: fields every cycle must traverse, with
  provably acyclic variables absent.

The abstraction maps take the component maps of an ``RcValue`` as
``PathFormula`` maps (pass its ``reach_at`` / ``cyc_at`` views; its ``reach``
/ ``cyc`` dicts hold bare truth tables); the concretizations return maps of
the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .classtable import ClassTable
from .formula import FieldUniverse, PathFormula, class_reach_closure, models_of

Pair = tuple[str, str]
ReachMap = Mapping[Pair, PathFormula]
CycMap = Mapping[str, PathFormula]


# --------------------------------------------------------------------------
# formula classes


def is_monotone(f: PathFormula) -> bool:
    """Supersets of models are models."""
    return f.universe.up(f.table) == f.table


def is_positive(f: PathFormula) -> bool:
    """The all-fields assignment is a model."""
    return f.has_model(f.universe.full_mask)


def is_definite(f: PathFormula) -> bool:
    """Models are closed under intersection."""
    models = list(models_of(f.table))
    return all(f.has_model(a & b) for a in models for b in models)


# --------------------------------------------------------------------------
# 1. reachability statements without field information


@dataclass(frozen=True)
class NoFieldsValue:
    statements: frozenset[Pair]  # v may reach w through a non-empty path


def admissible_pairs(ct: ClassTable, var_types: Mapping[str, str]) -> frozenset[Pair]:
    """Variable pairs whose declared types admit reachability at all."""
    reach = class_reach_closure(ct, ct.reference_fields)
    out = set()
    for v, tv in var_types.items():
        for w, tw in var_types.items():
            if any(
                (k1, k2) in reach
                for k1 in ct.subclasses_of(tv)
                for k2 in ct.subclasses_of(tw)
            ):
                out.add((v, w))
    return frozenset(out)


def alpha_nofields(
    reach: ReachMap, ct: ClassTable, var_types: Mapping[str, str]
) -> NoFieldsValue:
    admissible = admissible_pairs(ct, var_types)
    return NoFieldsValue(
        frozenset(
            key
            for key, f in reach.items()
            if key in admissible and f.table & ~1  # a model besides {}
        )
    )


def gamma_nofields(v: NoFieldsValue, universe: FieldUniverse, keys) -> dict[Pair, PathFormula]:
    empty_only = PathFormula.only(universe, ())
    true = PathFormula.true(universe)
    return {key: (true if key in v.statements else empty_only) for key in keys}


# --------------------------------------------------------------------------
# 2. class pairs


@dataclass(frozen=True)
class ClassPairsValue:
    pairs: frozenset[Pair]  # downward-closed under subclassing

    @staticmethod
    def of(ct: ClassTable, pairs) -> "ClassPairsValue":
        closed = set()
        for k1, k2 in pairs:
            for s1 in ct.subclasses_of(k1):
                for s2 in ct.subclasses_of(k2):
                    closed.add((s1, s2))
        return ClassPairsValue(frozenset(closed))


def class_pairs(ct: ClassTable) -> ClassPairsValue:
    """Every class pair the declarations allow to be connected."""
    return ClassPairsValue.of(ct, class_reach_closure(ct, ct.reference_fields))


def alpha_class_pairs(
    v: NoFieldsValue, ct: ClassTable, var_types: Mapping[str, str]
) -> ClassPairsValue:
    return ClassPairsValue.of(
        ct, {(var_types[a], var_types[b]) for a, b in v.statements}
    )


def gamma_class_pairs(
    v: ClassPairsValue, ct: ClassTable, var_types: Mapping[str, str]
) -> NoFieldsValue:
    out = set()
    for a, ta in var_types.items():
        for b, tb in var_types.items():
            if any(
                ct.is_subclass(ta, k1) and ct.is_subclass(tb, k2)
                for k1, k2 in v.pairs
            ):
                out.add((a, b))
    return NoFieldsValue(frozenset(out))


# --------------------------------------------------------------------------
# 3. monotone formulas


@dataclass(frozen=True)
class MonotoneValue:
    entries: tuple[tuple[Pair, PathFormula], ...]

    def at(self, key: Pair) -> PathFormula:
        return dict(self.entries)[key]


def alpha_monotone_formula(f: PathFormula) -> PathFormula:
    """The least monotone formula above ``f``: its up-closure."""
    return PathFormula(f.universe, f.universe.up(f.table))


def alpha_monotone(reach: ReachMap) -> MonotoneValue:
    return MonotoneValue(
        tuple(sorted((key, alpha_monotone_formula(f)) for key, f in reach.items()))
    )


def gamma_monotone(v: MonotoneValue) -> dict[Pair, PathFormula]:
    return {key: f for key, f in v.entries}


def enumerate_monotone(universe: FieldUniverse) -> list[PathFormula]:
    """All domain elements over a small universe: monotone formulas plus the
    contradiction."""
    formulas = (PathFormula(universe, t) for t in range(universe.full_table + 1))
    return [f for f in formulas if is_monotone(f)]


# --------------------------------------------------------------------------
# 4. exclusion sets


@dataclass(frozen=True)
class ScapinValue:
    """Per pair, the maximal field set no connecting path may traverse; the
    triples with smaller sets are implied by subset closure."""

    excluded: tuple[tuple[Pair, frozenset[str]], ...]

    def at(self, key: Pair) -> frozenset[str]:
        return dict(self.excluded).get(key, frozenset())


def alpha_scapin(reach: ReachMap) -> ScapinValue:
    entries = []
    for key, f in sorted(reach.items()):
        halves = zip(f.universe.fields, f.universe.halves.values())
        banned = frozenset(name for name, (_, with_) in halves if not f.table & with_)
        entries.append((key, banned))
    return ScapinValue(tuple(entries))


def gamma_scapin(
    v: ScapinValue, universe: FieldUniverse, keys
) -> dict[Pair, PathFormula]:
    out = {}
    for key in keys:
        banned_mask = universe.mask_of(v.at(key))
        out[key] = PathFormula.from_models(
            universe, [m for m in universe.all_masks() if not (m & banned_mask)]
        )
    return out


# --------------------------------------------------------------------------
# 5. cycle requirement sets


@dataclass(frozen=True)
class QValue:
    """Variables that may be cyclic at all, each with the fields every cycle
    must traverse; absent variables are provably acyclic."""

    required: tuple[tuple[str, frozenset[str]], ...]

    def domain(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.required)

    def at(self, var: str) -> frozenset[str]:
        return dict(self.required)[var]


def alpha_q(cyc: CycMap) -> QValue:
    entries = []
    for var, f in sorted(cyc.items()):
        if f.is_false:
            continue
        halves = zip(f.universe.fields, f.universe.halves.values())
        required = frozenset(name for name, (without, _) in halves if not f.table & without)
        entries.append((var, required))
    return QValue(tuple(entries))


def gamma_q(v: QValue, universe: FieldUniverse, variables) -> dict[str, PathFormula]:
    out = {}
    domain = v.domain()
    for var in variables:
        if var not in domain:
            out[var] = PathFormula.false(universe)
        else:
            need = universe.mask_of(v.at(var))
            out[var] = PathFormula.from_models(
                universe, [m for m in universe.all_masks() if (m & need) == need]
            )
    return out
