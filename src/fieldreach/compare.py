"""Coarser abstractions of the reachability/cyclicity information, used to
show the precision the full formulas buy (``--compare-domains``).

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
/ ``cyc`` dicts hold bare truth tables).  The package runs only the
abstractions; the concretizations, which the Galois-connection tests need,
live with those tests in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .classtable import ClassTable
from .formula import PathFormula, class_reach_closure

Pair = tuple[str, str]
ReachMap = Mapping[Pair, PathFormula]
CycMap = Mapping[str, PathFormula]


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


def alpha_class_pairs(
    v: NoFieldsValue, ct: ClassTable, var_types: Mapping[str, str]
) -> ClassPairsValue:
    return ClassPairsValue.of(
        ct, {(var_types[a], var_types[b]) for a, b in v.statements}
    )


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
