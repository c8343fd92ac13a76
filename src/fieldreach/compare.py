"""Coarser abstractions of the reachability/cyclicity information, used to
show the precision the full formulas buy (``--compare-domains``).

Each alternative domain abstracts one component — the per-pair reachability
map or the per-variable cyclicity map — into the plain container its
definition names:

* plain reachability statements (v may reach w through a non-empty path),
  bounded by what the class hierarchy admits: a frozenset of pairs;
* pairs of classes that may be connected, closed downward under subclassing:
  a frozenset of class pairs;
* monotone formulas only (conjunctions of positive clauses: fields a path
  must traverse): a dict from pair to formula;
* per-pair exclusion sets: per pair, the maximal set of fields no connecting
  path traverses (the smaller sets are implied by subset closure): a dict
  from pair to field set;
* per-variable requirement sets: the fields every cycle must traverse, a
  dict from variable to field set in which a provably acyclic variable is
  absent.

The abstraction maps take the component maps of an ``RcValue`` as
``PathFormula`` maps (pass its ``reach_at`` / ``cyc_at`` views; its ``reach``
/ ``cyc`` dicts hold bare truth tables).  The package runs only the
abstractions; the concretizations, which the Galois-connection tests need,
live with those tests in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .classtable import ClassTable
from .formula import PathFormula, class_reach_closure

Pair = tuple[str, str]
ReachMap = Mapping[Pair, PathFormula]
CycMap = Mapping[str, PathFormula]


# --------------------------------------------------------------------------
# 1. reachability statements without field information


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
) -> frozenset[Pair]:
    admissible = admissible_pairs(ct, var_types)
    return frozenset(
        key
        for key, f in reach.items()
        if key in admissible and f.table & ~1  # a model besides {}
    )


# --------------------------------------------------------------------------
# 2. class pairs


def class_pairs_closure(ct: ClassTable, pairs: Iterable[Pair]) -> frozenset[Pair]:
    """The class pairs closed downward under subclassing."""
    return frozenset(
        (s1, s2)
        for k1, k2 in pairs
        for s1 in ct.subclasses_of(k1)
        for s2 in ct.subclasses_of(k2)
    )


def alpha_class_pairs(
    statements: frozenset[Pair], ct: ClassTable, var_types: Mapping[str, str]
) -> frozenset[Pair]:
    return class_pairs_closure(ct, {(var_types[a], var_types[b]) for a, b in statements})


# --------------------------------------------------------------------------
# 3. monotone formulas


def alpha_monotone_formula(f: PathFormula) -> PathFormula:
    """The least monotone formula above ``f``: its up-closure."""
    return PathFormula(f.universe, f.universe.up(f.table))


def alpha_monotone(reach: ReachMap) -> dict[Pair, PathFormula]:
    return {key: alpha_monotone_formula(f) for key, f in reach.items()}


# --------------------------------------------------------------------------
# 4. exclusion sets


def alpha_scapin(reach: ReachMap) -> dict[Pair, frozenset[str]]:
    out = {}
    for key, f in reach.items():
        halves = zip(f.universe.fields, f.universe.halves.values())
        out[key] = frozenset(name for name, (_, with_) in halves if not f.table & with_)
    return out


# --------------------------------------------------------------------------
# 5. cycle requirement sets


def alpha_q(cyc: CycMap) -> dict[str, frozenset[str]]:
    out = {}
    for var, f in cyc.items():
        if f.is_false:
            continue
        halves = zip(f.universe.fields, f.universe.halves.values())
        out[var] = frozenset(name for name, (without, _) in halves if not f.table & without)
    return out
