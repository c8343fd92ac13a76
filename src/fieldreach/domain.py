"""The combined abstract value: per-pair reachability formulas plus
per-variable cyclicity formulas over a scope of reference variables.

A value holds its field universe once; each entry is a truth table over it
(an int, see ``formula``), so join is ``|`` and the order is ``t & ~o``.
The scope is the key set of ``cyc``, in its insertion order, and ``reach``
has an entry for every ordered pair of it; int variables have no entries,
and reading any name outside the scope raises ``KeyError``, since reading it
as "no path" would be unsound.  ``reach_at`` and ``cyc_at`` give an entry as
a read-only ``PathFormula`` view.  Values are kept in normal form — the
cyclicity entry of a variable always covers its self-reachability, since a
path from a variable back to itself is a cycle.  Operations are functional;
instances are treated as immutable, with one exception: ``_normalize_in_place``
folds in place, and runs only on a value its caller has just built.
Most entries are the zero table, so ``join``, ``project`` and ``remap``
touch only the entries they change.  ``rename``, the move of a call's or an
expression's result onto its variable, is ``copy_var`` then ``project``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .formula import FieldUniverse, PathFormula, Viability


@dataclass
class RcValue:
    universe: FieldUniverse
    reach: dict[tuple[str, str], int]  # truth tables over ``universe``
    cyc: dict[str, int]  # its keys are the scope, in order

    # -- constructors

    @staticmethod
    def bottom(universe: FieldUniverse, variables: Iterable[str]) -> "RcValue":
        """All entries false over the given reference variables, in order."""
        vs = tuple(variables)
        return RcValue(universe, {(v, w): 0 for v in vs for w in vs}, dict.fromkeys(vs, 0))

    def _fresh(self) -> "RcValue":
        return RcValue(self.universe, dict(self.reach), dict(self.cyc))

    # -- lookups

    def reach_at(self, v: str, w: str) -> PathFormula:
        return PathFormula(self.universe, self.reach[(v, w)])

    def cyc_at(self, v: str) -> PathFormula:
        return PathFormula(self.universe, self.cyc[v])

    # -- scope-preserving operations

    def project(self, variables: Iterable[str]) -> "RcValue":
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

    def rename(self, src: str, dst: str) -> "RcValue":
        """Move ``src`` onto ``dst``: ``dst`` takes ``src``'s rows, columns
        and cyclicity, its own entries are discarded, and ``src`` is
        forgotten.  Unchanged when ``src == dst`` or either is outside the
        scope."""
        if src == dst or src not in self.cyc or dst not in self.cyc:
            return self
        return self.copy_var(src, dst).project([src])

    def copy_var(self, src: str, dst: str) -> "RcValue":
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

    def _check(self, other: "RcValue") -> None:
        if self.universe != other.universe or self.cyc.keys() != other.cyc.keys():
            raise ValueError("values over different scopes")

    def join(self, other: "RcValue") -> "RcValue":
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

    def leq(self, other: "RcValue") -> bool:
        self._check(other)
        reach, cyc = other.reach, other.cyc
        return not any(t & ~reach[key] for key, t in self.reach.items()) and not any(
            t & ~cyc[v] for v, t in self.cyc.items()
        )

    # -- normal form

    def normalize(self) -> "RcValue":
        """Fold self-reachability into cyclicity."""
        return self._fresh()._normalize_in_place()

    def _normalize_in_place(self) -> "RcValue":
        """``normalize`` without the copy, for a value no one else holds yet."""
        reach, cyc = self.reach, self.cyc
        for v in cyc:
            cyc[v] |= reach[(v, v)]
        return self

    def is_normal(self) -> bool:
        return not any(self.reach[(v, v)] & ~t for v, t in self.cyc.items())

    def canonical(self, via: Optional[Viability]) -> "RcValue":
        """Drop unrealizable models everywhere (display/fixpoint form)."""
        if via is None:
            return self
        full, viable = self.universe.full_table, via.table  # ``via.canonical``, inline
        return RcValue(
            self.universe,
            {key: t if t == full else t & viable for key, t in self.reach.items()},
            {v: t if t == full else t & viable for v, t in self.cyc.items()},
        )

    # -- scope changes

    def remap(self, mapping: Mapping[str, str], variables: Iterable[str]) -> "RcValue":
        """Rebuild over a new scope of reference variables; only mapped
        entries carry over, and several sources landing on one target join."""
        out = RcValue.bottom(self.universe, variables)
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
