"""The combined abstract value: per-pair reachability formulas plus
per-variable cyclicity formulas over a fixed variable scope.

A value holds its field universe once; each entry is a truth table over it
(an int, see ``formula``), so join is ``|`` and the order is ``t & ~o``.
``reach_at`` and ``cyc_at`` give an entry as a ``PathFormula`` view, and
``with_reach``/``with_cyc`` store one.  Values are kept in normal form — the
cyclicity entry of a variable always covers its self-reachability, since a
path from a variable back to itself is a cycle.  Entries of int-typed
variables stay at the contradiction.  Operations are functional; instances
are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .formula import FieldUniverse, PathFormula, Viability


@dataclass
class RcValue:
    universe: FieldUniverse
    variables: tuple[str, ...]
    ref_vars: frozenset[str]
    reach: dict[tuple[str, str], int]  # truth tables over ``universe``
    cyc: dict[str, int]

    # -- constructors

    @staticmethod
    def bottom(
        universe: FieldUniverse, variables: Iterable[str], ref_vars: Iterable[str]
    ) -> "RcValue":
        vs = tuple(variables)
        refs = frozenset(ref_vars)
        reach = {(v, w): 0 for v in vs if v in refs for w in vs if w in refs}
        cyc = {v: 0 for v in vs if v in refs}
        return RcValue(universe, vs, refs, reach, cyc)

    def _fresh(self) -> "RcValue":
        return RcValue(
            self.universe, self.variables, self.ref_vars, dict(self.reach), dict(self.cyc)
        )

    # -- lookups

    def reach_at(self, v: str, w: str) -> PathFormula:
        t = self.reach.get((v, w))
        return PathFormula(self.universe, self._int_entry(v, w) if t is None else t)

    def cyc_at(self, v: str) -> PathFormula:
        t = self.cyc.get(v)
        return PathFormula(self.universe, self._int_entry(v) if t is None else t)

    def _int_entry(self, *names: str) -> int:
        """An int-typed variable reads as the contradiction; a name outside
        the scope raises, since reading it as "no path" would be unsound."""
        for n in names:
            if n not in self.variables:
                raise KeyError(f"{n!r} is not a variable of this value")
        return 0

    # -- pointwise updates

    def _table_of(self, f: PathFormula) -> int:
        if f.universe != self.universe:
            raise ValueError("formula over a different universe")
        return f.table

    def with_reach(self, v: str, w: str, f: PathFormula) -> "RcValue":
        if (v, w) not in self.reach:
            raise KeyError(f"no reachability entry for ({v},{w})")
        out = self._fresh()
        out.reach[(v, w)] = self._table_of(f)
        return out

    def with_cyc(self, v: str, f: PathFormula) -> "RcValue":
        if v not in self.cyc:
            raise KeyError(f"no cyclicity entry for {v}")
        out = self._fresh()
        out.cyc[v] = self._table_of(f)
        return out

    # -- scope-preserving operations

    def project(self, variables: Iterable[str]) -> "RcValue":
        """Forget everything about the given variables."""
        gone = set(variables) & self.ref_vars
        if not gone:
            return self
        kept = {x: x for x in self.ref_vars if x not in gone}
        return self.remap(kept, self.variables, self.ref_vars)

    def rename(self, mapping: Mapping[str, str]) -> "RcValue":
        """Simultaneously move sources onto targets; sources are forgotten
        and stale target entries are discarded."""
        moved = {
            s: d for s, d in mapping.items() if s in self.ref_vars and d in self.ref_vars
        }
        if not moved:
            return self
        targets = set(moved.values())
        full = {x: x for x in self.ref_vars if x not in targets}
        full.update(moved)
        return self.remap(full, self.variables, self.ref_vars)

    def copy_var(self, src: str, dst: str) -> "RcValue":
        """Make ``dst`` an exact alias snapshot of ``src``: they alias each
        other, and ``dst`` inherits rows, columns and cyclicity."""
        if src == dst or src not in self.ref_vars or dst not in self.ref_vars:
            return self
        out = self._fresh()
        reach = self.reach
        self_reach = reach[(src, src)]
        out.cyc[dst] = self.cyc[src]
        out.reach[(dst, dst)] = out.reach[(src, dst)] = out.reach[(dst, src)] = self_reach
        for x in self.ref_vars:
            if x not in (src, dst):
                out.reach[(dst, x)] = reach[(src, x)]
                out.reach[(x, dst)] = reach[(x, src)]
        return out

    # -- lattice structure

    def _check(self, other: "RcValue") -> None:
        if self.universe != other.universe or set(self.variables) != set(other.variables):
            raise ValueError("values over different scopes")

    def join(self, other: "RcValue") -> "RcValue":
        self._check(other)
        out = self._fresh()
        reach, cyc = out.reach, out.cyc
        for key, t in other.reach.items():
            reach[key] |= t
        for v, t in other.cyc.items():
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
        out = self._fresh()
        for v in out.cyc:
            out.cyc[v] |= out.reach[(v, v)]
        return out

    def is_normal(self) -> bool:
        return not any(self.reach[(v, v)] & ~t for v, t in self.cyc.items())

    def canonical(self, via: Optional[Viability]) -> "RcValue":
        """Drop unrealizable models everywhere (display/fixpoint form)."""
        if via is None:
            return self
        c = via.canonical
        return RcValue(
            self.universe,
            self.variables,
            self.ref_vars,
            {key: c(t) for key, t in self.reach.items()},
            {v: c(t) for v, t in self.cyc.items()},
        )

    # -- scope changes

    def remap(
        self,
        mapping: Mapping[str, str],
        variables: Iterable[str],
        ref_vars: Iterable[str],
    ) -> "RcValue":
        """Rebuild over a new scope; only mapped entries carry over, and
        several sources landing on one target join."""
        out = RcValue.bottom(self.universe, tuple(variables), frozenset(ref_vars))
        live = {
            s: d
            for s, d in mapping.items()
            if s in self.ref_vars and d in out.ref_vars
        }
        reach, cyc = out.reach, out.cyc
        for (a, b), t in self.reach.items():
            if a in live and b in live:
                reach[(live[a], live[b])] |= t
        for v, t in self.cyc.items():
            if v in live:
                cyc[live[v]] |= t
        return out

    # -- identity / serialization

    def key(self):
        return tuple(sorted(self.reach.items())), tuple(sorted(self.cyc.items()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RcValue)
            and self.universe == other.universe
            and set(self.variables) == set(other.variables)
            and self.reach == other.reach
            and self.cyc == other.cyc
        )

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
