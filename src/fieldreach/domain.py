"""The combined abstract value: per-pair reachability formulas plus
per-variable cyclicity formulas over a fixed variable scope.

Values are kept in normal form — the cyclicity entry of a variable always
covers its self-reachability, since a path from a variable back to itself is
a cycle.  Entries of int-typed variables stay at the contradiction.
Operations are functional; instances are treated as immutable.
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
    reach: dict[tuple[str, str], PathFormula]
    cyc: dict[str, PathFormula]

    # -- constructors

    @staticmethod
    def bottom(
        universe: FieldUniverse, variables: Iterable[str], ref_vars: Iterable[str]
    ) -> "RcValue":
        vs = tuple(variables)
        refs = frozenset(ref_vars)
        false = PathFormula.false(universe)
        reach = {(v, w): false for v in vs if v in refs for w in vs if w in refs}
        cyc = {v: false for v in vs if v in refs}
        return RcValue(universe, vs, refs, reach, cyc)

    @staticmethod
    def top(
        universe: FieldUniverse, variables: Iterable[str], ref_vars: Iterable[str]
    ) -> "RcValue":
        out = RcValue.bottom(universe, variables, ref_vars)
        true = PathFormula.true(universe)
        for key in out.reach:
            out.reach[key] = true
        for v in out.cyc:
            out.cyc[v] = true
        return out

    def _fresh(self) -> "RcValue":
        return RcValue(
            self.universe, self.variables, self.ref_vars, dict(self.reach), dict(self.cyc)
        )

    # -- lookups

    def reach_at(self, v: str, w: str) -> PathFormula:
        f = self.reach.get((v, w))
        return f if f is not None else self._int_entry(v, w)

    def cyc_at(self, v: str) -> PathFormula:
        f = self.cyc.get(v)
        return f if f is not None else self._int_entry(v)

    def _int_entry(self, *names: str) -> PathFormula:
        """An int-typed variable reads as the contradiction; a name outside
        the scope raises, since reading it as "no path" would be unsound."""
        for n in names:
            if n not in self.variables:
                raise KeyError(f"{n!r} is not a variable of this value")
        return PathFormula.false(self.universe)

    # -- pointwise updates

    def with_reach(self, v: str, w: str, f: PathFormula) -> "RcValue":
        if (v, w) not in self.reach:
            raise KeyError(f"no reachability entry for ({v},{w})")
        out = self._fresh()
        out.reach[(v, w)] = f
        return out

    def with_cyc(self, v: str, f: PathFormula) -> "RcValue":
        if v not in self.cyc:
            raise KeyError(f"no cyclicity entry for {v}")
        out = self._fresh()
        out.cyc[v] = f
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
        self_reach = self.reach_at(src, src)
        out.cyc[dst] = self.cyc_at(src)
        out.reach[(dst, dst)] = self_reach
        out.reach[(src, dst)] = self_reach
        out.reach[(dst, src)] = self_reach
        for x in self.variables:
            if x in self.ref_vars and x not in (src, dst):
                out.reach[(dst, x)] = self.reach_at(src, x)
                out.reach[(x, dst)] = self.reach_at(x, src)
        return out

    # -- lattice structure

    def _check(self, other: "RcValue") -> None:
        if self.universe != other.universe or set(self.variables) != set(other.variables):
            raise ValueError("values over different scopes")

    def join(self, other: "RcValue") -> "RcValue":
        self._check(other)
        out = self._fresh()
        for key, f in other.reach.items():
            out.reach[key] = out.reach[key].join(f)
        for v, f in other.cyc.items():
            out.cyc[v] = out.cyc[v].join(f)
        return out

    def leq(self, other: "RcValue", via: Optional[Viability] = None) -> bool:
        self._check(other)
        return all(
            f.leq(other.reach[key], via) for key, f in self.reach.items()
        ) and all(f.leq(other.cyc[v], via) for v, f in self.cyc.items())

    def equiv(self, other: "RcValue", via: Optional[Viability] = None) -> bool:
        return self.leq(other, via) and other.leq(self, via)

    # -- normal form

    def normalize(self) -> "RcValue":
        """Fold self-reachability into cyclicity."""
        out = self._fresh()
        for v in out.cyc:
            out.cyc[v] = out.cyc[v].join(out.reach_at(v, v))
        return out

    def is_normal(self, via: Optional[Viability] = None) -> bool:
        return all(self.reach_at(v, v).leq(self.cyc[v], via) for v in self.cyc)

    def canonical(self, via: Optional[Viability]) -> "RcValue":
        """Drop unrealizable models everywhere (display/fixpoint form)."""
        if via is None:
            return self
        out = self._fresh()
        for key, f in out.reach.items():
            out.reach[key] = f.drop_nonviable(via)
        for v, f in out.cyc.items():
            out.cyc[v] = f.drop_nonviable(via)
        return out

    # -- scope changes

    def remap(
        self,
        mapping: Mapping[str, str],
        variables: Iterable[str],
        ref_vars: Iterable[str],
    ) -> "RcValue":
        """Rebuild over a new scope; only mapped entries carry over, copied
        as they are, and several sources landing on one target join."""
        out = RcValue.bottom(self.universe, tuple(variables), frozenset(ref_vars))
        live = {
            s: d
            for s, d in mapping.items()
            if s in self.ref_vars and d in out.ref_vars
        }
        merge = len(set(live.values())) < len(live)
        reach, cyc = out.reach, out.cyc
        for (a, b), f in self.reach.items():
            if a in live and b in live:
                key = (live[a], live[b])
                reach[key] = reach[key].join(f) if merge else f
        for v, f in self.cyc.items():
            if v in live:
                cyc[live[v]] = cyc[live[v]].join(f) if merge else f
        return out

    # -- identity / serialization

    def key(self):
        return (
            tuple(sorted((k, f.table) for k, f in self.reach.items())),
            tuple(sorted((v, f.table) for v, f in self.cyc.items())),
        )

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
                f"({v},{w})": self.reach[(v, w)].json_models()
                for (v, w) in sorted(self.reach)
            },
            "cyc": {v: self.cyc[v].json_models() for v in sorted(self.cyc)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = [
            f"({v},{w})={f.render()}" for (v, w), f in sorted(self.reach.items()) if not f.is_false
        ]
        rows += [f"cyc({v})={f.render()}" for v, f in sorted(self.cyc.items()) if not f.is_false]
        return "<rc " + " ".join(rows) + ">"
