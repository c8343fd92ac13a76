"""The combined abstract value: per-pair reachability formulas plus
per-variable cyclicity formulas over a scope of reference variables.

A value holds its field universe once, a ``Scope`` and one flat list of
truth tables over the universe (ints, see ``formula``), so join is ``|``
and the order is ``t & ~o``.  The scope lists the reference variables in
order; with n of them, ``tables[i * n + j]`` is the reachability entry of
variables i and j and ``tables[n * n + i]`` the cyclicity entry of variable
i.  Every value over the same variables shares one ``Scope`` (a bounded
cache), so each whole-value operation is one pass over the list at C speed:
a slice copy, ``map(or_, ...)``, a list comparison, slice assignments of a
row and a column, or one pass over the diagonal ``tables[0:n * n:n + 1]``.
Transfer functions read and write the list by position.

Int variables have no entries, and reading any name outside the scope
raises ``KeyError``, since reading it as "no path" would be unsound.  By
name, ``reach_at`` and ``cyc_at`` give an entry as a read-only
``PathFormula`` view, and ``reach`` and ``cyc`` are read-only mappings from
variable pairs and variables to tables, in scope order; ``of`` builds a
value from such mappings.  Values are kept in normal form — the cyclicity
entry of a variable always covers its self-reachability, since a path from
a variable back to itself is a cycle.  Operations are functional; instances
are treated as immutable, with one exception: ``_normalize_in_place`` folds
in place, and runs only on a value its caller has just built.  ``rename``,
the move of a call's or an expression's result onto its variable, is
``copy_var`` then ``project``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, invert, or_
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .formula import FieldUniverse, PathFormula, Viability


class Scope:
    """The reference variables of a value, in order: ``names``, the
    position of each name (``pos``), ``n`` and the number of reachability
    entries ``nn`` (n * n)."""

    __slots__ = ("names", "pos", "n", "nn")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(dict.fromkeys(names))
        self.pos = {v: i for i, v in enumerate(self.names)}
        self.n = len(self.names)
        self.nn = self.n * self.n

    @staticmethod
    @lru_cache(maxsize=1024)
    def of(names: tuple[str, ...]) -> "Scope":
        """The shared scope of the names."""
        return Scope(names)


class RcValue:
    __slots__ = ("universe", "scope", "tables")
    __hash__ = None  # equal values may differ in identity; not a key

    def __init__(self, universe: FieldUniverse, scope: Scope, tables: list[int]):
        self.universe = universe
        self.scope = scope
        self.tables = tables  # reachability rows, then cyclicity

    # -- constructors

    @staticmethod
    def bottom(universe: FieldUniverse, variables: Iterable[str]) -> "RcValue":
        """All entries false over the given reference variables, in order."""
        scope = Scope.of(tuple(variables))
        return RcValue(universe, scope, [0] * (scope.nn + scope.n))

    @staticmethod
    def of(
        universe: FieldUniverse,
        variables: Iterable[str],
        reach: Optional[Mapping[tuple[str, str], int]] = None,
        cyc: Optional[Mapping[str, int]] = None,
    ) -> "RcValue":
        """The value over the variables with the given entries, by name, and
        false elsewhere; a name outside the scope raises ``KeyError``."""
        out = RcValue.bottom(universe, variables)
        t, pos, n, nn = out.tables, out.scope.pos, out.scope.n, out.scope.nn
        for (v, w), table in (reach or {}).items():
            t[pos[v] * n + pos[w]] = table
        for v, table in (cyc or {}).items():
            t[nn + pos[v]] = table
        return out

    def _fresh(self) -> "RcValue":
        return RcValue(self.universe, self.scope, self.tables[:])

    # -- lookups

    @property
    def reach(self) -> Mapping[tuple[str, str], int]:
        """The reachability entries by variable pair, in scope order."""
        names = self.scope.names
        return MappingProxyType(dict(zip([(v, w) for v in names for w in names], self.tables)))

    @property
    def cyc(self) -> Mapping[str, int]:
        """The cyclicity entries by variable, in scope order."""
        return MappingProxyType(dict(zip(self.scope.names, self.tables[self.scope.nn :])))

    def reach_at(self, v: str, w: str) -> PathFormula:
        s = self.scope
        return PathFormula(self.universe, self.tables[s.pos[v] * s.n + s.pos[w]])

    def cyc_at(self, v: str) -> PathFormula:
        s = self.scope
        return PathFormula(self.universe, self.tables[s.nn + s.pos[v]])

    # -- scope-preserving operations

    def project(self, variables: Iterable[str]) -> "RcValue":
        """Forget everything about the given variables: their rows, columns
        and cyclicity become false."""
        s = self.scope
        gone = [s.pos[v] for v in variables if v in s.pos]
        if not gone:
            return self
        n, nn = s.n, s.nn
        t = self.tables[:]
        zeros = [0] * n
        for i in gone:
            t[i * n : i * n + n] = zeros
            t[i:nn:n] = zeros
            t[nn + i] = 0
        return RcValue(self.universe, s, t)

    def rename(self, src: str, dst: str) -> "RcValue":
        """Move ``src`` onto ``dst``: ``dst`` takes ``src``'s rows, columns
        and cyclicity, its own entries are discarded, and ``src`` is
        forgotten.  Unchanged when ``src == dst`` or either is outside the
        scope."""
        pos = self.scope.pos
        if src == dst or src not in pos or dst not in pos:
            return self
        return self.copy_var(src, dst).project([src])

    def copy_var(self, src: str, dst: str) -> "RcValue":
        """Make ``dst`` an exact alias snapshot of ``src``: they alias each
        other, and ``dst`` inherits rows, columns and cyclicity."""
        s = self.scope
        if src == dst or src not in s.pos or dst not in s.pos:
            return self
        i, j, n, nn = s.pos[src], s.pos[dst], s.n, s.nn
        t = self.tables[:]
        # dst's row, then its column from the updated list: the crossing
        # entries (dst, dst), (src, dst) and (dst, src) all read (src, src)
        t[j * n : j * n + n] = t[i * n : i * n + n]
        t[j:nn:n] = t[i:nn:n]
        t[nn + j] = t[nn + i]
        return RcValue(self.universe, s, t)

    # -- lattice structure

    def _check(self, other: "RcValue") -> None:
        if (self.universe is not other.universe and self.universe != other.universe) or (
            self.scope is not other.scope and self.scope.names != other.scope.names
        ):
            raise ValueError("values over different scopes")

    def join(self, other: "RcValue") -> "RcValue":
        self._check(other)
        return RcValue(self.universe, self.scope, list(map(or_, self.tables, other.tables)))

    def leq(self, other: "RcValue") -> bool:
        self._check(other)
        return not any(map(and_, self.tables, map(invert, other.tables)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RcValue):
            return NotImplemented
        return (
            self.tables == other.tables
            and (self.scope is other.scope or self.scope.names == other.scope.names)
            and (self.universe is other.universe or self.universe == other.universe)
        )

    # -- normal form

    def normalize(self) -> "RcValue":
        """Fold self-reachability into cyclicity."""
        return self._fresh()._normalize_in_place()

    def _normalize_in_place(self) -> "RcValue":
        """``normalize`` without the copy, for a value no one else holds yet."""
        t, n, nn = self.tables, self.scope.n, self.scope.nn
        t[nn:] = map(or_, t[nn:], t[0:nn : n + 1])
        return self

    def is_normal(self) -> bool:
        t, n, nn = self.tables, self.scope.n, self.scope.nn
        return not any(map(and_, t[0:nn : n + 1], map(invert, t[nn:])))

    def canonical(self, via: Optional[Viability]) -> "RcValue":
        """Drop unrealizable models everywhere (display/fixpoint form); the
        value itself when that changes nothing."""
        full = self.universe.full_table
        if via is None or via.table == full:
            return self
        viable = via.table  # ``via.canonical``, inline; most entries are 0
        tables = [t and (t if t == full else t & viable) for t in self.tables]
        return self if tables == self.tables else RcValue(self.universe, self.scope, tables)

    # -- scope changes

    def remap(self, mapping: Mapping[str, str], variables: Iterable[str]) -> "RcValue":
        """Rebuild over a new scope of reference variables; only mapped
        entries carry over, and several sources landing on one target join."""
        out = RcValue.bottom(self.universe, variables)
        s, d = self.scope, out.scope
        live = [(s.pos[a], d.pos[b]) for a, b in mapping.items() if a in s.pos and b in d.pos]
        t, new, n, m = self.tables, out.tables, s.n, d.n
        for i, di in live:
            row, at = i * n, di * m
            for j, dj in live:
                x = t[row + j]
                if x:
                    new[at + dj] |= x
            new[d.nn + di] |= t[s.nn + i]
        return out

    # -- identity / serialization

    def key(self):
        return self.scope.names, tuple(self.tables)

    def to_json(self) -> dict:
        names = sorted(self.scope.names)
        return {
            "reach": {
                f"({v},{w})": self.reach_at(v, w).json_models() for v in names for w in names
            },
            "cyc": {v: self.cyc_at(v).json_models() for v in names},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = [
            f"({v},{w})={self.reach_at(v, w).render()}"
            for (v, w), t in sorted(self.reach.items())
            if t
        ]
        rows += [f"cyc({v})={self.cyc_at(v).render()}" for v, t in sorted(self.cyc.items()) if t]
        return "<rc " + " ".join(rows) + ">"
