"""Propositional formulas over field propositions, stored as truth tables.

A formula's models are the field sets a heap path may traverse.  A field set
is a bit mask over an indexed universe of n field names, and a formula is one
int of 2^n bits, its truth table: bit m is set when mask m is a model.  The
contradiction is 0 and the tautology is the full table, so join and meet are
``|`` and ``&``.  Adding a field to every model that lacks it is one masked
shift of the table by the field's bit, and dropping it is the shift back;
concatenation, difference and the up-closure (the Boolean zeta transform)
are built from these shifts.

Each ``FieldUniverse`` holds one table of path products, ``products``:
``concat``, ``difference`` and ``up`` return the stored answer for operands
they have met before and store every answer they compute.  The table lives
exactly as long as its universe: each analysis builds its own
(``semantics.entry_scope``), which its result keeps, so nothing is shared
between analyses.  It stays small because one analysis builds few distinct
tables: loop passes, fixpoint rounds and contexts meet the same entries
again, so most products repeat an operand pair the analysis has already
taken, and the table grows with the distinct pairs, not with the calls.

Two formulas are equal as analysis facts when they have the same *viable*
models: assignments no heap admitted by the class declarations can realize
carry no information.  ``Viability`` is the truth table of the realizable
masks, built once per universe, so viable models are one ``&`` away.  It is
built by ``saturate``, which the oracle also runs on concrete heaps, here
over the class graph: per node, the truth table of the masks of the walks
that reach it, grown by pushing whole tables along the labelled steps with
the masked shift that adds a field.

The analysis works on the bare ints with the functions of this module.
``PathFormula`` is a read-only view of one table, with its universe, for
queries, rendering and ``compare``; its remaining operators are thin
wrappers over the same operations on ints.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Optional

from .classtable import ANY_FIELD, ClassTable
from .record import FrozenRecord

# the widest universe analyzed: a formula is an int of 2^n bits, and so are
# the viability table and each per-class table saturated to build it
MAX_FIELDS = 16


@lru_cache(maxsize=MAX_FIELDS + 1)
def _halves(size: int) -> dict[int, tuple[int, int]]:
    """``FieldUniverse.halves`` of every universe of ``size`` fields: they
    depend on the size alone, so such universes share one dict, which its
    readers never change.  The run pattern is built by doubling its length,
    a few shifts instead of a division of table-sized ints."""
    length = 1 << size  # the table's width in bits
    full = (1 << length) - 1
    out = {}
    for i in range(size):
        bit = 1 << i
        without, width = (1 << bit) - 1, 2 * bit
        while width < length:
            without |= without << width
            width *= 2
        out[bit] = (without, full ^ without)
    return out


class FieldUniverse(FrozenRecord):
    """The indexed field names of a universe: field i is bit i of a mask.

    Index order need not be name order: a tracked universe ends with the
    stand-in, wherever ``any`` sorts.  A JSON model lists its names sorted
    as strings, and a formula's JSON models come in the order of those
    lists.  ``json_walk`` visits every mask once in that order, walking the
    subset tree over the fields in name order, so the reports lay out a
    model list with no per-model sort, and ``json_rank`` orders any table's
    models by one integer key each."""

    _fields = ("fields",)  # an instance dict holds the caches and the products

    def __init__(self, fields: tuple[str, ...]):
        self.fields = fields
        self._index = {f: i for i, f in enumerate(fields)}
        if len(self._index) != len(fields):
            raise ValueError("duplicate field in universe")
        # the path products computed over this universe, by operator and
        # operands (see the module docstring); not part of equality
        self.products: dict[tuple, int] = {}

    @staticmethod
    def of(fields: Iterable[str]) -> "FieldUniverse":
        return FieldUniverse(tuple(sorted(set(fields))))

    @staticmethod
    def tracked(all_fields: Iterable[str], tracked: Iterable[str]) -> "FieldUniverse":
        """Universe for field abstraction: the tracked fields plus a stand-in
        for everything untracked.  If all fields are tracked, no stand-in."""
        all_set = set(all_fields)
        tracked_set = set(tracked)
        unknown = tracked_set - all_set
        if unknown:
            raise ValueError(f"unknown tracked fields: {sorted(unknown)}")
        if tracked_set == all_set:
            return FieldUniverse.of(all_set)
        return FieldUniverse(tuple(sorted(tracked_set)) + (ANY_FIELD,))

    @property
    def size(self) -> int:
        return len(self.fields)

    @cached_property
    def full_table(self) -> int:
        """The truth table with every mask a model."""
        return (1 << (1 << len(self.fields))) - 1

    @cached_property
    def halves(self) -> dict[int, tuple[int, int]]:
        """Per field bit, in field order, the truth tables of the masks
        without and with that field: runs of ``bit`` ones and zeros."""
        return _halves(len(self.fields))

    def up(self, table: int) -> int:
        """Up-closure: every superset of a model becomes a model.  The
        answer comes from this universe's table of products when the table
        was closed before, and is stored there otherwise; the table lives as
        long as the universe, one analysis's, and stays small because that
        analysis closes the same few tables again (module docstring)."""
        key = ("up", table)
        out = self.products.get(key)
        if out is None:
            out = table
            for bit, (without, _) in self.halves.items():
                out |= (out & without) << bit
            self.products[key] = out
        return out

    @property
    def has_any(self) -> bool:
        return ANY_FIELD in self._index

    @property
    def any_bit(self) -> int:
        return 1 << self._index[ANY_FIELD]

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for n in names:
            m |= 1 << self._index[n]
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(f for i, f in enumerate(self.fields) if mask & (1 << i))

    @cached_property
    def by_name(self) -> tuple[tuple[str, int], ...]:
        """Each field with its bit, the fields sorted by name as strings."""
        return tuple(sorted((f, 1 << i) for i, f in enumerate(self.fields)))

    @cached_property
    def json_walk(self) -> tuple[tuple[int, int, str], ...]:
        """Every non-empty mask once, as ``(mask, parent, name)``: ``name``
        is the mask's last field by name and ``parent`` the mask without it.
        The masks come in the order of their sorted name lists, after the
        empty one: the preorder of the subset tree over the fields in name
        order, ``[a]``, ``[a,b]``, ``[a,b,c]``, ``[a,c]``, ``[b]``, ... (the
        lexicographic generation of subsets, Knuth TAOCP 7.2.1.3), so a
        parent comes before its children.  The walk over fields in name
        order is the first field alone, then the first field added to each
        step of the walk over the rest, then the walk over the rest."""
        walk: list[tuple[int, int, str]] = []
        for name, bit in reversed(self.by_name):
            walk = [(bit, 0, name)] + [(bit | m, bit | p, last) for m, p, last in walk] + walk
        return tuple(walk)

    @cached_property
    def json_rank(self) -> list[int]:
        """Per mask, its place in JSON model order; the empty mask is 0."""
        rank = [0] * (1 << len(self.fields))
        for i, (mask, _, _) in enumerate(self.json_walk, 1):
            rank[mask] = i
        return rank

    def json_order(self, table: int) -> list[int]:
        """The models of ``table`` in JSON model order: by their field names
        sorted as strings, the lists compared as lists."""
        if table == self.full_table:
            return [0] + [mask for mask, _, _ in self.json_walk]
        return sorted(models_of(table), key=self.json_rank.__getitem__)

    def abstract_mask(self, names: Iterable[str]) -> int:
        """Mask of a concrete field set, folding untracked fields into the
        stand-in bit."""
        m = 0
        for n in names:
            if n in self._index:
                m |= 1 << self._index[n]
            elif self.has_any:
                m |= self.any_bit
            else:
                raise KeyError(n)
        return m


def models_of(table: int) -> Iterator[int]:
    """The models of a truth table, in increasing order."""
    while table:
        low = table & -table
        yield low.bit_length() - 1
        table ^= low


def concat(universe: FieldUniverse, a: int, b: int) -> int:
    """Models of the result are pairwise unions: a path split into two legs
    traverses the union of what each leg traverses.  Concatenation is
    commutative, so the universe's table of products keys the answer on the
    unordered pair: a pair met before, either way round, is one lookup, and
    a new one is computed by ``_concat`` and stored.  The table lives as
    long as the universe, one analysis's, and stays small because that
    analysis concatenates the same few tables again (module docstring)."""
    key = ("concat", a, b) if a <= b else ("concat", b, a)
    out = universe.products.get(key)
    if out is None:
        out = universe.products[key] = _concat(universe, a, b)
    return out


def _concat(universe: FieldUniverse, a: int, b: int) -> int:
    """``concat`` computed: each model of the sparser side widens the other
    table by its fields, one masked shift per field.

    When the denser side U is up-closed, the result is ``U & up(few)``: a
    union with a model of U is a superset of it, so in U, and a model z of
    U above a model x of the sparser side is the union of x and z.  The two
    closures cost a masked shift per field each, so that path is taken only
    when the sparser side has more models than the universe has fields."""
    few, many = (a, b) if a.bit_count() <= b.bit_count() else (b, a)
    if few.bit_count() > universe.size and universe.up(many) == many:
        return many & universe.up(few)
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


def difference(universe: FieldUniverse, a: int, b: int) -> int:
    """Models of the result drop any subset of some model of ``b`` from a
    model of ``a``: what remains of a path after cutting off a prefix.  With
    no model in ``b`` the defining set is empty.  Per model of ``b``, each of
    its fields is dropped, or not, from every model of ``a`` that has it:
    one masked shift of the table per field.  The answer comes from the
    universe's table of products when the ordered pair was met before, and
    is stored there otherwise; the table lives as long as the universe, one
    analysis's, and stays small because that analysis cuts the same few
    tables again (module docstring)."""
    key = ("difference", a, b)
    out = universe.products.get(key)
    if out is None:
        halves = universe.halves
        out = 0
        for y in models_of(b):
            t = a
            while y:
                bit = y & -y
                y ^= bit
                t |= (t & halves[bit][1]) >> bit
            out |= t
        universe.products[key] = out
    return out


class PathFormula(FrozenRecord):
    __slots__ = ("universe", "table")  # table: bit m is set when mask m is a model

    # -- constructors

    @staticmethod
    def from_models(universe: FieldUniverse, masks: Iterable[int]) -> "PathFormula":
        table = 0
        for m in masks:
            table |= 1 << m
        if table >> (1 << universe.size):
            raise ValueError("model outside the universe")
        return PathFormula(universe, table)

    @staticmethod
    def false(universe: FieldUniverse) -> "PathFormula":
        return PathFormula(universe, 0)

    @staticmethod
    def true(universe: FieldUniverse) -> "PathFormula":
        return PathFormula(universe, universe.full_table)

    @staticmethod
    def only(universe: FieldUniverse, fields: Iterable[str]) -> "PathFormula":
        """The formula whose single model is exactly this field set."""
        return PathFormula.from_models(universe, [universe.mask_of(fields)])

    # -- inspection

    @property
    def models(self) -> Optional[frozenset[int]]:
        """The models as a set of masks, or None for the tautology."""
        return None if self.is_true else frozenset(models_of(self.table))

    @property
    def is_true(self) -> bool:
        return self.table == self.universe.full_table

    @property
    def is_false(self) -> bool:
        return not self.table

    def model_sets(self) -> tuple[tuple[str, ...], ...]:
        masks = sorted(models_of(self.table), key=lambda m: (m.bit_count(), m))
        return tuple(self.universe.names_of(m) for m in masks)

    def has_model(self, mask: int) -> bool:
        return bool(self.table >> mask & 1)

    # -- lattice structure (pointwise on truth tables)

    def _check(self, other: "PathFormula") -> None:
        if self.universe != other.universe:
            raise ValueError("formulas over different universes")

    def join(self, other: "PathFormula") -> "PathFormula":
        self._check(other)
        return PathFormula(self.universe, self.table | other.table)

    def leq(self, other: "PathFormula", via: "Viability | None" = None) -> bool:
        """Implication on viable models."""
        self._check(other)
        extra = self.table & ~other.table
        return not (extra if via is None else extra & via.table)

    def equiv(self, other: "PathFormula", via: "Viability | None" = None) -> bool:
        return self.leq(other, via) and other.leq(self, via)

    def drop_nonviable(self, via: "Viability | None") -> "PathFormula":
        """Display/fixpoint canonical form (``Viability.canonical``)."""
        if via is None:
            return self
        kept = via.canonical(self.table)
        return self if kept == self.table else PathFormula(self.universe, kept)

    # -- path operators

    def concat(self, other: "PathFormula") -> "PathFormula":
        self._check(other)
        return PathFormula(self.universe, concat(self.universe, self.table, other.table))

    def difference(self, other: "PathFormula") -> "PathFormula":
        self._check(other)
        return PathFormula(self.universe, difference(self.universe, self.table, other.table))

    # -- rendering

    def render(self) -> str:
        if self.is_true:
            return "true"
        if self.is_false:
            return "false"
        parts = []
        for names in self.model_sets():
            parts.append("x{" + ",".join(names) + "}")
        return "∨".join(parts)

    def json_models(self) -> list[list[str]]:
        by_name = self.universe.by_name
        return [
            [f for f, bit in by_name if mask & bit]
            for mask in self.universe.json_order(self.table)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<pf {self.render()}>"


# --------------------------------------------------------------------------
# viability


def saturate(succ: Mapping, halves: Mapping, reached: dict, pending: dict) -> dict:
    """Pushes the truth tables ``pending`` holds per node along ``succ``,
    which maps each node to its (label bit, successor) steps, into
    ``reached``: per node, the truth table of the masks of the walks that
    end there.  A step adds its label to every mask of a table, one masked
    shift by the bit's ``halves`` as in ``concat``, and only the masks that
    are new at the successor are pushed on from there (delta propagation),
    so this ends on cyclic graphs too.  The oracle runs it on labelled heaps
    and viability on the class graph."""
    while pending:
        node, t = pending.popitem()
        for bit, dst in succ[node]:
            without, with_ = halves[bit]
            old = reached.get(dst, 0)
            new = (((t & without) << bit) | (t & with_)) & ~old
            if new:
                reached[dst] = old | new
                pending[dst] = pending.get(dst, 0) | new
    return reached


def class_graph(ct: ClassTable, bits: Mapping[str, int]) -> dict[str, tuple[tuple[int, str], ...]]:
    """Per class, its heap steps along the declared fields of ``bits``: to
    every subclass of the declared type of each field the class carries,
    inherited fields included, labelled with the field's bit."""
    return {
        c: tuple(
            (bits[f], d)
            for f, t in ct.fields_of(c)
            if f in bits
            for d in ct.subclasses_of(t)
        )
        for c in ct.class_names
    }


def class_reach_closure(ct: ClassTable, phi: Iterable[str]) -> frozenset[tuple[str, str]]:
    """The class pairs (a, b) such that a reaches b traversing only fields
    of ``phi``: the reflexive-transitive closure of one-step reachability,
    where a step leads from any class carrying a field of ``phi`` to any
    subclass of that field's type.  Every label is 0, whose halves make
    the shift the identity on the empty mask, so the saturation is plain
    reachability."""
    graph = class_graph(ct, dict.fromkeys(phi, 0))
    return frozenset((a, b) for a in graph for b in saturate(graph, {0: (1, 0)}, {a: 1}, {a: 1}))


class Viability:
    """The truth table of a universe's viable masks: the field sets that can
    be the exact traversal set of some path in some heap compatible with
    the class declarations.  Built once, in ``__init__``.

    A mask holding the stand-in is viable, since the stand-in covers unknown
    fields, and so is the empty mask.  Otherwise a heap path is a walk of the
    class graph (``class_graph``), and fresh objects linked along any walk
    form a heap whose path traverses exactly the walk's fields.  So the
    other viable masks are the masks of the walks from every class: one
    ``saturate`` that starts every class at the empty mask and pushes the
    per-class tables until none grows.  A mask naming a field no class
    declares has no walk.
    """

    def __init__(self, ct: ClassTable, universe: FieldUniverse):
        self.universe = universe
        graph = class_graph(ct, {f: 1 << i for i, f in enumerate(universe.fields)})
        self.table = universe.halves[universe.any_bit][1] | 1 if universe.has_any else 1
        for t in saturate(graph, universe.halves, {}, dict.fromkeys(graph, 1)).values():
            self.table |= t

    def is_viable_mask(self, mask: int) -> bool:
        return bool(self.table >> mask & 1)

    def canonical(self, table: int) -> int:
        """Display/fixpoint canonical form: forget unrealizable models.  The
        tautology stays the tautology; its unrealizable models carry no
        information and comparisons quotient them out anyway."""
        return table if table == self.universe.full_table else table & self.table
