import itertools

import pytest
from hypothesis import example, given, strategies as st

from fieldreach import (
    ANY_FIELD,
    FieldUniverse,
    PathFormula,
    Viability,
    build_class_table,
    class_reach_closure,
    parse_program,
)
from fieldreach.formula import concat, difference, models_of

from conftest import pf
from reference import (
    all_formulas,
    concat_by_models,
    halves_by_division,
    pairwise_viability,
    sorted_json_models,
    submasks,
)


def masks(f):
    """The models of a formula as a set of masks, the tautology's too."""
    return frozenset(models_of(f.table))


# --------------------------------------------------------------------------
# construction and basic shapes


def test_only_fields(u3):
    empty = PathFormula.only(u3, ())
    assert empty.model_sets() == ((),)
    fh = PathFormula.only(u3, ["f", "h"])
    assert fh.model_sets() == (("f", "h"),)
    n = PathFormula.only(u3, ["g"])
    assert n.model_sets() == (("g",),)


def test_halves_match_the_division_formula():
    for k in range(17):
        universe = FieldUniverse(tuple(f"f{i:02}" for i in range(k)))
        assert universe.halves == halves_by_division(universe), k


def test_true_is_lazy_and_canonical(u2):
    t = PathFormula.true(u2)
    assert t.models is None
    materialized = PathFormula.from_models(u2, range(4))
    assert materialized == t
    assert hash(materialized) == hash(t)


def test_false_identity_and_true_identity(u2):
    f = pf(u2, ["f"])
    assert f.join(PathFormula.false(u2)) == f
    assert f.join(PathFormula.true(u2)).is_true
    assert f.leq(PathFormula.true(u2)) and PathFormula.false(u2).leq(f)


def test_join_example(u2):
    # over the two-field universe {f, g}: x{} joined with x{f,g}
    got = PathFormula.only(u2, ()).join(PathFormula.only(u2, ["f", "g"]))
    assert got == pf(u2, [], ["f", "g"])


def test_leq_basics(u3):
    false = PathFormula.false(u3)
    for g in (pf(u3, ["f"]), PathFormula.true(u3), false):
        assert false.leq(g)
    assert pf(u3, ["f", "h"]).leq(pf(u3, ["h"], ["f", "h"]))
    assert not pf(u3, ["h"], ["f", "h"]).leq(pf(u3, ["f", "h"]))


def test_equiv_reflexive_and_discriminating(u2):
    a = pf(u2, ["f"])
    assert a.equiv(a)
    b = pf(u2, ["f"], ["g"])
    assert not a.equiv(b)  # {g} discriminates


# --------------------------------------------------------------------------
# lattice laws, exhaustive over small universes


def test_lattice_laws_exhaustive_two_fields(u2):
    fs = list(all_formulas(u2))
    for a in fs:
        assert a.join(a) == a
        for b in fs:
            assert a.join(b) == b.join(a)
            # the join is the least upper bound
            assert a.leq(a.join(b)) and b.leq(a.join(b))
            for c in fs:
                if a.leq(c) and b.leq(c):
                    assert a.join(b).leq(c)
    for a, b, c in itertools.product(fs[:8], fs[:8], fs[:8]):
        assert a.join(b).join(c) == a.join(b.join(c))


def test_leq_partial_order(u2):
    fs = list(all_formulas(u2))
    for a in fs:
        assert a.leq(a)
        for b in fs:
            if a.leq(b) and b.leq(a):
                assert a.equiv(b)
            for c in fs:
                if a.leq(b) and b.leq(c):
                    assert a.leq(c)


# --------------------------------------------------------------------------
# path concatenation


def test_concat_examples(u3):
    f = PathFormula.only(u3, ["f"])
    h = PathFormula.only(u3, ["h"])
    assert f.concat(h) == PathFormula.only(u3, ["f", "h"])
    assert PathFormula.false(u3).concat(f).is_false
    assert PathFormula.only(u3, ()).concat(f) == f


def test_concat_laws_exhaustive_two_fields(u2):
    fs = list(all_formulas(u2))
    false = PathFormula.false(u2)
    empty = PathFormula.only(u2, ())
    for a in fs:
        assert a.concat(false).is_false
        assert a.concat(empty) == a and empty.concat(a) == a
        for b in fs:
            assert a.concat(b) == b.concat(a)
    for a, b, c in itertools.product(fs[:8], fs[:8], fs[:8]):
        assert a.concat(b).concat(c) == a.concat(b.concat(c))
    # monotone in both arguments
    for a, b, c in itertools.product(fs[:8], fs[:8], fs[:8]):
        if a.leq(b):
            assert a.concat(c).leq(b.concat(c))


def test_concat_with_lazy_true(u2):
    t = PathFormula.true(u2)
    f = PathFormula.only(u2, ["f"])
    # the tautology contains the empty model, so concatenation with any
    # nonempty formula containing it stays the tautology
    assert t.concat(t).is_true
    assert PathFormula.only(u2, ()).join(f).concat(t).is_true
    # without the empty model the result is the up-closure
    assert t.concat(f) == pf(u2, ["f"], ["f", "g"])
    assert f.concat(t) == pf(u2, ["f"], ["f", "g"])


# the devices fields plus one no class declares, so some masks are never viable
FIELD_POOL = ("aD", "lnk", "mD", "owner", "zz")


@st.composite
def two_model_sets(draw):
    """A universe of 1-5 fields and two model sets over it; a model set is
    sometimes every mask, so the tautology is drawn too."""
    fields = draw(st.lists(st.sampled_from(FIELD_POOL), min_size=1, max_size=5, unique=True))
    u = FieldUniverse.of(fields)
    model_set = st.one_of(
        st.just(frozenset(range(1 << u.size))),
        st.frozensets(st.integers(min_value=0, max_value=(1 << u.size) - 1), max_size=12),
    )
    return u, draw(model_set), draw(model_set)


@given(two_model_sets())
def test_concat_models_are_pairwise_unions(drawn):
    u, ma, mb = drawn
    a = PathFormula.from_models(u, ma)
    b = PathFormula.from_models(u, mb)
    assert masks(a.concat(b)) == frozenset(x | y for x in ma for y in mb)


@st.composite
def concat_operands(draw):
    """A universe of 0-8 fields and two tables over it, each random,
    up-closed or the tautology."""
    u = FieldUniverse(tuple(f"f{i}" for i in range(draw(st.integers(0, 8)))))
    random_table = st.integers(min_value=0, max_value=u.full_table)
    table = st.one_of(random_table, random_table.map(u.up), st.just(u.full_table))
    return u, draw(table), draw(table)


@given(concat_operands())
@example((FieldUniverse(("f", "g")), 0b0111, 0b1111))
def test_concat_equals_the_per_model_loop(drawn):
    """With an up-closed operand ``concat`` may take one meet of closures."""
    u, a, b = drawn
    expected = concat_by_models(u, a, b)
    assert concat(u, a, b) == expected == concat_by_models(u, b, a)
    assert concat(u, b, a) == expected


@given(two_model_sets())
def test_operators_match_set_definitions(devices_ct, drawn):
    u, ma, mb = drawn
    a = PathFormula.from_models(u, ma)
    b = PathFormula.from_models(u, mb)
    assert a.models == (None if len(ma) == 1 << u.size else ma)
    assert masks(a.join(b)) == ma | mb
    assert masks(a.difference(b)) == frozenset(
        x & ~y for x in ma for z in mb for y in submasks(x & z)
    )
    assert a.leq(b) == (ma <= mb)
    assert a.equiv(b) == (ma == mb)

    via = Viability(devices_ct, u)
    viable_a = frozenset(m for m in ma if brute_force_viable(devices_ct, u.names_of(m)))
    viable_b = frozenset(m for m in mb if brute_force_viable(devices_ct, u.names_of(m)))
    assert a.leq(b, via) == (viable_a <= mb)
    assert a.equiv(b, via) == (viable_a == viable_b)
    assert a.drop_nonviable(None) == a
    kept = a.drop_nonviable(via)
    assert kept == (a if a.is_true else PathFormula.from_models(u, viable_a))


# --------------------------------------------------------------------------
# path difference


def submask_walk_difference(universe, a, b):
    """The reference definition on tables: every model of ``a`` with each of
    its submasks removed that lies under some model of ``b``."""
    removable = {x for y in models_of(b) for x in submasks(y)}
    out = 0
    for m in models_of(a):
        for x in submasks(m):
            if x in removable:
                out |= 1 << (m ^ x)
    return out


@st.composite
def two_tables(draw):
    """A universe of 1-7 fields and two truth tables over it."""
    u = FieldUniverse(tuple(f"f{i}" for i in range(draw(st.integers(1, 7)))))
    table = st.integers(min_value=0, max_value=u.full_table)
    return u, draw(table), draw(table)


@given(two_tables())
def test_difference_by_shifts_matches_the_submask_walk(drawn):
    u, a, b = drawn
    assert difference(u, a, b) == submask_walk_difference(u, a, b)


def up_by_supersets(universe, table):
    """The up-closure by its definition: every superset of every model."""
    full = (1 << universe.size) - 1
    return sum({1 << (m | x) for m in models_of(table) for x in submasks(full & ~m)})


@st.composite
def busy_universes(draw):
    """A universe of 1-6 fields, sometimes ending with the stand-in, whose
    table of products already holds the answers to 5-30 random ``concat``,
    ``difference`` and ``up`` calls, those calls' operands, and two operands
    to ask about: non-zero tables, random, up-closed or the tautology, or
    operands the table has met before."""
    names = tuple(f"f{i}" for i in range(draw(st.integers(1, 6))))
    with_any = draw(st.booleans())
    u = FieldUniverse.tracked(names, names[:-1] if with_any else names)
    random_table = st.integers(min_value=1, max_value=u.full_table)
    up_closed = random_table.map(lambda t: up_by_supersets(u, t))
    table = st.one_of(random_table, up_closed, st.just(u.full_table))
    met = []
    for _ in range(draw(st.integers(5, 30))):
        op, a, b = draw(st.sampled_from("cdu")), draw(table), draw(table)
        if op == "c":
            concat(u, a, b)
        elif op == "d":
            difference(u, a, b)
        else:
            u.up(a)
        met += [a, b]
    operand = st.one_of(table, st.sampled_from(met))
    return u, draw(operand), draw(operand)


@given(busy_universes())
def test_a_busy_table_of_products_answers_as_a_fresh_universe(drawn):
    """A universe answers from its table of products exactly what a fresh
    universe of the same fields computes and what the references define:
    concatenation the same either way round, difference not."""
    u, a, b = drawn
    assert u.products
    # each product is asked again once its answer is stored
    want = concat_by_models(u, a, b)
    assert concat(u, a, b) == concat(FieldUniverse(u.fields), a, b) == want
    assert concat(u, b, a) == want
    want = submask_walk_difference(u, a, b)
    assert difference(u, a, b) == difference(FieldUniverse(u.fields), a, b) == want
    assert difference(u, b, a) == submask_walk_difference(u, b, a)
    assert difference(u, a, b) == want
    for t in (a, b):
        assert u.up(t) == FieldUniverse(u.fields).up(t) == up_by_supersets(u, t)
        assert u.up(t) == up_by_supersets(u, t)


def test_each_universe_has_its_own_table_of_products():
    """Two universes of the same fields are equal but share no products, so
    a table lives and dies with the universe one analysis builds."""
    first, second = FieldUniverse.of(["f", "g"]), FieldUniverse.of(["f", "g"])
    assert first == second and hash(first) == hash(second)
    assert first.products is not second.products
    assert concat(first, 0b0010, 0b0100) == 0b1000
    assert difference(first, 0b1000, 0b0100) == 0b1010
    assert first.up(0b0010) == 0b1010
    assert len(first.products) == 3 and second.products == {}


@given(st.data())
def test_a_zero_operand_gives_zero(data):
    """What lets the transfer functions skip every term with a zero operand:
    ``concat`` and ``difference`` give 0 when either side is 0."""
    u = FieldUniverse(tuple(f"f{i}" for i in range(data.draw(st.integers(1, 5)))))
    t = data.draw(st.integers(0, u.full_table))
    assert concat(u, t, 0) == concat(u, 0, t) == 0
    assert difference(u, t, 0) == difference(u, 0, t) == 0


def test_difference_examples(u3):
    fh = PathFormula.only(u3, ["f", "h"])
    f = PathFormula.only(u3, ["f"])
    assert fh.difference(f) == pf(u3, ["h"], ["f", "h"])
    g = pf(u3, ["f"], ["g"])
    assert g.difference(PathFormula.only(u3, ["f", "g"])) == pf(u3, [], ["f"], ["g"])
    assert g.difference(PathFormula.only(u3, ())) == g


def test_difference_keeps_models(u2):
    fs = list(all_formulas(u2))
    for a in fs:
        for b in fs:
            if b.is_false:
                continue  # with no model on the right nothing survives
            d = a.difference(b)
            assert a.leq(d)


def test_difference_with_lazy_true(u2):
    t = PathFormula.true(u2)
    fg = PathFormula.only(u2, ["f", "g"])
    assert t.difference(fg).is_true
    assert fg.difference(t) == pf(u2, [], ["f"], ["g"], ["f", "g"])


# --------------------------------------------------------------------------
# viability


def brute_force_viable(ct, names) -> bool:
    """Independent decision: search class-graph walks covering exactly the
    given fields, tracking (current class, fields traversed so far)."""
    names = frozenset(names)
    if not names:
        return True
    carriers = {
        c: [f for f, _ in ct.fields_of(c) if f in names] for c in ct.class_names
    }
    seen = set()
    work = [(c, frozenset()) for c in ct.class_names]
    while work:
        cls, done = work.pop()
        if (cls, done) in seen:
            continue
        seen.add((cls, done))
        if done == names:
            return True
        for fld in carriers[cls]:
            for nxt in ct.subclasses_of(ct.field_type(fld)):
                work.append((nxt, done | {fld}))
    return any(done == names for _, done in seen)


def test_devices_viability(devices_ct, devices_universe, devices_via):
    assert devices_via.is_viable_mask(devices_universe.mask_of(["aD", "lnk", "owner"]))
    assert not devices_via.is_viable_mask(devices_universe.mask_of(["mD", "lnk"]))
    assert devices_via.is_viable_mask(devices_universe.mask_of([]))


def test_viability_matches_brute_force(devices_ct, devices_universe, devices_via):
    fields = list(devices_universe.fields)
    for k in range(len(fields) + 1):
        for combo in itertools.combinations(fields, k):
            expected = brute_force_viable(devices_ct, combo)
            assert devices_via.is_viable_mask(devices_universe.mask_of(combo)) == expected, combo


@st.composite
def class_tables(draw, max_fields=6):
    """1-5 classes, some with a superclass, and 1 to ``max_fields`` reference
    fields of random class types; returns the table and its field names."""
    n = draw(st.integers(1, 5))
    parents = [draw(st.none() | st.integers(0, i - 1)) if i else None for i in range(n)]
    decls = [[] for _ in range(n)]
    fields = [f"r{j}" for j in range(draw(st.integers(1, max_fields)))]
    for f in fields:
        decls[draw(st.integers(0, n - 1))].append(f"C{draw(st.integers(0, n - 1))} {f};")
    source = " ".join(
        f"class C{i}" + ("" if p is None else f" extends C{p}") + " { " + " ".join(d) + " }"
        for i, (p, d) in enumerate(zip(parents, decls))
    )
    return build_class_table(parse_program(source)), fields


@st.composite
def viability_cases(draw, max_fields=6):
    """A class table and a universe of its fields, maybe with one more that
    no class declares, maybe tracking a strict subset with the stand-in."""
    ct, fields = draw(class_tables(max_fields))
    if draw(st.booleans()):
        fields = fields + ["ghost"]
    if draw(st.booleans()):
        tracked = draw(st.sets(st.sampled_from(fields), max_size=len(fields) - 1))
        return ct, FieldUniverse.tracked(fields, tracked)
    return ct, FieldUniverse.of(fields)


@given(viability_cases())
def test_viability_table_matches_walk_search(drawn):
    ct, universe = drawn
    expected = 0
    for mask in range(1 << universe.size):
        names = universe.names_of(mask)
        if ANY_FIELD in names or brute_force_viable(ct, names):
            expected |= 1 << mask
    assert Viability(ct, universe).table == expected


# Brute force cannot go past the six fields above; the pairwise saturation,
# one (class, mask) pair at a time, can.
@given(viability_cases(max_fields=12))
def test_viability_table_matches_the_pairwise_saturation(drawn):
    ct, universe = drawn
    assert Viability(ct, universe).table == pairwise_viability(ct, universe)


def test_wide_list_viability_matches_the_pairwise_saturation():
    # the class table of the benchmark's wide shapes at 16 fields
    decls = " ".join(f"N f{i};" for i in range(14))
    ct = build_class_table(parse_program(f"class N {{ {decls} L g; }} class L {{ L h; }}"))
    u = FieldUniverse.of(ct.reference_fields)
    assert u.size == 16
    assert Viability(ct, u).table == pairwise_viability(ct, u)


def test_chain_viability_is_the_contiguous_runs():
    # C0 -f0-> C1 -f1-> ... -f8-> C9, and X -z-> X
    chain = " ".join(f"class C{i} {{ C{i + 1} f{i}; }}" for i in range(9))
    ct = build_class_table(parse_program(chain + " class C9 { } class X { X z; }"))
    u = FieldUniverse.of(ct.reference_fields)
    runs = [[f"f{i}" for i in range(a, b)] for a in range(9) for b in range(a + 1, 10)]
    assert Viability(ct, u).table == pf(u, [], ["z"], *runs).table


def test_nonviable_collapses_to_false(devices_ct, devices_universe, devices_via):
    bad = PathFormula.only(devices_universe, ["mD", "lnk"])
    false = PathFormula.false(devices_universe)
    assert bad.leq(false, devices_via)
    assert bad.equiv(false, devices_via)
    good = PathFormula.only(devices_universe, ["aD", "lnk", "owner"])
    assert not good.equiv(false, devices_via)


def test_class_reach_closure(devices_ct):
    r = class_reach_closure(devices_ct, ["aD", "lnk", "owner"])
    assert ("L2", "LP") in r
    identity = class_reach_closure(devices_ct, [])
    assert identity == frozenset((c, c) for c in devices_ct.class_names)
    lnk_only = class_reach_closure(devices_ct, ["lnk"])
    assert ("TB", "LP") in lnk_only
    assert ("LP", "TB") not in lnk_only


@given(st.data())
def test_class_reach_closure_matches_a_search(data):
    ct, fields = data.draw(class_tables())
    phi = data.draw(st.sets(st.sampled_from(fields + ["ghost"])))
    expected = set()
    for a in ct.class_names:  # breadth-first from each class
        seen, queue = {a}, [a]
        for c in queue:
            steps = [t for f, t in ct.fields_of(c) if f in phi]
            for b in ct.class_names:
                if b not in seen and any(ct.is_subclass(b, t) for t in steps):
                    seen.add(b)
                    queue.append(b)
        expected.update((a, b) for b in seen)
    assert class_reach_closure(ct, phi) == expected


# --------------------------------------------------------------------------
# field abstraction


def test_project_fields():
    # projecting onto the tracked fields folds every untracked field of a
    # model into the stand-in
    u = FieldUniverse.tracked(["left", "right", "parent"], ["left"])
    assert u.fields == ("left", ANY_FIELD)
    got = PathFormula.from_models(
        u, [u.abstract_mask(names) for names in ([], ["left", "right", "parent"])]
    )
    assert set(got.model_sets()) == {(), ("left", ANY_FIELD)}


def test_project_all_tracked_is_identity(u3):
    assert FieldUniverse.tracked(["h", "g", "f"], ["f", "g", "h"]) == u3
    assert not u3.has_any
    assert all(u3.abstract_mask(u3.names_of(m)) == m for m in range(1 << u3.size))


def test_project_unknown_field_rejected(u3):
    with pytest.raises(ValueError, match=r"unknown tracked fields: \['nope'\]"):
        FieldUniverse.tracked(u3.fields, ["f", "nope"])


def test_abstract_union_in_concat():
    u = FieldUniverse.tracked(["fld1", "fld2", "other"], ["fld1", "fld2"])
    a = PathFormula.from_models(u, [u.abstract_mask(["other", "fld1"])])
    b = PathFormula.from_models(u, [u.abstract_mask(["other", "fld2"])])
    assert a.concat(b).model_sets() == ((("fld1", "fld2", ANY_FIELD)),)


def test_abstract_difference_keeps_and_drops_any():
    # removing a stand-in occurrence is optional: the untracked fields it
    # covers may or may not be exhausted
    u = FieldUniverse.tracked(["fld1", "fld2"], ["fld1"])
    lhs = PathFormula.from_models(u, [u.abstract_mask(["fld1", "fld2"])])
    rhs = PathFormula.from_models(u, [u.abstract_mask(["fld2"])])
    got = lhs.difference(rhs)
    assert set(got.model_sets()) == {("fld1",), ("fld1", ANY_FIELD)}


def test_any_assignments_always_viable(devices_ct):
    u = FieldUniverse.tracked(devices_ct.reference_fields, ["mD", "lnk"])
    via = Viability(devices_ct, u)
    assert via.is_viable_mask(u.mask_of(["mD", "lnk", ANY_FIELD]))
    assert not via.is_viable_mask(u.mask_of(["mD", "lnk"]))


def test_viable_empty_for_every_class_table(devices_ct, devices_via):
    assert devices_via.is_viable_mask(devices_via.universe.mask_of([]))
    for src in (
        "",
        "main { skip; }",
        "class A { }",
        "class A { A f; }",
        "class A { } class B extends A { B g; }",
    ):
        ct = build_class_table(parse_program(src))
        u = FieldUniverse.of(ct.reference_fields)
        assert Viability(ct, u).is_viable_mask(u.mask_of([]))


# --------------------------------------------------------------------------
# JSON model order

# Names that sort before, between and after "any", some a prefix of another,
# and characters that sort below the letters.
NAME = st.text(alphabet="abnyz_AZ9", max_size=4).filter(lambda n: n != ANY_FIELD)


@st.composite
def universes_and_tables(draw):
    """A universe of 0-10 fields with random names, sometimes a tracked
    universe whose stand-in ends the index order wherever ``any`` sorts, and
    a truth table over it: 0, the full table, a few masks or any table."""
    fields = draw(st.lists(NAME, max_size=10, unique=True))
    if fields and draw(st.booleans()):
        tracked = draw(st.lists(st.sampled_from(fields), max_size=len(fields) - 1, unique=True))
        u = FieldUniverse.tracked(fields + ["untracked"], tracked)
    else:
        u = FieldUniverse(tuple(draw(st.permutations(fields))))
    mask = st.integers(0, (1 << u.size) - 1)
    table = draw(
        st.one_of(
            st.just(0),
            st.just(u.full_table),
            st.lists(mask, max_size=12).map(lambda ms: sum({1 << m for m in ms})),
            st.integers(0, u.full_table),
        )
    )
    return u, table


@example((FieldUniverse.tracked(["left", "right"], ["left"]), 0b1111))
@example((FieldUniverse.tracked(["c", "b", "a"], ["c", "b"]), 0b11111111))
@given(universes_and_tables())
def test_json_models_are_the_sorted_name_lists(drawn):
    """The walk of the subset tree in name order puts a formula's models in
    the order of their sorted name lists, with the stand-in anywhere in name
    order."""
    u, table = drawn
    f = PathFormula(u, table)
    assert f.json_models() == sorted_json_models(f)


def test_json_walk_visits_each_mask_after_its_parent():
    u = FieldUniverse(("b", "any", "a"))
    walk = u.json_walk
    assert [mask for mask, _, _ in walk] == [4, 6, 7, 5, 2, 3, 1]
    assert [name for _, _, name in walk] == ["a", "any", "b", "b", "any", "b", "b"]
    assert all(u.json_rank[parent] < u.json_rank[mask] for mask, parent, _ in walk)
    assert sorted(u.json_rank) == list(range(1 << u.size))
