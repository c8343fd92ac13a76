import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from fieldreach import FieldUniverse, PathFormula, RcValue, Viability
from fieldreach.oracle import ConcreteState, Loc, Obj, cycle_field_sets, traversal_saturate
from fieldreach.semantics import analyze_program
from fieldreach.syntax import walk_commands

from conftest import build, pf, with_entries
from reference import DictRcValue, rename_by_remap
from test_reports import CASES


@pytest.fixture
def u():
    return FieldUniverse.of(["f", "g"])


@pytest.fixture
def value(u):
    return RcValue.bottom(u, ("v", "w", "z"))


def put(value, reach=None, cyc=None):
    """A copy of ``value`` with the given entries, which must be in its
    scope, set to the tables of the given formulas."""
    reach, cyc = reach or {}, cyc or {}
    assert all(key in value.reach for key in reach) and all(v in value.cyc for v in cyc)
    return with_entries(
        value,
        {key: f.table for key, f in reach.items()},
        {v: f.table for v, f in cyc.items()},
    )


def test_bottom_and_top(u, value):
    assert all(value.reach_at(v, w).is_false for v, w in value.reach)
    assert list(value.cyc) == ["v", "w", "z"]
    assert list(value.reach) == [(v, w) for v in "vwz" for w in "vwz"]
    top = RcValue.of(
        u,
        value.scope.names,
        {key: u.full_table for key in value.reach},
        {v: u.full_table for v in value.cyc},
    )
    assert all(top.reach_at(v, w).is_true for v, w in top.reach)
    assert value.leq(top)
    assert top.join(value) == top


def _int_vars(env):
    return [v for v in env.variables if v not in env.ref_vars]


def _assert_one_scope(value, ints):
    scope = list(value.cyc)
    assert list(value.reach) == [(v, w) for v in scope for w in scope]
    for k in ints:
        with pytest.raises(KeyError):
            value.reach_at(k, scope[0] if scope else k)
        with pytest.raises(KeyError):
            value.cyc_at(k)


def test_int_vars_have_no_entries():
    # a value's scope is its reference variables: reach has one entry per
    # ordered pair of the cyc keys, and an int variable has no entry at all
    for _, src, entry, tracked in CASES:
        program, ct, info = build(src)
        result = analyze_program(program, ct, info, tracked=tracked, entry=entry)
        ints = _int_vars(info.env_for(result.entry))
        for value in [result.final] + [row.value for row in result.trace]:
            _assert_one_scope(value, ints)
        bodies = [("main", program.main.body)] if program.main is not None else []
        bodies += [(sig.key, ct.method_body(sig)) for sig in ct.all_method_sigs()]
        for key, body in bodies:
            ints = _int_vars(info.env_for(key))
            for cmd in walk_commands(body):
                if cmd.nid in result.point_post:
                    _assert_one_scope(result.point_post[cmd.nid], ints)
            for value in result.denotations.get(key, {}).values():
                _assert_one_scope(value, ints)


def test_names_outside_the_scope_raise(u, value):
    # "no path" is the unsound answer, so a misspelt name must not read it
    with pytest.raises(KeyError):
        value.reach_at("v", "nope")
    with pytest.raises(KeyError):
        value.reach_at("nope", "w")
    with pytest.raises(KeyError):
        value.cyc_at("nope")
    assert value.reach_at("v", "w").is_false


def test_project(u, value):
    v1 = put(value, reach={("v", "z"): pf(u, ["f"]), ("w", "z"): pf(u, ["g"])})
    v2 = v1.project(["v"])
    assert v2.reach_at("v", "z").is_false
    assert v2.reach_at("w", "z") == pf(u, ["g"])
    assert v1.project([]) == v1
    assert v1.project(v1.cyc) == RcValue.bottom(u, v1.cyc)


def test_project_of_union_composes(u, value):
    v1 = put(value, reach={("v", "w"): pf(u, ["f"])}, cyc={"z": pf(u, [])})
    assert v1.project(["v"]).project(["z"]) == v1.project(["v", "z"])


def test_rename(u, value):
    v1 = put(value, reach={("v", "z"): pf(u, ["f"])}, cyc={"v": pf(u, [])})
    v2 = v1.rename("v", "w")
    assert v2.reach_at("w", "z") == pf(u, ["f"])
    assert v2.cyc_at("w") == pf(u, [])
    assert v2.reach_at("v", "z").is_false
    assert v2.cyc_at("v").is_false
    assert v1.rename("v", "v") == v1
    bottom = RcValue.bottom(u, value.cyc)
    assert bottom.rename("v", "w") == bottom


def test_rename_diagonal_moves(u, value):
    v1 = put(value, reach={("v", "v"): pf(u, [])})
    v2 = v1.rename("v", "w")
    assert v2.reach_at("w", "w") == pf(u, [])
    assert v2.reach_at("v", "v").is_false


def test_copy_var(u, value):
    v1 = put(
        value,
        reach={("v", "v"): pf(u, []), ("v", "z"): pf(u, ["f"])},
        cyc={"v": pf(u, ["f", "g"])},
    )
    v2 = v1.copy_var("v", "w")
    assert v2.reach_at("w", "w") == pf(u, [])
    assert v2.reach_at("v", "w") == pf(u, [])
    assert v2.reach_at("w", "v") == pf(u, [])
    assert v2.reach_at("w", "z") == pf(u, ["f"])
    assert v2.cyc_at("w") == pf(u, ["f", "g"])
    # copying an all-false variable leaves the target all-false
    v3 = value.copy_var("z", "w")
    assert all(v3.reach_at(v, w).is_false for v, w in v3.reach)


def test_update_and_normalize(u, value):
    v1 = put(value, reach={("v", "v"): pf(u, ["f", "g"])})
    assert not v1.is_normal()
    v2 = v1.normalize()
    assert v2.cyc_at("v") == pf(u, ["f", "g"])
    assert v2.reach == v1.reach
    assert v2.normalize() == v2  # idempotent
    bottom = RcValue.bottom(u, value.cyc)
    assert bottom.normalize() == bottom


def test_normalize_extensive(u, value):
    v1 = put(value, reach={("w", "w"): pf(u, ["f"])}, cyc={"w": pf(u, ["g"])})
    v2 = v1.normalize()
    assert v1.cyc_at("w").leq(v2.cyc_at("w"))
    assert v2.cyc_at("w") == pf(u, ["f"], ["g"])


def test_update_only_touches_entry(u, value):
    v1 = put(value, reach={("v", "z"): pf(u, ["g"], ["f", "g"])})
    changed = [k for k in v1.reach if v1.reach[k] != value.reach[k]]
    assert changed == [("v", "z")]
    assert put(value, reach={("v", "z"): value.reach_at("v", "z")}) == value


def test_join_and_leq(u, value):
    a = put(value, reach={("v", "w"): pf(u, ["f"])})
    b = put(value, reach={("v", "w"): pf(u, ["g"])}, cyc={"z": pf(u, [])})
    j = a.join(b)
    assert j.reach_at("v", "w") == pf(u, ["f"], ["g"])
    assert j.cyc_at("z") == pf(u, [])
    assert a.leq(j) and b.leq(j)
    bottom = RcValue.bottom(u, value.cyc)
    assert j.join(bottom) == j
    assert bottom.leq(a) and bottom.leq(b)


def test_join_requires_same_scope(u, value):
    other = RcValue.bottom(u, ("a",))
    with pytest.raises(ValueError):
        value.join(other)
    # a stored table means nothing over another universe
    foreign = RcValue.bottom(FieldUniverse.of(["f"]), value.cyc)
    with pytest.raises(ValueError):
        value.join(foreign)
    with pytest.raises(ValueError):
        foreign.leq(value)


def test_remap_collision_joins(u, value):
    v1 = put(
        value,
        reach={("v", "v"): pf(u, ["f"]), ("w", "w"): pf(u, ["g"])},
        cyc={"v": pf(u, ["f"]), "w": pf(u, ["g"])},
    )
    out = v1.remap({"v": "a", "w": "a"}, ("a",))
    assert out.reach_at("a", "a") == pf(u, ["f"], ["g"])
    assert out.cyc_at("a") == pf(u, ["f"], ["g"])


def test_leq_decided_by_cyclicity_alone(u, value):
    low = put(value, cyc={"v": pf(u, ["f"])})
    high = put(low, cyc={"v": pf(u, ["f"], ["g"])})
    assert low.reach == high.reach
    assert low.leq(high) and not high.leq(low)


def test_key_tells_one_cyclicity_entry_apart(u, value):
    a = put(value, cyc={"v": pf(u, ["f"])})
    assert a.key() != value.key()
    assert a.key() != put(a, cyc={"v": pf(u, ["g"])}).key()
    assert a.key() == put(value, cyc={"v": pf(u, ["f"])}).key()


VARS = ("a", "b", "c")


def _draw_value(data, universe):
    table = st.integers(0, universe.full_table)
    return RcValue.of(
        universe,
        VARS,
        {(v, w): data.draw(table) for v in VARS for w in VARS},
        {v: data.draw(table) for v in VARS},
    )


def _entrywise_leq(x, y):
    return all(x.reach_at(v, w).leq(y.reach_at(v, w)) for v, w in x.reach) and all(
        x.cyc_at(v).leq(y.cyc_at(v)) for v in x.cyc
    )


def _devices_universe(data, devices_ct):
    """One to three fields of the devices classes, with the stand-in or not."""
    fields = sorted(devices_ct.reference_fields)
    names = data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3, unique=True))
    if len(names) < 3 and data.draw(st.booleans()):
        return FieldUniverse.tracked(fields, names)  # with the stand-in
    return FieldUniverse.of(names)


@given(data=st.data())
def test_value_operators_agree_with_the_formula_operators(devices_ct, data):
    # the value operators work on the bare tables; on the PathFormula views
    # they must agree with the formula operators entry by entry
    universe = _devices_universe(data, devices_ct)
    via = Viability(devices_ct, universe)
    x, y = _draw_value(data, universe), _draw_value(data, universe)

    joined = x.join(y)
    for v, w in x.reach:
        assert joined.reach_at(v, w) == x.reach_at(v, w).join(y.reach_at(v, w))
    for v in x.cyc:
        assert joined.cyc_at(v) == x.cyc_at(v).join(y.cyc_at(v))

    var = data.draw(st.sampled_from(VARS))
    lifted = put(x, cyc={var: x.cyc_at(var).join(y.cyc_at(var))})
    for low, high in [(x, y), (y, x), (x, joined), (joined, x), (lifted, x), (x, lifted)]:
        assert low.leq(high) == _entrywise_leq(low, high)
    assert (lifted.key() == x.key()) == (lifted == x)
    assert (y.key() == x.key()) == (y == x)

    normal = x.normalize()
    assert normal.reach == x.reach
    for v in x.cyc:
        assert normal.cyc_at(v) == x.cyc_at(v).join(x.reach_at(v, v))
    assert normal.is_normal()

    canon = x.canonical(via)
    for v, w in x.reach:
        assert canon.reach_at(v, w) == x.reach_at(v, w).drop_nonviable(via)
    for v in x.cyc:
        assert canon.cyc_at(v) == x.cyc_at(v).drop_nonviable(via)

    # a and b land on one target, c on another
    mapping = {"a": "p", "b": "p", "c": "q"}
    out = x.remap(mapping, ("p", "q"))
    sources = {d: [s for s, t in mapping.items() if t == d] for d in ("p", "q")}
    for d1, s1 in sources.items():
        cyc = PathFormula.false(universe)
        for s in s1:
            cyc = cyc.join(x.cyc_at(s))
        assert out.cyc_at(d1) == cyc
        for d2, s2 in sources.items():
            reach = PathFormula.false(universe)
            for s, t in itertools.product(s1, s2):
                reach = reach.join(x.reach_at(s, t))
            assert out.reach_at(d1, d2) == reach


def _mostly_zero(rng, universe, scope):
    """A value over the scope with up to 40% of its entries, drawn at
    random, set to random non-zero tables."""
    slots = [(0, (v, w)) for v in scope for w in scope] + [(1, v) for v in scope]
    entries = ({}, {})
    for part, key in rng.sample(slots, rng.randint(0, len(slots) * 2 // 5)):
        entries[part][key] = rng.randint(1, universe.full_table)
    return RcValue.of(universe, scope, *entries)


@given(data=st.data())
def test_canonical_returns_a_canonical_value_itself(devices_ct, data):
    """``canonical`` gives back its input, the same object, when every entry
    is already its own ``drop_nonviable``; otherwise a new value with that
    in every entry.  Without a viability table it changes nothing."""
    universe = _devices_universe(data, devices_ct)
    via = Viability(devices_ct, universe)
    x = _draw_value(data, universe)
    if data.draw(st.booleans()):  # canonical already, entry by entry
        reach = {key: via.canonical(t) for key, t in x.reach.items()}
        x = RcValue.of(universe, VARS, reach, {v: via.canonical(t) for v, t in x.cyc.items()})
    definition = RcValue.of(
        universe,
        VARS,
        {(v, w): x.reach_at(v, w).drop_nonviable(via).table for v, w in x.reach},
        {v: x.cyc_at(v).drop_nonviable(via).table for v in x.cyc},
    )
    canon = x.canonical(via)
    assert canon == definition
    assert (canon is x) == (x == definition)
    assert canon.canonical(via) is canon
    assert x.canonical(None) is x


def test_project_and_join_on_mostly_zero_values():
    """On values with at least 60% zero entries, as the analysis mostly
    builds: the one-pass ``project`` equals the identity ``remap`` onto the
    rest of the scope and leaves its input alone, and ``join`` is the
    entrywise ``|``."""
    rng = random.Random(20)
    for _ in range(200):
        universe = FieldUniverse(tuple(f"f{i}" for i in range(rng.randint(1, 4))))
        scope = [f"v{i}" for i in range(rng.randint(1, 6))]
        x, y = _mostly_zero(rng, universe, scope), _mostly_zero(rng, universe, scope)
        before = x._fresh()
        gone = rng.sample(scope, rng.randint(0, len(scope))) + ["elsewhere"]
        kept = {v: v for v in scope if v not in gone}
        assert x.project(gone) == x.remap(kept, scope)
        assert x == before
        joined = x.join(y)
        assert joined.reach == {key: t | y.reach[key] for key, t in x.reach.items()}
        assert joined.cyc == {v: t | y.cyc[v] for v, t in x.cyc.items()}


def test_rename_equals_the_remap_of_the_scope():
    """On values with at least 60% zero entries: ``rename`` equals the
    ``remap`` of the whole scope onto itself, for every move between two
    variables of the scope, a variable onto itself and names outside the
    scope, and leaves its input alone."""
    rng = random.Random(21)
    for _ in range(300):
        universe = FieldUniverse(tuple(f"f{i}" for i in range(rng.randint(1, 4))))
        scope = [f"v{i}" for i in range(rng.randint(2, 7))]
        x = _mostly_zero(rng, universe, scope)
        before = x._fresh()
        names = scope + ["elsewhere"]
        for src, dst in itertools.product(names, names):
            assert x.rename(src, dst) == rename_by_remap(x, src, dst), (src, dst)
        assert x == before


def _enumerate_states(max_objects, rng=None, samples=0):
    """Single-variable states over a two-field class; exhaustive up to the
    bound, plus optional random bigger heaps."""
    states = []

    def heaps(n):
        slots = [None] + [Loc(a) for a in range(1, n + 1)]
        for combo in itertools.product(slots, repeat=2 * n):
            heap = {
                a: Obj("K", {"f": combo[2 * (a - 1)], "g": combo[2 * (a - 1) + 1]})
                for a in range(1, n + 1)
            }
            yield heap

    for n in range(0, max_objects + 1):
        for heap in heaps(n):
            for val in [None] + [Loc(a) for a in range(1, n + 1)]:
                states.append(ConcreteState({"v": val}, heap))
    if rng is not None:
        for _ in range(samples):
            n = rng.randint(3, 4)
            heap = {}
            for a in range(1, n + 1):
                pick = lambda: rng.choice([None] + [Loc(b) for b in range(1, n + 1)])
                heap[a] = Obj("K", {"f": pick(), "g": pick()})
            states.append(ConcreteState({"v": Loc(rng.randint(1, n))}, heap))
    return states


def _represents(state, universe, diag, cyc):
    val = state.frame["v"]
    if not isinstance(val, Loc):
        return True  # a null variable satisfies any entry
    self_sets = {
        universe.mask_of(fs)
        for tgt, fs in traversal_saturate(state.heap, val.addr)
        if tgt == val.addr
    }
    cycle_sets = {universe.mask_of(fs) for fs in cycle_field_sets(state.heap, val.addr)}
    cycle_sets.add(0)
    return all(diag.has_model(m) for m in self_sets) and all(
        cyc.has_model(m) for m in cycle_sets
    )


def test_self_reach_above_cyc_has_same_concretization(u):
    # the cyclicity entry vetoes every self-path the reachability diagonal
    # would admit beyond it, so raising the diagonal above the cyclicity
    # entry does not change which states are represented
    rng = random.Random(11)
    states = _enumerate_states(2, rng, samples=300)
    pairs = [
        (pf(u, []), pf(u, [], ["f"])),
        (pf(u, []), PathFormula.true(u)),
        (pf(u, ["f"]), pf(u, ["f"], ["g"])),
        (PathFormula.false(u), pf(u, ["f", "g"])),
        (pf(u, [], ["f", "g"]), PathFormula.true(u)),
    ]
    for low, high in pairs:
        assert low.leq(high) and not high.leq(low)
        for state in states:
            wide = _represents(state, u, high, low)  # diagonal above cyc
            narrow = _represents(state, u, low, low)  # reduced form
            assert wide == narrow


def test_universe_and_scope_preserved(u, value):
    ops = [
        value.project(["v"]),
        value.rename("v", "w"),
        value.copy_var("v", "w"),
        value.normalize(),
        value.join(value),
    ]
    for out in ops:
        assert out.universe == value.universe
        assert list(out.cyc) == list(value.cyc)
        assert list(out.reach) == list(value.reach)


# --------------------------------------------------------------------------
# the flat layout against the dict layout

NAMES = ("a", "b", "c", "x1", "this", "out", "%res", "Z", "a_1")


def _as_dict(value: RcValue) -> DictRcValue:
    return DictRcValue(value.universe, dict(value.reach), dict(value.cyc))


def _same(new: RcValue, old: DictRcValue) -> None:
    """The flat value holds the dict value's entries, in its scope order."""
    assert isinstance(new, RcValue)
    assert _as_dict(new) == old
    assert list(new.cyc) == list(old.cyc) and list(new.reach) == list(old.reach)


@st.composite
def _universes(draw):
    fields = [f"f{i}" for i in range(draw(st.integers(0, 9)))]
    if fields and len(fields) < 9 and draw(st.booleans()):
        return FieldUniverse.tracked(fields + ["untracked"], fields)  # with the stand-in
    return FieldUniverse(tuple(draw(st.permutations(fields))))


def _tables(universe):
    full = universe.full_table
    return st.one_of(st.just(0), st.just(full), st.integers(0, full))


def _draw_pair(data, universe, names):
    """A flat value and the dict value of the same entries, each entry zero,
    full or random, some values all zero or all full."""
    kind = data.draw(st.sampled_from(["zero", "full", "random", "random"]))
    tables = _tables(universe)
    if kind == "zero":
        tables = st.just(0)
    elif kind == "full":
        tables = st.just(universe.full_table)
    reach = {(v, w): data.draw(tables) for v in names for w in names}
    cyc = {v: data.draw(tables) for v in names}
    return RcValue.of(universe, names, reach, cyc), DictRcValue(universe, reach, cyc)


@given(data=st.data())
def test_flat_layout_equals_the_dict_layout(data):
    """Every operation of the flat value gives the entries the dict-layout
    value gives, over scopes of 0-8 names (the result variable among them
    or not), universes of 0-9 fields with and without the stand-in, and
    entries that are zero, full or random."""
    universe = data.draw(_universes())
    names = tuple(data.draw(st.lists(st.sampled_from(NAMES), max_size=8, unique=True)))
    x, dx = _draw_pair(data, universe, names)
    y, dy = _draw_pair(data, universe, names)
    _same(RcValue.bottom(universe, names), DictRcValue.bottom(universe, names))
    _same(x, dx)

    outside = names + ("elsewhere",)
    gone = data.draw(st.lists(st.sampled_from(outside), max_size=4))
    _same(x.project(gone), dx.project(gone))
    src, dst = data.draw(st.sampled_from(outside)), data.draw(st.sampled_from(outside))
    _same(x.rename(src, dst), dx.rename(src, dst))
    _same(x.copy_var(src, dst), dx.copy_var(src, dst))

    _same(x.join(y), dx.join(dy))
    for a, b, da, db in [(x, y, dx, dy), (y, x, dy, dx), (x, x.join(y), dx, dx.join(dy))]:
        assert a.leq(b) == da.leq(db)
    _same(x.normalize(), dx.normalize())
    assert x.is_normal() == dx.is_normal()
    assert x.normalize().is_normal()

    # ``canonical`` reads only the viable table: any table will do here
    via = SimpleNamespace(table=data.draw(_tables(universe)) | 1)
    _same(x.canonical(via), dx.canonical(via))
    _same(x.canonical(None), dx.canonical(None))

    # sources may collide on a target, and targets may lie outside the scope
    targets = tuple(data.draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=True)))
    sources = data.draw(st.lists(st.sampled_from(outside), max_size=6))
    mapping = {s: data.draw(st.sampled_from(NAMES)) for s in sources}
    _same(x.remap(mapping, targets), dx.remap(mapping, targets))

    assert (x == y) == (dx == dy) and (x.key() == y.key()) == (dx.key() == dy.key())
    assert x == x.join(x) and x.key() == x.join(x).key()
    assert x.to_json() == dx.to_json()
