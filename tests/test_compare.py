import itertools

import pytest

from fieldreach import FieldUniverse, PathFormula, build_class_table, parse_program
from fieldreach.compare import (
    admissible_pairs,
    alpha_class_pairs,
    alpha_monotone,
    alpha_monotone_formula,
    alpha_nofields,
    alpha_q,
    alpha_scapin,
)
from fieldreach.formula import models_of

from conftest import pf
from reference import (
    all_formulas,
    class_pairs,
    enumerate_monotone,
    gamma_class_pairs,
    gamma_monotone,
    gamma_nofields,
    gamma_q,
    gamma_scapin,
    is_definite,
    is_monotone,
    is_positive,
)


@pytest.fixture(scope="module")
def simple_ct():
    # one class carrying both fields: every pair of variables is admissible
    return build_class_table(parse_program("class K { K f; K g; }"))


KEY = ("v", "w")


# --------------------------------------------------------------------------
# reachability statements


def test_alpha_nofields_basics(u2, simple_ct):
    types = {"v": "K", "w": "K"}
    alias_only = {KEY: pf(u2, [])}
    assert alpha_nofields(alias_only, simple_ct, types) == frozenset()
    with_field = {KEY: pf(u2, ["f"])}
    assert alpha_nofields(with_field, simple_ct, types) == {KEY}
    bottom = {KEY: PathFormula.false(u2)}
    assert alpha_nofields(bottom, simple_ct, types) == frozenset()


def test_nofields_galois_exhaustive(u2, simple_ct):
    types = {"v": "K", "w": "K"}
    for f in all_formulas(u2):
        reach = {KEY: f}
        a = alpha_nofields(reach, simple_ct, types)
        g = gamma_nofields(a, u2, [KEY])
        assert f.leq(g[KEY])  # extensive
    for stmts in ([], [KEY]):
        v = frozenset(stmts)
        g = gamma_nofields(v, u2, [KEY])
        assert alpha_nofields(g, simple_ct, types) == v  # insertion


def test_nofields_strictness_witness(u2, simple_ct):
    types = {"v": "K", "w": "K"}
    reach = {KEY: pf(u2, ["f"])}
    g = gamma_nofields(alpha_nofields(reach, simple_ct, types), u2, [KEY])
    assert g[KEY].is_true and not reach[KEY].is_true


# --------------------------------------------------------------------------
# class pairs


@pytest.fixture(scope="module")
def devices_types():
    # one variable per class, so the class-pair view loses nothing to the
    # choice of scope
    return {"e": "Emp", "e1": "L1", "e2": "L2", "d": "Dev", "l": "LP", "t": "TB"}


def test_class_pairs_of_hierarchy(devices_ct):
    cp = class_pairs(devices_ct)
    assert ("L2", "LP") in cp
    assert ("LP", "TB") in cp  # owner up to an L2, then its tablet


def test_class_pairs_no_fields_identity_only():
    ct = build_class_table(parse_program("class A { } class B { }"))
    assert class_pairs(ct) == {("A", "A"), ("B", "B")}


def test_class_pairs_galois(devices_ct, devices_types):
    # enumerate small statement sets over the admissible universe
    admissible = sorted(admissible_pairs(devices_ct, devices_types))
    for k in range(3):
        for stmts in itertools.combinations(admissible, k):
            nf = frozenset(stmts)
            cp = alpha_class_pairs(nf, devices_ct, devices_types)
            back = gamma_class_pairs(cp, devices_ct, devices_types)
            assert nf <= back  # extensive
            # identity holds on canonical (downward-closed) forms
            assert alpha_class_pairs(back, devices_ct, devices_types) == cp


def test_class_pairs_strictness_witness(devices_ct, devices_types):
    # two variables of the same class cannot be told apart by the class view
    types = dict(devices_types, other="L2")
    nf = frozenset({("e2", "t")})
    cp = alpha_class_pairs(nf, devices_ct, types)
    back = gamma_class_pairs(cp, devices_ct, types)
    assert nf < back
    assert ("other", "t") in back


# --------------------------------------------------------------------------
# monotone restriction


def test_alpha_monotone_examples(u2):
    xor = pf(u2, ["f"], ["g"])
    got = alpha_monotone_formula(xor)
    assert got == pf(u2, ["f"], ["g"], ["f", "g"])  # f or g
    assert alpha_monotone_formula(PathFormula.false(u2)).is_false
    both = pf(u2, ["f", "g"])
    assert alpha_monotone_formula(both) == pf(u2, ["f", "g"])  # f and g


def test_monotone_galois_exhaustive(u2):
    for f in all_formulas(u2):
        a = alpha_monotone({KEY: f})
        assert f.leq(a[KEY])  # extensive
        assert is_monotone(a[KEY])
    for m in enumerate_monotone(u2):
        value = alpha_monotone(gamma_monotone(alpha_monotone({KEY: m})))
        assert value[KEY] == alpha_monotone_formula(m) == m  # insertion


def test_monotone_strictness_witness(u2):
    xor = pf(u2, ["f"], ["g"])
    widened = alpha_monotone_formula(xor)
    assert xor.leq(widened) and not widened.leq(xor)


def clause_hull(f: PathFormula) -> PathFormula:
    """Reference monotone hull: the masks meeting every non-empty positive
    clause that every model of ``f`` meets; the contradiction stays itself."""
    if f.is_false:
        return f
    models = list(models_of(f.table))
    clauses = [
        c for c in range(1, 1 << f.universe.size) if all(m & c for m in models)
    ]
    return PathFormula.from_models(
        f.universe, [m for m in range(1 << f.universe.size) if all(m & c for c in clauses)]
    )


def test_alpha_monotone_matches_clause_hull(u3):
    formulas = list(all_formulas(u3))
    assert len(formulas) == 256
    for f in formulas:
        assert alpha_monotone_formula(f) == clause_hull(f), f.render()


# --------------------------------------------------------------------------
# exclusion sets


def test_alpha_scapin_examples(u2):
    u3 = FieldUniverse.of(["f", "g", "h"])
    weakened = pf(u3, ["h"], ["f", "h"])
    assert alpha_scapin({KEY: weakened})[KEY] == {"g"}
    assert alpha_scapin({KEY: PathFormula.true(u3)})[KEY] == frozenset()
    assert alpha_scapin({KEY: PathFormula.false(u3)})[KEY] == {"f", "g", "h"}


def test_scapin_galois_exhaustive(u2):
    for f in all_formulas(u2):
        a = alpha_scapin({KEY: f})
        g = gamma_scapin(a, u2, [KEY])
        assert f.leq(g[KEY])
    for banned in ([], ["f"], ["g"], ["f", "g"]):
        v = {KEY: frozenset(banned)}
        g = gamma_scapin(v, u2, [KEY])
        assert alpha_scapin(g) == v


def test_scapin_strictness_witness(u2):
    only_f = pf(u2, ["f"])
    g = gamma_scapin(alpha_scapin({KEY: only_f}), u2, [KEY])
    assert only_f.leq(g[KEY]) and not g[KEY].leq(only_f)


# --------------------------------------------------------------------------
# cycle requirements


def test_alpha_q_examples(u2):
    dll = pf(u2, [], ["f", "g"])
    q = alpha_q({"x": dll})
    assert q.keys() == {"x"}
    assert q["x"] == frozenset()  # the empty model defeats every requirement
    strict = pf(u2, ["f", "g"])
    assert alpha_q({"x": strict})["x"] == {"f", "g"}
    assert alpha_q({"x": PathFormula.false(u2)}) == {}


def test_q_galois_exhaustive(u2):
    for f in all_formulas(u2):
        q = alpha_q({"x": f})
        g = gamma_q(q, u2, ["x"])
        assert f.leq(g["x"])
    values = [{}] + [{"x": frozenset(req)} for req in ([], ["f"], ["g"], ["f", "g"])]
    for v in values:
        g = gamma_q(v, u2, ["x"])
        assert alpha_q(g) == v


def test_q_collapse_on_two_field_cycle(u2):
    # the exact value excludes single-field cycles; the requirement view
    # cannot, because the empty cycle wipes out every requirement
    dll = pf(u2, [], ["f", "g"])
    g = gamma_q(alpha_q({"x": dll}), u2, ["x"])["x"]
    assert g.is_true
    assert not g.leq(dll)
    assert dll.has_model(u2.mask_of([])) and not dll.has_model(u2.mask_of(["f"]))
    assert g.has_model(u2.mask_of(["f"]))


# --------------------------------------------------------------------------
# formula classes and incomparability


def test_formula_class_predicates(u2):
    p_or_q = pf(u2, ["f"], ["g"], ["f", "g"])
    assert is_monotone(p_or_q) and is_positive(p_or_q) and not is_definite(p_or_q)
    notp_or_q = pf(u2, [], ["g"], ["f", "g"])  # models missing {f}
    assert is_definite(notp_or_q) and not is_monotone(notp_or_q)
    neither = pf(u2, [])  # not-f and not-g
    assert is_definite(neither) and not is_positive(neither)
    assert is_positive(PathFormula.true(u2)) and is_monotone(PathFormula.true(u2))
    assert not is_positive(PathFormula.false(u2))
    assert is_monotone(PathFormula.false(u2)) and is_definite(PathFormula.false(u2))
