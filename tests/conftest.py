import pathlib

import pytest
from hypothesis import settings

from fieldreach import (
    FieldUniverse,
    PathFormula,
    RcValue,
    Viability,
    build_class_table,
    parse_program,
    type_check,
)
from fieldreach.semantics import analyze_program

DATA = pathlib.Path(__file__).parent / "data"

# The same examples on every run, and no per-example time limit: the host's
# speed must not decide whether a property test passes.
settings.register_profile("fieldreach", deadline=None, derandomize=True)
settings.load_profile("fieldreach")

# Hierarchy used throughout: employees own devices, devices know their owner.
#   Emp --mD--> LP      L2 --aD--> TB --lnk--> LP      Dev --owner--> Emp
DEVICES_SOURCE = """
class Emp { LP mD; }
class L1 extends Emp { }
class L2 extends Emp { TB aD; }
class Dev { Emp owner; }
class LP extends Dev { }
class TB extends Dev { LP lnk; }
"""


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def devices_ct():
    return build_class_table(parse_program(DEVICES_SOURCE))


@pytest.fixture(scope="session")
def devices_universe(devices_ct):
    return FieldUniverse.of(devices_ct.reference_fields)


@pytest.fixture(scope="session")
def devices_via(devices_ct, devices_universe):
    return Viability(devices_ct, devices_universe)


def build(source: str):
    """Parse, table, and type a source; returns (program, ct, typeinfo)."""
    program = parse_program(source)
    ct = build_class_table(program)
    typeinfo = type_check(program, ct)
    return program, ct, typeinfo


def analyze_entry(source: str, entry: str = "main", tracked=None):
    """Analyse one entry of a source as the CLI does, ``//@ init`` lines
    included; returns the ``AnalysisResult``."""
    program, ct, info = build(source)
    return analyze_program(program, ct, info, tracked=tracked, entry=entry)


def pf(universe: FieldUniverse, *sets) -> PathFormula:
    """Shorthand: a formula from model field-sets given as iterables."""
    return PathFormula.from_models(universe, [universe.mask_of(s) for s in sets])


def with_entries(value: RcValue, reach=None, cyc=None) -> RcValue:
    """A copy of ``value`` with the given entries, by name, set to the
    given tables."""
    return RcValue.of(
        value.universe,
        value.scope.names,
        {**value.reach, **(reach or {})},
        {**value.cyc, **(cyc or {})},
    )


@pytest.fixture(scope="session")
def u2():
    return FieldUniverse.of(["f", "g"])


@pytest.fixture(scope="session")
def u3():
    return FieldUniverse.of(["f", "g", "h"])
