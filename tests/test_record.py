"""The package's record classes: each names its fields in constructor
order, compares and shows itself by them, starts each default container
afresh, and hashes by its fields only when it is treated as immutable."""

import importlib
import inspect
import pkgutil

import pytest

import fieldreach
from fieldreach.record import FrozenRecord, Record

MODULES = [
    importlib.import_module(f"fieldreach.{info.name}")
    for info in pkgutil.iter_modules(fieldreach.__path__)
]
RECORDS = sorted(
    {
        cls
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, Record)
        and cls.__module__ == module.__name__ != "fieldreach.record"
    },
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
FROZEN = {"FieldUniverse", "PathFormula", "Loc", "MethodSig", "TypeEnv", "SharingSummary"}


def test_every_record_class_is_found():
    assert len(RECORDS) == 39
    assert {cls.__name__ for cls in RECORDS if issubclass(cls, FrozenRecord)} == FROZEN


def _value(tag: str, name: str) -> tuple:
    """A field value of its own: a tuple of one pair, which every
    constructor takes."""
    return ((tag, name),)


def _sample(cls, tag: str):
    return cls(*(_value(tag, name) for name in cls._fields))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_equality_repr_and_hashing(cls):
    params = list(inspect.signature(cls).parameters)
    assert params == list(cls._fields)
    a, b, c = _sample(cls, "x"), _sample(cls, "x"), _sample(cls, "y")
    assert a == b and a != c and a != object()
    shown = ", ".join(f"{name}={_value('x', name)!r}" for name in cls._fields)
    if cls.__repr__ is Record.__repr__:
        assert repr(a) == f"{cls.__qualname__}({shown})"
    if cls.__name__ in FROZEN:
        assert hash(a) == hash(b) == hash(tuple(_value("x", name) for name in cls._fields))
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_a_subclass_is_not_equal_to_its_base():
    from fieldreach.syntax import Command, Skip

    assert Skip(1, 2, 3) != Command(1, 2, 3)
    assert Skip(1, 2, 3) == Skip(1, 2, 3)


def _defaults(cls) -> list[str]:
    return [n for n, p in inspect.signature(cls).parameters.items() if p.default is not p.empty]


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if _defaults(cls)], ids=lambda cls: cls.__name__
)
def test_default_containers_are_fresh(cls):
    required = [_value("v", name) for name in cls._fields if name not in _defaults(cls)]
    first, second = cls(*required), cls(*required)
    fresh = 0
    for name in _defaults(cls):
        value = getattr(first, name)
        if isinstance(value, (list, dict, set)):
            assert value == getattr(second, name) and value is not getattr(second, name)
            fresh += 1
    assert fresh or cls.__name__ == "_Ctx"  # its one default is a flag
