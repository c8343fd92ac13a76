"""The package's record classes: each names its own fields once, in
``__slots__``, and takes its inherited and own fields in constructor order
from a constructor ``Record`` builds unless it writes one; it compares and
shows itself by them, starts each default container afresh, and hashes by
its fields only when it is treated as immutable."""

import ast
import importlib
import inspect
import pkgutil
import textwrap

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
# their slots hold derived or lazy values, or they have no slots
DECLARED_FIELDS = {"FieldUniverse", "MethodSig", "OracleResult", "TypeEnv"}
# constructors that compute something or have defaults
WRITTEN_INIT = {"FieldUniverse", "MethodSig", "TypeEnv", "_Run", "_Body"}


def test_every_record_class_is_found():
    assert len(RECORDS) == 38
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
    assert fresh


def _generated(cls) -> bool:
    return cls.__init__.__code__.co_filename == "<string>"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_the_inherited_ones_then_the_own_slots(cls):
    if cls.__name__ in DECLARED_FIELDS:
        assert "_fields" in vars(cls)
    else:
        inherited = cls.__mro__[1]._fields
        assert cls._fields == inherited + tuple(vars(cls)["__slots__"])
    assert _generated(cls) == (cls.__name__ not in WRITTEN_INIT)


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if _generated(cls)], ids=lambda cls: cls.__name__
)
def test_a_generated_constructor(cls):
    owner = next(c for c in cls.__mro__ if "__init__" in vars(c))
    assert (owner is cls) == bool(vars(cls)["__slots__"])  # one adding no fields inherits
    init = cls.__init__
    assert (init.__qualname__, init.__module__) == (f"{owner.__qualname__}.__init__", cls.__module__)
    values = {name: _value("k", name) for name in cls._fields}
    assert cls(**values) == _sample(cls, "k")
    with pytest.raises(TypeError, match=rf"^{owner.__qualname__}\.__init__\(\) missing 1"):
        cls(*list(values.values())[:-1])
    with pytest.raises(TypeError, match=rf"^{owner.__qualname__}\.__init__\(\) takes"):
        cls(*values.values(), "extra")
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**values, extra=1)


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if not _generated(cls)], ids=lambda cls: cls.__name__
)
def test_a_written_constructor_does_more_than_store_its_parameters(cls):
    """Plain stores in ``_fields`` order are what ``Record`` builds."""
    (init,) = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__))).body
    plain = [ast.unparse(s) for s in init.body] == [f"self.{f} = {f}" for f in cls._fields]
    assert not plain or _defaults(cls)
