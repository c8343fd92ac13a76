"""Plain record classes: the constructor, equality, repr and hashing a
``@dataclass`` would generate, from each field named once.

A record class names its own fields in ``__slots__``; its ``_fields`` are
the inherited ``_fields`` followed by them, in constructor order.  A class
whose slots hold derived or lazy values names ``_fields`` itself.  A class
that adds fields and writes no ``__init__`` gets one that takes its
``_fields`` in order and stores each, built from source once when the class
is created, as ``namedtuple`` builds its methods; a class that adds none
inherits its base's.  A class whose constructor computes something or has
defaults writes its own.  ``Record`` compares two records of the same class
field by field and shows one as ``Name(field=value, ...)``; like an
unfrozen dataclass it is not hashable.  ``FrozenRecord`` hashes by its
fields, for records that are treated as immutable.  The package so loads no
``dataclasses``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = vars(cls)
        slots = tuple(own.get("__slots__", ()))
        if "_fields" not in own:
            cls._fields = cls._fields + slots
        if slots and "__init__" not in own:
            params = ", ".join(("self",) + cls._fields)
            stores = "".join([f"\n    self.{f} = {f}" for f in cls._fields])
            namespace: dict = {}
            exec(f"def __init__({params}):{stores}", namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__module__ = cls.__module__
            cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())
