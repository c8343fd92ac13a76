"""Plain record classes: the equality, repr and hashing a ``@dataclass``
would generate, written once.

A record class names its fields in ``_fields``, in constructor order, and
writes its own ``__init__``, so building one is plain attribute stores.
``Record`` compares two records of the same class field by field and shows
one as ``Name(field=value, ...)``; like an unfrozen dataclass it is not
hashable.  ``FrozenRecord`` hashes by its fields, for records that are
treated as immutable.  The package so loads no ``dataclasses`` and spends
no import time generating methods.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

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
