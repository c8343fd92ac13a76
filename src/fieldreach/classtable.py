"""Class table: subclass relation, inherited fields, method signatures.

Field names are globally unique across classes, so a bare field name
identifies both its declaring class and its declared type.  The set of
reference-typed fields is the proposition universe of the analysis;
int fields are recorded but excluded from it.
"""

from __future__ import annotations

from typing import Optional

from .record import FrozenRecord
from .syntax import ClassDecl, Command, INT_TYPE, MethodDecl, Program, SourceError

# the stand-in that field abstraction puts in place of the untracked fields
ANY_FIELD = "any"


class ClassTableError(SourceError):
    pass


class MethodSig(FrozenRecord):
    """A method's signature; ``key`` is (owner, name) and ``input_vars``
    its formals, ``this`` first."""

    __slots__ = ("owner", "name", "param_names", "param_types", "return_type", "key", "input_vars")
    _fields = ("owner", "name", "param_names", "param_types", "return_type")

    def __init__(
        self,
        owner: str,
        name: str,
        param_names: tuple[str, ...],
        param_types: tuple[str, ...],
        return_type: str,
    ):
        self.owner = owner
        self.name = name
        self.param_names = param_names
        self.param_types = param_types
        self.return_type = return_type
        self.key = (owner, name)
        self.input_vars = ("this",) + param_names

    def __str__(self) -> str:
        return f"{self.owner}.{self.name}({', '.join(self.param_types)})"


class ClassTable:
    def __init__(self, program: Program):
        self._classes: dict[str, ClassDecl] = {}
        # each class's extends chain: the class, then its ancestors
        self._chain: dict[str, tuple[str, ...]] = {}
        self._own_fields: dict[str, list[tuple[str, str]]] = {}
        self._field_type: dict[str, str] = {}
        self._field_owner: dict[str, str] = {}
        self._methods: dict[tuple[str, str], MethodSig] = {}
        self._method_decls: dict[tuple[str, str], MethodDecl] = {}
        self._build(program)
        self.reference_fields: frozenset[str] = frozenset(
            f for f, t in self._field_type.items() if t != INT_TYPE
        )

    # -- construction

    def _build(self, program: Program) -> None:
        for c in program.classes:
            # Reached only by a hand-built Program: the parser rejects ``class int``.
            if c.name == INT_TYPE:
                raise ClassTableError("'int' cannot be a class name", *c.name_at)
            if c.name in self._classes:
                raise ClassTableError(f"duplicate class {c.name!r}", *c.name_at)
            self._classes[c.name] = c
        for c in program.classes:
            if c.parent is not None and c.parent not in self._classes:
                raise ClassTableError(f"unknown superclass {c.parent!r}", c.line, c.col)
        # the extends chain must be acyclic
        for name, c in self._classes.items():
            chain = {name: None}
            cur = c.parent
            while cur is not None:
                if cur in chain:
                    raise ClassTableError(f"cyclic extends chain through {name!r}", c.line, c.col)
                chain[cur] = None
                cur = self._classes[cur].parent
            self._chain[name] = tuple(chain)
        self.class_names: tuple[str, ...] = tuple(sorted(self._classes))
        self._subclasses: dict[str, tuple[str, ...]] = {
            sup: tuple(c for c in self.class_names if sup in self._chain[c])
            for sup in self.class_names
        }
        for c in program.classes:
            own: list[tuple[str, str]] = []
            for fname, ftype in c.fields:
                if fname == ANY_FIELD:
                    raise ClassTableError(f"{ANY_FIELD!r} cannot be a field name", c.line, c.col)
                if ftype != INT_TYPE and ftype not in self._classes:
                    raise ClassTableError(
                        f"field {fname!r} has unknown type {ftype!r}", c.line, c.col
                    )
                if fname in self._field_type:
                    owner = self._field_owner[fname]
                    raise ClassTableError(
                        f"duplicate field {fname!r} in class {c.name!r}"
                        if owner == c.name
                        else f"field {fname!r} declared in both {owner!r} and {c.name!r}",
                        c.line,
                        c.col,
                    )
                self._field_type[fname] = ftype
                self._field_owner[fname] = c.name
                own.append((fname, ftype))
            self._own_fields[c.name] = own
        self._fields: dict[str, tuple[tuple[str, str], ...]] = {
            name: tuple(f for cls in reversed(chain) for f in self._own_fields[cls])
            for name, chain in self._chain.items()
        }
        for c in program.classes:
            for m in c.methods:
                key = (c.name, m.name)
                if key in self._methods:
                    raise ClassTableError(
                        f"duplicate method {m.name!r} in class {c.name!r}", m.line, m.col
                    )
                sig = MethodSig(
                    c.name,
                    m.name,
                    tuple(n for _, n in m.params),
                    tuple(t for t, _ in m.params),
                    m.return_type,
                )
                self._methods[key] = sig
                self._method_decls[key] = m
        # overriding methods must keep the inherited signature
        for (owner, name), sig in self._methods.items():
            m = self._method_decls[(owner, name)]
            for parent in self._chain[owner][1:]:
                psig = self._methods.get((parent, name))
                if psig is not None and (
                    psig.param_types != sig.param_types
                    or psig.return_type != sig.return_type
                ):
                    raise ClassTableError(
                        f"{owner}.{name} overrides {parent}.{name} with a different signature",
                        m.line,
                        m.col,
                    )

    # -- queries

    def is_class(self, name: str) -> bool:
        return name in self._classes

    def is_subclass(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive subclass test."""
        return sub == sup or sup in self._chain[sub]

    def subclasses_of(self, name: str) -> tuple[str, ...]:
        """The class and its subclasses, in name order; none for a name that
        is not a class."""
        return self._subclasses.get(name, ())

    def fields_of(self, name: str) -> tuple[tuple[str, str], ...]:
        """All fields of a class, inherited ones first, in declaration order."""
        return self._fields[name]

    def class_has_field(self, name: str, fieldname: str) -> bool:
        return any(f == fieldname for f, _ in self.fields_of(name))

    def field_type(self, fieldname: str) -> str:
        return self._field_type[fieldname]

    def resolve_method(self, classname: str, method: str) -> Optional[MethodSig]:
        """Walk up the subclass chain to the defining class."""
        for cls in self._chain[classname]:
            sig = self._methods.get((cls, method))
            if sig is not None:
                return sig
        return None

    def callable_methods(self, static_type: str, method: str) -> tuple[MethodSig, ...]:
        """Signatures a call on a receiver of the given static type may reach.

        Without a dedicated class analysis the receiver may hold any subclass
        of its declared type, so every resolution from a subclass counts.
        """
        sigs: list[MethodSig] = []
        for sub in self.subclasses_of(static_type):
            sig = self.resolve_method(sub, method)
            if sig is not None and sig not in sigs:
                sigs.append(sig)
        return tuple(sorted(sigs, key=lambda s: s.key))

    def method_decl(self, sig: MethodSig) -> MethodDecl:
        return self._method_decls[sig.key]

    def method_body(self, sig: MethodSig) -> list[Command]:
        return self._method_decls[sig.key].body

    def method_locals(self, sig: MethodSig) -> tuple[tuple[str, str], ...]:
        return tuple(self._method_decls[sig.key].locals)

    def all_method_sigs(self) -> tuple[MethodSig, ...]:
        return tuple(sorted(self._methods.values(), key=lambda s: s.key))


def build_class_table(program: Program) -> ClassTable:
    return ClassTable(program)
