"""Type checker: one environment per body, expression typing, call targets.

Each method body (and main) gets a single type environment covering its
scope; commands are checked against it.  The checker also records, per call
site, the conservative set of signatures the call may dispatch to — every
resolution from a subclass of the receiver's static type.
"""

from __future__ import annotations

from typing import Optional, Union

from .classtable import ClassTable
from .record import FrozenRecord, Record
from .syntax import (
    Assign,
    BinOp,
    Command,
    Comparison,
    Expr,
    FieldRead,
    FieldWrite,
    If,
    IntLit,
    MainBlock,
    MethodCall,
    MethodDecl,
    NewObject,
    NullLit,
    Program,
    Return,
    Skip,
    SourceError,
    VarRef,
    While,
    INT_TYPE,
    OUT_VAR,
)

NULL_TYPE = "<null>"

BodyKey = Union[str, tuple[str, str]]  # "main" or (owner, method)


class TypeCheckError(SourceError):
    pass


class TypeEnv(FrozenRecord):
    """Variable types in scope at every point of one body: ``types`` pairs
    each name with its type, in order; ``variables`` lists the names and
    ``ref_vars`` those of reference type."""

    __slots__ = ("types", "_map", "variables", "ref_vars")
    _fields = ("types",)

    def __init__(self, types: tuple[tuple[str, str], ...]):
        self.types = types  # (name, type), ordered
        self._map = dict(types)
        self.variables = tuple([n for n, _ in types])
        self.ref_vars = tuple([n for n, t in types if t != INT_TYPE])

    def type_of(self, name: str) -> Optional[str]:
        return self._map.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._map


class TypeInfo(Record):
    __slots__ = ("envs", "call_targets")  # body -> TypeEnv, call nid -> its targets

    def env_for(self, key: BodyKey) -> TypeEnv:
        return self.envs[key]


class _Checker:
    def __init__(self, ct: ClassTable):
        self.ct = ct
        self.info = TypeInfo({}, {})

    def check_program(self, program: Program) -> TypeInfo:
        for cls in program.classes:
            for m in cls.methods:
                self.check_method(cls.name, m)
        if program.main is not None:
            self.check_main(program.main)
        return self.info

    # -- scopes

    def _build_env(
        self, entries: list[tuple[str, str]], positions: list[tuple[int, int]]
    ) -> TypeEnv:
        """The scope of one body; ``positions`` holds where each entry's
        name is declared, so a clash is reported at the declaration."""
        seen: set[str] = set()
        for (name, t), (line, col) in zip(entries, positions, strict=True):
            if name in seen:
                raise TypeCheckError(f"duplicate variable {name!r}", line, col)
            # Reached only by a hand-built Program: the parser rejects ``out``.
            if name == OUT_VAR:
                raise TypeCheckError(f"{OUT_VAR!r} is reserved", line, col)
            if t != INT_TYPE and not self.ct.is_class(t):
                raise TypeCheckError(f"unknown type {t!r} for {name!r}", line, col)
            seen.add(name)
        return TypeEnv(tuple(entries))

    def check_method(self, owner: str, m: MethodDecl) -> None:
        entries = [("this", owner)]
        entries += [(n, t) for t, n in m.params]
        entries += [(n, t) for t, n in m.locals]
        env = self._build_env(entries, [(m.line, m.col)] + m.decl_at)
        if m.return_type != INT_TYPE and not self.ct.is_class(m.return_type):
            raise TypeCheckError(f"unknown return type {m.return_type!r}", m.line, m.col)
        self.info.envs[(owner, m.name)] = env
        self.check_body(m.body, env, method=m)
        if not m.body or not isinstance(m.body[-1], Return):
            raise TypeCheckError(
                f"method {owner}.{m.name} must end with a return", m.line, m.col
            )

    def check_main(self, main: MainBlock) -> None:
        entries = [(n, t) for t, n in main.locals]
        env = self._build_env(entries, main.decl_at)
        self.info.envs["main"] = env
        self.check_body(main.body, env, method=None)

    # -- commands

    def check_body(
        self, body: list[Command], env: TypeEnv, method: Optional[MethodDecl], top: bool = True
    ) -> None:
        for i, cmd in enumerate(body):
            is_last = top and i == len(body) - 1
            self.check_command(cmd, env, method, is_last)

    def check_command(
        self, cmd: Command, env: TypeEnv, method: Optional[MethodDecl], is_last: bool
    ) -> None:
        if isinstance(cmd, Return) and (method is None or not is_last):
            where = "main" if method is None else "the middle of a body"
            raise TypeCheckError(f"return is not allowed in {where}", cmd.line, cmd.col)
        if isinstance(cmd, Skip):
            return
        if isinstance(cmd, Assign):
            if cmd.var == "this":
                raise TypeCheckError("cannot assign to 'this'", cmd.line, cmd.col)
            declared = self._var_type(cmd.var, env, cmd)
            t = self.type_expr(cmd.expr, env)
            self._require_assignable(t, declared, cmd.line, cmd.col)
            return
        if isinstance(cmd, FieldWrite):
            want = self._field_type(cmd, env)
            t = self.type_expr(cmd.expr, env)
            self._require_assignable(t, want, cmd.line, cmd.col)
            return
        if isinstance(cmd, If):
            self.check_guard(cmd.guard, env)
            self.check_body(cmd.then_body, env, method, top=False)
            self.check_body(cmd.else_body, env, method, top=False)
            return
        if isinstance(cmd, While):
            self.check_guard(cmd.guard, env)
            self.check_body(cmd.body, env, method, top=False)
            return
        if isinstance(cmd, Return):
            assert method is not None
            t = self.type_expr(cmd.expr, env)
            self._require_assignable(t, method.return_type, cmd.line, cmd.col)
            return
        raise TypeCheckError(f"unsupported command {cmd!r}", cmd.line, cmd.col)

    def check_guard(self, guard: Comparison, env: TypeEnv) -> None:
        lt = self.type_expr(guard.left, env)
        rt = self.type_expr(guard.right, env)
        if guard.op in ("<", "<=", ">", ">="):
            if lt != INT_TYPE or rt != INT_TYPE:
                raise TypeCheckError(
                    "ordering comparisons need int operands", guard.line, guard.col
                )
            return
        # == / != : ints, or a reference variable against null
        if lt == INT_TYPE and rt == INT_TYPE:
            return
        if lt == NULL_TYPE or rt == NULL_TYPE:
            other, node = (rt, guard.right) if lt == NULL_TYPE else (lt, guard.left)
            if other == INT_TYPE:
                raise TypeCheckError("cannot compare int with null", guard.line, guard.col)
            if not isinstance(node, VarRef):
                raise TypeCheckError(
                    "null comparisons must name a variable", guard.line, guard.col
                )
            return
        raise TypeCheckError(
            "guards compare ints or test a reference variable against null",
            guard.line,
            guard.col,
        )

    # -- expressions

    def type_expr(self, e: Expr, env: TypeEnv) -> str:
        if isinstance(e, IntLit):
            return INT_TYPE
        if isinstance(e, NullLit):
            return NULL_TYPE
        if isinstance(e, VarRef):
            return self._var_type(e.name, env, e)
        if isinstance(e, FieldRead):
            return self._field_type(e, env)
        if isinstance(e, BinOp):
            lt = self.type_expr(e.left, env)
            rt = self.type_expr(e.right, env)
            if lt != INT_TYPE or rt != INT_TYPE:
                raise TypeCheckError(
                    f"operator {e.op!r} needs int operands", e.line, e.col
                )
            return INT_TYPE
        if isinstance(e, NewObject):
            if not self.ct.is_class(e.classname):
                raise TypeCheckError(f"unknown class {e.classname!r}", e.line, e.col)
            return e.classname
        if isinstance(e, MethodCall):
            recv = self._var_type(e.receiver, env, e)
            if recv == INT_TYPE:
                raise TypeCheckError(
                    f"cannot call a method on int variable {e.receiver!r}", e.line, e.col
                )
            sig = self.ct.resolve_method(recv, e.method)
            if sig is None:
                raise TypeCheckError(
                    f"class {recv!r} has no method {e.method!r}", e.line, e.col
                )
            if len(e.args) != len(sig.param_types):
                raise TypeCheckError(
                    f"{sig} expects {len(sig.param_types)} arguments, got {len(e.args)}",
                    e.line,
                    e.col,
                )
            for arg, want in zip(e.args, sig.param_types):
                self._require_assignable(self._var_type(arg, env, e), want, e.line, e.col)
            self.info.call_targets[e.nid] = self.ct.callable_methods(recv, e.method)
            if not self.info.call_targets[e.nid]:
                raise TypeCheckError(f"no callable method for {e.method!r}", e.line, e.col)
            return sig.return_type
        raise TypeCheckError(f"unsupported expression {e!r}", e.line, e.col)

    def _var_type(self, name: str, env: TypeEnv, node: Union[Command, Expr]) -> str:
        """The declared type of ``name``; an error is reported at ``node``."""
        t = env.type_of(name)
        if t is None:
            raise TypeCheckError(f"unknown variable {name!r}", node.line, node.col)
        return t

    def _field_type(self, node: Union[FieldRead, FieldWrite], env: TypeEnv) -> str:
        """The type of ``node.fieldname`` on ``node.var``; errors at ``node``."""
        base = self._var_type(node.var, env, node)
        if base == INT_TYPE:
            raise TypeCheckError(
                f"cannot dereference int variable {node.var!r}", node.line, node.col
            )
        if not self.ct.class_has_field(base, node.fieldname):
            raise TypeCheckError(
                f"class {base!r} has no field {node.fieldname!r}", node.line, node.col
            )
        return self.ct.field_type(node.fieldname)

    def _require_assignable(self, got: str, want: str, line: int, col: int) -> None:
        if want == INT_TYPE:
            if got != INT_TYPE:
                raise TypeCheckError(f"expected int, got {got!r}", line, col)
            return
        if got == INT_TYPE:
            raise TypeCheckError(f"cannot use int where {want!r} is expected", line, col)
        if got == NULL_TYPE:
            return
        if not self.ct.is_subclass(got, want):
            raise TypeCheckError(f"{got!r} is not a subclass of {want!r}", line, col)


def type_check(program: Program, ct: ClassTable) -> TypeInfo:
    return _Checker(ct).check_program(program)
