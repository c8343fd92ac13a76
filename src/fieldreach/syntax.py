"""AST for the analyzed language: classes with typed fields and methods, an
optional top-level main block, and structured commands.

Every expression and command node carries a unique ``nid`` (a program point
identifier shared by the analyzer and the concrete interpreter) plus source
position.  Sequencing is represented by command lists inside bodies and
blocks; there is no separate sequence node.  ``render_program`` prints an
AST back as source; parsing what it prints gives the same AST up to node ids
and positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Union

INT_TYPE = "int"

# Reserved variable holding a method's return value; usable in summaries and
# queries but not declarable in source.
OUT_VAR = "out"

# Internal variable holding the value of the expression under evaluation.
# The leading '%' keeps it out of the source identifier space.
RESULT_VAR = "%res"


def shallow_name(param: str) -> str:
    """Name of the analysis-internal copy that pins a parameter's entry value."""
    return f"%in_{param}"


@dataclass
class Node:
    nid: int
    line: int
    col: int


# --------------------------------------------------------------------------
# expressions


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class NullLit(Expr):
    pass


@dataclass
class VarRef(Expr):
    name: str


@dataclass
class FieldRead(Expr):
    var: str
    fieldname: str


@dataclass
class BinOp(Expr):
    op: str  # one of + - *
    left: Expr
    right: Expr


@dataclass
class NewObject(Expr):
    classname: str


@dataclass
class MethodCall(Expr):
    receiver: str
    method: str
    args: list[str]


@dataclass
class Comparison(Node):
    """Guard of an if/while: a side-effect-free comparison."""

    op: str  # == != < <= > >=
    left: Expr
    right: Expr


# --------------------------------------------------------------------------
# commands


@dataclass
class Command(Node):
    pass


@dataclass
class Skip(Command):
    pass


@dataclass
class Assign(Command):
    var: str
    expr: Expr


@dataclass
class FieldWrite(Command):
    var: str
    fieldname: str
    expr: Expr


@dataclass
class If(Command):
    guard: Comparison
    then_body: list[Command]
    else_body: list[Command]  # empty list when no else branch


@dataclass
class While(Command):
    guard: Comparison
    body: list[Command]


@dataclass
class Return(Command):
    """``return e``: the walkers run it as ``out := e``."""

    expr: Expr
    var: ClassVar[str] = OUT_VAR


# --------------------------------------------------------------------------
# declarations


@dataclass
class MethodDecl:
    name: str
    return_type: str
    params: list[tuple[str, str]]  # (type, name)
    locals: list[tuple[str, str]]  # (type, name), declaration order
    body: list[Command]
    line: int
    col: int
    # (line, column) of each parameter's name, then of each local's
    decl_at: list[tuple[int, int]]


@dataclass
class ClassDecl:
    name: str
    parent: Optional[str]
    fields: list[tuple[str, str]]  # (name, declared type)
    methods: list[MethodDecl]
    line: int
    col: int
    name_at: tuple[int, int]  # (line, column) of the class name


@dataclass
class MainBlock:
    locals: list[tuple[str, str]]
    body: list[Command]
    line: int
    col: int
    decl_at: list[tuple[int, int]]  # (line, column) of each local's name


@dataclass
class InitAnnotation:
    """A ``//@ init`` line; resolved against the entry scope later."""

    kind: str  # reach | cyc | ds
    variables: tuple[str, ...]
    models: Optional[list[list[str]]]  # None for ds
    line: int
    col: int  # of the ``//@``


@dataclass
class Program:
    classes: list[ClassDecl]
    main: Optional[MainBlock]
    annotations: list[InitAnnotation]


# --------------------------------------------------------------------------
# traversal / pretty printing


def walk_commands(body: list[Command]):
    """Yield every command in the body, depth first."""
    for cmd in body:
        yield cmd
        if isinstance(cmd, If):
            yield from walk_commands(cmd.then_body)
            yield from walk_commands(cmd.else_body)
        elif isinstance(cmd, While):
            yield from walk_commands(cmd.body)


def walk_exprs(e: Union[Expr, Comparison]):
    yield e
    if isinstance(e, BinOp):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, Comparison):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)


def render_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, NullLit):
        return "null"
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, FieldRead):
        return f"{e.var}.{e.fieldname}"
    if isinstance(e, BinOp):
        return f"({render_expr(e.left)} {e.op} {render_expr(e.right)})"
    if isinstance(e, NewObject):
        return f"new {e.classname}"
    if isinstance(e, MethodCall):
        return f"{e.receiver}.{e.method}({', '.join(e.args)})"
    raise TypeError(f"not an expression: {e!r}")


def render_guard(g: Comparison) -> str:
    return f"{render_expr(g.left)} {g.op} {render_expr(g.right)}"


def _render_commands(body: list[Command], indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for cmd in body:
        if isinstance(cmd, Skip):
            out.append(f"{pad}skip;")
        elif isinstance(cmd, Assign):
            out.append(f"{pad}{cmd.var} := {render_expr(cmd.expr)};")
        elif isinstance(cmd, FieldWrite):
            out.append(f"{pad}{cmd.var}.{cmd.fieldname} := {render_expr(cmd.expr)};")
        elif isinstance(cmd, Return):
            out.append(f"{pad}return {render_expr(cmd.expr)};")
        elif isinstance(cmd, If):
            out.append(f"{pad}if ({render_guard(cmd.guard)}) then {{")
            _render_commands(cmd.then_body, indent + 1, out)
            if cmd.else_body:
                out.append(f"{pad}}} else {{")
                _render_commands(cmd.else_body, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(cmd, While):
            out.append(f"{pad}while ({render_guard(cmd.guard)}) do {{")
            _render_commands(cmd.body, indent + 1, out)
            out.append(f"{pad}}}")
        else:
            raise TypeError(f"not a command: {cmd!r}")


def render_program(p: Program) -> str:
    """Pretty-print in the canonical form accepted back by the parser."""
    out: list[str] = []
    for c in p.classes:
        head = f"class {c.name}"
        if c.parent:
            head += f" extends {c.parent}"
        out.append(head + " {")
        for fname, ftype in c.fields:
            out.append(f"  {ftype} {fname};")
        for m in c.methods:
            params = ", ".join(f"{t} {n}" for t, n in m.params)
            out.append(f"  {m.return_type} {m.name}({params}) {{")
            for t, n in m.locals:
                out.append(f"    {t} {n};")
            _render_commands(m.body, 2, out)
            out.append("  }")
        out.append("}")
    if p.main is not None:
        out.append("main {")
        for t, n in p.main.locals:
            out.append(f"  {t} {n};")
        _render_commands(p.main.body, 1, out)
        out.append("}")
    return "\n".join(out) + "\n"
