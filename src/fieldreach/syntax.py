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

from typing import Union

from .record import Record

INT_TYPE = "int"

# Reserved variable holding a method's return value; usable in summaries and
# queries but not declarable in source.
OUT_VAR = "out"

# Internal variable holding the value of the expression under evaluation.
# The leading '%' keeps it out of the source identifier space.
RESULT_VAR = "%res"


class SourceError(Exception):
    """An error at a source position: the message reads ``line:col:
    message`` when the position is known, line 0 meaning it is not."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


def shallow_name(param: str) -> str:
    """Name of the analysis-internal copy that pins a parameter's entry value."""
    return f"%in_{param}"


class Node(Record):
    __slots__ = ("nid", "line", "col")


# --------------------------------------------------------------------------
# expressions


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value",)


class NullLit(Expr):
    __slots__ = ()


class VarRef(Expr):
    __slots__ = ("name",)


class FieldRead(Expr):
    __slots__ = ("var", "fieldname")


class BinOp(Expr):
    __slots__ = ("op", "left", "right")  # op: one of + - *


class NewObject(Expr):
    __slots__ = ("classname",)


class MethodCall(Expr):
    __slots__ = ("receiver", "method", "args")


class Comparison(Node):
    """Guard of an if/while: a side-effect-free comparison."""

    __slots__ = ("op", "left", "right")  # op: == != < <= > >=


# --------------------------------------------------------------------------
# commands


class Command(Node):
    __slots__ = ()


class Skip(Command):
    __slots__ = ()


class Assign(Command):
    __slots__ = ("var", "expr")


class FieldWrite(Command):
    __slots__ = ("var", "fieldname", "expr")


class If(Command):
    """``else_body`` is empty when there is no else branch."""

    __slots__ = ("guard", "then_body", "else_body")


class While(Command):
    __slots__ = ("guard", "body")


class Return(Command):
    """``return e``: the walkers run it as ``out := e``."""

    __slots__ = ("expr",)
    var = OUT_VAR


# --------------------------------------------------------------------------
# declarations


class MethodDecl(Record):
    """``params`` and ``locals`` are (type, name) pairs, in declaration
    order; ``decl_at`` is the (line, column) of each parameter's name, then
    of each local's."""

    __slots__ = ("name", "return_type", "params", "locals", "body", "line", "col", "decl_at")


class ClassDecl(Record):
    """``fields`` are (name, declared type) pairs and ``name_at`` is the
    (line, column) of the class name; ``parent`` is None for a root."""

    __slots__ = ("name", "parent", "fields", "methods", "line", "col", "name_at")


class MainBlock(Record):
    """``decl_at`` is the (line, column) of each local's name."""

    __slots__ = ("locals", "body", "line", "col", "decl_at")


class InitAnnotation(Record):
    """A ``//@ init`` line; resolved against the entry scope later.  ``kind``
    is reach, cyc or ds, ``models`` is None for ds, and the position is that
    of the ``//@``."""

    __slots__ = ("kind", "variables", "models", "line", "col")


class Program(Record):
    """``main`` is None for a program without a main block."""

    __slots__ = ("classes", "main", "annotations")


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
