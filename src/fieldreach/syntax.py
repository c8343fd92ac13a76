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

from typing import Optional, Union

from .record import Record

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


class Node(Record):
    __slots__ = ("nid", "line", "col")
    _fields = ("nid", "line", "col")

    def __init__(self, nid: int, line: int, col: int):
        self.nid = nid
        self.line = line
        self.col = col


# --------------------------------------------------------------------------
# expressions


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value",)
    _fields = ("nid", "line", "col", "value")

    def __init__(self, nid: int, line: int, col: int, value: int):
        self.nid = nid
        self.line = line
        self.col = col
        self.value = value


class NullLit(Expr):
    __slots__ = ()


class VarRef(Expr):
    __slots__ = ("name",)
    _fields = ("nid", "line", "col", "name")

    def __init__(self, nid: int, line: int, col: int, name: str):
        self.nid = nid
        self.line = line
        self.col = col
        self.name = name


class FieldRead(Expr):
    __slots__ = ("var", "fieldname")
    _fields = ("nid", "line", "col", "var", "fieldname")

    def __init__(self, nid: int, line: int, col: int, var: str, fieldname: str):
        self.nid = nid
        self.line = line
        self.col = col
        self.var = var
        self.fieldname = fieldname


class BinOp(Expr):
    __slots__ = ("op", "left", "right")
    _fields = ("nid", "line", "col", "op", "left", "right")

    def __init__(self, nid: int, line: int, col: int, op: str, left: Expr, right: Expr):
        self.nid = nid
        self.line = line
        self.col = col
        self.op = op  # one of + - *
        self.left = left
        self.right = right


class NewObject(Expr):
    __slots__ = ("classname",)
    _fields = ("nid", "line", "col", "classname")

    def __init__(self, nid: int, line: int, col: int, classname: str):
        self.nid = nid
        self.line = line
        self.col = col
        self.classname = classname


class MethodCall(Expr):
    __slots__ = ("receiver", "method", "args")
    _fields = ("nid", "line", "col", "receiver", "method", "args")

    def __init__(
        self, nid: int, line: int, col: int, receiver: str, method: str, args: list[str]
    ):
        self.nid = nid
        self.line = line
        self.col = col
        self.receiver = receiver
        self.method = method
        self.args = args


class Comparison(Node):
    """Guard of an if/while: a side-effect-free comparison."""

    __slots__ = ("op", "left", "right")
    _fields = ("nid", "line", "col", "op", "left", "right")

    def __init__(self, nid: int, line: int, col: int, op: str, left: Expr, right: Expr):
        self.nid = nid
        self.line = line
        self.col = col
        self.op = op  # == != < <= > >=
        self.left = left
        self.right = right


# --------------------------------------------------------------------------
# commands


class Command(Node):
    __slots__ = ()


class Skip(Command):
    __slots__ = ()


class Assign(Command):
    __slots__ = ("var", "expr")
    _fields = ("nid", "line", "col", "var", "expr")

    def __init__(self, nid: int, line: int, col: int, var: str, expr: Expr):
        self.nid = nid
        self.line = line
        self.col = col
        self.var = var
        self.expr = expr


class FieldWrite(Command):
    __slots__ = ("var", "fieldname", "expr")
    _fields = ("nid", "line", "col", "var", "fieldname", "expr")

    def __init__(self, nid: int, line: int, col: int, var: str, fieldname: str, expr: Expr):
        self.nid = nid
        self.line = line
        self.col = col
        self.var = var
        self.fieldname = fieldname
        self.expr = expr


class If(Command):
    __slots__ = ("guard", "then_body", "else_body")
    _fields = ("nid", "line", "col", "guard", "then_body", "else_body")

    def __init__(
        self,
        nid: int,
        line: int,
        col: int,
        guard: Comparison,
        then_body: list[Command],
        else_body: list[Command],
    ):
        self.nid = nid
        self.line = line
        self.col = col
        self.guard = guard
        self.then_body = then_body
        self.else_body = else_body  # empty list when no else branch


class While(Command):
    __slots__ = ("guard", "body")
    _fields = ("nid", "line", "col", "guard", "body")

    def __init__(self, nid: int, line: int, col: int, guard: Comparison, body: list[Command]):
        self.nid = nid
        self.line = line
        self.col = col
        self.guard = guard
        self.body = body


class Return(Command):
    """``return e``: the walkers run it as ``out := e``."""

    __slots__ = ("expr",)
    _fields = ("nid", "line", "col", "expr")
    var = OUT_VAR

    def __init__(self, nid: int, line: int, col: int, expr: Expr):
        self.nid = nid
        self.line = line
        self.col = col
        self.expr = expr


# --------------------------------------------------------------------------
# declarations


class MethodDecl(Record):
    __slots__ = ("name", "return_type", "params", "locals", "body", "line", "col", "decl_at")
    _fields = __slots__

    def __init__(
        self,
        name: str,
        return_type: str,
        params: list[tuple[str, str]],
        locals: list[tuple[str, str]],
        body: list[Command],
        line: int,
        col: int,
        decl_at: list[tuple[int, int]],
    ):
        self.name = name
        self.return_type = return_type
        self.params = params  # (type, name)
        self.locals = locals  # (type, name), declaration order
        self.body = body
        self.line = line
        self.col = col
        # (line, column) of each parameter's name, then of each local's
        self.decl_at = decl_at


class ClassDecl(Record):
    __slots__ = ("name", "parent", "fields", "methods", "line", "col", "name_at")
    _fields = __slots__

    def __init__(
        self,
        name: str,
        parent: Optional[str],
        fields: list[tuple[str, str]],
        methods: list[MethodDecl],
        line: int,
        col: int,
        name_at: tuple[int, int],
    ):
        self.name = name
        self.parent = parent
        self.fields = fields  # (name, declared type)
        self.methods = methods
        self.line = line
        self.col = col
        self.name_at = name_at  # (line, column) of the class name


class MainBlock(Record):
    __slots__ = ("locals", "body", "line", "col", "decl_at")
    _fields = __slots__

    def __init__(
        self,
        locals: list[tuple[str, str]],
        body: list[Command],
        line: int,
        col: int,
        decl_at: list[tuple[int, int]],
    ):
        self.locals = locals
        self.body = body
        self.line = line
        self.col = col
        self.decl_at = decl_at  # (line, column) of each local's name


class InitAnnotation(Record):
    """A ``//@ init`` line; resolved against the entry scope later."""

    __slots__ = ("kind", "variables", "models", "line", "col")
    _fields = __slots__

    def __init__(
        self,
        kind: str,
        variables: tuple[str, ...],
        models: Optional[list[list[str]]],
        line: int,
        col: int,
    ):
        self.kind = kind  # reach | cyc | ds
        self.variables = variables
        self.models = models  # None for ds
        self.line = line
        self.col = col  # of the ``//@``


class Program(Record):
    __slots__ = ("classes", "main", "annotations")
    _fields = __slots__

    def __init__(
        self,
        classes: list[ClassDecl],
        main: Optional[MainBlock],
        annotations: list[InitAnnotation],
    ):
        self.classes = classes
        self.main = main
        self.annotations = annotations


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
