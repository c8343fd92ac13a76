"""Lexer and recursive-descent parser.

Grammar (statement separators are semicolons, blocks are braced):

    program   := (classdecl | mainblock)*
    classdecl := 'class' ID ['extends' ID] '{' (fielddecl | methoddecl)* '}'
    fielddecl := type ID ';'
    methoddecl:= type ID '(' [type ID (',' type ID)*] ')' '{' body '}'
    mainblock := 'main' '{' body '}'
    body      := (localdecl | command)*
    localdecl := type ID ';' | type ID ':=' expr ';'      -- the second form
                 desugars to a declaration plus an assignment
    command   := 'skip' ';' | ID ':=' expr ';' | ID '.' ID ':=' expr ';'
               | 'if' '(' guard ')' ['then'] stmt ['else' stmt]
               | 'while' '(' guard ')' ['do'] stmt
               | 'return' expr ';'
    stmt      := command | '{' command* '}'
    guard     := expr cmp expr        cmp := == != < <= > >=
    expr      := arith; binary + - * on ints, atoms are literals, 'null',
                 variables, field reads, 'new' ID, and calls ID '.' ID '(args)'
                 with variable arguments.

Declarations come only at the top level of a method or main body, never
inside the block of an ``if`` or ``while``; a bare block is not a command.

Guards must be side-effect free: method calls and allocations inside a guard
are rejected at parse time.

Blocks, parentheses and operators nest at most ``MAX_NESTING`` deep along any
path from a command to an expression leaf, which keeps every later phase's
recursive walk within Python's stack.

Line comments start with '//'.  A comment whose text starts with '@' is an
annotation line, e.g. ``//@ init reach(a,b): [[f],[f,g]]``; annotations are
collected on the Program, with the position of their ``//@``, for
``semantics.parse_init_annotations`` to resolve.

The lexer makes one regular-expression match per token, newline or comment,
the blanks before it included, and dispatches on the number of the group
that matched.  A token is a plain tuple (kind, text, line, col), and the
list ends in two ``eof`` tokens.  The parser keeps the current token in
``tok``, which ``advance`` moves with no bound check: the second ``eof``
is there for the one step past the first, which an expression expected at
the end takes before it raises.  The parser matches a symbol or keyword by
its text alone, which is exact: each such text occurs with one kind only.
"""

from __future__ import annotations

import re
from itertools import count
from typing import Optional

from .syntax import (
    Assign,
    BinOp,
    ClassDecl,
    Command,
    Comparison,
    Expr,
    FieldRead,
    FieldWrite,
    If,
    InitAnnotation,
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
    walk_exprs,
    INT_TYPE,
    OUT_VAR,
)


MAX_NESTING = 100


class ParseError(SourceError):
    pass


KEYWORDS = {
    "class",
    "extends",
    "int",
    "new",
    "null",
    "skip",
    "if",
    "then",
    "else",
    "while",
    "do",
    "return",
    "main",
}

# one match per token: the blanks before it, then one group per token kind
# (symbols longest first, the common kinds first); ``bad`` catches any
# character no other group starts with, and the empty alternative matches
# only at the end, after any trailing blanks
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:([A-Za-z_][A-Za-z0-9_]*)|(:=|==|!=|<=|>=|[{}();,.<>+*-])|(\n)"
    r"|([0-9]+)|(//[^\n]*)|([^ \t\r\n])|\Z)"
)
_IDENT, _SYM, _NL, _INT, _COMMENT = range(1, 6)  # group 6 is ``bad``
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# (kind, text, line, col), a plain tuple: kind is 'ident' | 'int' | 'kw' |
# 'sym' | 'eof', and line and col are where the text starts, from 1
Token = tuple[str, str, int, int]


def _error(message: str, tok: Token) -> ParseError:
    return ParseError(message, tok[2], tok[3])


def _lex(source: str) -> tuple[list[Token], list[tuple[int, int, str]]]:
    """The tokens, ending in two ``eof`` tokens (see ``Parser``), and the
    ``//@`` annotation lines as (line, column of ``//@``, text after it)."""
    tokens: list[Token] = []
    raw_annotations: list[tuple[int, int, str]] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        if group == _NL:
            line += 1
            line_start = m.end()
            continue
        if group is None:  # the end
            break
        text = m[group]
        col = m.start(group) - line_start + 1
        if group == _IDENT:
            tokens.append(("kw" if text in KEYWORDS else "ident", text, line, col))
        elif group == _SYM:
            tokens.append(("sym", text, line, col))
        elif group == _INT:
            tokens.append(("int", text, line, col))
        elif group == _COMMENT:
            if text.startswith("//@"):
                raw_annotations.append((line, col, text[3:].strip()))
        else:
            raise ParseError(f"unexpected character {text!r}", line, col)
    eof = ("eof", "", line, len(source) - line_start + 1)
    tokens += (eof, eof)
    return tokens, raw_annotations


_ANNOT_RE = re.compile(
    r"^init\s+(reach|cyc|ds)\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?:,\s*([A-Za-z_][A-Za-z0-9_]*)\s*)?\)\s*(?::\s*(.*))?$"
)


_MODEL_RE = re.compile(r"\[([^\[\]]*)\]")  # one model: its field names
_MODELS_RE = re.compile(
    rf"\[\s*(?:{_MODEL_RE.pattern}(?:\s*,\s*{_MODEL_RE.pattern})*)?\s*\]"
)


def _parse_models(text: str, line: int, col: int) -> list[list[str]]:
    """``[[f, g], [], ...]``: the whole list must match, each inner list
    holding comma-separated field names."""
    text = text.strip()
    if not _MODELS_RE.fullmatch(text):
        raise ParseError("annotation models must be a [[...],...] list", line, col)
    models: list[list[str]] = []
    for part in _MODEL_RE.findall(text[1:-1]):
        names = [p.strip() for p in part.split(",") if p.strip()]
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ParseError(f"bad field name {name!r} in annotation", line, col)
        models.append(names)
    return models


def _parse_annotation(line: int, col: int, text: str) -> InitAnnotation:
    """An annotation line; ``col`` is the column of its ``//@``."""
    m = _ANNOT_RE.match(text)
    if not m:
        raise ParseError(f"malformed annotation: //@ {text}", line, col)
    kind, a, b, models_text = m.group(1), m.group(2), m.group(3), m.group(4)
    if kind == "reach":
        if b is None:
            raise ParseError("reach annotation needs two variables", line, col)
        if models_text is None:
            raise ParseError("reach annotation needs a model list", line, col)
        return InitAnnotation("reach", (a, b), _parse_models(models_text, line, col), line, col)
    if kind == "cyc":
        if b is not None:
            raise ParseError("cyc annotation takes one variable", line, col)
        if models_text is None:
            raise ParseError("cyc annotation needs a model list", line, col)
        return InitAnnotation("cyc", (a,), _parse_models(models_text, line, col), line, col)
    # ds
    if b is None:
        b = a
    if models_text is not None:
        raise ParseError("ds annotation takes no model list", line, col)
    return InitAnnotation("ds", (a, b), None, line, col)


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens  # as ``_lex`` gives them, ending in two ``eof``
        self.pos = 0
        self.tok = tokens[0]  # the current token, ``tokens[pos]``
        self.nid = count(1).__next__  # node ids, in the order nodes are built
        self._depth = 0  # enclosing blocks, parentheses and unary minus signs
        self._height: dict[int, int] = {}  # operator node id -> expression tree height

    # -- token helpers
    #
    # A symbol or keyword is matched by its text alone: each such text
    # occurs with one kind only, since the lexer turns every keyword
    # spelling into ``kw`` and no identifier, number or ``eof`` (text "")
    # spells a symbol.  So no match accepts ``eof``.  Every ``advance``
    # follows a match, except that ``parse_atom`` takes its token before
    # it looks at it; at the first ``eof`` it steps onto the second and
    # raises.

    def advance(self) -> Token:
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def expect(self, text: str) -> Token:
        if self.tok[1] != text:
            raise _error(f"expected {text!r}, found {self.tok[1]!r}", self.tok)
        return self.advance()

    def accept(self, text: str) -> Optional[Token]:
        if self.tok[1] == text:
            return self.advance()
        return None

    def _nest(self, tok: Token, extra: int = 1) -> None:
        if self._depth + extra > MAX_NESTING:
            raise _error(f"nesting deeper than {MAX_NESTING} levels", tok)

    def _binop(self, tok: Token, left: Expr, right: Expr) -> BinOp:
        height = 1 + max(self._height.get(left.nid, 1), self._height.get(right.nid, 1))
        self._nest(tok, height)
        _, op, line, col = tok
        node = BinOp(self.nid(), line, col, op, left, right)
        self._height[node.nid] = height
        return node

    def _nested(self, tok: Token, parse):
        self._nest(tok)
        self._depth += 1
        result = parse()
        self._depth -= 1
        return result

    def ident(self, what: str = "identifier") -> Token:
        kind, text, _, _ = tok = self.tok
        if kind != "ident":
            raise _error(f"expected {what}, found {text!r}", tok)
        if text == OUT_VAR:
            raise _error(f"'{OUT_VAR}' is reserved", tok)
        return self.advance()

    # -- grammar

    def parse_program(self) -> Program:
        classes: list[ClassDecl] = []
        main: Optional[MainBlock] = None
        while self.tok[0] != "eof":
            tok = self.tok
            if tok[1] == "class":
                classes.append(self.parse_class())
            elif tok[1] == "main":
                if main is not None:
                    raise _error("duplicate main block", tok)
                main = self.parse_main()
            else:
                raise _error(f"expected 'class' or 'main', found {tok[1]!r}", tok)
        return Program(classes, main, [])

    def parse_class(self) -> ClassDecl:
        _, _, line, col = self.expect("class")
        _, name, name_line, name_col = self.ident("class name")
        parent = None
        if self.accept("extends"):
            parent = self.ident("superclass name")[1]
        self.expect("{")
        fields: list[tuple[str, str]] = []
        methods: list[MethodDecl] = []
        while not self.accept("}"):
            ftype = self.parse_type()
            fname_tok = self.ident("member name")
            if self.tok[1] == "(":
                methods.append(self.parse_method_rest(ftype, fname_tok))
            else:
                self.expect(";")
                fields.append((fname_tok[1], ftype))
        return ClassDecl(name, parent, fields, methods, line, col, (name_line, name_col))

    def parse_type(self) -> str:
        if self.accept("int"):
            return INT_TYPE
        return self.ident("type name")[1]

    def parse_method_rest(self, return_type: str, name_tok: Token) -> MethodDecl:
        self.expect("(")
        params: list[tuple[str, str]] = []
        decl_at: list[tuple[int, int]] = []
        if not self.accept(")"):
            while True:
                ptype = self.parse_type()
                _, pname, line, col = self.ident("parameter name")
                params.append((ptype, pname))
                decl_at.append((line, col))
                if self.accept(")"):
                    break
                self.expect(",")
        self.expect("{")
        locals_, body = self.parse_body(decl_at)
        _, name, line, col = name_tok
        return MethodDecl(name, return_type, params, locals_, body, line, col, decl_at)

    def parse_main(self) -> MainBlock:
        _, _, line, col = self.expect("main")
        self.expect("{")
        decl_at: list[tuple[int, int]] = []
        locals_, body = self.parse_body(decl_at)
        return MainBlock(locals_, body, line, col, decl_at)

    def parse_body(
        self, decl_at: list[tuple[int, int]]
    ) -> tuple[list[tuple[str, str]], list[Command]]:
        """Parse declarations and commands up to the closing brace, adding
        the position of each declared name to ``decl_at``."""
        locals_: list[tuple[str, str]] = []
        body: list[Command] = []
        while not self.accept("}"):
            if self._at_declaration():
                dtype = self.parse_type()
                _, dname, line, col = self.ident("variable name")
                locals_.append((dtype, dname))
                decl_at.append((line, col))
                if self.accept(":="):
                    expr = self.parse_expr()
                    body.append(Assign(self.nid(), line, col, dname, expr))
                self.expect(";")
            else:
                body.append(self.parse_command())
        return locals_, body

    def _at_declaration(self) -> bool:
        kind, text, _, _ = self.tok
        if text == "int":
            return True
        return kind == "ident" and self.tokens[self.pos + 1][0] == "ident"

    def parse_command(self) -> Command:
        kind, text, line, col = tok = self.tok
        if text == "{":
            # an explicit block folds into the surrounding sequence
            raise _error("nested bare blocks are not allowed here", tok)
        if text == "skip":
            self.advance()
            self.expect(";")
            return Skip(self.nid(), line, col)
        if text == "if":
            return self.parse_if()
        if text == "while":
            return self.parse_while()
        if text == "return":
            self.advance()
            expr = self.parse_expr()
            self.expect(";")
            return Return(self.nid(), line, col, expr)
        if kind == "ident":
            self.advance()
            if self.accept(":="):
                expr = self.parse_expr()
                self.expect(";")
                return Assign(self.nid(), line, col, text, expr)
            if self.accept("."):
                fld = self.ident("field name")[1]
                self.expect(":=")
                expr = self.parse_expr()
                self.expect(";")
                return FieldWrite(self.nid(), line, col, text, fld, expr)
            raise _error(f"expected ':=' or '.' after {text!r}", tok)
        raise _error(f"expected a command, found {text!r}", tok)

    def parse_stmt_or_block(self) -> list[Command]:
        if self.accept("{"):
            cmds: list[Command] = []
            while not self.accept("}"):
                cmds.append(self.parse_command())
            return cmds
        return [self.parse_command()]

    def parse_if(self) -> If:
        kw = self.expect("if")
        self.expect("(")
        guard = self.parse_guard()
        self.expect(")")
        self.accept("then")
        then_body = self._nested(kw, self.parse_stmt_or_block)
        else_body: list[Command] = []
        if self.accept("else"):
            else_body = self._nested(kw, self.parse_stmt_or_block)
        return If(self.nid(), kw[2], kw[3], guard, then_body, else_body)

    def parse_while(self) -> While:
        kw = self.expect("while")
        self.expect("(")
        guard = self.parse_guard()
        self.expect(")")
        self.accept("do")
        body = self._nested(kw, self.parse_stmt_or_block)
        return While(self.nid(), kw[2], kw[3], guard, body)

    def parse_guard(self) -> Comparison:
        _, _, line, col = self.tok
        left = self.parse_expr()

        def reject_side_effects(e: Expr) -> None:
            for sub in walk_exprs(e):
                if isinstance(sub, (MethodCall, NewObject)):
                    raise ParseError(
                        "guard must be side-effect free (no calls or allocations)",
                        sub.line,
                        sub.col,
                    )

        op_tok = self.tok
        if op_tok[1] not in ("==", "!=", "<", "<=", ">", ">="):
            reject_side_effects(left)
            raise _error("guard must be a comparison (==, !=, <, <=, >, >=)", op_tok)
        self.advance()
        right = self.parse_expr()
        reject_side_effects(left)
        reject_side_effects(right)
        return Comparison(self.nid(), line, col, op_tok[1], left, right)

    # expressions: '+'/'-' over '*' over atoms

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.tok[1] in ("+", "-"):
            tok = self.advance()
            left = self._binop(tok, left, self.parse_term())
        return left

    def parse_term(self) -> Expr:
        left = self.parse_atom()
        while self.tok[1] == "*":
            tok = self.advance()
            left = self._binop(tok, left, self.parse_atom())
        return left

    def parse_atom(self) -> Expr:
        kind, text, line, col = tok = self.advance()
        if kind == "int":
            try:
                return IntLit(self.nid(), line, col, int(text))
            except ValueError:  # more digits than Python converts
                raise _error(f"integer literal of {len(text)} digits is too long", tok) from None
        if text == "-":
            inner = self._nested(tok, self.parse_atom)
            if isinstance(inner, IntLit):
                inner.value = -inner.value
                return inner
            zero = IntLit(self.nid(), line, col, 0)
            return self._binop(tok, zero, inner)
        if text == "(":
            expr = self._nested(tok, self.parse_expr)
            self.expect(")")
            return expr
        if text == "null":
            return NullLit(self.nid(), line, col)
        if text == "new":
            return NewObject(self.nid(), line, col, self.ident("class name")[1])
        if kind == "ident":
            if not self.accept("."):
                return VarRef(self.nid(), line, col, text)
            member = self.ident("member name")[1]
            if not self.accept("("):
                return FieldRead(self.nid(), line, col, text, member)
            args: list[str] = []
            if not self.accept(")"):
                while True:
                    args.append(self.ident("argument variable")[1])
                    if self.accept(")"):
                        break
                    self.expect(",")
            return MethodCall(self.nid(), line, col, text, member, args)
        raise _error(f"expected an expression, found {text!r}", tok)


def parse_program(source: str) -> Program:
    tokens, raw_annotations = _lex(source)
    parser = Parser(tokens)
    program = parser.parse_program()
    program.annotations = [_parse_annotation(*raw) for raw in raw_annotations]
    return program
