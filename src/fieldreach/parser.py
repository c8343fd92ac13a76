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
collected on the Program for the driver to resolve.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    VarRef,
    While,
    walk_exprs,
    INT_TYPE,
    OUT_VAR,
)


MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


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

# one alternative per token kind, tried in order: symbols longest first, and
# ``bad`` catches any character no other alternative starts with
_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|(?P<comment>//[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<sym>:=|==|!=|<=|>=|[{}();,.<>+*-])|(?P<bad>.)"
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class Token:
    kind: str  # 'ident' | 'int' | 'kw' | 'sym' | 'eof'
    text: str
    line: int
    col: int


def _lex(source: str) -> tuple[list[Token], list[tuple[int, str]]]:
    tokens: list[Token] = []
    raw_annotations: list[tuple[int, str]] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind is None:  # blanks
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "comment":
            if text.startswith("//@"):
                raw_annotations.append((line, text[3:].strip()))
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        else:
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens, raw_annotations


_ANNOT_RE = re.compile(
    r"^init\s+(reach|cyc|ds)\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?:,\s*([A-Za-z_][A-Za-z0-9_]*)\s*)?\)\s*(?::\s*(.*))?$"
)


_MODEL_RE = re.compile(r"\[([^\[\]]*)\]")  # one model: its field names
_MODELS_RE = re.compile(
    rf"\[\s*(?:{_MODEL_RE.pattern}(?:\s*,\s*{_MODEL_RE.pattern})*)?\s*\]"
)


def _parse_models(text: str, line: int) -> list[list[str]]:
    """``[[f, g], [], ...]``: the whole list must match, each inner list
    holding comma-separated field names."""
    text = text.strip()
    if not _MODELS_RE.fullmatch(text):
        raise ParseError("annotation models must be a [[...],...] list", line, 1)
    models: list[list[str]] = []
    for part in _MODEL_RE.findall(text[1:-1]):
        names = [p.strip() for p in part.split(",") if p.strip()]
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ParseError(f"bad field name {name!r} in annotation", line, 1)
        models.append(names)
    return models


def _parse_annotation(line: int, text: str) -> InitAnnotation:
    m = _ANNOT_RE.match(text)
    if not m:
        raise ParseError(f"malformed annotation: //@ {text}", line, 1)
    kind, a, b, models_text = m.group(1), m.group(2), m.group(3), m.group(4)
    if kind == "reach":
        if b is None:
            raise ParseError("reach annotation needs two variables", line, 1)
        if models_text is None:
            raise ParseError("reach annotation needs a model list", line, 1)
        return InitAnnotation("reach", (a, b), _parse_models(models_text, line), line)
    if kind == "cyc":
        if b is not None:
            raise ParseError("cyc annotation takes one variable", line, 1)
        if models_text is None:
            raise ParseError("cyc annotation needs a model list", line, 1)
        return InitAnnotation("cyc", (a,), _parse_models(models_text, line), line)
    # ds
    if b is None:
        b = a
    if models_text is not None:
        raise ParseError("ds annotation takes no model list", line, 1)
    return InitAnnotation("ds", (a, b), None, line)


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self._next_nid = 0
        self._depth = 0  # enclosing blocks, parentheses and unary minus signs
        self._height: dict[int, int] = {}  # operator node id -> expression tree height

    # -- token helpers

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def nid(self) -> int:
        self._next_nid += 1
        return self._next_nid

    def _nest(self, tok: Token, extra: int = 1) -> None:
        if self._depth + extra > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)

    def _binop(self, tok: Token, op: str, left: Expr, right: Expr) -> BinOp:
        height = 1 + max(self._height.get(left.nid, 1), self._height.get(right.nid, 1))
        self._nest(tok, height)
        node = BinOp(self.nid(), tok.line, tok.col, op, left, right)
        self._height[node.nid] = height
        return node

    def _nested(self, tok: Token, parse):
        self._nest(tok)
        self._depth += 1
        result = parse()
        self._depth -= 1
        return result

    def ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        if tok.text == OUT_VAR:
            raise ParseError(f"'{OUT_VAR}' is reserved", tok.line, tok.col)
        return self.advance()

    # -- grammar

    def parse_program(self) -> Program:
        classes: list[ClassDecl] = []
        main: Optional[MainBlock] = None
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "kw" and tok.text == "class":
                classes.append(self.parse_class())
            elif tok.kind == "kw" and tok.text == "main":
                if main is not None:
                    raise ParseError("duplicate main block", tok.line, tok.col)
                main = self.parse_main()
            else:
                raise ParseError(
                    f"expected 'class' or 'main', found {tok.text!r}", tok.line, tok.col
                )
        return Program(classes, main, [])

    def parse_class(self) -> ClassDecl:
        kw = self.expect("kw", "class")
        name_tok = self.ident("class name")
        parent = None
        if self.accept("kw", "extends"):
            parent = self.ident("superclass name").text
        self.expect("sym", "{")
        fields: list[tuple[str, str]] = []
        methods: list[MethodDecl] = []
        while not self.accept("sym", "}"):
            ftype = self.parse_type()
            fname_tok = self.ident("member name")
            if self.peek().kind == "sym" and self.peek().text == "(":
                methods.append(self.parse_method_rest(ftype, fname_tok))
            else:
                self.expect("sym", ";")
                fields.append((fname_tok.text, ftype))
        return ClassDecl(
            name_tok.text, parent, fields, methods, kw.line, kw.col, (name_tok.line, name_tok.col)
        )

    def parse_type(self) -> str:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "int":
            self.advance()
            return INT_TYPE
        return self.ident("type name").text

    def parse_method_rest(self, return_type: str, name_tok: Token) -> MethodDecl:
        self.expect("sym", "(")
        params: list[tuple[str, str]] = []
        decl_at: list[tuple[int, int]] = []
        if not self.accept("sym", ")"):
            while True:
                ptype = self.parse_type()
                pname = self.ident("parameter name")
                params.append((ptype, pname.text))
                decl_at.append((pname.line, pname.col))
                if self.accept("sym", ")"):
                    break
                self.expect("sym", ",")
        self.expect("sym", "{")
        locals_, body = self.parse_body(decl_at)
        return MethodDecl(
            name_tok.text,
            return_type,
            params,
            locals_,
            body,
            name_tok.line,
            name_tok.col,
            decl_at,
        )

    def parse_main(self) -> MainBlock:
        kw = self.expect("kw", "main")
        self.expect("sym", "{")
        decl_at: list[tuple[int, int]] = []
        locals_, body = self.parse_body(decl_at)
        return MainBlock(locals_, body, kw.line, kw.col, decl_at)

    def parse_body(
        self, decl_at: list[tuple[int, int]]
    ) -> tuple[list[tuple[str, str]], list[Command]]:
        """Parse declarations and commands up to the closing brace, adding
        the position of each declared name to ``decl_at``."""
        locals_: list[tuple[str, str]] = []
        body: list[Command] = []
        while not self.accept("sym", "}"):
            if self._at_declaration():
                dtype = self.parse_type()
                dname_tok = self.ident("variable name")
                locals_.append((dtype, dname_tok.text))
                decl_at.append((dname_tok.line, dname_tok.col))
                if self.accept("sym", ":="):
                    expr = self.parse_expr()
                    body.append(
                        Assign(self.nid(), dname_tok.line, dname_tok.col, dname_tok.text, expr)
                    )
                self.expect("sym", ";")
            else:
                body.append(self.parse_command())
        return locals_, body

    def _at_declaration(self) -> bool:
        tok, nxt = self.peek(), self.peek(1)
        if tok.kind == "kw" and tok.text == "int":
            return True
        return tok.kind == "ident" and nxt.kind == "ident"

    def parse_command(self) -> Command:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "{":
            # an explicit block folds into the surrounding sequence
            raise ParseError("nested bare blocks are not allowed here", tok.line, tok.col)
        if tok.kind == "kw":
            if tok.text == "skip":
                self.advance()
                self.expect("sym", ";")
                return Skip(self.nid(), tok.line, tok.col)
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "return":
                self.advance()
                expr = self.parse_expr()
                self.expect("sym", ";")
                return Return(self.nid(), tok.line, tok.col, expr)
        if tok.kind == "ident":
            name = self.advance()
            if self.accept("sym", ":="):
                expr = self.parse_expr()
                self.expect("sym", ";")
                return Assign(self.nid(), name.line, name.col, name.text, expr)
            if self.accept("sym", "."):
                fld = self.ident("field name").text
                self.expect("sym", ":=")
                expr = self.parse_expr()
                self.expect("sym", ";")
                return FieldWrite(self.nid(), name.line, name.col, name.text, fld, expr)
            raise ParseError(f"expected ':=' or '.' after {name.text!r}", name.line, name.col)
        raise ParseError(f"expected a command, found {tok.text!r}", tok.line, tok.col)

    def parse_stmt_or_block(self) -> list[Command]:
        if self.accept("sym", "{"):
            cmds: list[Command] = []
            while not self.accept("sym", "}"):
                cmds.append(self.parse_command())
            return cmds
        return [self.parse_command()]

    def parse_if(self) -> If:
        kw = self.expect("kw", "if")
        self.expect("sym", "(")
        guard = self.parse_guard()
        self.expect("sym", ")")
        self.accept("kw", "then")
        then_body = self._nested(kw, self.parse_stmt_or_block)
        else_body: list[Command] = []
        if self.accept("kw", "else"):
            else_body = self._nested(kw, self.parse_stmt_or_block)
        return If(self.nid(), kw.line, kw.col, guard, then_body, else_body)

    def parse_while(self) -> While:
        kw = self.expect("kw", "while")
        self.expect("sym", "(")
        guard = self.parse_guard()
        self.expect("sym", ")")
        self.accept("kw", "do")
        body = self._nested(kw, self.parse_stmt_or_block)
        return While(self.nid(), kw.line, kw.col, guard, body)

    def parse_guard(self) -> Comparison:
        start = self.peek()
        left = self.parse_expr()

        def reject_side_effects(e: Expr) -> None:
            for sub in walk_exprs(e):
                if isinstance(sub, (MethodCall, NewObject)):
                    raise ParseError(
                        "guard must be side-effect free (no calls or allocations)",
                        sub.line,
                        sub.col,
                    )

        op_tok = self.peek()
        if op_tok.kind != "sym" or op_tok.text not in ("==", "!=", "<", "<=", ">", ">="):
            reject_side_effects(left)
            raise ParseError(
                "guard must be a comparison (==, !=, <, <=, >, >=)", op_tok.line, op_tok.col
            )
        self.advance()
        right = self.parse_expr()
        reject_side_effects(left)
        reject_side_effects(right)
        return Comparison(self.nid(), start.line, start.col, op_tok.text, left, right)

    # expressions: '+'/'-' over '*' over atoms

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in ("+", "-"):
                self.advance()
                left = self._binop(tok, tok.text, left, self.parse_term())
            else:
                return left

    def parse_term(self) -> Expr:
        left = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "*":
                self.advance()
                left = self._binop(tok, "*", left, self.parse_atom())
            else:
                return left

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(self.nid(), tok.line, tok.col, int(tok.text))
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            inner = self._nested(tok, self.parse_atom)
            if isinstance(inner, IntLit):
                inner.value = -inner.value
                return inner
            zero = IntLit(self.nid(), tok.line, tok.col, 0)
            return self._binop(tok, "-", zero, inner)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            expr = self._nested(tok, self.parse_expr)
            self.expect("sym", ")")
            return expr
        if tok.kind == "kw" and tok.text == "null":
            self.advance()
            return NullLit(self.nid(), tok.line, tok.col)
        if tok.kind == "kw" and tok.text == "new":
            self.advance()
            cname = self.ident("class name").text
            return NewObject(self.nid(), tok.line, tok.col, cname)
        if tok.kind == "ident":
            name = self.advance()
            if self.peek().kind == "sym" and self.peek().text == ".":
                self.advance()
                member = self.ident("member name").text
                if self.accept("sym", "("):
                    args: list[str] = []
                    if not self.accept("sym", ")"):
                        while True:
                            args.append(self.ident("argument variable").text)
                            if self.accept("sym", ")"):
                                break
                            self.expect("sym", ",")
                    return MethodCall(self.nid(), name.line, name.col, name.text, member, args)
                return FieldRead(self.nid(), name.line, name.col, name.text, member)
            return VarRef(self.nid(), name.line, name.col, name.text)
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.line, tok.col)


def parse_program(source: str) -> Program:
    tokens, raw_annotations = _lex(source)
    parser = Parser(tokens)
    program = parser.parse_program()
    program.annotations = [_parse_annotation(line, text) for line, text in raw_annotations]
    return program
