import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fieldreach import ParseError, parse_program, render_program
from fieldreach.parser import _lex, _parse_annotation
from fieldreach.syntax import (
    Assign,
    FieldWrite,
    If,
    MethodCall,
    Return,
    While,
)

from conftest import DATA
from corpus import CORPUS
from reference import ReferenceParser, fingerprint, reference_lex

TREE_JOIN = """
class Tree {
  Tree left;
  Tree right;
  Tree parent;

  Tree join(Tree l, Tree r) {
    Tree t;  t := new Tree;
    t.left := l;
    t.right := r;
    if (l != null) then l.parent := t;
    if (r != null) then r.parent := t;
    return t;
  }
}
"""


def test_tree_join_shape():
    p = parse_program(TREE_JOIN)
    assert len(p.classes) == 1
    tree = p.classes[0]
    assert [f for f, _ in tree.fields] == ["left", "right", "parent"]
    assert len(tree.methods) == 1
    join = tree.methods[0]
    assert join.params == [("Tree", "l"), ("Tree", "r")]
    assert join.locals == [("Tree", "t")]
    kinds = [type(c) for c in join.body]
    assert kinds == [Assign, FieldWrite, FieldWrite, If, If, Return]


def test_empty_source():
    p = parse_program("")
    assert p.classes == []
    assert p.main is None


def test_guard_with_call_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("main { Cell x; while (x.m() != null) do skip; } class Cell { }")
    assert "side-effect free" in str(err.value)


def test_bare_call_guard_reports_side_effect():
    with pytest.raises(ParseError) as err:
        parse_program("main { Cell x; while (x.m()) do skip; } class Cell { }")
    assert "side-effect free" in str(err.value)


def test_guard_with_new_rejected():
    with pytest.raises(ParseError):
        parse_program("main { int i; if (i < new Cell) then skip; } class Cell { }")


def test_guard_requires_comparison():
    with pytest.raises(ParseError) as err:
        parse_program("main { int i; while (i) do skip; }")
    assert "comparison" in str(err.value)


def test_positions_reported():
    with pytest.raises(ParseError) as err:
        parse_program("class A {\n  ?\n}")
    assert err.value.line == 2


def test_typed_assignment_desugars():
    p = parse_program("main { Cell c := new Cell; } class Cell { }")
    assert p.main.locals == [("Cell", "c")]
    assert isinstance(p.main.body[0], Assign)


def test_line_comments_and_annotations():
    src = """
// plain comment
main {
  int i;      // trailing comment
  i := 1;
}
//@ init ds(a,b)
//@ init reach(a,b): [[f],[f,g]]
//@ init cyc(a): [[]]
"""
    p = parse_program(src)
    kinds = [a.kind for a in p.annotations]
    assert kinds == ["ds", "reach", "cyc"]
    assert p.annotations[1].models == [["f"], ["f", "g"]]
    assert p.annotations[2].models == [[]]


def test_malformed_annotation():
    # text outside the inner model lists, or a missing comma between them,
    # is an error, not a silently different entry fact
    for annotation in (
        "reach(a): [[f]]",
        "reach(a,b): [f]",
        "reach(a,b): [f,g]",
        "reach(a,b): [[f] junk [g]]",
        "reach(a,b): [[f][g]]",
        "ds(a,b):",
    ):
        with pytest.raises(ParseError):
            parse_program(f"//@ init {annotation}\nmain {{ skip; }}")


# -- the front end against the reference lexer and parser


def _front_end(source):
    """The package's tokens, annotations and AST, node ids and positions
    included, or its error."""
    try:
        tokens, _ = _lex(source)
        program = parse_program(source)
    except ParseError as e:
        return e.message, e.line, e.col
    return tokens, fingerprint(program, positions=True)


def _reference_front_end(source):
    """The same from the reference lexer and parser.  An annotation's
    column is where its comment starts: the first ``//`` of its line, as no
    token holds a ``/``."""
    lines = source.split("\n")
    try:
        tokens, raw = reference_lex(source)
        program = ReferenceParser(tokens).parse_program()
        program.annotations = [
            _parse_annotation(line, lines[line - 1].index("//") + 1, text) for line, text in raw
        ]
    except ParseError as e:
        return e.message, e.line, e.col
    plain = [(t.kind, t.text, t.line, t.col) for t in tokens]
    return plain + plain[-1:], fingerprint(program, positions=True)


# the characters of every token kind, the blanks, and characters no token
# starts with
LEX_ALPHABET = st.sampled_from(
    list("aZ_09 \t\r\n{}();,.<>+-*:=!/@é\0")
    + ["\r\n", "//", "//@", ":=", "==", "!=", "<=", ">=", "class", "x1"]
)


@given(st.lists(LEX_ALPHABET, max_size=30).map("".join))
def test_lexer_positions_point_into_the_source(source):
    assert _front_end(source) == _reference_front_end(source)
    lines = source.split("\n")
    try:
        tokens, _ = _lex(source)
    except ParseError as e:
        assert e.message == f"unexpected character {lines[e.line - 1][e.col - 1]!r}"
        return
    for _, text, line, col in tokens:
        assert lines[line - 1][col - 1 : col - 1 + len(text)] == text
    assert tokens[-1][2:] == (len(lines), len(lines[-1]) + 1)


SOURCES = [*CORPUS.values()] + [path.read_text() for path in sorted(DATA.glob("*.lang"))]


@pytest.mark.parametrize("source", SOURCES)
def test_front_end_equals_the_reference_on_the_sources(source):
    got = _front_end(source)
    assert got == _reference_front_end(source)
    assert not isinstance(got[0], str)  # the sources parse


# characters for a stray insertion: blanks, newlines, characters no token
# starts with, and parts of symbols and comments
STRAY = list(" \t\r\n$#é\0/:!=<>-@x7{};")


@st.composite
def mutated_sources(draw):
    """A source with one to three token-level edits: drop, duplicate or
    swap tokens, cut the source after a token, or insert a stray
    character; then maybe CRLF line endings or tab indentation."""
    source = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
        try:
            tokens = reference_lex(source)[0][:-1]
        except ParseError:  # after a stray character: only strays follow
            tokens = []
        spans = [(starts[t.line - 1] + t.col - 1, t.text) for t in tokens]
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "cut", "stray"]))
        if edit == "stray" or len(spans) < 2:
            at = draw(st.integers(0, len(source)))
            source = source[:at] + draw(st.sampled_from(STRAY)) + source[at:]
            continue
        k = draw(st.integers(0, len(spans) - 2))
        (at, text), (at2, text2) = spans[k], spans[draw(st.integers(k + 1, len(spans) - 1))]
        end = at + len(text)
        if edit == "drop":
            source = source[:at] + source[end:]
        elif edit == "cut":
            source = source[:end]
        elif edit == "duplicate":
            source = source[:end] + draw(st.sampled_from(["", " ", "\n"])) + text + source[end:]
        else:
            between = source[end:at2]
            source = source[:at] + text2 + between + text + source[at2 + len(text2) :]
    if draw(st.booleans()):
        source = source.replace("\n", "\r\n")
    if draw(st.booleans()):
        source = re.sub(r"(?m)^ +", "\t", source)
    return source


@settings(max_examples=400)
@given(mutated_sources())
def test_front_end_equals_the_reference_on_mutated_sources(source):
    assert _front_end(source) == _reference_front_end(source)


def test_while_and_if_bodies():
    src = """
main {
  int i;
  Node x;
  while (i < 3) {
    i := i + 1;
    if (i == 2) then { x := new Node; } else skip;
  }
}
class Node { Node n; Node p; }
"""
    p = parse_program(src)
    loop = p.main.body[0]
    assert isinstance(loop, While)
    assert isinstance(loop.body[1], If)


def test_call_arguments_are_variables():
    with pytest.raises(ParseError):
        parse_program(
            "class A { A m(A x) { return x; } } main { A a; a := a.m(new A); }"
        )


def test_out_is_reserved():
    with pytest.raises(ParseError):
        parse_program("main { int out; out := 1; }")


def test_pretty_print_round_trip_is_fixpoint():
    for src in (
        TREE_JOIN,
        """
main {
  int i;
  Node tmp;
  Node x := new Node;
  i := 1;
  while (i < 10) { x.n := tmp; tmp := x; i := i + 1; }
  if (i == 10) then skip;
}
class Node { Node n; Node p; }
""",
    ):
        once = parse_program(src)
        printed = render_program(once)
        twice = parse_program(printed)
        assert fingerprint(once) == fingerprint(twice)
        assert render_program(twice) == printed


def test_nested_call_and_arith():
    p = parse_program(
        "class A { int f; int m() { return 1; } }\n"
        "main { A a; int k; a := new A; k := a.m() + 2 * a.f; }"
    )
    assign = p.main.body[1]
    assert isinstance(assign, Assign)
    assert isinstance(assign.expr.left, MethodCall)


def test_nesting_limit_reports_where_it_is_crossed():
    from fieldreach.parser import MAX_NESTING

    depth = MAX_NESTING + 1
    source = "main { int i;\n" + "if (i == 0) then {\n" * depth + "skip;" + "}" * depth + " }"
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert (exc.value.line, exc.value.col) == (depth + 1, 1)
    assert f"nesting deeper than {MAX_NESTING}" in exc.value.message


def test_an_integer_literal_longer_than_python_converts_is_an_error_at_it():
    """Python converts at most ``sys.get_int_max_str_digits()`` digits to an
    int: a literal up to the limit keeps its value, a longer one is a parse
    error at the literal, in the package and in the reference alike."""
    limit = sys.get_int_max_str_digits()
    fits = parse_program("main { int x; x := " + "9" * limit + "; }")
    assert fits.main.body[0].expr.value == 10**limit - 1
    source = "main { int x;\n  x := -" + "9" * 5000 + "; }"
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert (exc.value.line, exc.value.col) == (2, 9)
    assert exc.value.message == "integer literal of 5000 digits is too long"
    assert _front_end(source) == _reference_front_end(source)


def test_operator_chains_count_toward_the_nesting_limit():
    from fieldreach.parser import MAX_NESTING

    fits = "main { int i; i := " + " + ".join(["1"] * MAX_NESTING) + "; }"
    parse_program(fits)
    with pytest.raises(ParseError) as exc:
        parse_program("main { int i; i := " + " + ".join(["1"] * (MAX_NESTING + 1)) + "; }")
    # the operator that makes the tree one level too deep
    assert exc.value.col == len("main { int i; i := ") + 4 * MAX_NESTING - 1
