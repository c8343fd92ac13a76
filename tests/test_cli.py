import hashlib
import json
import pathlib
import re
import subprocess
import sys

import pytest

import fieldreach
import fieldreach.cli
from fieldreach import analyze_program, build_class_table, parse_program, type_check
from fieldreach.cli import parse_query, run
from fieldreach.syntax import SourceError

from corpus import call_chain


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DLL = "tests/data/dll.lang"
TREE = "tests/data/tree.lang"
TREE_MAIN = "tests/data/tree_main.lang"


def test_the_command_line_loads_no_dataclasses():
    """The package's records are plain classes, and the JSON report takes
    its string encoder from ``_json``: a fresh interpreter that imports the
    command line never loads ``dataclasses`` or the ``json`` package."""
    src = str(pathlib.Path(fieldreach.__file__).parent.parent)
    probe = (
        "import sys; names = ('dataclasses', 'json'); "
        "loaded = [n in sys.modules for n in names]; sys.path.insert(0, sys.argv[1]); "
        "import fieldreach.cli; print(loaded, [n in sys.modules for n in names])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False, False] [False, False]\n"


def test_missing_file_is_usage_error(capsys):
    code, out, err = invoke(capsys, "no/such/file.lang")
    assert code == 2
    assert "cannot read" in err


def test_parse_error_is_analysis_error(tmp_path, capsys):
    bad = tmp_path / "bad.lang"
    bad.write_text("main { ??? }")
    code, out, err = invoke(capsys, str(bad))
    assert code == 1
    assert "error:" in err


def test_type_error_is_analysis_error(tmp_path, capsys):
    bad = tmp_path / "bad.lang"
    bad.write_text("main { Node x; x := 1; } class Node { Node n; }")
    code, out, err = invoke(capsys, str(bad))
    assert code == 1


def test_malformed_query_is_usage_error(capsys):
    code, out, err = invoke(capsys, DLL, "--query", "what is this")
    assert code == 2


def test_happy_path_with_queries(capsys):
    code, out, err = invoke(
        capsys, DLL, "--query", "cyc x {n}", "--query", "cyc x {n,p}"
    )
    assert code == 0
    assert "cyc x {n} -> false" in out
    assert "cyc x {n,p} -> true" in out


def test_dump_lines_table(capsys):
    code, out, err = invoke(capsys, DLL, "--dump-lines")
    assert code == 0
    # the doubly-linked-list fixpoint rows, in x-notation
    assert "x{}∨x{n,p}" in out
    assert "line" in out and "visit" in out


def test_oracle_check_clean(capsys):
    code, out, err = invoke(capsys, DLL, "--oracle-check")
    assert code == 0
    assert "oracle check: ok" in out


def test_oracle_check_requires_main(capsys):
    code, out, err = invoke(capsys, TREE, "--entry", "join", "--oracle-check")
    assert code == 2


def test_json_deterministic(capsys):
    code1, out1, _ = invoke(capsys, DLL, "--format", "json")
    code2, out2, _ = invoke(capsys, DLL, "--format", "json")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1["metadata"].pop("elapsed_ms")
    doc2["metadata"].pop("elapsed_ms")
    assert doc1 == doc2


def test_the_json_report_is_written_in_pieces(monkeypatch, capsys):
    """The command line writes the report's pieces as they are, never one
    joined string, and a report that does not fit in memory is an error
    with a message, not a traceback."""
    code, whole, _ = invoke(capsys, DLL, "--format", "json", "--query", "reach x tmp")
    written = []
    monkeypatch.setattr(sys.stdout, "writelines", lambda parts: written.extend(parts))
    assert run([DLL, "--format", "json", "--query", "reach x tmp"]) == code == 0
    assert len(written) > 10
    elapsed = re.compile(r'"elapsed_ms": [^,]*')
    assert elapsed.sub("", "".join(written)) == elapsed.sub("", whole)

    def too_large(parts):
        raise MemoryError

    monkeypatch.setattr(sys.stdout, "writelines", too_large)
    code, out, err = invoke(capsys, DLL, "--format", "json")
    assert code == 1
    assert err == "error: the JSON report does not fit in memory\n"


def test_json_schema_round_trip(capsys):
    code, out, err = invoke(capsys, DLL, "--format", "json", "--query", "cyc x {n}")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"entry", "universe", "final", "points", "queries", "metadata"}
    assert doc["universe"] == ["n", "p"]
    assert doc["queries"] == [{"query": "cyc x {n}", "result": False}]
    # models are sorted lists of sorted field lists
    final_cyc = doc["final"]["cyc"]["x"]
    assert final_cyc == sorted(final_cyc)
    assert json.loads(json.dumps(doc)) == doc


def test_track_fields_all_equals_default(capsys):
    _, out1, _ = invoke(capsys, DLL, "--dump-lines")
    _, out2, _ = invoke(capsys, DLL, "--dump-lines", "--track-fields", "all")
    assert out1 == out2


def test_track_fields_unknown_rejected(capsys):
    code, out, err = invoke(capsys, DLL, "--track-fields", "ghost")
    assert code == 1
    assert "unknown tracked fields" in err


def test_tracked_tree_query(capsys):
    code, out, err = invoke(
        capsys, TREE_MAIN, "--track-fields", "left", "--query", "cyc x {left}"
    )
    assert code == 0
    assert "cyc x {left} -> false" in out


def test_entry_method_with_annotations(capsys):
    code, out, err = invoke(capsys, TREE, "--entry", "join", "--dump-lines")
    assert code == 0
    assert "cyc(t)" in out


def test_compare_domains_output(capsys):
    code, out, err = invoke(capsys, DLL, "--compare-domains")
    assert code == 0
    assert "coarser abstractions" in out
    # the requirement view collapses on the doubly-linked list
    assert "cycle requirements for x = {}" in out


def test_query_parser():
    assert parse_query("cyc v {f1,f2}") == ("cyc", "v", ("f1", "f2"))
    assert parse_query("cyc v {}") == ("cyc", "v", ())
    assert parse_query("reach a b") == ("reach", "a", "b")


def test_reach_query_lists_models(capsys):
    code, out, err = invoke(capsys, DLL, "--query", "reach x tmp")
    assert code == 0
    assert "reach x tmp -> [[], ['n', 'p']]" in out


def test_query_unknown_variable(capsys):
    code, out, err = invoke(capsys, DLL, "--query", "cyc ghost {n}")
    assert code == 1


def test_query_untracked_field(capsys):
    code, out, err = invoke(
        capsys, TREE_MAIN, "--track-fields", "left", "--query", "cyc x {parent}"
    )
    assert code == 1
    assert "not tracked" in err


def test_annotation_unknown_field(tmp_path, capsys):
    bad = tmp_path / "bad.lang"
    bad.write_text(
        "//@ init reach(x,x): [[ghost]]\n"
        "main { Node x; x := new Node; }\n"
        "class Node { Node n; }\n"
    )
    code, out, err = invoke(capsys, str(bad))
    assert code == 1
    assert err == "error: 1:1: annotation names unknown field 'ghost'\n"


def test_annotation_unknown_variable(tmp_path, capsys):
    bad = tmp_path / "bad.lang"
    bad.write_text(
        "//@ init cyc(ghost): [[]]\n"
        "main { Node x; x := new Node; }\n"
        "class Node { Node n; }\n"
    )
    code, out, err = invoke(capsys, str(bad))
    assert code == 1
    assert err == "error: 1:1: annotation names unknown reference variable 'ghost'\n"


ANNOTATION_ERRORS = [
    ("  ", "reach(a,b): [[g]]", "annotation names unknown field 'g'"),
    ("  ", "cyc(ghost): [[]]", "annotation names unknown reference variable 'ghost'"),
    ("\t", "reach(a): [[f]]", "reach annotation needs two variables"),
    ("  ", "reach(a,b): [[f] junk]", "annotation models must be a [[...],...] list"),
    ("class B { B g; } ", "ds(a,b):", "ds annotation takes no model list"),
]


def _annotated(before, annotation):
    return f"class A {{ A f; }}\n{before}//@ init {annotation}\nmain {{ A a; A b; skip; }}\n"


@pytest.mark.parametrize("before, annotation, message", ANNOTATION_ERRORS)
def test_annotation_errors_point_at_the_annotation(tmp_path, capsys, before, annotation, message):
    code, out, err = _run_source(tmp_path, capsys, _annotated(before, annotation))
    assert code == 1
    assert err == f"error: 2:{len(before) + 1}: {message}\n"


@pytest.mark.parametrize("before, annotation, message", ANNOTATION_ERRORS)
def test_annotation_errors_keep_message_and_position_apart(before, annotation, message):
    """The parser's and the analysis's errors share one base, which takes
    the message and the position and writes ``line:col: message``."""
    with pytest.raises(SourceError) as err:
        program = parse_program(_annotated(before, annotation))
        ct = build_class_table(program)
        analyze_program(program, ct, type_check(program, ct))
    assert (err.value.message, err.value.line, err.value.col) == (message, 2, len(before) + 1)


def test_dump_sharing(capsys):
    code, out, err = invoke(capsys, DLL, "--dump-sharing")
    assert code == 0
    assert "DS(tmp,tmp)" in out
    assert "DS(tmp,x)" in out


def test_no_annotations_means_bottom_entry(capsys):
    code, out, err = invoke(capsys, DLL, "--format", "json")
    doc = json.loads(out)
    first = doc["points"]["1#1"]
    assert all(models == [] for models in first["reach"].values())
    assert all(models == [] for models in first["cyc"].values())


def test_dump_sharing_reads_the_analysis_tables(capsys, monkeypatch):
    from fieldreach.sharing import SharingAnalysis

    runs = []
    original = SharingAnalysis.analyze_main

    def counted(self, *args, **kwargs):
        runs.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SharingAnalysis, "analyze_main", counted)
    code, out, err = invoke(capsys, DLL, "--dump-sharing")
    assert code == 0
    assert len(runs) == 1
    assert "DS(tmp,x)" in out


@pytest.mark.parametrize("flag", ["--dump-sharing", "--oracle-check"])
def test_main_only_flags_are_rejected_before_analysis(capsys, monkeypatch, flag):
    import fieldreach.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(fieldreach.cli, "analyze_program", refuse)
    code, out, err = invoke(capsys, TREE, "--entry", "join", "--dump-lines", flag)
    assert code == 2
    assert out == ""
    assert f"{flag} needs the main entry" in err


@pytest.mark.parametrize("flag", ["--dump-lines", "--dump-sharing", "--compare-domains"])
def test_text_only_flags_are_rejected_with_json(capsys, monkeypatch, flag):
    import fieldreach.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(fieldreach.cli, "analyze_program", refuse)
    code, out, err = invoke(capsys, DLL, "--format", "json", flag)
    assert code == 2
    assert out == ""
    assert f"error: {flag} needs --format text" in err


@pytest.mark.parametrize(
    "flags", [["--widening", "0"], ["--heap-budget", "0"], ["--heap-budget", "-5"]]
)
def test_budgets_below_one_are_rejected_before_analysis(capsys, monkeypatch, flags):
    import fieldreach.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(fieldreach.cli, "analyze_program", refuse)
    code, out, err = invoke(capsys, DLL, "--oracle-check", *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {flags[0]} must be at least 1\n"


def test_failed_oracle_check_in_json_reports_on_stderr(capsys, monkeypatch):
    import fieldreach.cli
    from fieldreach.oracle import SoundnessReport, Violation

    _, clean, _ = invoke(capsys, DLL, "--format", "json")
    violation = Violation(7, "cyc", ("x",), ("n", "p"), 3)
    monkeypatch.setattr(
        fieldreach.cli,
        "check_soundness",
        lambda result, oracle: SoundnessReport([violation], 5, 9, [11]),
    )
    code, out, err = invoke(capsys, DLL, "--format", "json", "--oracle-check")
    assert code == 1
    # stdout is the report alone, byte for byte apart from the timing
    elapsed = re.compile(r'"elapsed_ms": [^\n]*')
    assert elapsed.sub("", out) == elapsed.sub("", clean)
    assert "oracle check: 1 violation(s), 1 unchecked point(s)" in err
    assert f"  {violation}" in err


def _run_source(tmp_path, capsys, source, *flags):
    path = tmp_path / "prog.lang"
    path.write_text(source)
    return invoke(capsys, str(path), *flags)


def _nested_ifs(depth):
    opening = "if (i == 0) then {\n" * depth
    closing = "}\n" * depth
    return "class K { K f; }\nmain { K x; int i;\n" + opening + "x := new K;\n" + closing + "}\n"


@pytest.mark.parametrize(
    "source",
    [
        _nested_ifs(400),
        "main { int i; i := " + "(" * 400 + "1" + ")" * 400 + "; }\n",
        "main { int i; i := " + " + ".join(["1"] * 2000) + "; }\n",
    ],
    ids=["ifs", "parentheses", "sum"],
)
def test_deep_syntax_is_an_analysis_error(tmp_path, capsys, source):
    code, out, err = _run_source(tmp_path, capsys, source)
    assert code == 1
    assert err.startswith("error: ") and "nesting deeper than" in err


def test_nesting_just_inside_the_limit_runs_every_phase(tmp_path, capsys):
    loops = "while (i < 1) do {\n" * 98
    source = (
        "class K { K f; }\nmain { K x; int i;\n"
        + loops
        + "x := new K; i := i + 1;\n"
        + "}\n" * 98
        + "}\n"
    )
    code, out, err = _run_source(
        tmp_path, capsys, source, "--oracle-check", "--dump-lines", "--dump-sharing",
        "--compare-domains",
    )
    assert code == 0, err
    assert "oracle check: ok" in out


def test_unbounded_recursion_under_the_oracle_fails_cleanly(tmp_path, capsys):
    source = (
        "class K { K f; K loop(K a) { K r; r := this.loop(a); return r; } } "
        "main { K x; K y; x := new K; y := x.loop(x); }"
    )
    code, out, err = _run_source(tmp_path, capsys, source, "--oracle-check")
    assert code == 1
    # --heap-budget bounds the steps and the cells, not the call depth
    assert err == "error: concrete execution failed: call depth budget 100 exceeded at line 1\n"


_ELAPSED = re.compile(r'\n *"elapsed_ms": [^\n]*')


def _report_sha(text):
    return hashlib.sha256(_ELAPSED.sub("", text).encode()).hexdigest()


def test_a_600_method_call_chain_stays_within_the_stack(tmp_path, capsys):
    """Solved where the deep-sharing analysis meets them, 600 nested calls
    would take 600 runs' worth of Python stack; past the nesting bound the
    contexts queue, and the report is the one the queue alone gives."""
    code, out, err = _run_source(tmp_path, capsys, call_chain(600), "--format", "json")
    assert code == 0 and "Traceback" not in err, err
    assert _report_sha(out) == "1ba8f92359d0ea65c476984faa02ad4f59bbd9423e0f005374ab9e0c55bd473c"


def _deep_chain(k, loops):
    """k methods, each calling the next from inside ``loops`` nested loops."""
    methods = []
    for i in range(k):
        call = f"r := this.m{i + 1}(a);" if i < k - 1 else "r := a;"
        methods.append(
            f"  C m{i}(C a) {{\n    C r;\n    int j;\n    j := 0;\n"
            + "    while (j < 1) do {\n" * loops
            + f"    {call}\n    j := j + 1;\n"
            + "    }\n" * loops
            + "    return r;\n  }\n"
        )
    return (
        "class C {\n  C f;\n" + "".join(methods) + "}\n"
        "main {\n  C c;\n  C x;\n  c := new C;\n  x := c.m0(c);\n}\n"
    )


def test_calls_from_deep_bodies_nest_only_while_the_stack_has_room(tmp_path, capsys):
    """Six methods whose calls sit 97 loops deep: a run takes about 200
    frames, so only a few can nest within the recursion limit; the rest
    queue, and the report is the one the queue alone gives."""
    code, out, err = _run_source(tmp_path, capsys, _deep_chain(6, 97), "--format", "json")
    assert code == 0 and "Traceback" not in err, err
    assert _report_sha(out) == "9d5051539f9c0c5b6aa7fd34a09feff20eb49f11fbfb624fad5fa6ff264a55c4"


def test_a_long_integer_literal_is_an_error_at_the_literal(tmp_path, capsys):
    source = "main { int x; x := " + "9" * 5000 + "; }"
    code, out, err = _run_source(tmp_path, capsys, source)
    assert code == 1 and out == ""
    assert err == "error: 1:20: integer literal of 5000 digits is too long\n"


@pytest.mark.parametrize("step", ["run_concrete", "check_soundness"])
def test_an_oracle_check_out_of_memory_is_an_error_naming_the_budget(monkeypatch, capsys, step):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fieldreach.cli, step, out_of_memory)
    code, out, err = invoke(capsys, DLL, "--oracle-check")
    assert code == 1 and "Traceback" not in out + err
    assert err == (
        "error: the concrete run does not fit in memory "
        "(--heap-budget bounds the steps and the recorded cells)\n"
    )


def test_a_run_that_never_ends_stops_at_the_cell_budget(tmp_path, capsys):
    # the chain grows on every trip and ``i`` is reset inside the loop: the
    # cells the records copy, not memory, must end the oracle's run
    source = (
        "main { int i; Tree root; Tree child; root := new Tree; "
        "while (i < 3) { i := 0; child := new Tree; child.parent := root; "
        "root.left := child; root := child; i := i + 1; } } "
        "class Tree { Tree left; Tree right; Tree parent; }"
    )
    code, out, err = _run_source(
        tmp_path, capsys, source, "--oracle-check", "--heap-budget", "20000"
    )
    assert code == 1
    assert "20000 cells" in err and "--heap-budget" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "source, message",
    [
        (
            "class A {\n  A m(A x,\n      A x) { return x; }\n}\nmain { skip; }",
            "3:9: duplicate variable 'x'",
        ),
        (
            "class A {\n  A m(A this) { return this; }\n}\nmain { skip; }",
            "2:9: duplicate variable 'this'",
        ),
        (
            "class A {\n  A m(A x) {\n    A y;\n    A x;\n    return x;\n  }\n}\nmain { skip; }",
            "4:7: duplicate variable 'x'",
        ),
        ("class A { }\nmain {\n  A a;\n  A a;\n  skip;\n}", "4:5: duplicate variable 'a'"),
        (
            "class A { }\nmain {\n  A a;\n  A c;\n  int a;\n  skip;\n}",
            "5:7: duplicate variable 'a'",
        ),
    ],
    ids=[
        "repeated-parameter",
        "parameter-this",
        "local-shadows-parameter",
        "repeated-local",
        "local-of-two-types",
    ],
)
def test_clashing_variable_names_are_analysis_errors(tmp_path, capsys, source, message):
    # reported at the clashing declaration, not at the method or main block,
    # in the line:column format of the other analysis errors
    code, out, err = _run_source(tmp_path, capsys, source)
    assert code == 1
    assert err == f"error: {message}\n"
    assert "Traceback" not in out + err


def test_field_named_like_the_stand_in_is_an_analysis_error(tmp_path, capsys):
    source = "class N { N any; N nx; N pv; } main { N a; a := new N; a.any := a; }"
    for flags in ((), ("--track-fields", "any"), ("--track-fields", "any,nx")):
        code, out, err = _run_source(tmp_path, capsys, source, *flags)
        assert code == 1
        assert err == "error: 1:1: 'any' cannot be a field name\n"


@pytest.mark.parametrize(
    "source,message",
    [
        ("class A { }\nclass A { }\nmain { skip; }", "2:7: duplicate class 'A'"),
        ("class  int { }\nmain { skip; }", "1:8: expected class name, found 'int'"),
    ],
    ids=["duplicate", "int"],
)
def test_class_name_errors_point_at_the_name(tmp_path, capsys, source, message):
    code, out, err = _run_source(tmp_path, capsys, source)
    assert code == 1
    assert err == f"error: {message}\n"


def test_universe_above_the_field_cap_asks_for_tracked_fields(tmp_path, capsys):
    decls = " ".join(f"N f{i};" for i in range(17))
    source = f"class N {{ {decls} }} main {{ N a; a := new N; a.f0 := a; }}"
    code, out, err = _run_source(tmp_path, capsys, source)
    assert code == 1
    assert err.startswith("error: ") and "17 fields" in err and "--track-fields" in err
    code, out, err = _run_source(tmp_path, capsys, source, "--track-fields", "f0,f1")
    assert code == 0, err


def test_undecodable_input_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.lang"
    bad.write_bytes("main { } // caf\xe9\n".encode("latin-1"))
    code, out, err = invoke(capsys, str(bad))
    assert code == 2
    assert "cannot read" in err and "Traceback" not in err
    assert out == ""


def test_annotation_on_an_untracked_field_folds_into_the_stand_in(tmp_path, capsys):
    src = tmp_path / "ann.lang"

    def annotate(field):
        src.write_text(
            f"//@ init reach(a,a): [[{field}]]\n"
            "main { A a; A b; b := a; }\n"
            "class A { A f; A g; int k; }\n"
        )
        return str(src)

    code, out, err = invoke(capsys, annotate("g"), "--track-fields", "f", "--oracle-check")
    assert code == 0, err
    assert "reach(a,a) = x{any}" in out and "cyc(b) = x{any}" in out
    assert "oracle check: ok" in out
    # int fields and undeclared fields are still not path fields
    for field in ("k", "ghost"):
        code, out, err = invoke(capsys, annotate(field), "--track-fields", "f")
        assert code == 1
        assert f"annotation names unknown field {field!r}" in err
