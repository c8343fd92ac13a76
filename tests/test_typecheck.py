import pytest

from fieldreach import TypeCheckError, build_class_table, parse_program, type_check

from conftest import build

NODE = "class Node { Node n; Node p; }\n"


def check(src: str):
    return build(src)


def test_field_update_same_class_accepted():
    check("main { Node x; Node tmp; x := new Node; tmp := new Node; x.n := tmp; }" + NODE)


def test_assign_int_to_reference_rejected():
    with pytest.raises(TypeCheckError):
        check("main { Node x; x := 1; }" + NODE)


def test_call_on_int_rejected():
    with pytest.raises(TypeCheckError):
        check("main { int i; i := i.m(); }" + NODE)


def test_unknown_variable():
    with pytest.raises(TypeCheckError):
        check("main { ghost := 1; }")


def test_unknown_field():
    with pytest.raises(TypeCheckError):
        check("main { Node x; x := new Node; x.ghost := x; }" + NODE)


def test_subclass_assignment_ok():
    check(
        "class A { } class B extends A { }"
        "main { A a; B b; b := new B; a := b; }"
    )


def test_superclass_assignment_rejected():
    with pytest.raises(TypeCheckError):
        check(
            "class A { } class B extends A { }"
            "main { A a; B b; a := new A; b := a; }"
        )


def test_null_assignment_ok():
    check("main { Node x; x := null; }" + NODE)


def test_guard_ref_vs_null_ok():
    check("main { Node x; if (x != null) then skip; }" + NODE)


def test_guard_ref_vs_ref_rejected():
    with pytest.raises(TypeCheckError):
        check("main { Node x; Node y; if (x == y) then skip; }" + NODE)


def test_guard_ordering_needs_ints():
    with pytest.raises(TypeCheckError):
        check("main { Node x; if (x < 3) then skip; }" + NODE)


def test_return_required_and_last():
    with pytest.raises(TypeCheckError):
        check("class A { A m() { skip; } }")
    with pytest.raises(TypeCheckError):
        check("class A { A m() { return this; skip; } }")


@pytest.mark.parametrize(
    "source,message",
    [
        ("class A { Z m() { return null; } } main { skip; }", "1:13: unknown return type 'Z'"),
        ("class A { A m() { skip; } } main { skip; }", "1:13: method A.m must end with a return"),
    ],
)
def test_method_errors_point_at_the_name(source, message):
    program = parse_program(source)
    with pytest.raises(TypeCheckError) as err:
        type_check(program, build_class_table(program))
    assert str(err.value) == message


def test_return_in_main_rejected():
    with pytest.raises(TypeCheckError):
        check("main { return 1; }")


def test_assign_to_this_rejected():
    with pytest.raises(TypeCheckError):
        check("class A { A m() { this := new A; return this; } }")


def test_call_arity_and_types():
    src = "class A { A m(A x, int k) { return x; } }"
    with pytest.raises(TypeCheckError):
        check(src + "main { A a; a := new A; a := a.m(a); }")
    with pytest.raises(TypeCheckError):
        check(src + "main { A a; int i; a := new A; a := a.m(i, i); }")
    check(src + "main { A a; int i; a := new A; a := a.m(a, i); }")


def test_call_targets_recorded():
    program, ct, info = check(
        "class A { A m() { return this; } }"
        "class B extends A { A m() { return this; } }"
        "main { A a; a := new B; a := a.m(); }"
    )
    (targets,) = [v for v in info.call_targets.values()]
    assert [s.owner for s in targets] == ["A", "B"]


def test_env_covers_all_points():
    program, ct, info = check(
        "main { int i; Node x; i := 0; while (i < 2) { x := new Node; i := i + 1; } }"
        + NODE
    )
    env = info.env_for("main")
    assert set(env.variables) == {"i", "x"}
    assert env.ref_vars == ("x",)


SCOPES = "class A {\n  A m(A p) { A q; return p; }\n}\nmain { A x; skip; }"


@pytest.mark.parametrize(
    "scope,message",
    [
        ("param", "2:9: 'out' is reserved"),
        ("local", "2:16: 'out' is reserved"),
        ("main", "4:10: 'out' is reserved"),
    ],
)
def test_out_declared_in_a_hand_built_program(scope, message):
    """The parser rejects a variable named ``out``, so only a program built
    by hand reaches the type checker's own guard, at the declaration."""
    program = parse_program(SCOPES)
    method = program.classes[0].methods[0]
    declared = {"param": method.params, "local": method.locals, "main": program.main.locals}
    declared[scope][0] = ("A", "out")
    with pytest.raises(TypeCheckError) as err:
        type_check(program, build_class_table(program))
    assert str(err.value) == message
