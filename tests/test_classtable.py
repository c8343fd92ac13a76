import pytest

from fieldreach import ClassTableError, build_class_table, parse_program
from fieldreach.syntax import ClassDecl

from conftest import DEVICES_SOURCE


def test_devices_hierarchy(devices_ct):
    ct = devices_ct
    assert dict(ct.fields_of("L2")) == {"mD": "LP", "aD": "TB"}
    assert ct.subclasses_of("Dev") == ("Dev", "LP", "TB")
    assert ct.reference_fields == {"mD", "aD", "owner", "lnk"}


def test_inherited_fields_superset(devices_ct):
    ct = devices_ct
    for sup in ct.class_names:
        sup_fields = set(ct.fields_of(sup))
        for sub in ct.subclasses_of(sup):
            assert sup_fields <= set(ct.fields_of(sub))


def test_order_independent():
    lines = [l for l in DEVICES_SOURCE.strip().splitlines()]
    reordered = "\n".join(reversed(lines))
    a = build_class_table(parse_program(DEVICES_SOURCE))
    b = build_class_table(parse_program(reordered))
    assert a.reference_fields == b.reference_fields
    assert all(a.fields_of(c) == b.fields_of(c) for c in a.class_names)
    assert a.class_names == b.class_names


def test_single_class_no_fields():
    ct = build_class_table(parse_program("class A { }"))
    assert ct.reference_fields == frozenset()


def test_duplicate_field_across_classes():
    with pytest.raises(ClassTableError) as err:
        build_class_table(parse_program("class A { A f; } class B { B f; }"))
    assert "declared in both" in str(err.value)


@pytest.mark.parametrize(
    "source,message",
    [
        ("class A { A f; int f; }", "duplicate field 'f' in class 'A'"),
        ("class A { A f; A f; }", "duplicate field 'f' in class 'A'"),
        ("class A { A f; }\nclass B extends A { A f; }", "field 'f' declared in both 'A' and 'B'"),
    ],
)
def test_duplicate_field_names_its_classes(source, message):
    """A field declared twice in one class is a duplicate there; declared in
    two classes, both are named."""
    with pytest.raises(ClassTableError) as err:
        build_class_table(parse_program(source))
    assert err.value.message == message


def test_field_named_like_the_stand_in():
    with pytest.raises(ClassTableError) as err:
        build_class_table(parse_program("class A { A f; }\nclass N { N any; }"))
    assert err.value.line == 2
    assert "'any' cannot be a field name" in str(err.value)


def test_cyclic_extends():
    with pytest.raises(ClassTableError):
        build_class_table(
            parse_program("class A extends B { } class B extends A { }")
        )


def test_unknown_superclass():
    with pytest.raises(ClassTableError):
        build_class_table(parse_program("class A extends Ghost { }"))


def test_int_fields_excluded_from_reference_fields():
    ct = build_class_table(parse_program("class A { int k; A f; }"))
    assert ct.reference_fields == {"f"}
    assert ct.field_type("k") == "int"


def test_method_resolution_walks_up():
    ct = build_class_table(
        parse_program(
            "class A { A m() { return this; } } class B extends A { }"
        )
    )
    assert ct.resolve_method("B", "m").owner == "A"
    # a call on static type A may land on A's definition from both classes
    assert [s.owner for s in ct.callable_methods("A", "m")] == ["A"]


def test_override_resolution():
    ct = build_class_table(
        parse_program(
            "class A { A m() { return this; } }"
            "class B extends A { A m() { return this; } }"
        )
    )
    owners = [s.owner for s in ct.callable_methods("A", "m")]
    assert owners == ["A", "B"]
    assert ct.resolve_method("B", "m").owner == "B"


def test_override_signature_mismatch():
    with pytest.raises(ClassTableError):
        build_class_table(
            parse_program(
                "class A { A m() { return this; } }"
                "class B extends A { int m() { return 1; } }"
            )
        )


def test_int_class_name_in_a_hand_built_program():
    """The parser rejects ``class int``, so only a program built by hand
    reaches the class table's own guard."""
    program = parse_program("class A { }\nmain { skip; }")
    a = program.classes[0]
    program.classes[0] = ClassDecl("int", a.parent, a.fields, a.methods, a.line, a.col, a.name_at)
    with pytest.raises(ClassTableError) as err:
        build_class_table(program)
    assert str(err.value) == "1:7: 'int' cannot be a class name"
