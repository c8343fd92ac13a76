"""The package holds what it runs.

* Every module-level function or class under ``src/fieldreach`` is referred
  to by other code of the package, is exported in ``fieldreach.__all__``, or
  is named in ``KEPT`` with the reason it stays.
* Every method and property of a package class is read by name somewhere in
  the package outside its own body, or is named in ``KEPT_MEMBERS`` with the
  reason it stays.  The check goes by name only: a member whose name another
  class also uses, or that a body of its own class reads, counts as read, so
  it cannot see that member.  Dunder methods run implicitly and are skipped.
* Every name a module of the package or of the tests imports is read in that
  module.  ``__init__.py`` re-exports and imports marked ``# noqa: F401``
  are exempt.

Helpers only tests need live under ``tests/``."""

import ast
import collections
import pathlib

import fieldreach

PACKAGE = pathlib.Path(fieldreach.__file__).parent
TESTS = pathlib.Path(__file__).parent

# name -> why it stays without a caller in the package
KEPT = {
    "cycle_field_sets": "the benchmark's tracer wraps it as the oracle's cycle layer",
}

# Class.member -> why it stays without a reader in the package
KEPT_MEMBERS = {
    "RcValue.to_json": "the benchmark's count_models reads a report's models through it",
    "PathFormula.drop_nonviable": "the benchmark's tracer wraps it as a formula layer",
    "PathFormula.equiv": "the acceptance traces compare formulas up to equivalence",
    "PathFormula.false": "the tests construct formulas with it",
    "PathFormula.has_model": "the tests read single models of formulas through it",
    "PathFormula.only": "the tests construct formulas with it",
}


def _modules(*dirs: pathlib.Path) -> dict[pathlib.Path, ast.Module]:
    return {p: ast.parse(p.read_text()) for d in dirs for p in sorted(d.glob("*.py"))}


def _reads(node: ast.AST) -> collections.Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return collections.Counter(
        getattr(n, "id", None) or n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced() -> list[str]:
    """``module.name`` of each top-level definition nothing else refers to."""
    defined, referred = [], set()
    for path, tree in _modules(PACKAGE).items():
        for stmt in tree.body:
            name = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{name}")
            for node in ast.walk(stmt):
                # a name read, an attribute, or an imported name
                used = getattr(node, "id", None) or getattr(node, "attr", None)
                used = used or (node.name if isinstance(node, ast.alias) else None)
                if used != name:
                    referred.add(used)
    exempt = referred | set(fieldreach.__all__) | set(KEPT)
    return [d for d in defined if d.split(".")[1] not in exempt]


def unread_members() -> list[str]:
    """``Class.member`` of each method or property that the package never
    reads outside the member's own body."""
    trees = _modules(PACKAGE).values()
    total = sum((_reads(tree) for tree in trees), collections.Counter())
    unread = []
    for tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for member in cls.body:
                name = getattr(member, "name", "")
                if not isinstance(member, ast.FunctionDef) or name.startswith("__"):
                    continue
                if total[name] == _reads(member)[name]:
                    unread.append(f"{cls.name}.{name}")
    return [m for m in unread if m not in KEPT_MEMBERS]


def unused_imports() -> list[str]:
    """``file: name`` of each imported name its module never reads."""
    unused = []
    for path, tree in _modules(PACKAGE, TESTS).items():
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.parent.name}/{path.name}: {name}")
    return unused


def test_every_definition_is_run_by_the_package():
    assert unreferenced() == []


def test_every_class_member_is_read_by_the_package():
    assert unread_members() == []


def test_every_import_is_read():
    assert unused_imports() == []
