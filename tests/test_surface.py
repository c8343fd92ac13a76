"""The package holds what it runs: every module-level function or class
under ``src/fieldreach`` is referred to by other code of the package, is
exported in ``fieldreach.__all__``, or is named below with the reason it
stays.  Helpers only tests need live under ``tests/``."""

import ast
import pathlib

import fieldreach

# name -> why it stays without a caller in the package
KEPT = {
    "cycle_field_sets": "the benchmark's tracer wraps it as the oracle's cycle layer",
}


def unreferenced() -> list[str]:
    """``module.name`` of each top-level definition nothing else refers to."""
    defined, referred = [], set()
    for path in sorted(pathlib.Path(fieldreach.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
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


def test_every_definition_is_run_by_the_package():
    assert unreferenced() == []
