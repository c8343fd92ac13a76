"""Golden reports: the JSON report of every corpus program and of every
entry the acceptance suite analyses in ``tests/data`` must stay byte for
byte what ``data/report_digests.json`` records (``elapsed_ms`` aside).

A change that alters a report on purpose must prove it is a precision gain;
only then regenerate the file with ``PYTHONPATH=src python tests/test_reports.py``.
"""

import hashlib
import json
import re

from fieldreach.cli import parse_init_annotations
from fieldreach.render import result_to_json
from fieldreach.semantics import analyze_program, entry_scope

from conftest import DATA, build
from corpus import CORPUS

DIGESTS = DATA / "report_digests.json"
_ELAPSED = re.compile(r'\n *"elapsed_ms": [^\n]*')

# (name, source, entry, tracked fields)
CASES = [(f"corpus/{name}", src, "main", None) for name, src in sorted(CORPUS.items())] + [
    ("data/dll.lang", (DATA / "dll.lang").read_text(), "main", None),
    ("data/tree.lang@join", (DATA / "tree.lang").read_text(), "join", None),
    ("data/tree_main.lang[left]", (DATA / "tree_main.lang").read_text(), "main", ["left"]),
]


def report_digest(source: str, entry: str, tracked) -> str:
    program, ct, info = build(source)
    universe, entry, variables, refs = entry_scope(
        program, ct, info, tracked=tracked, entry=entry
    )
    init_rc, init_sp = parse_init_annotations(program, universe, variables, refs)
    result = analyze_program(
        program, ct, info, tracked=tracked, entry=entry, init_rc=init_rc, init_sp=init_sp
    )
    report = _ELAPSED.sub("", result_to_json(result))
    return hashlib.sha256(report.encode()).hexdigest()


def current_digests() -> dict[str, str]:
    return {name: report_digest(src, entry, tracked) for name, src, entry, tracked in CASES}


def test_reports_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert sorted(got) == sorted(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert not changed, f"reports differ from the golden digests: {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=2, sort_keys=True) + "\n")
