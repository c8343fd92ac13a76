"""Golden reports: the JSON report of every corpus program and of every
entry the acceptance suite analyses in ``tests/data`` must stay byte for
byte what ``data/report_digests.json`` records (``elapsed_ms`` aside), the
text report (the per-line table plus the final value) what
``data/text_digests.json`` records, and the views (``--compare-domains``
on every case, ``--dump-sharing`` on the ``main`` entries) what
``data/view_digests.json`` records.

A change that alters a report on purpose must prove it is a precision gain;
only then regenerate the three files with ``PYTHONPATH=src python tests/test_reports.py``.
"""

import hashlib
import json
import re

import pytest

from fieldreach.render import (
    render_compare,
    render_final,
    render_sharing,
    render_table,
    result_to_json,
)
from fieldreach.semantics import analyze_program

from conftest import DATA, analyze_entry, build
from corpus import CORPUS
from test_render_json import WIDE

DIGESTS = DATA / "report_digests.json"
TEXT_DIGESTS = DATA / "text_digests.json"
VIEW_DIGESTS = DATA / "view_digests.json"
_ELAPSED = re.compile(r'\n *"elapsed_ms": [^\n]*')

# (name, source, entry, tracked fields)
CASES = [(f"corpus/{name}", src, "main", None) for name, src in sorted(CORPUS.items())] + [
    ("data/dll.lang", (DATA / "dll.lang").read_text(), "main", None),
    ("data/tree.lang@join", (DATA / "tree.lang").read_text(), "join", None),
    ("data/tree_main.lang[left]", (DATA / "tree_main.lang").read_text(), "main", ["left"]),
    # seven fields; the final canonicalisation drops models from most of
    # the values this case records
    ("wide", WIDE, "main", None),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """The JSON report, the text report and the view digests of every case."""
    reports, texts, views = {}, {}, {}
    for name, src, entry, tracked in CASES:
        program, ct, info = build(src)
        result = analyze_program(program, ct, info, tracked=tracked, entry=entry)
        reports[name] = _sha(_ELAPSED.sub("", result_to_json(result)))
        texts[name] = _sha(render_table(result) + render_final(result))
        views[f"{name} compare"] = _sha(render_compare(result, ct, info))
        if entry == "main":
            views[f"{name} sharing"] = _sha(render_sharing(program, result.sharing))
    return reports, texts, views


@pytest.fixture(scope="module")
def digests():
    return current_digests()


def _changed(got: dict[str, str], path) -> list[str]:
    expected = json.loads(path.read_text())
    assert sorted(got) == sorted(expected)
    return [name for name in got if got[name] != expected[name]]


def test_reports_match_golden_digests(digests):
    changed = _changed(digests[0], DIGESTS)
    assert not changed, f"reports differ from the golden digests: {changed}"


def test_text_reports_match_golden_digests(digests):
    changed = _changed(digests[1], TEXT_DIGESTS)
    assert not changed, f"text reports differ from the golden digests: {changed}"


def test_views_match_golden_digests(digests):
    changed = _changed(digests[2], VIEW_DIGESTS)
    assert not changed, f"views differ from the golden digests: {changed}"


@pytest.mark.parametrize("name,src,entry,tracked", CASES, ids=[c[0] for c in CASES])
def test_recorded_values_are_canonical(name, src, entry, tracked):
    """Every value a result holds is in normal form and its own canonical
    form, however many places share it."""
    result = analyze_entry(src, entry, tracked)
    values = [result.final] + [row.value for row in result.trace]
    values += result.point_post.values()
    for value in values:
        assert value.is_normal()
        assert value.canonical(result.via) == value


if __name__ == "__main__":
    for path, got in zip((DIGESTS, TEXT_DIGESTS, VIEW_DIGESTS), current_digests()):
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
