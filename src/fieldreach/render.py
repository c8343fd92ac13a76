"""Report rendering: per-line text tables in x-notation and JSON output."""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from operator import itemgetter
from typing import Optional

try:  # the function ``json.encoder`` uses, without loading the ``json`` package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .classtable import ClassTable
from .compare import alpha_class_pairs, alpha_monotone, alpha_nofields, alpha_q, alpha_scapin
from .domain import RcValue, Scope
from .formula import FieldUniverse, PathFormula
from .semantics import AnalysisResult
from .syntax import walk_commands
from .typecheck import TypeInfo


def _display_pairs(
    value: RcValue, display_vars: tuple[str, ...]
) -> tuple[list[str], list[tuple[str, str]]]:
    """The displayed variables of the value's scope, sorted, and their pairs."""
    shown = [v for v in sorted(display_vars) if v in value.scope.pos]
    return shown, [(v, w) for v in shown for w in shown]


def render_table(result: AnalysisResult) -> str:
    """One row per recorded visit of a source line: reachability columns for
    the displayed variable pairs in lexicographic order, then cyclicity.
    The trace values are canonical already, so the cells show them as they
    are."""
    if not result.trace:
        return "(no trace)\n"
    shown, pairs = _display_pairs(result.trace[0].value, result.display_vars)
    header = (
        ["line", "visit"]
        + [f"({v},{w})" for v, w in pairs]
        + [f"cyc({v})" for v in shown]
    )
    rendered: dict[int, str] = {}  # each distinct table once

    def cell(formula: PathFormula) -> str:
        text = rendered.get(formula.table)
        if text is None:
            text = rendered[formula.table] = formula.render()
        return text

    rows = [header]
    for row in result.trace:
        cells = [str(row.line), str(row.visit)]
        cells += [cell(row.value.reach_at(v, w)) for v, w in pairs]
        cells += [cell(row.value.cyc_at(v)) for v in shown]
        rows.append(cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_final(result: AnalysisResult) -> str:
    value = result.final
    shown, pairs = _display_pairs(value, result.display_vars)
    lines = ["final abstract value:"]
    for v, w in pairs:
        lines.append(f"  reach({v},{w}) = {value.reach_at(v, w).render()}")
    for v in shown:
        lines.append(f"  cyc({v}) = {value.cyc_at(v).render()}")
    return "\n".join(lines) + "\n"


def render_compare(result: AnalysisResult, ct: ClassTable, typeinfo: TypeInfo) -> str:
    env = typeinfo.env_for(result.entry)
    final = result.final
    var_types = {
        v: env.type_of(v)
        for v in final.scope.names
        if env.type_of(v) is not None and env.type_of(v) != "int"
    }
    reach = {(v, w): final.reach_at(v, w) for v in var_types for w in var_types}
    cyc = {v: final.cyc_at(v) for v in var_types}
    lines = ["coarser abstractions of the final value:"]
    nf = alpha_nofields(reach, ct, var_types)
    lines.append(
        "  plain reachability: " + (", ".join(f"{a}~>{b}" for a, b in sorted(nf)) or "(none)")
    )
    cp = alpha_class_pairs(nf, ct, var_types)
    lines.append("  class pairs: " + (", ".join(f"({a},{b})" for a, b in sorted(cp)) or "(none)"))
    for (a, b), f in sorted(alpha_monotone(reach).items()):
        lines.append(f"  monotone reach({a},{b}) = {f.render()}")
    for (a, b), banned in sorted(alpha_scapin(reach).items()):
        lines.append(f"  excluded fields ({a},{b}) = {{" + ",".join(sorted(banned)) + "}")
    required = alpha_q(cyc)
    for v in sorted(cyc):
        if v in required:
            lines.append(f"  cycle requirements for {v} = {{" + ",".join(sorted(required[v])) + "}")
        else:
            lines.append(f"  {v} is provably acyclic")
    return "\n".join(lines) + "\n"


def render_sharing(program, analysis) -> str:
    """Per-line deep-sharing pairs of main in annotation style: ``DS(a,b), ...``."""
    post = analysis.main.post
    lines = []
    for cmd in walk_commands(program.main.body):
        state = post.get(cmd.nid)
        if state is None:
            continue
        pairs = ", ".join(f"DS({a},{b})" for a, b in sorted(state.ds)) or "(none)"
        lines.append(f"line {cmd.line}: {pairs}")
    return "\n".join(lines) + "\n"


# -- JSON report
#
# The report is written top to bottom in its one fixed shape, in exactly the
# layout of ``json.dumps(doc, sort_keys=True, indent=2)``: every object's
# members come in sorted key order (``entry``, ``final``, ``metadata``,
# ``points``, ``queries``, ``universe`` at the top; ``cyc``, ``line``,
# ``reach``, ``visit`` in a point; ``cyc``, ``reach`` in ``final``), and only
# the ``"line#visit"`` point keys are sorted at run time, as strings (they
# hold digits and ``#`` alone, so they need no escaping).  The pieces are
# appended to one list (``json_parts``): the command line writes them out
# one by one, since a report at a wide universe repeats a few entry texts
# many times over, and ``result_to_json`` joins them.  Text nested
# ``depth`` levels deep is laid out as at the top level with every line
# after the first indented by ``depth`` more steps.  The formula entries, the bulk of a
# report, are laid out from memos that live for one report (``_Entries``):
# per mask, its encoded model, built once along the universe's walk of its
# masks in JSON model order (``FieldUniverse.json_walk``), each model from
# its parent's prefix; per table, its encoded model list at each depth, its
# models put in order by their rank in that walk; per scope and depth, the
# sorted member heads of ``cyc`` and ``reach``, each with the position of its
# entry in a value's flat list of tables, the keys sorted and encoded once
# per scope for both depths.  So no model is sorted or encoded name by name,
# a row needs no sort and no key encoding, and each distinct table is
# encoded once per report, not once per entry.  The query answers and
# ``universe`` are laid out with ``_array`` too, and ``metadata`` by hand:
# its numbers are ints and one float, which ``json.dumps`` writes as their
# ``repr``.  ``tests/test_render_json.py`` checks the bytes against
# ``json.dumps``.

_INDENT = "  "


def _indent(text: str, depth: int) -> str:
    """Encoded top-level ``text`` as it reads ``depth`` levels deep."""
    return text.replace("\n", "\n" + _INDENT * depth) if depth else text


def _array(items: list[str], depth: int) -> str:
    """A JSON array of encoded items, ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + _INDENT * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + _INDENT * depth + "]"


def _queries(queries: list[tuple[str, object]], depth: int) -> str:
    """The ``queries`` list, ``depth`` levels deep: an object per answer,
    its ``result`` a model list of sorted field names or a truth value (a
    scalar reads the same in every layout)."""
    pad = "\n" + _INDENT * (depth + 2)
    close = "\n" + _INDENT * (depth + 1) + "}"
    items = []
    for query, answer in queries:
        if isinstance(answer, list):
            models = [_array(list(map(encode_basestring_ascii, m)), depth + 3) for m in answer]
            text = _array(models, depth + 2)
        else:
            text = "true" if answer else "false"
        head = "{" + pad + '"query": ' + encode_basestring_ascii(query) + ","
        items.append(head + pad + '"result": ' + text + close)
    return _array(items, depth)


def _member_keys(scope: Scope) -> tuple[list, list]:
    """The member keys of ``cyc`` and ``reach`` over ``scope``, in name
    order, each encoded with its ``": "`` and paired with the position of
    its entry in a value's tables."""
    names, n = scope.names, scope.n
    cyc = sorted((v, scope.nn + i) for i, v in enumerate(names))
    reach = sorted(
        (f"({v},{w})", i * n + j) for i, v in enumerate(names) for j, w in enumerate(names)
    )
    return tuple(
        [(encode_basestring_ascii(key) + ": ", at) for key, at in named] for named in (cyc, reach)
    )


class _Entries:
    """The formula entries of one report, laid out from its memos."""

    def __init__(self, universe: FieldUniverse) -> None:
        self.universe = universe
        self._texts: defaultdict[int, dict[int, str]] = defaultdict(dict)  # depth: table: list
        self._texts[0][0] = "[]"  # so a report of empty tables builds no models
        self._heads: dict[tuple[Scope, int], tuple] = {}  # (scope, depth)
        self._keys: dict[Scope, tuple[list, list]] = {}  # scope: ``_member_keys``

    def write(
        self, out: list[str], value: RcValue, depth: int, line: str = "", visit: str = ""
    ) -> None:
        """Append ``value.to_json()`` as an object ``depth`` levels deep;
        ``line`` and ``visit`` are encoded members, each with its leading
        separator, that follow ``cyc`` and ``reach``."""
        entry = depth + 2
        cyc, reach, close = self._layout(value.scope, entry)
        pad = "\n" + _INDENT * (depth + 1)
        out.append("{" + pad + '"cyc": ')
        self._tables(out, cyc, close, entry, value.tables)
        out.append(line + "," + pad + '"reach": ')
        self._tables(out, reach, close, entry, value.tables)
        out.append(visit + "\n" + _INDENT * depth + "}")

    def _tables(
        self, out: list[str], members: list, close: str, entry: int, tables: list[int]
    ) -> None:
        """Append the object of the entries of ``tables`` laid out by
        ``members``, each a member head and the position of its entry."""
        texts = self._texts[entry]
        for head, at in members:
            table = tables[at]
            text = texts.get(table)
            if text is None:
                text = texts[table] = _indent(self._text(table), entry)
            out.append(head)
            out.append(text)
        out.append(close)

    def _layout(self, scope: Scope, entry: int) -> tuple:
        """The members of ``cyc`` and ``reach`` over ``scope``, entries
        ``entry`` levels deep, and the text that closes both.  A member is
        its head and the position of its entry in a value's tables, and the
        members come in name order, a permutation of the positions."""
        layout = self._heads.get((scope, entry))
        if layout is None:
            keys = self._keys.get(scope)
            if keys is None:
                keys = self._keys[scope] = _member_keys(scope)
            pad = "\n" + _INDENT * entry
            cyc, reach = (
                [(("," if i else "{") + pad + key, at) for i, (key, at) in enumerate(members)]
                for members in keys
            )
            close = "\n" + _INDENT * (entry - 1) + "}" if scope.n else "{}"
            layout = self._heads[scope, entry] = (cyc, reach, close)
        return layout

    @cached_property
    def _models(self) -> list[str]:
        """Per mask, its model one level deep, built along the universe's
        ``json_walk``: a model's text extends its parent's open prefix by
        one encoded name."""
        pad = "\n" + _INDENT * 2
        names = {f: pad + encode_basestring_ascii(f) for f in self.universe.fields}
        close = "\n" + _INDENT + "]"
        models = ["[]"] * (1 << self.universe.size)
        prefixes = [""] * len(models)
        for mask, parent, name in self.universe.json_walk:
            prefix = prefixes[mask] = (prefixes[parent] + "," if parent else "[") + names[name]
            models[mask] = prefix + close
        return models

    def _text(self, table: int) -> str:
        """The model list of ``table`` at depth 0, its models in JSON model
        order (``FieldUniverse.json_order``)."""
        text = self._texts[0].get(table)
        if text is None:
            models = self._models
            order = self.universe.json_order(table)
            text = self._texts[0][table] = _array([models[m] for m in order], 0)
        return text


def _metadata(result: AnalysisResult) -> str:
    """The ``metadata`` object one level deep: its keys and the loop keys
    sorted as strings, each number its ``repr``."""
    loops = sorted((str(nid), passes) for nid, passes in result.loop_passes.items())
    members = [f'"{nid}": {passes!r}' for nid, passes in loops]
    pad = "\n" + _INDENT * 3
    text = "{" + pad + ("," + pad).join(members) + "\n" + _INDENT * 2 + "}" if members else "{}"
    return (
        '{\n    "elapsed_ms": ' + repr(round(result.elapsed * 1000.0, 3))
        + ',\n    "iterations": ' + repr(result.rounds)
        + ',\n    "loop_iterations": ' + text
        + ',\n    "widenings": ' + repr(result.widenings)
        + "\n  }"
    )


def result_to_json(
    result: AnalysisResult,
    queries: Optional[list[tuple[str, object]]] = None,
) -> str:
    """The JSON report: byte for byte ``json.dumps(doc, sort_keys=True,
    indent=2) + "\\n"`` of the document whose ``final`` and point entries are
    ``RcValue.to_json()``."""
    return "".join(json_parts(result, queries))


def json_parts(
    result: AnalysisResult,
    queries: Optional[list[tuple[str, object]]] = None,
) -> list[str]:
    """The JSON report in pieces, in order; an entry text that repeats is
    one string many times over."""
    entries = _Entries(result.universe)
    entry = result.entry if isinstance(result.entry, str) else ".".join(result.entry)
    out = ['{\n  "entry": ' + encode_basestring_ascii(entry) + ',\n  "final": ']
    entries.write(out, result.final, 1)
    out.append(',\n  "metadata": ' + _metadata(result))
    out.append(',\n  "points": ')
    points = sorted(((f"{row.line}#{row.visit}", row) for row in result.trace), key=itemgetter(0))
    sep = "{"
    pad = ",\n" + _INDENT * 3
    for key, row in points:
        out.append(sep + "\n" + _INDENT * 2 + '"' + key + '": ')
        entries.write(out, row.value, 2, f'{pad}"line": {row.line}', f'{pad}"visit": {row.visit}')
        sep = ","
    out.append("\n  }" if points else "{}")
    universe = _array(list(map(encode_basestring_ascii, result.universe.fields)), 1)
    out.append(',\n  "queries": ' + _queries(queries or [], 1) + ',\n  "universe": ' + universe)
    out.append("\n}\n")
    return out
