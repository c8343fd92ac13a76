"""Report rendering: per-line text tables in x-notation and JSON output."""

from __future__ import annotations

import json
from typing import Optional

from .classtable import ClassTable
from .compare import alpha_class_pairs, alpha_monotone, alpha_nofields, alpha_q, alpha_scapin
from .domain import RcValue
from .semantics import AnalysisResult
from .syntax import walk_commands
from .typecheck import TypeInfo


def _display_pairs(value: RcValue, display_vars: tuple[str, ...]) -> list[tuple[str, str]]:
    shown = [v for v in sorted(display_vars) if v in value.cyc]
    return [(v, w) for v in shown for w in shown]


def render_table(result: AnalysisResult) -> str:
    """One row per recorded visit of a source line: reachability columns for
    the displayed variable pairs in lexicographic order, then cyclicity."""
    if not result.trace:
        return "(no trace)\n"
    sample = result.trace[0].value
    pairs = _display_pairs(sample, result.display_vars)
    shown = [v for v in sorted(result.display_vars) if v in sample.cyc]
    header = (
        ["line", "visit"]
        + [f"({v},{w})" for v, w in pairs]
        + [f"cyc({v})" for v in shown]
    )
    rows = [header]
    for row in result.trace:
        cells = [str(row.line), str(row.visit)]
        cells += [row.value.reach_at(v, w).drop_nonviable(result.via).render() for v, w in pairs]
        cells += [row.value.cyc_at(v).drop_nonviable(result.via).render() for v in shown]
        rows.append(cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_final(result: AnalysisResult) -> str:
    value = result.final
    pairs = _display_pairs(value, result.display_vars)
    shown = [v for v in sorted(result.display_vars) if v in value.cyc]
    lines = ["final abstract value:"]
    for v, w in pairs:
        lines.append(f"  reach({v},{w}) = {value.reach_at(v, w).render()}")
    for v in shown:
        lines.append(f"  cyc({v}) = {value.cyc_at(v).render()}")
    return "\n".join(lines) + "\n"


def render_compare(result: AnalysisResult, ct: ClassTable, typeinfo: TypeInfo) -> str:
    env = typeinfo.env_for(result.entry if result.entry == "main" else tuple(result.entry))
    var_types = {
        v: env.type_of(v)
        for v in result.final.cyc
        if env.type_of(v) is not None and env.type_of(v) != "int"
    }
    reach = {
        k: f for k, f in result.final.reach.items() if k[0] in var_types and k[1] in var_types
    }
    cyc = {v: f for v, f in result.final.cyc.items() if v in var_types}
    lines = ["coarser abstractions of the final value:"]
    nf = alpha_nofields(reach, ct, var_types)
    lines.append(
        "  plain reachability: "
        + (", ".join(f"{a}~>{b}" for a, b in sorted(nf.statements)) or "(none)")
    )
    cp = alpha_class_pairs(nf, ct, var_types)
    lines.append(
        "  class pairs: " + (", ".join(f"({a},{b})" for a, b in sorted(cp.pairs)) or "(none)")
    )
    mono = alpha_monotone(reach)
    for k, f in mono.entries:
        lines.append(f"  monotone reach({k[0]},{k[1]}) = {f.render()}")
    sc = alpha_scapin(reach)
    for k, banned in sc.excluded:
        lines.append(
            f"  excluded fields ({k[0]},{k[1]}) = "
            + ("{" + ",".join(sorted(banned)) + "}")
        )
    q = alpha_q(cyc)
    dom = q.domain()
    for v in sorted(cyc):
        if v in dom:
            lines.append(
                f"  cycle requirements for {v} = {{" + ",".join(sorted(q.at(v))) + "}"
            )
        else:
            lines.append(f"  {v} is provably acyclic")
    return "\n".join(lines) + "\n"


def render_sharing(program, analysis) -> str:
    """Per-line deep-sharing pairs of main in annotation style: ``DS(a,b), ...``."""
    post = analysis.point_post["main"]
    lines = []
    for cmd in walk_commands(program.main.body):
        state = post.get(cmd.nid)
        if state is None:
            continue
        pairs = ", ".join(f"DS({a},{b})" for a, b in sorted(state.ds)) or "(none)"
        lines.append(f"line {cmd.line}: {pairs}")
    return "\n".join(lines) + "\n"


def result_to_json(
    result: AnalysisResult,
    queries: Optional[list[tuple[str, object]]] = None,
) -> str:
    points = {}
    for row in result.trace:
        points[f"{row.line}#{row.visit}"] = {
            "line": row.line,
            "visit": row.visit,
            **row.value.to_json(),
        }
    doc = {
        "entry": result.entry if isinstance(result.entry, str) else ".".join(result.entry),
        "universe": list(result.universe.fields),
        "final": result.final.to_json(),
        "points": points,
        "queries": [{"query": q, "result": r} for q, r in (queries or [])],
        "metadata": {
            "iterations": result.rounds,
            "loop_iterations": {str(k): v for k, v in sorted(result.loop_passes.items())},
            "widenings": result.widenings,
            "elapsed_ms": round(result.elapsed * 1000.0, 3),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
