"""One benchmark job: the CLI's path through the package, timed and checked.

``run_job`` calls the package's public functions in the order ``fieldreach
--format json --oracle-check --query ...`` calls them: parse, class table,
type check, entry annotations, analysis, queries, JSON report; then, for a
``main`` entry, the concrete run and the soundness check.  The verdict time
ends with the JSON report; the checked time ends with the soundness check.
A method entry has no concrete run, since the oracle executes ``main``, so
its checked time equals its verdict time.
"""

from __future__ import annotations

import hashlib
import re
import time
import traceback
from dataclasses import dataclass, field

from fieldreach import (
    FieldUniverse,
    analyze_program,
    build_class_table,
    check_soundness,
    parse_program,
    run_concrete,
    type_check,
)
from fieldreach.cli import parse_init_annotations, parse_query
from fieldreach.render import result_to_json
from fieldreach.semantics import find_entry_sig
from fieldreach.syntax import RESULT_VAR

from workloads import Job

_ELAPSED = re.compile(r'\n *"elapsed_ms": [^\n]*')


@dataclass
class Outcome:
    job: Job
    verdict_s: float = 0.0
    checked_s: float = 0.0
    report_sha: str = ""  # SHA-256 of the JSON report without elapsed_ms
    models: int = 0
    errors: list[str] = field(default_factory=list)
    result: object = None  # AnalysisResult, kept on request
    oracle: object = None  # OracleResult, kept on request


def _entry_scope(program, ct, typeinfo, entry: str):
    """The entry key and variable scope, resolved as the CLI resolves them."""
    if entry == "main":
        env = typeinfo.env_for("main")
        variables = tuple(env.variables) + (RESULT_VAR,)
        return "main", variables, frozenset(env.ref_vars) | {RESULT_VAR}
    sig = find_entry_sig(ct, entry)
    env = typeinfo.env_for(sig.key)
    refs = frozenset(v for v in sig.input_vars if env.type_of(v) != "int")
    return sig, sig.input_vars, refs


def _ask(result, query: str):
    q = parse_query(query)
    if q[0] == "cyc":
        return result.query_cycle(q[1], q[2])
    return result.query_reach(q[1], q[2])


def count_models(result) -> int:
    """Models across the ``final`` and ``points`` entries of the report."""
    values = [result.final] + [row.value for row in result.trace]
    return sum(
        len(models)
        for value in values
        for part in value.to_json().values()
        for models in part.values()
    )


def run_job(job: Job, keep: bool = False) -> Outcome:
    out = Outcome(job)
    started = time.perf_counter()
    try:
        program = parse_program(job.source)
        ct = build_class_table(program)
        typeinfo = type_check(program, ct)
        entry, variables, refs = _entry_scope(program, ct, typeinfo, job.entry)
        universe = FieldUniverse.of(ct.reference_fields)
        init_rc, init_sp = parse_init_annotations(program, universe, variables, refs)
        result = analyze_program(
            program, ct, typeinfo, entry=entry, init_rc=init_rc, init_sp=init_sp
        )
        answers = [(q, _ask(result, q)) for q in job.all_queries]
        report = result_to_json(result, answers)
        out.verdict_s = time.perf_counter() - started
        oracle = soundness = None
        if job.entry == "main":
            oracle = run_concrete(program, ct)
            soundness = check_soundness(result, oracle)
        out.checked_s = time.perf_counter() - started
        out.report_sha = hashlib.sha256(_ELAPSED.sub("", report).encode()).hexdigest()
        del report  # counting builds the entries again; keep the peak down
        out.models = count_models(result)
    except Exception as exc:  # a failed job is counted; it never aborts the run
        out.errors.append(f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=-3)}")
        return out
    if soundness is not None:
        out.errors += [f"violation: {v}" for v in soundness.violations]
        out.errors += [f"missing point {nid}" for nid in soundness.missing_points]
    got = dict(answers)
    for query, expected in job.answers:
        if got[query] != expected:
            out.errors.append(f"{query} -> {got[query]}, expected {expected}")
    if keep:
        out.result, out.oracle = result, oracle
    return out


def digest(outcomes: list[Outcome]) -> str:
    """SHA-256 over the timing-free reports of one pass, in job-name order."""
    h = hashlib.sha256()
    for o in sorted(outcomes, key=lambda o: o.job.name):
        h.update(f"{o.job.name}\0{o.report_sha}\0".encode())
    return h.hexdigest()
