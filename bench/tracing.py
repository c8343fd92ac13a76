"""Layer tracing from outside the package.

``Tracer.install`` replaces the package's layer entry points with timing
wrappers (module functions, and methods on their classes) and ``uninstall``
puts the originals back; nothing under ``src/`` changes.  A wrapper pushes a
frame on entry and, on exit, adds its duration to its layer's inclusive
time, the duration minus its children's to the layer's self time, and the
duration to its parent's child time.  So self time is exact for nested and
recursive calls.

Coarse layers also keep a span (id, name, start, end, parent id, job id) in
memory; ``write_spans`` writes them out when the run ends.  The hot formula,
domain and viability operators are aggregated only, since a span per call
would cost more memory than the run is worth.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import fieldreach.domain
import fieldreach.formula
import fieldreach.oracle
import fieldreach.semantics
import fieldreach.sharing
import jobs

# (owner, attribute, layer, keep a span per call)
TARGETS = (
    (jobs, "parse_program", "parser", True),
    (jobs, "build_class_table", "classtable", True),
    (jobs, "type_check", "typecheck", True),
    (jobs, "parse_init_annotations", "cli.init", True),
    (jobs, "analyze_program", "semantics", True),
    (jobs, "result_to_json", "render.json", True),
    (jobs, "run_concrete", "oracle.run", True),
    (jobs, "check_soundness", "oracle.check", True),
    (fieldreach.semantics.Analyzer, "exec_body", "semantics", False),
    (fieldreach.semantics.AnalysisResult, "query_cycle", "query", True),
    (fieldreach.semantics.AnalysisResult, "query_reach", "query", True),
    (fieldreach.sharing.SharingAnalysis, "analyze_main", "sharing", True),
    (fieldreach.sharing.SharingAnalysis, "analyze_method_entry", "sharing", True),
    (fieldreach.sharing.SharingAnalysis, "_compute_summary", "sharing", False),
    (fieldreach.sharing.SharingAnalysis, "call_effect", "sharing", False),
    (fieldreach.domain.RcValue, "join", "domain", False),
    (fieldreach.domain.RcValue, "canonical", "domain", False),
    (fieldreach.domain.RcValue, "normalize", "domain", False),
    (fieldreach.domain.RcValue, "project", "domain", False),
    (fieldreach.domain.RcValue, "rename", "domain", False),
    (fieldreach.domain.RcValue, "remap", "domain", False),
    (fieldreach.domain.RcValue, "copy_var", "domain", False),
    (fieldreach.domain.RcValue, "key", "domain", False),
    (fieldreach.formula.PathFormula, "join", "formula.join", False),
    (fieldreach.formula.PathFormula, "concat", "formula.concat", False),
    (fieldreach.formula.PathFormula, "difference", "formula.difference", False),
    (fieldreach.formula.PathFormula, "leq", "formula.leq", False),
    (fieldreach.formula.PathFormula, "drop_nonviable", "formula.drop_nonviable", False),
    (fieldreach.formula.Viability, "is_viable_mask", "formula.viability", False),
    (fieldreach.oracle, "alpha_state", "oracle.check", False),
    (fieldreach.oracle, "traversal_saturate", "oracle.check", False),
    (fieldreach.oracle, "cycle_field_sets", "oracle.check", False),
)

# counted per call on top of the layer totals
COUNTED = {
    ("SharingAnalysis", "_compute_summary"): "sharing.summary_calls",
    ("RcValue", "join"): "domain.join_calls",
    ("RcValue", "canonical"): "domain.canonical_calls",
    ("oracle", "alpha_state"): "oracle.alpha_calls",
    ("oracle", "traversal_saturate"): "oracle.saturate_calls",
}

FORMULA_RESULTS = {"join", "concat", "difference", "drop_nonviable"}


def _owner_name(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_models = 0
        self.spans: list[tuple] = []
        self.job = None
        self.missing: set[str] = set()  # targets the package no longer has
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 1
        self._saved: list[tuple] = []
        self._viability_seen: dict[int, set[int]] = defaultdict(set)
        self._method_bodies: dict[int, frozenset[int]] = {}

    # -- installation

    def install(self) -> None:
        for owner, attr, layer, span in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.add(f"{_owner_name(owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, owner, attr, layer, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def start_job(self, job_id) -> None:
        self.job = job_id

    # -- the wrapper

    def _wrap(self, fn, owner, attr, layer, keep_span):
        counter = COUNTED.get((_owner_name(owner), attr))
        observe = self._observer(owner, attr)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self._next_id, clock(), 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.self_s[layer] += duration - frame[2]
                self.calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                if keep_span:
                    self.spans.append((frame[0], attr, layer, frame[1], end, parent, self.job))
            if counter is not None:
                self.counts[counter] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, owner, attr):
        """Per-call bookkeeping outside the timed interval."""
        if owner is fieldreach.formula.PathFormula and attr in FORMULA_RESULTS:

            def models(args, result):
                if result.models is not None and len(result.models) > self.max_models:
                    self.max_models = len(result.models)

            return models
        if owner is fieldreach.formula.Viability:

            def viability(args, result):
                self._viability_seen[id(args[0])].add(args[1])

            return viability
        if owner is fieldreach.semantics.Analyzer:
            return self._body_run
        return None

    def _body_run(self, args, result) -> None:
        analyzer, body = args[0], args[1]
        bodies = self._method_bodies.get(id(analyzer))
        if bodies is None:
            ids = [id(analyzer.ct.method_body(sig)) for sig in analyzer.ct.all_method_sigs()]
            if analyzer.program.main is not None:
                ids.append(id(analyzer.program.main.body))
            bodies = self._method_bodies[id(analyzer)] = frozenset(ids)
        if id(body) in bodies:
            self.counts["semantics.body_runs"] += 1

    def end_job(self) -> None:
        self.counts["formula.viability.distinct"] += sum(
            len(masks) for masks in self._viability_seen.values()
        )
        self._viability_seen.clear()
        self._method_bodies.clear()

    # -- output

    def totals(self, counts: dict, plain_s: float, traced_s: float) -> tuple[dict, list[str]]:
        """Per-layer metrics per program, and each layer's share of the
        checked time."""
        counts = {**counts, **self.counts}
        n = counts["semantics.entries"]

        def ms(layer):
            return {"value": self.self_s.get(layer, 0.0) * 1e3 / n, "unit": "ms"}

        def per_job(key):
            return {"value": counts.get(key, 0) / n, "unit": "count"}

        def ratio(num, den):
            return {"value": num / den if den else 0.0, "unit": "ratio"}

        out = {
            "parser.ms": ms("parser"),
            "classtable.ms": ms("classtable"),
            "typecheck.ms": ms("typecheck"),
            "render.json_ms": ms("render.json"),
            "sharing.ms": ms("sharing"),
            "sharing.summary_calls": per_job("sharing.summary_calls"),
            "semantics.self_ms": ms("semantics"),
        }
        for key in ("rounds", "contexts", "widenings", "loop_passes", "body_runs"):
            out[f"semantics.{key}"] = per_job(f"semantics.{key}")
        # the entry is a context of its own, so a call-free program reads 1
        out["semantics.runs_per_context"] = ratio(
            counts.get("semantics.body_runs", 0),
            counts.get("semantics.contexts", 0) + n,
        )
        out["domain.ms"] = ms("domain")
        out["domain.join_calls"] = per_job("domain.join_calls")
        out["domain.canonical_calls"] = per_job("domain.canonical_calls")
        for op in ("join", "concat", "difference", "leq", "drop_nonviable"):
            layer = f"formula.{op}"
            out[f"{layer}.calls"] = {"value": self.calls.get(layer, 0) / n, "unit": "count"}
            out[f"{layer}.ms"] = ms(layer)
        out["formula.max_models"] = {"value": self.max_models, "unit": "count"}
        calls = self.calls.get("formula.viability", 0)
        out["formula.viability.calls"] = {"value": calls / n, "unit": "count"}
        out["formula.viability.ms"] = ms("formula.viability")
        out["formula.viability.distinct_ratio"] = ratio(
            counts.get("formula.viability.distinct", 0), calls
        )
        out["oracle.run_ms"] = ms("oracle.run")
        out["oracle.steps"] = per_job("oracle.steps")
        out["oracle.states"] = per_job("oracle.states")
        out["oracle.check_ms"] = ms("oracle.check")
        out["oracle.alpha_calls"] = per_job("oracle.alpha_calls")
        out["oracle.saturate_calls"] = per_job("oracle.saturate_calls")
        out["oracle.unique_state_ratio"] = ratio(
            counts.get("oracle.unique_states", 0), counts.get("oracle.states", 0)
        )
        out["trace.overhead"] = ratio(traced_s - plain_s, plain_s)
        notes = [f"{n} traced jobs; self-time share of checked time:"]
        for layer, seconds in sorted(self.self_s.items(), key=lambda kv: -kv[1]):
            notes.append(f"  {layer:<24} {100 * seconds / traced_s:6.2f} %")
        notes.append(
            f"  {'(not wrapped)':<24} "
            f"{100 * (1 - sum(self.self_s.values()) / traced_s):6.2f} %"
        )
        return out, notes

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, attr, layer, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": attr,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )
