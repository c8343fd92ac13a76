"""The fieldreach benchmark: one workload, one closed-loop client.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The client runs in this process, with no extra threads, and starts each job
only after the previous one has finished.  It makes whole passes over the
seeded jobs of the workload until ``--seconds`` have passed and at least
``MIN_PASSES`` passes are done, checks every output, prints a report, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
A failed job (an exception, a soundness violation or missing point, a
wrong known answer, or a report that differs from the first pass) is
counted and reported; it never stops the run.

On a shared host the speed of a vCPU moves in phases of seconds to tens of
seconds, by up to 70 % on a 2-vCPU 2.1 GHz Xeon guest, and a whole run can
fall in a slow phase.  So every time the run reports is scaled to one
speed: a fixed pure-Python kernel that does not touch the package is timed
before each job and after the last, and a job's time is multiplied by
``REFERENCE_MS`` over the mean of the kernel times around it.  The scaled
times read as milliseconds on a host where the kernel takes
``REFERENCE_MS``, which that Xeon guest does in its fast phase; the report
also prints the kernel's median time, so the unscaled figure is one
multiplication away.  The timings are then taken over the programs of the
workload, each at its median pass.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs each job
twice, once plain and once with the layer wrappers of ``tracing.py``
installed, and reports the per-layer metrics and the tracing overhead; the
spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 9
TAIL_BEYOND = 10
# each program is timed at least this often, even when a pass outlasts the run
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="import and build the workload, print the clock, exit (used by the set-up timing)",
    )
    return ap.parse_args(argv)


def load_package():
    """Import the package from this checkout's ``src``; the benchmark never
    falls back to an installed copy."""
    src = ROOT / "src"
    if not (src / "fieldreach" / "__init__.py").is_file():
        raise SystemExit(f"error: no fieldreach package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH))
    import jobs
    import workloads

    return jobs, workloads


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile, p50 or above, with at least ten samples
    beyond it (nearest rank), and that percentile; the median when no
    percentile has ten beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p
    return ordered[math.ceil(n / 2) - 1], 50


def per_program(times: dict[str, list[float]]) -> list[float]:
    """Each program's median time over its passes."""
    return [statistics.median(t) for t in times.values()]


# ---------------------------------------------------------------------------
# host speed

REFERENCE_MS = 6.0


def reference_kernel() -> int:
    """Fixed work of the kind the analysis does (small frozensets, dict
    updates, tuples, a sort) that uses nothing of the package, so no change
    to the package moves its time."""
    counts: dict = {}
    rows = []
    for i in range(6000):
        key = frozenset((i & 63, (i >> 3) & 63, i % 7))
        counts[key] = counts.get(key, 0) + 1
        rows.append((i % 13, str(i)))
    rows.sort()
    return len(counts) + len(rows)


def kernel_seconds() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """The factor that brings a time measured between two kernel timings to
    the reference speed."""
    return REFERENCE_MS / 1e3 / ((before + after) / 2)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start until the first job is ready, in fresh interpreters:
    the import plus building the seeded sources."""
    times = []
    for _ in range(SETUP_PROBES):
        before = kernel_seconds()
        started = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        # perf_counter is the system-wide monotonic clock, so the child's
        # reading compares with ours
        ready = float(probe.stdout.split()[-1]) - started
        times.append(ready * scale(before, kernel_seconds()))
    return times


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Whole passes over the jobs until the time is up and at least
    ``min_passes`` are done.  Stopping only at a pass boundary times every
    program equally often, spread over the whole run."""

    def __init__(self, jobs_list, seconds: float, min_passes: int = 1):
        self.jobs = jobs_list
        self.deadline = time.perf_counter() + seconds
        self.min_passes = min_passes

    def __iter__(self):
        passes = 0
        while True:
            for index, job in enumerate(self.jobs):
                # each CLI run starts on a fresh heap; so does each job here,
                # and the garbage of the last job is not collected on its time
                gc.collect()
                yield passes, index, job
            passes += 1
            if passes >= self.min_passes and time.perf_counter() >= self.deadline:
                return


def check_pass(outcome, first_pass: dict, failures: list) -> None:
    """Record the first pass's reports; a later pass must repeat them."""
    name = outcome.job.name
    if name not in first_pass:
        first_pass[name] = outcome
    elif not outcome.errors and outcome.report_sha != first_pass[name].report_sha:
        outcome.errors.append("report differs from the first pass")
    if outcome.errors:
        failures.append(outcome)


def summary(jobs_mod, first_pass: dict) -> tuple[str, int]:
    outcomes = list(first_pass.values())
    return jobs_mod.digest(outcomes), sum(o.models for o in outcomes)


def run_plain(jobs_mod, jobs_list, seconds: float, min_passes: int):
    """The untraced closed loop, with the verdict and checked seconds of
    every job that passed its checks, by program, at the reference speed,
    and the kernel's times."""
    verdict, checked = defaultdict(list), defaultdict(list)
    failures, first_pass, kernel = [], {}, []
    attempted = 0
    passed = None  # the last job, while it waits for the kernel after it
    started = time.perf_counter()

    def record(after: float) -> None:
        if passed is not None:
            factor = scale(kernel[-2], after)
            verdict[passed.job.name].append(passed.verdict_s * factor)
            checked[passed.job.name].append(passed.checked_s * factor)

    for _, _, job in Loop(jobs_list, seconds, min_passes):
        kernel.append(kernel_seconds())
        record(kernel[-1])
        outcome = jobs_mod.run_job(job)
        attempted += 1
        check_pass(outcome, first_pass, failures)
        passed = None if outcome.errors else outcome
    kernel.append(kernel_seconds())
    record(kernel[-1])
    elapsed = time.perf_counter() - started
    return attempted, failures, first_pass, verdict, checked, kernel, elapsed


# ---------------------------------------------------------------------------
# the traced run


def _state_key(state) -> tuple:
    def val(v):
        return ("@", v.addr) if hasattr(v, "addr") else v

    return (
        tuple(sorted((k, val(v)) for k, v in state.frame.items())),
        tuple(
            (a, o.classname, tuple(sorted((f, val(v)) for f, v in o.fields.items())))
            for a, o in sorted(state.heap.items())
        ),
    )


def result_counts(outcome, counts: dict) -> None:
    """Counters read from the analysis and oracle results."""
    result, oracle = outcome.result, outcome.oracle
    counts["semantics.rounds"] += result.rounds
    counts["semantics.contexts"] += sum(len(d) for d in result.denotations.values())
    counts["semantics.entries"] += 1
    counts["semantics.widenings"] += result.widenings
    counts["semantics.loop_passes"] += sum(result.loop_passes.values())
    if oracle is not None:
        counts["oracle.steps"] += oracle.steps
        states = [s for point in oracle.point_states.values() for s in point]
        counts["oracle.states"] += len(states)
        counts["oracle.unique_states"] += len({_state_key(s) for s in states})


def run_traced(jobs_mod, tracing, jobs_list, seconds: float, trace_path: Path):
    tracer = tracing.Tracer()
    counts: dict = defaultdict(int)
    plain_s = traced_s = 0.0
    attempted, failures, first_pass = 0, [], {}
    for pass_no, index, job in Loop(jobs_list, seconds):
        plain = jobs_mod.run_job(job)
        tracer.install()
        tracer.start_job(f"{pass_no}:{index}:{job.name}")
        traced = jobs_mod.run_job(job, keep=True)
        tracer.end_job()
        tracer.uninstall()
        attempted += 2
        for outcome in (plain, traced):
            check_pass(outcome, first_pass, failures)
        if traced.errors or plain.errors:
            continue
        plain_s += plain.checked_s
        traced_s += traced.checked_s
        result_counts(traced, counts)
    tracer.write_spans(trace_path)
    layers = tracer.totals(counts, plain_s, traced_s) if traced_s else ({}, [])
    return attempted, failures, first_pass, layers, tracer.missing


# ---------------------------------------------------------------------------
# reporting


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def plain_metrics(args, workloads_mod, jobs_mod):
    jobs_list = workloads_mod.build_jobs(args.workload, args.seed)
    setup = setup_seconds(args.workload, args.seed)
    attempted, failures, first_pass, verdict_by_job, checked_by_job, kernel, elapsed = (
        run_plain(jobs_mod, jobs_list, args.seconds, MIN_PASSES)
    )
    digest, models = summary(jobs_mod, first_pass)
    metrics, notes = {}, []
    metrics["setup_s"] = metric(statistics.median(setup), "s")
    if checked_by_job:
        verdict, checked = per_program(verdict_by_job), per_program(checked_by_job)
        v_tail, v_p = tail(verdict)
        c_tail, c_p = tail(checked)
        metrics["verdict_p50_ms"] = metric(statistics.median(verdict) * 1e3, "ms")
        metrics["verdict_tail_ms"] = metric(v_tail * 1e3, "ms")
        metrics["checked_p50_ms"] = metric(statistics.median(checked) * 1e3, "ms")
        metrics["checked_tail_ms"] = metric(c_tail * 1e3, "ms")
        # one pass at each program's median; the client's own checking is
        # not the system's work
        metrics["programs_per_s"] = metric(len(checked) / sum(checked), "1/s")
        runs = min(len(t) for t in checked_by_job.values())
        notes.append(
            f"timings are over {len(checked)} programs, each the median of at "
            f"least {runs} passes, scaled to a {REFERENCE_MS} ms kernel"
        )
        notes.append(
            f"kernel median {statistics.median(kernel) * 1e3:.3f} ms over "
            f"{len(kernel)} timings (unscaled = scaled x kernel / {REFERENCE_MS})"
        )
        notes.append(f"verdict_tail_ms is p{v_p} of {len(verdict)} programs")
        notes.append(f"checked_tail_ms is p{c_p} of {len(checked)} programs")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    metrics["abstract_models"] = metric(models, "count")
    notes.append(f"failed_ratio = {len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    notes.append(f"setup_s probes: {', '.join(f'{s:.4f}' for s in setup)}")
    notes.append(f"{len(jobs_list)} distinct programs, {attempted} jobs in {elapsed:.2f} s")
    return attempted, failures, digest, metrics, notes


def traced_metrics(args, workloads_mod, jobs_mod):
    import tracing

    jobs_list = workloads_mod.build_jobs(args.workload, args.seed)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    attempted, failures, first_pass, (metrics, notes), missing = run_traced(
        jobs_mod, tracing, jobs_list, args.seconds, trace_path
    )
    digest, _ = summary(jobs_mod, first_pass)
    notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    if missing:
        notes.append("not traced (missing in the package): " + ", ".join(missing))
    return attempted, failures, digest, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs_mod, workloads_mod = load_package()
    if args.workload not in workloads_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads_mod.build_jobs(args.workload, args.seed)
        print(time.perf_counter())
        return 0
    run = traced_metrics if args.trace else plain_metrics
    attempted, failures, digest, metrics, notes = run(args, workloads_mod, jobs_mod)
    references = json.loads((BENCH / "digests.json").read_text())
    reference = references.get(f"{args.workload}:{args.seed}", references.get(args.workload))
    match = "no reference" if reference is None else (
        "matches reference" if reference == digest else "DIFFERS from reference"
    )
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"output digest {digest} ({match})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    for outcome in failures[:10]:
        print(f"  FAILED {outcome.job.name}: {outcome.errors[0]}")
    print(
        json.dumps(
            {
                "correct": not failures and bool(metrics),
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
