"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import jobs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fieldreach import build_class_table, parse_program, run_concrete, type_check  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_sources(workload):
    first = workloads.build_jobs(workload, 7)
    assert first == workloads.build_jobs(workload, 7)
    assert len({job.name for job in first}) == len(first)


@pytest.mark.parametrize("workload", ["deep-heap", "wide-fields"])
def test_other_seed_other_sources(workload):
    sources = {job.source for job in workloads.build_jobs(workload, 1)}
    assert sources != {job.source for job in workloads.build_jobs(workload, 2)}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["deep-heap", "wide-fields"])
def test_generated_programs_type_check_and_run(workload, seed):
    for job in workloads.build_jobs(workload, seed):
        program = parse_program(job.source)
        ct = build_class_table(program)
        type_check(program, ct)
        # no null dereference, and within the default step budget
        run_concrete(program, ct, record=False)


@pytest.mark.parametrize("workload", ["deep-heap", "wide-fields"])
def test_seed_changes_names_not_sizes(workload):
    """The fastest-pass timings depend on the sizes, which every seed
    shares; the seed varies only names and order."""

    def shape(job):
        return job.name, len(job.source.splitlines()), len(job.all_queries)

    assert sorted(map(shape, workloads.build_jobs(workload, 1))) == sorted(
        map(shape, workloads.build_jobs(workload, 2))
    )


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90)
    assert run.tail(samples[:45]) == (35.0, 77)
    assert run.tail(samples[:12]) == (6.0, 50)


def test_per_program_takes_each_programs_median():
    assert run.per_program({"a": [3.0, 1.0, 2.0], "b": [5.0]}) == [2.0, 5.0]


def test_times_scale_to_the_reference_kernel():
    reference = run.REFERENCE_MS / 1e3
    assert run.scale(reference, reference) == pytest.approx(1.0)
    # a host half as fast doubles the kernel's time and halves the factor
    assert run.scale(2 * reference, 2 * reference) == pytest.approx(0.5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_has_no_failures(workload):
    """failed_ratio is 0: no exception, violation, missing point or wrong
    known answer on any job."""
    job_list = workloads.build_jobs(workload, 1)
    attempted, failures, first_pass, verdict, checked, kernel, _ = run.run_plain(
        jobs, job_list, 0, 1
    )
    assert attempted == len(job_list)
    assert [o.errors for o in failures] == []
    assert set(verdict) == set(checked) == {job.name for job in job_list}
    assert all(checked[name][0] >= verdict[name][0] > 0 for name in verdict)
    # the kernel is timed before each job and after the last
    assert len(kernel) == attempted + 1


def test_failures_are_caught_and_counted():
    bad = [
        workloads.Job("syntax", "main { x := ; }"),
        workloads.Job("null", "class C { C f; }\nmain { C x; x := null; x.f := x; }"),
        workloads.Job(
            "wrong-answer",
            workloads.DLL_TEMPLATE.format(trips=3, next="n", prev="p"),
            answers=(("cyc x {n}", True),),
        ),
    ]
    attempted, failures, *_ = run.run_plain(jobs, bad, 0, 1)
    assert attempted == 3
    assert [o.job.name for o in failures] == ["syntax", "null", "wrong-answer"]


def test_traced_smoke_reports_every_layer_metric():
    import tracing

    job_list = sorted(workloads.build_jobs("corpus", 1), key=lambda j: j.name)[:4]
    attempted, failures, _, (metrics, _), missing = run.run_traced(
        jobs, tracing, job_list, 0, BENCH / "out" / "test-trace.jsonl"
    )
    assert attempted == 2 * len(job_list)
    assert failures == [] and not missing
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    # the wrappers are gone again
    assert jobs.parse_program is parse_program


def test_smoke_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "corpus",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_interactions_name_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    table = json.loads((BENCH / "interactions.json").read_text())
    for row in table["predictions"]:
        assert set(row["layer_metrics"]) <= names
        assert set(row["moves"]) <= names
        assert set(row["workloads"]) <= set(workloads.WORKLOADS)
