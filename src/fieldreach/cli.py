"""Command-line driver.

Exit codes: 0 on success, 1 on analysis errors (parse/type/analysis
failures, or soundness violations under --oracle-check), 2 on usage errors
(bad flags, unreadable input, malformed queries).
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, TextIO

from .classtable import build_class_table
from .oracle import (
    BudgetExceeded,
    NullDereference,
    SoundnessReport,
    check_soundness,
    run_concrete,
)
from .parser import parse_program
from .render import json_parts, render_compare, render_final, render_sharing, render_table
from .semantics import AnalysisError, analyze_program
from .semantics import parse_init_annotations  # noqa: F401  (importable from here too)
from .syntax import SourceError
from .typecheck import type_check

USAGE_ERROR = 2
ANALYSIS_ERROR = 1

_QUERY_RE = re.compile(
    r"^\s*(?:(cyc)\s+(\w+)\s*\{\s*([\w,\s]*)\}|(reach)\s+(\w+)\s+(\w+))\s*$"
)


class UsageError(Exception):
    pass


def parse_query(text: str):
    m = _QUERY_RE.match(text)
    if not m:
        raise UsageError(
            f'malformed query {text!r}; use "cyc v {{f1,f2}}" or "reach v w"'
        )
    if m.group(1) == "cyc":
        fields = tuple(f.strip() for f in m.group(3).split(",") if f.strip())
        return ("cyc", m.group(2), fields)
    return ("reach", m.group(5), m.group(6))


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fieldreach",
        description="Field-sensitive reachability and cyclicity analyzer",
    )
    ap.add_argument("input", help="source file (.lang)")
    ap.add_argument("--entry", default="main", help="entry: 'main' or a method name")
    ap.add_argument(
        "--track-fields",
        default="all",
        help="comma-separated fields to track explicitly, or 'all'",
    )
    ap.add_argument("--widening", type=int, default=16, metavar="K",
                    help="changes per entry before widening to true (default 16)")
    ap.add_argument("--format", choices=["text", "json"], default="text")
    ap.add_argument("--dump-lines", action="store_true",
                    help="print the per-line table of abstract values")
    ap.add_argument("--dump-sharing", action="store_true",
                    help="print per-line deep-sharing pairs (main entry)")
    ap.add_argument("--compare-domains", action="store_true",
                    help="print coarser-domain views of the final value")
    ap.add_argument("--oracle-check", action="store_true",
                    help="run the concrete interpreter and check soundness (main entry only)")
    ap.add_argument("--heap-budget", type=int, default=100_000,
                    help="concrete interpreter budget of steps and of recorded cells")
    ap.add_argument("--query", action="append", default=[], metavar="Q",
                    help='"cyc v {f1,f2}" or "reach v w"; repeatable')
    return ap


def _print_oracle_report(report: SoundnessReport, out: TextIO) -> None:
    if report.ok:
        print(
            f"oracle check: ok ({report.points_checked} points, "
            f"{report.states_checked} states)",
            file=out,
        )
        return
    print(
        f"oracle check: {len(report.violations)} violation(s), "
        f"{len(report.missing_points)} unchecked point(s)",
        file=out,
    )
    for v in report.violations:
        print(f"  {v}", file=out)


def run(argv: Optional[list[str]] = None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for flag, given in (("--widening", args.widening), ("--heap-budget", args.heap_budget)):
        if given < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return USAGE_ERROR
    try:
        queries = [parse_query(q) for q in args.query]
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.entry != "main" and (args.dump_sharing or args.oracle_check):
        flag = "--dump-sharing" if args.dump_sharing else "--oracle-check"
        print(f"error: {flag} needs the main entry", file=sys.stderr)
        return USAGE_ERROR
    if args.format == "json":
        for flag, given in (
            ("--dump-lines", args.dump_lines),
            ("--dump-sharing", args.dump_sharing),
            ("--compare-domains", args.compare_domains),
        ):
            if given:
                print(f"error: {flag} needs --format text", file=sys.stderr)
                return USAGE_ERROR

    try:
        program = parse_program(source)
        ct = build_class_table(program)
        typeinfo = type_check(program, ct)
        tracked = None
        if args.track_fields != "all":
            tracked = [f.strip() for f in args.track_fields.split(",") if f.strip()]
        result = analyze_program(
            program, ct, typeinfo, tracked=tracked, entry=args.entry, widening_k=args.widening
        )
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ANALYSIS_ERROR

    exit_code = 0
    query_results: list[tuple[str, object]] = []
    try:
        for q, raw in zip(queries, args.query):
            if q[0] == "cyc":
                query_results.append((raw, result.query_cycle(q[1], q[2])))
            else:
                query_results.append((raw, result.query_reach(q[1], q[2])))
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ANALYSIS_ERROR

    oracle_report = None
    if args.oracle_check:
        budget_hint = " (--heap-budget bounds the steps and the recorded cells)"
        try:
            oracle_report = check_soundness(
                result, run_concrete(program, ct, budget=args.heap_budget)
            )
        except NullDereference as exc:
            print(f"error: concrete execution failed: {exc}", file=sys.stderr)
            return ANALYSIS_ERROR
        except BudgetExceeded as exc:
            # the call depth and the stack are fixed, so only a step or cell
            # budget gets the hint
            hint = "" if exc.budget is None else budget_hint
            print(f"error: concrete execution failed: {exc}{hint}", file=sys.stderr)
            return ANALYSIS_ERROR
        except MemoryError:
            print(f"error: the concrete run does not fit in memory{budget_hint}", file=sys.stderr)
            return ANALYSIS_ERROR
        if not oracle_report.ok:
            exit_code = ANALYSIS_ERROR

    if args.format == "json":
        try:
            sys.stdout.writelines(json_parts(result, query_results))
        except MemoryError:
            print("error: the JSON report does not fit in memory", file=sys.stderr)
            return ANALYSIS_ERROR
        if oracle_report is not None and not oracle_report.ok:
            _print_oracle_report(oracle_report, sys.stderr)
    else:
        if args.dump_lines:
            sys.stdout.write(render_table(result))
        if args.dump_sharing:
            sys.stdout.write(render_sharing(program, result.sharing))
        sys.stdout.write(render_final(result))
        if args.compare_domains:
            sys.stdout.write(render_compare(result, ct, typeinfo))
        for raw, res in query_results:
            if isinstance(res, bool):
                print(f"{raw} -> {'true' if res else 'false'}")
            else:
                print(f"{raw} -> {res}")
        if oracle_report is not None:
            _print_oracle_report(oracle_report, sys.stdout)
    return exit_code


def main() -> None:
    sys.exit(run())
