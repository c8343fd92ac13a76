"""Seeded workloads for the fieldreach benchmark.

A workload is a list of ``Job`` values built from a seed: the same seed
gives the same sources, byte for byte.  A job is one program with the entry
to analyze, the queries to ask, and the answers known in advance for some
of them.

Why these three workloads:

* ``corpus`` is the reference: every program of the soundness corpus
  (``tests/corpus.py``) plus the data files, with ``tree.lang`` entered at
  ``join`` under its ``//@ init`` annotations.  Its universes have at most
  three fields, and it is the only workload with method calls, so analysis
  contexts, body re-runs and the sharing summaries do their work here.  A
  formula change that speeds large universes but slows small ones shows
  here as a loss.  The seed only orders the jobs.
* ``deep-heap`` builds long structures: the doubly-linked-list builder at
  12-32 trips and a loop of ``x := h.join(x, t)`` over the tree class at
  8-12 trips.  The analysis does not depend on the trip count and is
  cheap; the concrete oracle does most of each checked job, so oracle
  changes show here and formula changes should show nothing.
* ``wide-fields`` runs null-guarded loops over ``class N { N f0..f(k-3);
  L g; } class L { L h; }`` with k = 6 to 9.  ``g`` leads from ``N`` to
  ``L`` and only ``L`` carries ``h``, so some field sets cannot be realized
  and the viability decision settles real cases.  Model sets run to
  hundreds of masks, so formula operators and the JSON report dominate;
  the oracle is cheap and there are no calls.

The run reports each program's fastest time, so the cost of a workload is
the multiset of its programs' sizes.  That multiset is the same for every
seed: deep-heap takes every trip count of its ranges once, and wide-fields
a fixed number of programs per loop shape and k.  The seed picks field and
variable names and the order of the jobs.  Sizes drawn at random moved
the medians from seed to seed by more than the machine's own noise.
"""

from __future__ import annotations

import importlib.util
import random
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

WORKLOADS = ("corpus", "deep-heap", "wide-fields")

# (query, answer) pairs; the answers come from the README and golden tests
TREE_MAIN_ANSWERS = (("cyc x {left}", False), ("cyc x {left,parent}", True))


def dll_answers(nxt: str = "n", prev: str = "p") -> tuple[tuple[str, bool], ...]:
    return ((f"cyc x {{{nxt}}}", False), (f"cyc x {{{nxt},{prev}}}", True))


DLL_ANSWERS = dll_answers()
# after the join loop the analysis no longer separates left from the other
# links, so only the cycle every run builds has a known answer
TREE_LOOP_ANSWERS = (("cyc x {left,parent}", True),)


@dataclass(frozen=True)
class Job:
    name: str
    source: str
    entry: str = "main"
    queries: tuple[str, ...] = ()
    answers: tuple[tuple[str, bool], ...] = ()

    @property
    def all_queries(self) -> tuple[str, ...]:
        return tuple(q for q, _ in self.answers) + self.queries


# ---------------------------------------------------------------------------
# corpus


def _load_corpus() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location(
        "fieldreach_bench_corpus", ROOT / "tests" / "corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CORPUS


def corpus_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for name, source in sorted(_load_corpus().items()):
        answers = DLL_ANSWERS if name == "dll_builder" else ()
        jobs.append(Job(f"corpus/{name}", source, answers=answers))
    jobs.append(
        Job("data/dll.lang", (DATA / "dll.lang").read_text(), answers=DLL_ANSWERS)
    )
    jobs.append(
        Job(
            "data/tree_main.lang",
            (DATA / "tree_main.lang").read_text(),
            answers=TREE_MAIN_ANSWERS,
            queries=("reach x h",),
        )
    )
    jobs.append(
        Job(
            "data/tree.lang@join",
            (DATA / "tree.lang").read_text(),
            entry="join",
            queries=("reach out l", "cyc out {left,parent}"),
        )
    )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# deep-heap

DLL_TEMPLATE = """class Node {{ Node {next}; Node {prev}; }}
main {{
  int i;
  Node tmp;
  Node x;
  i := 0;
  tmp := new Node;
  x := tmp;
  while (i < {trips}) {{
    x := new Node;
    x.{next} := tmp;
    tmp.{prev} := x;
    tmp := x;
    i := i + 1;
  }}
}}
"""

TREE_LOOP_TEMPLATE = """class Tree {{
  Tree left;
  Tree right;
  Tree parent;

  Tree join(Tree l, Tree r) {{
    Tree t;  t := new Tree;
    t.left := l;
    t.right := r;
    if (l != null) then l.parent := t;
    if (r != null) then r.parent := t;
    return t;
  }}
}}
main {{
  int i;
  Tree h;
  Tree x;
  Tree t;
  h := new Tree;
  x := new Tree;
  i := 0;
  while (i < {trips}) {{
    t := new Tree;
    x := h.join(x, t);
    i := i + 1;
  }}
}}
"""

# (next, prev) field names for the list, chosen by the seed; the analysis
# and the oracle take the same time under each.  The tree keeps its names.
DLL_FIELDS = (("n", "p"), ("next", "prev"), ("fwd", "back"), ("nx", "pv"))

# Every trip count once.  The checked time climbs steeply with the trip
# count (a list at 32 trips takes about 0.3 s, a tree loop at 12 about
# 0.4 s), so a pass stays near 4 s and a run repeats each program several
# times.  The list jobs outnumber the tree jobs, so both medians fall among
# the lists; the tree loops hold the upper part of the checked times.
DLL_TRIPS = (12, 32)
TREE_TRIPS = (8, 12)


def deep_heap_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for trips in range(DLL_TRIPS[0], DLL_TRIPS[1] + 1):
        nxt, prev = rng.choice(DLL_FIELDS)
        jobs.append(
            Job(
                f"dll@{trips}",
                DLL_TEMPLATE.format(trips=trips, next=nxt, prev=prev),
                answers=dll_answers(nxt, prev),
            )
        )
    jobs += [
        Job(
            f"tree-loop@{trips}",
            TREE_LOOP_TEMPLATE.format(trips=trips),
            answers=TREE_LOOP_ANSWERS,
        )
        for trips in range(TREE_TRIPS[0], TREE_TRIPS[1] + 1)
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# wide-fields

# programs per loop shape for each k: a pass takes about 6 s, and the
# medians fall among the k = 7 programs
WIDE_COPIES = {6: 2, 7: 2, 8: 1, 9: 1}
WIDE_N_VARS = ("a", "b", "c", "d")
WIDE_L_VARS = ("l", "m")
WIDE_TRIPS = 3

# Loop bodies over role names: N variables A-D, L variables P and Q, and N
# fields F1-F3.  The seed maps the roles onto distinct variables and
# fields, and ``wide_source`` guards every dereference against null.  The
# cost of a program depends far more on its shape than on its names: random
# bodies of 16 statements took from 0.1 s to 8 s each at k = 9, and their
# medians never settled from seed to seed, while a fixed shape varies by a
# few per cent.  These four take 0.75-1 s each at k = 9, 0.25-0.3 s at
# k = 8, 0.14 s at k = 7 and 0.09 s at k = 6.
WIDE_BODIES = {
    "list": "C := new N; C.F1 := A; A.F2 := C; P := A.g; C.g := P; A := C",
    "ring": "D := new N; D.F1 := A; C := A.F2; C.F3 := D; A := D",
    "mesh": "C := new N; A.F1 := C; C.F2 := B; D := C.F3; P := D.g",
    "dag": "C := new N; C.F1 := A; C.F2 := A; B := C.F3; P := B.g; A := C",
}

_ROLE = re.compile(r"\b(F[1-3]|[A-D]|[PQ])\b")
_WRITE = re.compile(r"^(\w+)\.\w+ := \w+$")
_READ = re.compile(r"^\w+ := (\w+)\.\w+$")


def wide_source(rng: random.Random, k: int, body: str) -> str:
    nfields = [f"f{i}" for i in range(k - 2)]
    names = {f"F{i + 1}": f for i, f in enumerate(rng.sample(nfields, 3))}
    names.update(zip("ABCD", rng.sample(WIDE_N_VARS, 4)))
    names.update(zip("PQ", rng.sample(WIDE_L_VARS, 2)))
    decls = " ".join(f"N {f};" for f in nfields)
    lines = [f"class N {{ {decls} L g; }}", "class L { L h; }", "main {", "  int i;"]
    lines += [f"  N {v};" for v in WIDE_N_VARS] + [f"  L {v};" for v in WIDE_L_VARS]
    lines += [f"  {v} := new N;" for v in WIDE_N_VARS]
    lines += [f"  {v} := new L;" for v in WIDE_L_VARS]
    lines += ["  i := 0;", f"  while (i < {WIDE_TRIPS}) {{"]
    for stmt in body.split(";"):
        stmt = _ROLE.sub(lambda m: names[m.group(1)], stmt.strip())
        deref = _WRITE.match(stmt) or _READ.match(stmt)
        if deref:
            stmt = f"if ({deref.group(1)} != null) then {stmt}"
        lines.append(f"    {stmt};")
    lines += ["    i := i + 1;", "  }", "}"]
    return "\n".join(lines) + "\n"


# Neither cycle can exist, since nothing leads from L back to N.  Viability
# alone rules out {f0,h} (no path uses h without g); {g} is a realizable
# path, so answering false there takes the analysis's own precision.
WIDE_ANSWERS = tuple(
    (f"cyc {v} {{{fs}}}", False) for v in WIDE_N_VARS for fs in ("f0,h", "g")
)


def wide_fields_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        Job(
            f"wide-{name}@k{k}#{copy}",
            wide_source(rng, k, body),
            queries=("reach a b", "cyc a {f0,f1}"),
            answers=WIDE_ANSWERS,
        )
        for k, copies in WIDE_COPIES.items()
        for copy in range(copies)
        for name, body in WIDE_BODIES.items()
    ]
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "corpus": corpus_jobs,
    "deep-heap": deep_heap_jobs,
    "wide-fields": wide_fields_jobs,
}


def build_jobs(workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
