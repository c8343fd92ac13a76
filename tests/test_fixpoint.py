import sys

import pytest

from fieldreach import analyze_program, fixpoint
from fieldreach.fixpoint import Fixpoint
from fieldreach.semantics import Analyzer
from fieldreach.sharing import SharingAnalysis
from fieldreach.syntax import MethodCall, walk_commands, walk_exprs

from conftest import DATA, build
from corpus import CORPUS


def toy_engine(limits, reads, log, on_the_spot=False):
    """Context n reads the contexts reads[n] and takes the largest of their
    summaries, one more for itself, capped at limits[n]."""
    engine = None

    def compute(ctx):
        n = ctx.input
        log.append(n)
        seen = [engine.lookup(m, m).summary + (m == n) for m in reads.get(n, ())]
        return min(limits[n], max(seen, default=0))

    engine = Fixpoint(compute, lambda ctx, new: max(ctx.summary, new), lambda n: 0, on_the_spot)
    return engine


def summaries(engine):
    return {key: ctx.summary for key, ctx in engine.contexts.items()}


def test_contexts_rerun_only_when_a_read_summary_grows():
    log = []
    engine = toy_engine({0: 9, 1: 3, 2: 0}, {0: [1, 2], 1: [1]}, log)
    engine.solve(lambda: engine.lookup(0, 0))
    assert summaries(engine) == {0: 3, 1: 3, 2: 0}
    assert log.count(2) == 1  # its summary never changed
    assert log.count(1) == 4  # three steps up, one to see it is stable
    assert log.count(0) <= 4  # once, then at most once per change of 1


def test_root_runs_again_only_once_no_context_is_pending():
    log = []
    engine = toy_engine({0: 5}, {0: [0]}, log)
    _, roots = engine.solve(lambda: engine.lookup(0, 0))
    assert log == [0] * 6
    assert roots == 2


def test_lookup_of_an_unknown_context_after_solve_raises():
    engine = toy_engine({0: 1}, {0: [0]}, [])
    engine.solve(lambda: engine.lookup(0, 0))
    assert engine.lookup(0, 0).summary == 1
    with pytest.raises(LookupError):
        engine.lookup(7, 7)


def test_sharing_state_before_an_unknown_point_raises():
    program, ct, info = build("main { K x; x := new K; } class K { K f; }")
    analysis = SharingAnalysis(program, ct, info)
    analysis.analyze_main()
    nid = program.main.body[0].nid
    assert analysis.main.pre[nid].sh == frozenset()
    with pytest.raises(LookupError):
        analysis.main.pre[nid + 100]
    with pytest.raises(LookupError):
        analysis.memo.lookup(("K", "absent"), None)


def toy_solve(limits, reads):
    """The table the queue alone reaches."""
    engine = toy_engine(limits, reads, [])
    engine.solve(lambda: engine.lookup(0, 0))
    return summaries(engine)


def test_a_context_solved_on_the_spot_is_final_when_its_reader_gets_it():
    """Solved where they are met, the contexts of a call tree without
    cycles run once each, and so does the entry; with a cycle, the table is
    the one the queue reaches."""
    tree = {0: [1, 2], 1: [3], 2: [3, 4], 3: [], 4: []}
    limits = dict.fromkeys(tree, 9)
    log = []
    engine = toy_engine(limits, tree, log, on_the_spot=True)
    _, roots = engine.solve(lambda: engine.lookup(0, 0))
    assert sorted(log) == [0, 1, 2, 3, 4] and roots == 1
    assert summaries(engine) == toy_solve(limits, tree)
    cycle = {0: [1], 1: [2], 2: [0, 2]}
    limits = {0: 5, 1: 7, 2: 3}
    engine = toy_engine(limits, cycle, [], on_the_spot=True)
    engine.solve(lambda: engine.lookup(0, 0))
    assert summaries(engine) == toy_solve(limits, cycle)


def _depth() -> int:
    """How many frames the caller's stack holds."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_runs_nest_no_deeper_than_the_bound(monkeypatch):
    """A chain of 50 contexts solved on the spot nests its runs 50 deep
    while the stack has room, and fewer when the stack keeps room for only
    60 more frames: past that the contexts queue.  Queued, each run is one
    deep.  The table is the same."""
    chain = {n: [n + 1] for n in range(49)}
    limits = {n: 50 - n for n in range(50)}
    roomy = fixpoint._RESERVE
    tight = sys.getrecursionlimit() - _depth() - 60  # a reserve that leaves 60 frames
    for on_the_spot, reserve in ((False, roomy), (True, roomy), (True, tight)):
        monkeypatch.setattr(fixpoint, "_RESERVE", reserve)
        nesting, deepest = [0], [0]
        engine = toy_engine(limits, chain, [], on_the_spot)
        compute = engine._compute

        def nested(ctx):
            nesting[0] += 1
            deepest[0] = max(deepest[0], nesting[0])
            out = compute(ctx)
            nesting[0] -= 1
            return out

        engine._compute = nested
        engine.solve(lambda: engine.lookup(0, 0))
        if not on_the_spot:
            assert deepest[0] == 1
        elif reserve == roomy:
            assert deepest[0] == 50
        else:
            assert 1 < deepest[0] < 50, deepest
        assert summaries(engine) == toy_solve(limits, chain)


def corpus_jobs():
    jobs = [(name, src, "main") for name, src in sorted(CORPUS.items())]
    jobs.append(("dll.lang", (DATA / "dll.lang").read_text(), "main"))
    jobs.append(("tree_main.lang", (DATA / "tree_main.lang").read_text(), "main"))
    jobs.append(("tree.lang@join", (DATA / "tree.lang").read_text(), "join"))
    return jobs


def calls_itself(ct, info) -> bool:
    """Whether some method of the program reaches itself through calls."""
    callees = {
        sig.key: {
            target.key
            for cmd in walk_commands(ct.method_body(sig))
            if getattr(cmd, "expr", None) is not None
            for node in walk_exprs(cmd.expr)
            if isinstance(node, MethodCall)
            for target in info.call_targets[node.nid]
        }
        for sig in ct.all_method_sigs()
    }
    for key in callees:
        seen, todo = set(), list(callees[key])
        while todo:
            callee = todo.pop()
            if callee == key:
                return True
            if callee not in seen:
                seen.add(callee)
                todo += callees[callee]
    return False


def test_corpus_reruns_stay_near_one_per_context(monkeypatch):
    """The deep-sharing analysis solves a context where it meets it, so on
    a program without recursion its entry and each context run once; the
    reachability analysis queues, and reruns at most half as often again
    as it has contexts."""
    runs = {"sharing": 0, "semantics": 0}
    compute_summary = SharingAnalysis._compute_summary
    run_method = Analyzer._run_method
    solve = Fixpoint.solve
    entry_runs = {}  # fixpoint -> entry runs

    def counted_summary(self, *args):
        runs["sharing"] += 1
        return compute_summary(self, *args)

    def counted_run(self, *args, **kwargs):
        runs["semantics"] += 1
        return run_method(self, *args, **kwargs)

    def counted_solve(self, root):
        result, n = solve(self, root)
        entry_runs[self] = n
        return result, n

    monkeypatch.setattr(SharingAnalysis, "_compute_summary", counted_summary)
    monkeypatch.setattr(Analyzer, "_run_method", counted_run)
    monkeypatch.setattr(Fixpoint, "solve", counted_solve)

    contexts = {"sharing": 0, "semantics": 0}
    plain = 0
    for name, src, entry_name in corpus_jobs():
        program, ct, info = build(src)
        before = runs["sharing"]
        result = analyze_program(program, ct, info, entry=entry_name)
        sharing = result.sharing.memo
        if not calls_itself(ct, info):
            plain += bool(sharing.contexts)
            assert entry_runs[sharing] == 1, name
            assert runs["sharing"] - before == len(sharing.contexts), name
        contexts["sharing"] += len(sharing.contexts)
        # a method entry is a context of its own, run by the root
        contexts["semantics"] += sum(len(d) for d in result.denotations.values())
        contexts["semantics"] += entry_name != "main"
    assert contexts["sharing"] > 20 and contexts["semantics"] > 20 and plain > 10
    for analysis in ("sharing", "semantics"):
        assert runs[analysis] <= 1.5 * contexts[analysis], (analysis, runs, contexts)


# spin widens its loop at k=1 and reads link's summary, which starts at bottom
WIDENS_IN_A_CALLEE = """
class N {
  N f;
  N g;
  N link(N y) {
    this.f := y;
    return this;
  }
  N spin(N x) {
    N c;
    N d;
    int i;
    c := x;
    i := 0;
    while (i < 6) {
      d := new N;
      d.g := c;
      c := d.link(c);
      i := i + 1;
    }
    return c;
  }
}
main {
  N a;
  N b;
  int j;
  a := new N;
  j := 0;
  while (j < 3) {
    b := a.spin(a);
    a := b;
    j := j + 1;
  }
}
"""


def test_each_context_keeps_what_a_replay_would_record(monkeypatch):
    """The last run of the entry and of each context is kept; with the table
    final, a fresh run records the same point values, loop passes and
    widenings (and, for the entry, the same trace)."""
    solved = []
    runs = {}  # context -> the recordings its runs left, in order
    analyze, run_method = Analyzer.analyze, Analyzer._run_method

    def keep_analyzer(self, entry, start, sp_start):
        solved.append(self)
        return analyze(self, entry, start, sp_start)

    def log_run(self, ctx, trace_on=False):
        out = run_method(self, ctx, trace_on)
        runs.setdefault(ctx, []).append(ctx.run)
        return out

    monkeypatch.setattr(Analyzer, "analyze", keep_analyzer)
    monkeypatch.setattr(Analyzer, "_run_method", log_run)

    jobs = [(name, src, entry, 16) for name, src, entry in corpus_jobs()]
    jobs.append(("widens in a callee", WIDENS_IN_A_CALLEE, "main", 1))
    reran_differently = widened_in_a_context = 0
    for name, src, entry_name, k in jobs:
        runs.clear()
        program, ct, info = build(src)
        analyze_program(program, ct, info, entry=entry_name, widening_k=k)
        analyzer = solved.pop()
        reran_differently += any(
            recs[0] != recs[-1] for ctx, recs in runs.items() if ctx is not analyzer.root
        )
        for key, ctx in analyzer.memo.contexts.items():
            kept = ctx.run
            analyzer._run_method(ctx)
            assert ctx.run == kept and ctx.run is not kept, (name, key)
            widened_in_a_context += kept.widenings > 0
        kept = analyzer.root.run
        analyzer._run_entry()
        assert analyzer.root.run == kept and analyzer.root.run is not kept, name
        assert kept.trace, name
    assert reran_differently > 0 and widened_in_a_context > 0
