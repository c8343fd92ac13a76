import pytest

from fieldreach import analyze_program
from fieldreach.cli import parse_init_annotations
from fieldreach.fixpoint import Fixpoint
from fieldreach.semantics import Analyzer, entry_scope
from fieldreach.sharing import SharingAnalysis

from conftest import DATA, build
from corpus import CORPUS


def toy_engine(limits, reads, log):
    """Context n reads the contexts reads[n] and takes the largest of their
    summaries, one more for itself, capped at limits[n]."""
    engine = None

    def compute(n):
        log.append(n)
        seen = [engine.lookup(m, m) + (m == n) for m in reads.get(n, ())]
        return min(limits[n], max(seen, default=0))

    engine = Fixpoint(compute, lambda key, old, new: max(old, new), lambda n: 0)
    return engine


def test_contexts_rerun_only_when_a_read_summary_grows():
    log = []
    engine = toy_engine({0: 9, 1: 3, 2: 0}, {0: [1, 2], 1: [1]}, log)
    engine.solve(lambda: engine.lookup(0, 0))
    assert engine.table == {0: 3, 1: 3, 2: 0}
    assert log.count(2) == 1  # its summary never changed
    assert log.count(1) == 4  # three steps up, one to see it is stable
    assert log.count(0) <= 4  # once, then at most once per change of 1


def test_root_runs_again_only_once_no_context_is_pending():
    log = []
    engine = toy_engine({0: 5}, {0: [0]}, log)
    roots = engine.solve(lambda: engine.lookup(0, 0))
    assert log == [0] * 6
    assert roots == 2


def test_lookup_of_an_unknown_context_after_solve_raises():
    engine = toy_engine({0: 1}, {0: [0]}, [])
    engine.solve(lambda: engine.lookup(0, 0))
    assert engine.lookup(0, 0) == 1
    with pytest.raises(LookupError):
        engine.lookup(7, 7)


def test_sharing_state_before_an_unknown_point_raises():
    program, ct, info = build("main { K x; x := new K; } class K { K f; }")
    analysis = SharingAnalysis(program, ct, info)
    analysis.analyze_main()
    nid = program.main.body[0].nid
    assert analysis.state_before("main", nid).sh == frozenset()
    with pytest.raises(LookupError):
        analysis.state_before("main", nid + 100)
    with pytest.raises(LookupError):
        analysis.state_before(("K", "absent"), nid)


def corpus_jobs():
    jobs = [(name, src, "main") for name, src in sorted(CORPUS.items())]
    jobs.append(("dll.lang", (DATA / "dll.lang").read_text(), "main"))
    jobs.append(("tree_main.lang", (DATA / "tree_main.lang").read_text(), "main"))
    jobs.append(("tree.lang@join", (DATA / "tree.lang").read_text(), "join"))
    return jobs


def test_corpus_reruns_stay_near_one_per_context(monkeypatch):
    runs = {"sharing": 0, "semantics": 0}
    compute_summary = SharingAnalysis._compute_summary
    run_method = Analyzer._run_method

    def counted_summary(self, *args):
        runs["sharing"] += 1
        return compute_summary(self, *args)

    def counted_run(self, sig, entry, sp_entry, recorder=None, trace_on=False):
        if recorder is None:  # the recording pass is not part of the fixpoint
            runs["semantics"] += 1
        return run_method(self, sig, entry, sp_entry, recorder, trace_on)

    monkeypatch.setattr(SharingAnalysis, "_compute_summary", counted_summary)
    monkeypatch.setattr(Analyzer, "_run_method", counted_run)

    contexts = {"sharing": 0, "semantics": 0}
    for name, src, entry_name in corpus_jobs():
        program, ct, info = build(src)
        universe, entry, variables, refs = entry_scope(program, ct, info, entry=entry_name)
        init_rc, init_sp = parse_init_annotations(program, universe, variables, refs)
        result = analyze_program(
            program, ct, info, entry=entry, init_rc=init_rc, init_sp=init_sp
        )
        contexts["sharing"] += len(result.sharing.memo.table)
        # a method entry is a context of its own, run by the root
        contexts["semantics"] += sum(len(d) for d in result.denotations.values())
        contexts["semantics"] += entry != "main"
    assert contexts["sharing"] > 20 and contexts["semantics"] > 20
    for analysis in ("sharing", "semantics"):
        assert runs[analysis] <= 1.5 * contexts[analysis], (analysis, runs, contexts)
