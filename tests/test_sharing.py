import random

import pytest
from hypothesis import given, strategies as st

import fieldreach.semantics
from fieldreach import SharingAnalysis, SharingState, analyze_program, analyze_purity
from fieldreach.oracle import Loc, _Interp
from fieldreach.semantics import entry_scope
from fieldreach.sharing import _Index
from fieldreach.syntax import RESULT_VAR, FieldWrite, MethodCall, walk_commands, walk_exprs

from conftest import DATA, build
from corpus import CORPUS
from reference import PairSharingAnalysis, PairSharingState, reachable
from test_render_json import WIDE
from test_semantics import _random_init_lines


def per_line_ds(source: str) -> dict[int, frozenset]:
    """Fixpoint deep-sharing pairs after each top-level line of main."""
    program, ct, info = build(source)
    analysis = SharingAnalysis(program, ct, info)
    analysis.analyze_main()
    out: dict[int, frozenset] = {}
    for cmd in walk_commands(program.main.body):
        post = analysis.main.post.get(cmd.nid)
        if post is not None:
            out[cmd.line] = post.ds
    return out


DLL = """
main {
  int i;
  Node tmp;
  Node x;
  i := 1;
  tmp := new Node;
  while (i < 10) {
    x := new Node;
    x.n := tmp;
    tmp.p := x;
    tmp := x;
    i := i + 1;
  }
}
class Node { Node n; Node p; }
"""


def test_dll_deep_sharing_annotations():
    ds = per_line_ds(DLL)
    tmp_only = frozenset({("tmp", "tmp")})
    full = frozenset({("tmp", "x"), ("tmp", "tmp"), ("x", "x")})
    assert ds[9] == tmp_only  # x := new Node
    assert ds[10] == full  # x.n := tmp
    assert ds[11] == full  # tmp.p := x
    assert ds[12] == full  # tmp := x
    assert ds[13] == full  # i := i + 1
    assert ds[8] == full  # loop exit


def test_straight_line_news_no_sharing():
    ds = per_line_ds(
        """
main {
  Node a;
  Node b;
  int i;
  a := new Node;
  b := new Node;
  i := 1 + 2;
}
class Node { Node n; Node p; }
"""
    )
    assert all(pairs == frozenset() for pairs in ds.values())


def test_aliases_do_not_deep_share():
    ds = per_line_ds(
        """
main {
  Node m1;
  Node m2;
  m1 := new Node;
  m2 := m1;
}
class Node { Node n; Node p; }
"""
    )
    assert all(pairs == frozenset() for pairs in ds.values())


def test_field_read_shares_into_region():
    ds = per_line_ds(
        """
main {
  Node a;
  Node b;
  Node v;
  a := new Node;
  b := new Node;
  a.n := b;
  v := a.n;
}
class Node { Node n; Node p; }
"""
    )
    # after v := a.n the variable v sits inside a's region
    assert ("a", "v") in ds[9]


def test_null_write_adds_nothing():
    ds = per_line_ds(
        """
main {
  Node a;
  a := new Node;
  a.n := null;
}
class Node { Node n; Node p; }
"""
    )
    assert all(pairs == frozenset() for pairs in ds.values())


def test_ds_grows_along_loop():
    """The loop head, the state before the body's first command, holds the
    loop's entry state and the body's exit state, and is the loop's
    post-state."""
    program, ct, info = build(DLL)
    analysis = SharingAnalysis(program, ct, info)
    analysis.analyze_main()
    loop = program.main.body[2]
    pre, post = analysis.main.pre, analysis.main.post
    head = pre[loop.body[0].nid]
    for inner in (pre[loop.nid], post[loop.body[-1].nid]):
        assert inner.sh <= head.sh and inner.ds <= head.ds
    assert head == post[loop.nid]
    assert pre[loop.nid].ds == frozenset()
    assert head.ds == frozenset({("tmp", "tmp"), ("tmp", "x"), ("x", "x")})


# --------------------------------------------------------------------------
# purity


def test_update_first_param_only():
    program, ct, info = build(
        """
class K {
  K mth(K x1, K x2) {
    x1.f := x2;
    x1 := null;
    return x2;
  }
  K f;
}
"""
    )
    impure = analyze_purity(program, ct, info)
    assert impure[("K", "mth")] == frozenset({1})  # x1 impure, x2 and this pure


def test_no_updates_all_pure():
    program, ct, info = build(
        """
class K {
  K f;
  K reader(K a) {
    K t;
    t := a.f;
    return t;
  }
}
"""
    )
    impure = analyze_purity(program, ct, info)
    assert impure[("K", "reader")] == frozenset()


def test_fresh_object_update_keeps_this_pure():
    program, ct, info = build(
        """
class K {
  K f;
  K m() {
    K a;
    a := new K;
    a.f := this.f;
    return a;
  }
}
"""
    )
    impure = analyze_purity(program, ct, info)
    assert 0 not in impure[("K", "m")]  # receiver stays pure


def test_purity_through_calls():
    program, ct, info = build(
        """
class K {
  K f;
  K touch(K v) {
    v.f := v;
    return v;
  }
  K outer(K w) {
    K r;
    r := this.touch(w);
    return r;
  }
}
"""
    )
    impure = analyze_purity(program, ct, info)
    assert impure[("K", "touch")] == frozenset({1})
    assert 1 in impure[("K", "outer")]  # w flows into the impure argument


def test_reassigned_parameter_still_flagged():
    # the update happens through an alias after the parameter was redirected
    program, ct, info = build(
        """
class K {
  K f;
  K m(K a) {
    K keep;
    keep := a;
    a := new K;
    keep.f := a;
    return a;
  }
}
"""
    )
    impure = analyze_purity(program, ct, info)
    assert 1 in impure[("K", "m")]


class _PurityTracer(_Interp):
    """Track, per top-level call, which arguments' entry regions receive a
    field update during the call's dynamic extent."""

    def __init__(self, program, ct):
        super().__init__(program, ct, budget=100_000, record=False)
        self.stack = []
        self.updated: dict[int, set[int]] = {}  # call nid -> arg positions

    def call(self, e, frame):
        if not self.stack:  # only trace outermost calls
            receiver = frame.get(e.receiver)
            regions = {}
            actual_vals = [receiver] + [frame.get(a) for a in e.args]
            for i, val in enumerate(actual_vals):
                if isinstance(val, Loc):
                    regions[i] = reachable(self.heap, val.addr)
            self.stack.append((e.nid, regions))
            try:
                return super().call(e, frame)
            finally:
                self.stack.pop()
        return super().call(e, frame)

    def exec_cmd(self, cmd, frame):
        if isinstance(cmd, FieldWrite) and self.stack:
            base = frame.get(cmd.var)
            if isinstance(base, Loc):
                nid, regions = self.stack[-1]
                for i, region in regions.items():
                    if base.addr in region:
                        self.updated.setdefault(nid, set()).add(i)
        super().exec_cmd(cmd, frame)


def test_pure_arguments_never_updated_dynamically():
    # for every top-level call in the corpus, any argument whose entry
    # structure is concretely updated must be flagged possibly-impure by the
    # per-call-site sharing summary
    from corpus import CORPUS

    for name, src in sorted(CORPUS.items()):
        program, ct, info = build(src)
        analysis = SharingAnalysis(program, ct, info)
        analysis.analyze_main()
        call_nodes = {}
        for cmd in walk_commands(program.main.body):
            for node in (
                sub
                for e in [getattr(cmd, "expr", None), getattr(cmd, "guard", None)]
                if e is not None
                for sub in walk_exprs(e)
            ):
                if isinstance(node, MethodCall):
                    call_nodes[node.nid] = node
        if not call_nodes:
            continue
        tracer = _PurityTracer(program, ct)
        tracer.run_main()
        for nid, updated in tracer.updated.items():
            node = call_nodes[nid]
            flags = analysis.call_effect(node, analysis.main.pre[nid]).impure
            assert updated <= set(flags), (name, nid, updated, flags)


def test_summary_depends_on_entry_sharing():
    program, ct, info = build(
        """
class K {
  K f;
  K mth(K x1, K x2) {
    x1.f := x1;
    return x2;
  }
}
"""
    )
    analysis = SharingAnalysis(program, ct, info)
    sig = ct.resolve_method("K", "mth")
    independent = [("this", "this"), ("x1", "x1"), ("x2", "x2")]
    ctx = analysis.analyze_method_entry(sig, analysis.state(independent))
    assert ctx.summary.impure == frozenset({1})
    entangled = analysis.state([*independent, ("x1", "x2")])
    assert analysis.analyze_method_entry(sig, entangled).summary.impure == frozenset({1, 2})


# --------------------------------------------------------------------------
# the bit-matrix state against the pair-set reference

NAME_POOL = ("a", "b", "c", "this", RESULT_VAR, "%in_this")


@st.composite
def states(draw):
    """Names, and two states over an index of them with their pair-set
    references."""
    names = draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=6, unique=True))
    pairs = st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=8)
    ix = _Index(names)

    def state():
        sh, ds = draw(pairs), draw(pairs)
        return (
            SharingState(ix, ix.matrix(sh), ix.matrix(ds)),
            PairSharingState.empty().add_sh(sh).add_ds(ds),
        )

    return names, state(), state()


def same(state, ref):
    return state.sh == ref.sh and state.ds == ref.ds


def names_of(state, row):
    return {v for i, v in enumerate(state.index.names) if row >> i & 1}


@given(states(), st.data())
def test_bit_matrix_state_equals_the_pair_sets(drawn, data):
    names, (s, r), (s2, r2) = drawn
    pick = st.sampled_from(names)
    assert same(s, r) and same(s2, r2)
    assert (s == s2) == (r == r2)
    assert s != s2 or hash(s) == hash(s2)
    for a in names:
        assert names_of(s, s.shset(s.index.mask([a]))) == r.shset(a)
        sh_row, ds_row = s.rows(a)
        assert names_of(s, sh_row) == {b for b in names if r.has_sh(a, b)}
        assert names_of(s, ds_row) == {b for b in names if r.has_ds(a, b)}
        for b in names:
            assert s.has_sh(a, b) == r.has_sh(a, b) and s.has_ds(a, b) == r.has_ds(a, b)
    v, src, dst = data.draw(pick), data.draw(pick), data.draw(pick)
    assert same(s.kill(v), r.kill(v))
    assert same(s.copy_alias(src, dst), r.copy_alias(src, dst))
    group = data.draw(st.lists(pick, unique=True))
    assert same(s.clique(s.index.mask(group)), r.clique(group))
    assert names_of(s, s.shset(s.index.mask(group))) == set().union(*map(r.shset, group))
    assert same(s.union(s2), r.union(r2))
    # two new names may be fed by one old name; old names may go unmapped
    sources = data.draw(st.dictionaries(pick, pick, max_size=4))
    assert same(s.remap_from(sources), r.remap_from(sources))
    mapping = data.draw(st.dictionaries(pick, pick, max_size=4))
    assert same(s.remap_to(mapping), r.remap_to(mapping))


def test_states_over_another_index_are_refused():
    """A state over another analysis's index, or over an index of the same
    names, enters neither ``union`` nor the analysis."""
    program, ct, info = build(DATA.joinpath("tree_main.lang").read_text())
    analysis = SharingAnalysis(program, ct, info)
    sig = ct.all_method_sigs()[0]
    pairs = [("this", "this")]
    same_names = _Index(analysis.index.names)
    others = [
        SharingAnalysis(program, ct, info).state(pairs),
        SharingState(same_names, same_names.matrix(pairs)),
    ]
    for other in others:
        assert other.index is not analysis.index and other.sh == analysis.state(pairs).sh
        with pytest.raises(ValueError):
            analysis.none.union(other)
        with pytest.raises(ValueError):
            other.union(analysis.none)
        with pytest.raises(ValueError):
            analysis.analyze_method_entry(sig, other)
        with pytest.raises(ValueError):
            analysis.analyze_main(other)
    assert not analysis.memo.contexts and analysis.main is None


def test_a_state_from_the_analysis_keys_its_context_as_it_is():
    program, ct, info = build(DATA.joinpath("tree.lang").read_text())
    analysis = SharingAnalysis(program, ct, info)
    sig = ct.all_method_sigs()[0]
    state = analysis.state([("this", "this")], [("this", "this")])
    ctx = analysis.analyze_method_entry(sig, state)
    assert ctx.input[1] is state and ctx.input[0] is sig
    assert analysis.memo.contexts[(sig.key, state)] is ctx
    assert state.sh == state.ds == {("this", "this")}


def test_sharing_tables_equal_the_pair_set_reference(monkeypatch):
    """The analysis on bit matrices gives the tables, summaries and impure
    sets of the one on pair sets, on every entry of the corpus and the data
    programs, from the program's own facts and from seeded random extra
    facts.  The package keeps each point's last visit, the reference joins
    every visit, so the tables agree only while a run's states at a point
    grow."""

    def outcome(analysis, built, entry):
        with monkeypatch.context() as m:
            m.setattr(fieldreach.semantics, "SharingAnalysis", analysis)
            r = analyze_program(*built, entry=entry)

        def tables(run):
            return [{nid: (s.sh, s.ds) for nid, s in table.items()} for table in (run.pre, run.post)]

        sharing = r.sharing
        runs = {"main": tables(sharing.main)} if sharing.main is not None else {}
        summaries = {}
        for (method, state), ctx in sharing.memo.contexts.items():
            key = (method, state.sh, state.ds)
            runs[key] = tables(ctx.run)
            summaries[key] = (ctx.summary.exit_state.sh, ctx.summary.exit_state.ds, ctx.summary.impure)
        return runs, summaries, r.final, r.point_post

    rng = random.Random(24)
    data = [(DATA / name).read_text() for name in ("dll.lang", "tree.lang", "tree_main.lang")]
    runs = 0
    for source in [src for _, src in sorted(CORPUS.items())] + data + [WIDE]:
        program, ct, info = build(source)
        fields = sorted(ct.reference_fields)
        entries = ["main"] if program.main is not None else []
        entries += ct.all_method_sigs()
        for entry in entries:
            _, _, scope = entry_scope(program, ct, info, entry=entry)
            named = [v for v in scope if v != RESULT_VAR]
            extra = _random_init_lines(rng, fields, named) if named and fields else []
            for src in (source, "\n".join(extra + [source])):
                built = build(src)
                bits = outcome(SharingAnalysis, built, entry)
                assert bits == outcome(PairSharingAnalysis, built, entry)
                runs += 1
    assert runs >= 100


def _call_nodes(program, ct) -> dict:
    """Every call expression of the program's bodies, by node id."""
    bodies = [program.main.body] if program.main is not None else []
    bodies += [ct.method_body(sig) for sig in ct.all_method_sigs()]
    return {
        node.nid: node
        for body in bodies
        for cmd in walk_commands(body)
        for e in (getattr(cmd, "expr", None), getattr(cmd, "guard", None))
        if e is not None
        for node in walk_exprs(e)
        if isinstance(node, MethodCall)
    }


def test_recorded_call_effects_equal_fresh_ones():
    """The walk records, per run and call site, the call effect and each
    callee's formals and context, which the reachability analysis reads: at
    every call site of the corpus, the data files and the tree join, they
    equal ``call_effect`` computed afresh from the state before the site."""
    cases = [(src, "main") for _, src in sorted(CORPUS.items())]
    cases += [((DATA / name).read_text(), "main") for name in ("dll.lang", "tree_main.lang")]
    cases.append(((DATA / "tree.lang").read_text(), "join"))
    sites = 0
    for source, entry in cases:
        program, ct, info = build(source)
        if entry == "main" and program.main is None:
            continue
        nodes = _call_nodes(program, ct)
        sharing = analyze_program(program, ct, info, entry=entry).sharing
        runs = [ctx.run for ctx in sharing.memo.contexts.values()]
        runs += [sharing.main] if entry == "main" else []
        for run in runs:
            visited = {nid for nid in run.pre if nid in nodes}
            assert run.calls.keys() == visited
            for nid, record in run.calls.items():
                fresh = sharing.call_effect(nodes[nid], run.pre[nid])
                assert record == fresh
                assert tuple(ctx.input[0] for _, ctx in record.callees) == info.call_targets[nid]
                sites += 1
    assert sites >= 20
