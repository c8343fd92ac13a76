"""Memoised interprocedural fixpoint driven by a dependency worklist.

Both analyses summarise a method per context (the method plus an abstract
entry value).  The fixpoint makes one ``Context`` record per context, the
first time a lookup meets its key, and both analyses hold that record from
then on: it carries the context's input, its summary, the contexts that read
it and what its last run recorded.  ``solve(root)`` runs the entry, then the
contexts it met; a context runs again only when a summary it read has grown,
and the entry runs again only once no context is pending.  This is the
tabulation of Reps, Horwitz and Sagiv (POPL 1995); loops keep their local
iteration.  ``solve`` returns what the entry's last run returned, with the
number of entry runs.  After ``solve`` every context's last run read only
final summaries, so a lookup of a context the fixpoint never met is an
error, not a silent bottom.

Two policies decide when a new context runs.  By default it is queued:
the run that met it goes on with its bottom summary and runs again once the
context has grown.  With ``on_the_spot`` it is solved where it is met, the
top-down fixpoint of Le Charlier and Van Hentenryck (TOPLAS 1992): the
lookup runs it, and every context that becomes pending meanwhile, until no
context is pending but those whose runs are in progress, and only then
returns it and records the reader.  A caller that reads only contexts
solved this way, as in a program without recursion, runs once.  Runs nest
only while the Python stack has room for ``_RESERVE`` more frames; a
context met deeper is queued as under the first policy, so a long chain of
calls, or one whose bodies nest deeply, takes no more of the stack than the
parser's nesting bound allows one run.  When summaries only grow and
nothing is widened, any fair order of runs reaches the same least fixpoint,
so the two policies give the same summaries and the same last runs; the
deep-sharing analysis solves on the spot, and the reachability analysis,
which widens and reports its entry runs, queues.
"""

from __future__ import annotations

import sys
from typing import Callable, Hashable, Optional

_ROOT = None  # the reader of the entry's runs
# the frames a run may take: two per level of the deepest body the parser
# admits (``parser.MAX_NESTING``), and the calls that lead to the next lookup
_RESERVE = 400


def _stack_has_room(frames: int) -> bool:
    """Whether the Python stack takes ``frames`` more calls within the
    recursion limit."""
    try:
        sys._getframe(sys.getrecursionlimit() - frames)
    except ValueError:  # the stack is not that deep
        return True
    return False


class Context:
    """One context, made once and held by reference: equal and hashed by
    identity, so a reader that holds it never hashes its key."""

    __slots__ = ("input", "summary", "readers", "run")

    def __init__(self, inp, summary):
        self.input = inp
        self.summary = summary
        # an ordered set, so the order of runs never depends on hashing;
        # ``_ROOT`` stands for the entry
        self.readers: dict[Optional[Context], None] = {}
        self.run = None  # what the last run recorded


class Fixpoint:
    def __init__(
        self, compute: Callable, merge: Callable, bottom: Callable, on_the_spot: bool = False
    ):
        self._compute = compute  # context -> one run of its body
        self._merge = merge  # (context, run result) -> its grown summary
        self._bottom = bottom  # input -> the summary a new context starts at
        self._on_the_spot = on_the_spot  # whether new contexts are solved where met
        self.contexts: dict[Hashable, Context] = {}  # in the order first met
        self._pending: dict[Optional[Context], None] = {}
        self._running: dict[Context, None] = {}  # the contexts whose runs are in progress
        self._reader: Optional[Context] = _ROOT
        self._solving = False

    def lookup(self, key: Hashable, inp) -> Context:
        """A context, read by the running context; an unknown one is solved
        on the spot or starts at bottom during ``solve``, and raises
        ``KeyError`` after."""
        if not self._solving:
            return self.contexts[key]
        ctx = self.contexts.get(key)
        if ctx is None:
            ctx = self.contexts[key] = Context(inp, self._bottom(inp))
            self._pending[ctx] = None
            if self._on_the_spot and _stack_has_room(_RESERVE):
                self._settle()
        ctx.readers[self._reader] = None
        return ctx

    def solve(self, root: Callable[[], object]) -> tuple[object, int]:
        """Run the entry and every context to the fixpoint; returns what the
        entry's last run returned and the number of entry runs."""
        result, runs = None, 0
        self._solving = True
        self._pending[_ROOT] = None
        while True:
            self._settle()  # leaves no context pending, the entry perhaps
            if not self._pending:
                break
            del self._pending[_ROOT]
            runs += 1
            result = root()
        self._solving = False
        return result, runs

    def _settle(self) -> None:
        """Run pending contexts, first pending first, until none is pending
        but the entry and the contexts whose runs are in progress."""
        pending, running = self._pending, self._running
        while True:
            ctx = next(
                (c for c in pending if c is not _ROOT and not (running and c in running)),
                _ROOT,
            )
            if ctx is _ROOT:
                return
            del pending[ctx]
            reader, self._reader = self._reader, ctx
            running[ctx] = None
            old = ctx.summary
            new = self._merge(ctx, self._compute(ctx))
            del running[ctx]
            self._reader = reader
            if new != old:
                ctx.summary = new
                pending.update(ctx.readers)
