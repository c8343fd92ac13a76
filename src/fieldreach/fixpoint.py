"""Memoised interprocedural fixpoint driven by a dependency worklist.

Both analyses summarise a method per context (the method plus an abstract
entry value).  The table maps each context to its summary and remembers who
read it.  ``solve(root)`` runs the entry, then the contexts it met; a
context runs again only when a summary it read has grown, and the entry
runs again only once no context is pending.  This is the tabulation of
Reps, Horwitz and Sagiv (POPL 1995); loops keep their local iteration.
``solve`` returns what the entry's last run returned, with the number of
entry runs.  After ``solve`` every context's last run read only final
summaries, so a lookup of a context the fixpoint never met is an error, not
a silent bottom.

Two policies decide when a new context runs.  With ``depth`` 0 it is
queued: the run that met it goes on with its bottom summary and runs again
once the context has grown.  With ``depth`` d > 0 it is solved on the spot,
the top-down fixpoint of Le Charlier and Van Hentenryck (TOPLAS 1992): the
lookup runs it, and every context that becomes pending meanwhile, until no
context is pending but those whose runs are in progress, and only then
returns its summary and records the reader.  A caller that reads only
contexts solved this way, as in a program without recursion, runs once.
Runs nest at most d deep, and only while the Python stack has room for
``_RESERVE`` more frames; a context met deeper is queued as under the first
policy, so a long chain of calls, or one whose bodies nest deeply, takes no
more of the stack than the parser's nesting bound allows one run.  When
summaries only grow and nothing is widened, any fair order of runs reaches
the same least fixpoint, so the two policies give the same table and the
same last runs; the deep-sharing analysis solves on the spot, and the
reachability analysis, which widens and reports its entry runs, queues.
"""

from __future__ import annotations

import sys
from typing import Callable, Hashable

_ROOT = None  # the reader key of the entry's runs
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


class Fixpoint:
    def __init__(self, compute: Callable, merge: Callable, bottom: Callable, depth: int = 0):
        self._compute = compute  # (key, input) -> one run of the context's body
        self._merge = merge  # (key, old summary, run result) -> grown summary
        self._bottom = bottom  # input -> the summary a new context starts at
        self._depth = depth  # how deep new contexts are solved on the spot
        self.table: dict[Hashable, object] = {}
        self.inputs: dict[Hashable, object] = {}
        # ordered sets, so the order of runs never depends on hashing
        self._readers: dict[Hashable, dict[Hashable, None]] = {}
        self._pending: dict[Hashable, None] = {}
        self._running: dict[Hashable, None] = {}  # the contexts whose runs are in progress
        self._reader: Hashable = _ROOT
        self._nested = 0  # on-the-spot solves in progress
        self._solving = False

    def lookup(self, key: Hashable, inp):
        """A context's summary, read by the running context; an unknown one
        is solved on the spot or starts at bottom during ``solve``, and
        raises ``KeyError`` after."""
        if self._solving:
            if key not in self.table:
                self.table[key] = self._bottom(inp)
                self.inputs[key] = inp
                self._pending[key] = None
                if self._nested < self._depth and _stack_has_room(_RESERVE):
                    self._nested += 1
                    self._settle()
                    self._nested -= 1
            self._readers.setdefault(key, {})[self._reader] = None
        return self.table[key]

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
            key = next(
                (k for k in pending if k is not _ROOT and not (running and k in running)),
                _ROOT,
            )
            if key is _ROOT:
                return
            del pending[key]
            reader, self._reader = self._reader, key
            running[key] = None
            old = self.table[key]
            new = self._merge(key, old, self._compute(key, self.inputs[key]))
            del running[key]
            self._reader = reader
            if new != old:
                self.table[key] = new
                pending.update(self._readers.get(key, {}))
