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
"""

from __future__ import annotations

from typing import Callable, Hashable

_ROOT = None  # the reader key of the entry's runs


class Fixpoint:
    def __init__(self, compute: Callable, merge: Callable, bottom: Callable):
        self._compute = compute  # (key, input) -> one run of the context's body
        self._merge = merge  # (key, old summary, run result) -> grown summary
        self._bottom = bottom  # input -> the summary a new context starts at
        self.table: dict[Hashable, object] = {}
        self.inputs: dict[Hashable, object] = {}
        # ordered sets, so the order of runs never depends on hashing
        self._readers: dict[Hashable, dict[Hashable, None]] = {}
        self._pending: dict[Hashable, None] = {}
        self._reader: Hashable = _ROOT
        self._solving = False

    def lookup(self, key: Hashable, inp):
        """A context's summary, read by the running context; an unknown one
        starts at bottom during ``solve`` and raises ``KeyError`` after."""
        if self._solving:
            if key not in self.table:
                self.table[key] = self._bottom(inp)
                self.inputs[key] = inp
                self._pending[key] = None
            self._readers.setdefault(key, {})[self._reader] = None
        return self.table[key]

    def solve(self, root: Callable[[], object]) -> tuple[object, int]:
        """Run the entry and every context to the fixpoint; returns what the
        entry's last run returned and the number of entry runs."""
        result, runs = None, 0
        self._solving = True
        self._pending[_ROOT] = None
        while self._pending:
            key = next((k for k in self._pending if k is not _ROOT), _ROOT)
            del self._pending[key]
            self._reader = key
            if key is _ROOT:
                runs += 1
                result = root()
                continue
            old = self.table[key]
            new = self._merge(key, old, self._compute(key, self.inputs[key]))
            if new != old:
                self.table[key] = new
                self._pending.update(self._readers[key])
        self._solving = False
        return result, runs
