"""Whole-program dataflow layer under ``repro-lint`` (stdlib ``ast`` only).

Where :mod:`repro.analysis.lint` checks one file at a time, this package
sees the project: a call graph (:mod:`.callgraph`), per-function CFGs
(:mod:`.cfg`), a fixpoint framework (:mod:`.dataflow`), and on top of
them the three whole-program analyses the CC/FS005/DT004 lint families
report from — lockset race detection (:mod:`.locks`), interprocedural
budget coverage (:mod:`.budgetcov`) and nondeterminism taint
(:mod:`.taint`).  See ``docs/analysis.md``.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.flow.budgetcov import DEFAULT_ENTRY_POINTS, BudgetCoverage
from repro.analysis.flow.callgraph import CallGraph, build_call_graph
from repro.analysis.flow.locks import LockAnalysis
from repro.analysis.flow.taint import TaintAnalysis
from repro.analysis.lint.engine import FileContext

__all__ = [
    "FlowProgram",
    "CONCURRENCY_SCOPE",
    "THREAD_ROOT_SUFFIXES",
    "build_call_graph",
    "BudgetCoverage",
    "LockAnalysis",
    "TaintAnalysis",
    "DEFAULT_ENTRY_POINTS",
]

#: Modules whose classes the lockset analysis models: the service tier,
#: plus the solver that crack sessions share across request threads.
CONCURRENCY_SCOPE = ("repro.service", "repro.attack.solver")

#: Functions that run concurrently even without an explicit
#: ``threading.Thread(target=...)`` spawn: the HTTP front end calls
#: ``ServiceCore.dispatch`` from many executor threads at once.
THREAD_ROOT_SUFFIXES = ("ServiceCore.dispatch",)


class FlowProgram:
    """One whole-program analysis pass shared by every flow rule."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts = contexts
        self.graph: CallGraph = build_call_graph(contexts)
        self._locks: LockAnalysis | None = None
        self._budget: BudgetCoverage | None = None
        self._taint: TaintAnalysis | None = None

    def thread_roots(self) -> list[str]:
        roots = set(self.graph.thread_targets)
        for qualname in self.graph.functions:
            if qualname.endswith(THREAD_ROOT_SUFFIXES):
                roots.add(qualname)
        return sorted(roots)

    @property
    def locks(self) -> LockAnalysis:
        if self._locks is None:
            self._locks = LockAnalysis(
                self.contexts,
                self.graph,
                roots=self.thread_roots(),
                scope_prefixes=CONCURRENCY_SCOPE,
            )
        return self._locks

    @property
    def budget(self) -> BudgetCoverage:
        if self._budget is None:
            self._budget = BudgetCoverage(self.graph)
        return self._budget

    @property
    def taint(self) -> TaintAnalysis:
        if self._taint is None:
            self._taint = TaintAnalysis(self.graph)
        return self._taint

    def stats(self) -> dict:
        """The ``BENCH_lint.json`` flow block."""
        return {
            "call_graph": self.graph.stats(),
            "thread_roots": len(self.thread_roots()),
            "budget_coverage": self.budget.stats(),
            "taint": self.taint.stats(),
        }
