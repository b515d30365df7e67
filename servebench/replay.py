"""In-process replay of a plan through ``ServiceCore.dispatch``.

The replay builds a fresh engine configured like the replica (a shared
cache tier in a fresh directory, every other setting at its default),
answers the plan's set-up bodies, then the window bodies, one at a time.
It serves three purposes:

* the response oracle -- every answer the replica gave is recomputed
  here, outside any timing, and compared byte for byte;
* the deterministic-work guard -- its counters over the window are what
  the replica's must be;
* the traced run -- with a :class:`~tracing.Tracer` installed, the same
  replay yields per-layer self times; the recipe stages' times come from
  the engine's own ``stage:*`` timers over the window.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.graph import intervaldp
from repro.service import AssessmentCache, AssessmentEngine
from repro.service.routes import RouteResponse, ServiceCore

from replica import commit_lines
from tracing import Tracer
from workloads import Plan

__all__ = [
    "Answer",
    "Replay",
    "ReplayResult",
    "counters",
    "parse_answer",
    "replay",
    "window_counters",
]

#: Engine counters that must not change between runs of one seed.
_ENGINE_COUNTERS = (
    "computed",
    "cache_hits",
    "exact_memo_hits",
    "attack_memo_hits",
    "exact_served",
    "exact_skipped",
)
#: Cache-tier counters that must not change between runs of one seed.
_CACHE_COUNTERS = (
    "hits",
    "misses",
    "memory_hits",
    "disk_hits",
    "coalesced",
    "lease_acquired",
    "lease_coalesced",
    "lease_takeovers",
    "lease_timeouts",
    "disk_commits",
)


@dataclass(frozen=True)
class Answer:
    """The parts of one ``POST /assess`` response that must reproduce."""

    status: int
    fingerprint: str | None
    cached: bool | None
    partial: bool | None
    decision: str | None
    #: ``json.dumps(assessment, sort_keys=True)`` -- the server's own
    #: rendering, so equal answers compare equal byte for byte.
    assessment: str | None


def parse_answer(status: int, payload: dict[str, Any]) -> Answer:
    """The reproducible fields of a response payload."""
    if status != 200:
        return Answer(status, None, None, None, None, None)
    assessment = payload["assessment"]
    return Answer(
        status=status,
        fingerprint=payload["fingerprint"],
        cached=payload["cached"],
        partial=payload["partial"],
        decision=assessment.get("decision"),
        assessment=json.dumps(assessment, sort_keys=True),
    )


def counters(metrics: dict[str, Any], commits: int) -> dict[str, int]:
    """The guarded counters out of a ``GET /metrics`` payload."""
    engine = metrics["metrics"]["counters"]
    cache = metrics["cache"]
    picked = {name: int(engine.get(name, 0)) for name in _ENGINE_COUNTERS}
    picked.update(
        {name: int(value) for name, value in engine.items() if name.startswith("exact:")}
    )
    picked.update({f"cache.{name}": int(cache.get(name, 0)) for name in _CACHE_COUNTERS})
    picked["commit_log_lines"] = commits
    return picked


def window_counters(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Per-counter increase over the window (zero increases dropped)."""
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in set(before) | set(after)}
    return {name: value for name, value in sorted(delta.items()) if value}


def _clear_process_memos() -> None:
    """Empty the program's process-wide memos, as in a fresh replica."""
    intervaldp.clear_dp_memo()
    law = getattr(intervaldp, "_match_count_law", None)
    if law is not None and hasattr(law, "cache_clear"):
        law.cache_clear()


def _stage_timers(core: ServiceCore) -> dict[str, tuple[int, float]]:
    """The engine's ``stage:<name>`` timers as ``name -> (runs, seconds)``."""
    timers = core.engine.metrics.snapshot()["timers"]
    return {
        name.split(":", 1)[1]: (timer["count"], timer["total_seconds"])
        for name, timer in timers.items()
        if name.startswith("stage:")
    }


def _dp_memo_totals() -> tuple[int, int]:
    stats = intervaldp.dp_memo_stats()
    hits = sum(value for key, value in stats.items() if key.endswith("_hits"))
    misses = sum(value for key, value in stats.items() if key.endswith("_misses"))
    return hits, misses


@dataclass
class ReplayResult:
    answers: list[Answer]
    latencies: list[float]
    counters: dict[str, int]
    #: ``stage -> (runs, seconds)`` over the window, from the engine's
    #: ``stage:*`` timers (a stage skipped on a memo hit does not run).
    stages: dict[str, tuple[int, float]]
    dp_memo_hits: int
    dp_memo_misses: int
    setup_failures: list[int]


def _snapshot(core: ServiceCore, cache_dir: Path) -> dict[str, int]:
    payload = {"metrics": core.engine.metrics.snapshot(), "cache": core.engine.cache.stats()}
    return counters(payload, commit_lines(cache_dir))


class Replay:
    """A replay in progress: set-up answered, window bodies fed one by one.

    Feeding the window step by step lets a run interleave the replay
    with the HTTP window, so both see the same host conditions.
    """

    def __init__(self, plan: Plan, cache_dir: Path, tracer: Tracer | None = None) -> None:
        _clear_process_memos()
        cache_dir.mkdir(parents=True)
        self._cache_dir = cache_dir
        self._core = ServiceCore(
            AssessmentEngine(cache=AssessmentCache(directory=cache_dir, shared=True))
        )
        self.setup_failures = [
            index
            for index, body in enumerate(plan.setup)
            if self._core.dispatch("POST", "/assess", body).status != 200
        ]
        self._before = _snapshot(self._core, cache_dir)
        self._dp_before = _dp_memo_totals()
        self._stages_before = _stage_timers(self._core)
        if tracer is not None:
            tracer.reset()
        self._latencies: list[float] = []
        self._responses: list[RouteResponse] = []

    def step(self, body: bytes) -> None:
        """Answer the next window body, timing the dispatch."""
        start = time.perf_counter()
        response = self._core.dispatch("POST", "/assess", body)
        self._latencies.append(time.perf_counter() - start)
        self._responses.append(response)

    def finish(self) -> ReplayResult:
        dp_after = _dp_memo_totals()
        after = _snapshot(self._core, self._cache_dir)
        stages: dict[str, tuple[int, float]] = {}
        for name, (runs, seconds) in _stage_timers(self._core).items():
            runs_before, seconds_before = self._stages_before.get(name, (0, 0.0))
            stages[name] = (runs - runs_before, seconds - seconds_before)
        return ReplayResult(
            answers=[parse_answer(r.status, r.payload) for r in self._responses],
            latencies=self._latencies,
            counters=window_counters(self._before, after),
            stages=stages,
            dp_memo_hits=dp_after[0] - self._dp_before[0],
            dp_memo_misses=dp_after[1] - self._dp_before[1],
            setup_failures=self.setup_failures,
        )


def replay(plan: Plan, cache_dir: Path, tracer: Tracer | None = None) -> ReplayResult:
    """Answer *plan* in-process; *tracer*, if given, must be installed."""
    run = Replay(plan, cache_dir, tracer)
    for body in plan.window:
        run.step(body)
    return run.finish()
