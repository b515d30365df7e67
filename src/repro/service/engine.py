"""The reusable Assess-Risk engine behind the service layer.

:func:`repro.recipe.assess.assess_risk` answers one question from
scratch.  The :class:`AssessmentEngine` turns that recipe into a
server-grade component:

* **Result cache** — answers are content-addressed by
  :func:`~repro.service.fingerprint.request_fingerprint`; a repeated
  question is a dictionary lookup (plus an optional disk tier, see
  :class:`~repro.service.cache.AssessmentCache`).
* **Shared intermediates** — the engine runs the recipe through its
  stage hook (:class:`~repro.recipe.assess.StageRunner`) and memoizes
  the stages that do not depend on the tolerance: the
  :class:`FrequencyGroups` per profile, and the bipartite space, the
  exact-engine result and the attack summary per ``(profile,
  delta[, interest])``.  A tolerance sweep over one release, or a batch
  of requests against the same data, computes them once.
* **Deterministic randomness** — the alpha stage's RNG is seeded from
  the request fingerprint (:func:`~repro.service.fingerprint.derived_seed`),
  so the same question yields byte-identical JSON whether it runs
  inline, through :meth:`assess_many` with one worker, or fanned out
  across a process pool.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Generic, Hashable, Iterable, Sequence, TypeVar, cast

import numpy as np

from repro.budget import ComputeBudget
from repro.data.database import FrequencyProfile, FrequencySource
from repro.errors import ReproError
from repro.recipe.assess import RiskAssessment, assess_risk
from repro.service.breaker import CircuitBreaker
from repro.service.cache import AssessmentCache
from repro.service.faults import fault_point
from repro.service.fingerprint import (
    AssessmentParams,
    derived_seed,
    profile_fingerprint,
    request_fingerprint,
)
from repro.service.metrics import ServiceMetrics

__all__ = ["AssessmentOutcome", "BatchResult", "AssessmentEngine"]


@dataclass(frozen=True)
class AssessmentOutcome:
    """One answered question: the assessment plus serving metadata."""

    assessment: RiskAssessment
    fingerprint: str
    cached: bool
    elapsed_seconds: float


@dataclass(frozen=True)
class BatchResult:
    """One slot of an :meth:`AssessmentEngine.assess_many` batch.

    Either *assessment* is set (``ok``) or *error* carries the message of
    the exception that job raised — one bad dataset never kills a batch.
    """

    index: int
    fingerprint: str
    assessment: RiskAssessment | None
    error: str | None
    cached: bool
    elapsed_seconds: float
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.assessment is not None


_K = TypeVar("_K")
_V = TypeVar("_V")
_T = TypeVar("_T")

#: Marks a memo miss, so that a memoized ``None`` (a skipped attack
#: summary) still counts as a hit.
_MISS: Any = object()


class _LRU(Generic[_K, _V]):
    """A tiny bounded mapping for memoized intermediates (thread-safe)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[_K, _V] = OrderedDict()

    def get(self, key: _K, default: _V | None = None) -> _V | None:
        with self._lock:
            if key not in self._data:
                return default
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: _K, value: _V) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)


def _budget_independent(name: str, value: Any) -> bool:
    """Whether a stage result computed under a deadline may be memoized.

    The exact and attack stages degrade to "skipped" when the budget
    runs out, which a budget-free run might not have done; only a result
    naming an exact strategy, or an attack summary that exists, is a
    property of the instance.
    """
    if name == "exact":
        return value[1] is not None
    if name == "attack":
        return value is not None
    return True


def _as_profile(source: FrequencySource) -> FrequencyProfile:
    if isinstance(source, FrequencyProfile):
        return source
    to_profile = getattr(source, "to_profile", None)
    if to_profile is not None:
        return to_profile()
    counts = {item: source.item_count(item) for item in source.domain}
    return FrequencyProfile(counts, source.n_transactions)


class AssessmentEngine:
    """Cached, intermediate-sharing executor of the Assess-Risk recipe.

    Parameters
    ----------
    cache:
        Result cache; defaults to a fresh in-memory
        :class:`AssessmentCache`.
    metrics:
        Shared :class:`ServiceMetrics`; defaults to a private instance.
    max_profiles, max_spaces:
        Bounds on the memoized intermediates (frequency groups per
        profile; space, exact-engine result and attack summary per
        ``(profile, delta)``).
    breaker:
        Circuit breaker guarding the serial compute path; defaults to a
        fresh :class:`~repro.service.breaker.CircuitBreaker` sharing the
        engine's metrics.  Pool workers are separate processes and are
        deliberately outside the breaker.
    """

    def __init__(
        self,
        cache: AssessmentCache | None = None,
        metrics: ServiceMetrics | None = None,
        max_profiles: int = 16,
        max_spaces: int = 8,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.cache = AssessmentCache() if cache is None else cache
        self.metrics = ServiceMetrics() if metrics is None else metrics
        self.breaker = (
            CircuitBreaker(metrics=self.metrics) if breaker is None else breaker
        )
        # Recipe stage -> memo keyed by (profile fingerprint, stage key).
        # The exact marginals and the attack summary depend only on the
        # space, not on the tolerance, so a tolerance sweep re-derives
        # the decision per tolerance while solving the hard counting
        # problems once.
        self._memos: dict[str, _LRU[Hashable, Any]] = {
            "groups": _LRU(max_profiles),
            "space": _LRU(max_spaces),
            "exact": _LRU(max_spaces * 4),
            "attack": _LRU(max_spaces * 4),
        }
        # id() -> (profile, fingerprint).  Holding the profile keeps its
        # id() valid for as long as the entry lives, so re-assessing the
        # same object (sweeps, repeated server hits) skips the content
        # hash entirely.
        self._fingerprints: _LRU[int, tuple[FrequencyProfile, str]] = _LRU(
            max_profiles * 2
        )

    # -- single requests --------------------------------------------------

    def assess(
        self,
        source: FrequencySource,
        tolerance: float,
        *,
        delta: float | None = None,
        runs: int = 5,
        seed: int = 0,
        interest: Iterable | None = None,
        budget: ComputeBudget | None = None,
    ) -> AssessmentOutcome:
        """Answer one question, through the cache."""
        params = AssessmentParams(
            tolerance=tolerance, delta=delta, runs=runs, seed=seed,
            interest=None if interest is None else frozenset(interest),
        )
        return self.assess_request(source, params, budget=budget)

    def assess_request(
        self,
        source: FrequencySource,
        params: AssessmentParams,
        budget: ComputeBudget | None = None,
    ) -> AssessmentOutcome:
        """Answer one pre-packaged request, through the cache.

        Lookups are single-flight: concurrent requests for the same
        fingerprint (e.g. simultaneous HTTP hits) run one computation
        and share its result instead of racing.

        *budget* attaches a per-request deadline (see
        :mod:`repro.service.budget`).  Budgets are deliberately *not*
        part of the fingerprint — the answer to a question does not
        depend on how long the client was willing to wait — so a
        deadline-bearing request still hits the shared cache; but a
        *partial* (INCONCLUSIVE) result is never cached, because a
        different deadline could have done better.  Deadline-bearing
        misses skip the single-flight rendezvous: sharing another
        request's computation would mean inheriting someone else's
        deadline.
        """
        start = time.perf_counter()
        self.metrics.increment("requests")
        profile = _as_profile(source)
        fingerprint = request_fingerprint(
            profile, params, profile_hash=self._profile_fp(profile)
        )

        def compute() -> RiskAssessment:
            self.metrics.increment("computed")
            with self.metrics.timer("assess"):
                return self._compute(profile, params, fingerprint, budget=budget)

        if budget is None:
            assessment, origin = self.cache.get_or_compute(
                fingerprint, lambda: self.breaker.call(compute)
            )
            cached = origin != "computed"
        elif self.cache.shared:
            # Deadline-bearing misses still coordinate across replicas:
            # another process's in-progress artifact can be awaited for
            # up to the remaining budget (compute_shared falls back to a
            # local compute past that), and a partial result is withheld
            # from the cache by the store predicate.
            assessment, origin = self.cache.compute_shared(
                fingerprint,
                lambda: self.breaker.call(compute),
                timeout_seconds=budget.remaining_seconds(),
                store=lambda result: not result.partial,
            )
            cached = origin != "computed"
            if not cached and assessment.partial:
                self.metrics.increment("partial_results")
        else:
            hit = self.cache.get(fingerprint)
            if hit is not None:
                assessment, cached = hit, True
            else:
                assessment = self.breaker.call(compute)
                cached = False
                if not assessment.partial:
                    self.cache.put(fingerprint, assessment)
                else:
                    self.metrics.increment("partial_results")
        if cached:
            self.metrics.increment("cache_hits")
        return AssessmentOutcome(
            assessment=assessment,
            fingerprint=fingerprint,
            cached=cached,
            elapsed_seconds=time.perf_counter() - start,
        )

    # -- batches and sweeps ----------------------------------------------

    def assess_many(
        self,
        requests: Sequence[tuple[FrequencySource, AssessmentParams]],
        workers: int = 1,
        *,
        retries: int = 2,
        backoff_seconds: float = 0.05,
        timeout_seconds: float | None = None,
        deadline_seconds: float | None = None,
    ) -> list[BatchResult]:
        """Answer a batch, optionally fanned out across processes.

        Results are returned in input order and are identical for any
        *workers* value (per-job seeds derive from the fingerprints, not
        from scheduling).  Cache hits are served without touching the
        pool; computed results are inserted into the cache.

        Transient failures (anything but a deterministic
        :class:`~repro.errors.ReproError`) are retried up to *retries*
        times with exponential backoff, on the serial path and inside
        the pool alike.  *timeout_seconds* caps each pool job's
        wall-clock time (measured from submission; serial jobs cannot be
        preempted and ignore it).  *deadline_seconds* attaches a
        per-job cooperative :class:`~repro.budget.ComputeBudget` on the
        serial path: computations degrade to INCONCLUSIVE partial
        results near the deadline, retry backoff never sleeps past it,
        and partial results are not cached.
        """
        if workers <= 1:
            return [
                self._assess_job(
                    index, source, params, retries, backoff_seconds,
                    deadline_seconds=deadline_seconds,
                )
                for index, (source, params) in enumerate(requests)
            ]

        jobs: list[tuple[int, FrequencyProfile, AssessmentParams, str]] = []
        results: dict[int, BatchResult] = {}
        for index, (source, params) in enumerate(requests):
            start = time.perf_counter()
            self.metrics.increment("requests")
            profile = _as_profile(source)
            fingerprint = request_fingerprint(
                profile, params, profile_hash=self._profile_fp(profile)
            )
            cached = self.cache.get(fingerprint)
            if cached is not None:
                self.metrics.increment("cache_hits")
                results[index] = BatchResult(
                    index=index,
                    fingerprint=fingerprint,
                    assessment=cached,
                    error=None,
                    cached=True,
                    elapsed_seconds=time.perf_counter() - start,
                )
            else:
                jobs.append((index, profile, params, fingerprint))

        if jobs:
            from repro.service.pool import run_batch

            for result in run_batch(
                jobs,
                workers=workers,
                retries=retries,
                backoff_seconds=backoff_seconds,
                timeout_seconds=timeout_seconds,
            ):
                if result.ok:
                    self.metrics.increment("computed")
                    self.cache.put(result.fingerprint, result.assessment)
                else:
                    self.metrics.increment("errors")
                results[result.index] = result

        return [results[index] for index in range(len(requests))]

    def _assess_job(
        self,
        index: int,
        source: FrequencySource,
        params: AssessmentParams,
        retries: int,
        backoff_seconds: float,
        deadline_seconds: float | None = None,
    ) -> BatchResult:
        """One serial batch slot: single-flight cache + retry, error captured."""
        start = time.perf_counter()
        self.metrics.increment("requests")
        attempts = [0]
        try:
            profile = _as_profile(source)
            fingerprint = request_fingerprint(
                profile, params, profile_hash=self._profile_fp(profile)
            )
        except Exception as exc:
            self.metrics.increment("errors")
            return BatchResult(
                index=index,
                fingerprint="",
                assessment=None,
                error=f"{type(exc).__name__}: {exc}",
                cached=False,
                elapsed_seconds=time.perf_counter() - start,
            )

        budget = (
            None
            if deadline_seconds is None
            else ComputeBudget(seconds=deadline_seconds)
        )

        def compute() -> RiskAssessment:
            self.metrics.increment("computed")
            with self.metrics.timer("assess"):
                return self._compute_with_retries(
                    profile, params, fingerprint, retries, backoff_seconds,
                    attempts, budget=budget,
                )

        try:
            if budget is None:
                assessment, origin = self.cache.get_or_compute(fingerprint, compute)
            else:
                # Deadline-bearing slots mirror assess_request: skip the
                # single-flight rendezvous (another request's deadline is
                # not ours) and never cache a partial result.
                hit = self.cache.get(fingerprint)
                if hit is not None:
                    assessment, origin = hit, "cache"
                else:
                    assessment, origin = compute(), "computed"
                    if not assessment.partial:
                        self.cache.put(fingerprint, assessment)
                    else:
                        self.metrics.increment("partial_results")
        except Exception as exc:  # per-job capture, batch survives
            self.metrics.increment("errors")
            return BatchResult(
                index=index,
                fingerprint=fingerprint,
                assessment=None,
                error=f"{type(exc).__name__}: {exc}",
                cached=False,
                elapsed_seconds=time.perf_counter() - start,
                attempts=max(1, attempts[0]),
            )
        cached = origin != "computed"
        if cached:
            self.metrics.increment("cache_hits")
        return BatchResult(
            index=index,
            fingerprint=fingerprint,
            assessment=assessment,
            error=None,
            cached=cached,
            elapsed_seconds=time.perf_counter() - start,
            attempts=max(1, attempts[0]),
        )

    def _compute_with_retries(
        self,
        profile: FrequencyProfile,
        params: AssessmentParams,
        fingerprint: str,
        retries: int,
        backoff_seconds: float,
        attempts: list[int] | None = None,
        budget: ComputeBudget | None = None,
    ) -> RiskAssessment:
        """Run :meth:`_compute`, retrying transient failures with backoff.

        A :class:`~repro.errors.ReproError` is deterministic (the same
        inputs will fail the same way) and is never retried; anything
        else — injected I/O faults, flaky system calls — is retried up
        to *retries* times.  Determinism of the result is unaffected:
        the RNG seed derives from the fingerprint, so a retried job
        produces byte-identical output.

        With a deadline-bearing *budget*, the exponential backoff never
        oversleeps the remaining deadline: each sleep is capped by what
        is left, and when nothing is left the last failure is re-raised
        immediately instead of burning the caller's budget in
        ``time.sleep`` (the computation itself still degrades through
        :meth:`_compute`'s usual partial-estimate path).
        """
        attempt = 0
        while True:
            if attempts is not None:
                attempts[0] = attempt + 1
            try:
                return self._compute(profile, params, fingerprint, budget=budget)
            except ReproError:
                raise
            except Exception:
                if attempt >= retries:
                    raise
                delay = backoff_seconds * (2**attempt)
                if budget is not None:
                    remaining = budget.remaining_seconds()
                    if remaining is not None:
                        if remaining <= 0:
                            raise
                        delay = min(delay, remaining)
                self.metrics.increment("retries")
                time.sleep(delay)
                attempt += 1

    def sweep_tolerance(
        self,
        source: FrequencySource,
        tolerances: Sequence[float],
        *,
        delta: float | None = None,
        runs: int = 5,
        seed: int = 0,
        interest: Iterable | None = None,
    ) -> list[AssessmentOutcome]:
        """Assess one release under many tolerances, sharing one space.

        The memoized intermediates make this build the frequency groups,
        belief and bipartite space once for the whole sweep instead of
        once per tolerance.
        """
        return [
            self.assess(
                source, tolerance, delta=delta, runs=runs, seed=seed,
                interest=interest,
            )
            for tolerance in tolerances
        ]

    # -- shared intermediates ---------------------------------------------

    def _profile_fp(self, profile: FrequencyProfile) -> str:
        """The profile's content hash, memoized per object identity."""
        key = id(profile)
        memo = self._fingerprints.get(key)
        if memo is not None and memo[0] is profile:
            return memo[1]
        fingerprint = profile_fingerprint(profile)
        self._fingerprints.put(key, (profile, fingerprint))
        return fingerprint

    def _run_stage(
        self,
        profile_key: str,
        budget: ComputeBudget | None,
        name: str,
        key: Hashable | None,
        compute: Callable[[], _T],
    ) -> _T:
        """Run one recipe stage through the engine's memos and timers."""
        memo = None if key is None else self._memos.get(name)
        memo_key = (profile_key, key)
        value: Any = _MISS if memo is None else memo.get(memo_key, _MISS)
        if value is _MISS:
            with self.metrics.timer(f"stage:{name}"):
                value = compute()
            if memo is not None and (
                budget is None or _budget_independent(name, value)
            ):
                memo.put(memo_key, value)
        elif name in ("exact", "attack"):
            self.metrics.increment(f"{name}_memo_hits")
        if name == "exact":
            strategy = value[1]
            if strategy is not None:
                self.metrics.increment("exact_served")
                self.metrics.increment(f"exact:{strategy}")
            else:
                self.metrics.increment("exact_skipped")
        return cast(_T, value)

    def _compute(
        self,
        profile: FrequencyProfile,
        params: AssessmentParams,
        fingerprint: str,
        budget: ComputeBudget | None = None,
    ) -> RiskAssessment:
        fault_point("engine.compute")
        if budget is not None:
            budget.poll()
        profile_key = self._profile_fp(profile)

        def run_stage(name: str, key: Hashable | None, compute: Callable[[], _T]) -> _T:
            return self._run_stage(profile_key, budget, name, key, compute)

        # The alpha stage's RNG is pinned to the request fingerprint.
        return assess_risk(
            profile,
            params.tolerance,
            delta=params.delta,
            runs=params.runs,
            rng=np.random.default_rng(derived_seed(fingerprint)),
            interest=params.interest,
            budget=budget,
            run_stage=run_stage,
        )
