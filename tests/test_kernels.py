"""Vectorized exact kernels, DP memoization and the permanent-path fixes.

Pins the contract of this change set:

* the chunked numpy Ryser and the batched block kernel are bit-identical
  to the pure-Python exact-int reference on every matrix class they
  accept (random integral, zero blocks, negative, astronomically large);
* budgets cancel the chunked walk cooperatively mid-chunk;
* the interval-DP memo layer never changes a result, and
  ``sweep_tolerance`` is byte-identical with and without it;
* the three permanent-path bugfixes (dead ``_ryser`` dispatcher,
  cap-gated block splitting, deadline-oblivious retry backoff) stay
  fixed.
"""

import importlib
import time

import numpy as np
import pytest

# `repro.graph` re-exports a `permanent` *function*, which shadows the
# submodule under plain `import repro.graph.permanent as ...`.
permanent_module = importlib.import_module("repro.graph.permanent")
from repro.budget import ComputeBudget
from repro.data.database import FrequencyProfile
from repro.errors import BudgetExceeded, GraphError
from repro.graph.intervaldp import (
    DPBudget,
    assignment_count,
    class_pin_counts,
    class_placement_totals,
    clear_dp_memo,
    dp_memo_stats,
)
from repro.graph.kernels import (
    permanent_batch,
    ryser_int,
    ryser_int_chunked,
    ryser_int_python,
)
from repro.graph.permanent import permanent
from repro.io import assessment_to_json
from repro.service.engine import AssessmentEngine


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def random_integral_matrices(seed: int):
    """Matrices covering every dispatch path of the vectorized kernels."""
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(40):
        n = int(rng.integers(0, 13))
        style = trial % 5
        if style == 0:
            m = rng.integers(0, 2, size=(n, n))  # adjacency
        elif style == 1:
            m = rng.integers(-5, 6, size=(n, n))  # signed
        elif style == 2:
            m = rng.integers(0, 10**9, size=(n, n))  # int64 segmentation
        elif style == 3:
            m = rng.integers(0, 2, size=(n, n)).astype(float)  # whole floats
        else:
            m = rng.integers(0, 2, size=(n, n))
            if n >= 4:  # plant a zero block
                m[: n // 2, n // 2 :] = 0
                m[n // 2 :, : n // 2] = 0
        cases.append(np.asarray(m))
    return cases


class TestChunkedRyser:
    def test_bit_identical_to_pure_python(self):
        for matrix in random_integral_matrices(seed=11):
            assert ryser_int_chunked(matrix) == ryser_int_python(matrix)

    def test_dispatcher_matches_reference(self):
        for matrix in random_integral_matrices(seed=17):
            assert ryser_int(matrix) == ryser_int_python(matrix)

    def test_object_dtype_fallback_is_exact(self):
        rng = np.random.default_rng(3)
        huge = rng.integers(1, 9, size=(10, 10)).astype(object) * 10**40
        assert ryser_int_chunked(huge) == ryser_int_python(huge)

    def test_int64_segmentation_path_is_exact(self):
        rng = np.random.default_rng(5)
        wide = rng.integers(10**8, 10**9, size=(12, 12))
        assert ryser_int_chunked(wide) == ryser_int_python(wide)

    def test_chunk_size_does_not_change_results(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 2, size=(11, 11))
        reference = ryser_int_python(matrix)
        for chunk in (1, 3, 64, 1 << 11, 1 << 13):
            assert ryser_int_chunked(matrix, chunk=chunk) == reference

    def test_budget_cancels_mid_chunk(self):
        clock = FakeClock()
        budget = ComputeBudget(seconds=0.5, clock=clock, poll_every=1)
        clock.advance(1.0)
        rng = np.random.default_rng(9)
        matrix = rng.integers(0, 2, size=(14, 14))
        with pytest.raises(BudgetExceeded):
            ryser_int_chunked(matrix, budget=budget)

    def test_empty_matrix(self):
        assert ryser_int_chunked(np.zeros((0, 0), dtype=np.int64)) == 1


class TestPermanentBatch:
    def test_matches_per_matrix_reference(self):
        rng = np.random.default_rng(13)
        for n in (0, 1, 5, 9, 10):
            mats = [rng.integers(0, 2, size=(n, n)) for _ in range(7)]
            assert permanent_batch(mats) == [ryser_int_python(m) for m in mats]

    def test_mixed_magnitudes_share_a_safe_segmentation(self):
        rng = np.random.default_rng(15)
        small = rng.integers(0, 2, size=(10, 10))
        large = rng.integers(10**7, 10**8, size=(10, 10))
        assert permanent_batch([small, large]) == [
            ryser_int_python(small),
            ryser_int_python(large),
        ]

    def test_object_straggler_evaluated_individually(self):
        rng = np.random.default_rng(17)
        mats = [rng.integers(0, 2, size=(9, 9)) for _ in range(3)]
        mats.append(rng.integers(1, 5, size=(9, 9)).astype(object) * 10**40)
        assert permanent_batch(mats) == [ryser_int_python(m) for m in mats]

    def test_unequal_shapes_rejected(self):
        with pytest.raises(GraphError, match="equal shapes"):
            permanent_batch([np.ones((3, 3), dtype=np.int64), np.ones((4, 4), dtype=np.int64)])

    def test_non_square_rejected(self):
        with pytest.raises(GraphError, match="square"):
            permanent_batch([np.ones((3, 4), dtype=np.int64)])

    def test_empty_batch(self):
        assert permanent_batch([]) == []

    def test_budget_cancels_batched_walk(self):
        clock = FakeClock()
        budget = ComputeBudget(seconds=0.5, clock=clock, poll_every=1)
        clock.advance(1.0)
        rng = np.random.default_rng(19)
        mats = [rng.integers(0, 2, size=(12, 12)) for _ in range(4)]
        with pytest.raises(BudgetExceeded):
            permanent_batch(mats, budget=budget)


class TestPermanentPathFixes:
    def test_dead_ryser_dispatcher_removed(self):
        # Satellite: the unbudgeted `_ryser` dispatcher is gone; the
        # pure reference under its historical name still takes a budget.
        assert not hasattr(permanent_module, "_ryser")
        clock = FakeClock()
        budget = ComputeBudget(seconds=0.5, clock=clock, poll_every=1)
        clock.advance(1.0)
        rng = np.random.default_rng(21)
        with pytest.raises(BudgetExceeded):
            permanent_module._ryser_int(
                rng.integers(0, 2, size=(14, 14)), budget=budget
            )

    def test_permanent_threads_budget_through_kernels(self):
        clock = FakeClock()
        budget = ComputeBudget(seconds=0.5, clock=clock, poll_every=1)
        clock.advance(1.0)
        rng = np.random.default_rng(23)
        with pytest.raises(BudgetExceeded):
            permanent(rng.integers(0, 2, size=(14, 14)), budget=budget)

    def test_block_diagonal_splits_below_the_cap(self):
        # Satellite: a 22x22 block-diagonal matrix used to pay the full
        # 2^22 walk (and a 24x24 one used to raise); both now split.
        rng = np.random.default_rng(25)
        blocks = []
        for _ in range(2):
            b = np.minimum(
                rng.integers(0, 2, size=(12, 12)) + np.eye(12, dtype=np.int64), 1
            )
            blocks.append(b)
        big = np.zeros((24, 24), dtype=np.int64)
        big[:12, :12] = blocks[0]
        big[12:, 12:] = blocks[1]
        expected = ryser_int_python(blocks[0]) * ryser_int_python(blocks[1])
        assert permanent(big) == expected

    def test_block_diagonal_at_the_cap_is_fast(self):
        # 22x22 of two 11-blocks: must cost two 2^11 walks, not one 2^22.
        rng = np.random.default_rng(27)
        big = np.zeros((22, 22), dtype=np.int64)
        for s in (0, 11):
            big[s : s + 11, s : s + 11] = np.minimum(
                rng.integers(0, 2, size=(11, 11)) + np.eye(11, dtype=np.int64), 1
            )
        start = time.perf_counter()
        value = permanent(big)
        elapsed = time.perf_counter() - start
        assert value == ryser_int_python(big[:11, :11]) * ryser_int_python(
            big[11:, 11:]
        )
        assert elapsed < 1.0  # a full 2^22 walk takes tens of seconds

    def test_single_oversized_block_still_infeasible(self):
        with pytest.raises(GraphError, match="infeasible"):
            permanent(np.ones((23, 23)))

    def test_unequal_block_rows_still_zero(self):
        matrix = np.ones((8, 8), dtype=np.int64)
        matrix[3, :] = 0  # a zero row: no permutation survives
        assert permanent(matrix) == 0


class TestDPMemo:
    def setup_method(self):
        clear_dp_memo()

    def teardown_method(self):
        clear_dp_memo()

    def test_memo_hit_returns_identical_results(self):
        capacities = (2, 3, 2, 4, 1)
        classes = {(0, 2): 2, (1, 4): 5, (2, 5): 4, (4, 5): 1}
        cold = assignment_count(capacities, classes)
        warm = assignment_count(capacities, classes)
        assert cold == warm
        stats = dp_memo_stats()
        assert stats["count_hits"] >= 1

    def test_placement_totals_memo_copies_are_independent(self):
        capacities = (2, 2, 2)
        classes = {(0, 2): 3, (1, 3): 3}
        total, placements = class_placement_totals(capacities, classes)
        placements[((0, 2), 0)] = -1  # corrupt the caller's copy
        total2, placements2 = class_placement_totals(capacities, classes)
        assert total2 == total
        assert placements2[((0, 2), 0)] != -1

    def test_layer_prefix_reused_across_pins(self):
        # class_pin_counts perturbs capacities/classes late in the
        # segment; the early DP layers must come from the prefix cache.
        capacities = tuple([3] * 10)
        classes = {(g, min(g + 2, 10)): 3 for g in range(0, 10, 1)}
        classes = {k: v for k, v in classes.items() if k[0] < k[1]}
        assignment_count(capacities, classes)
        before = dp_memo_stats()["layer_hits"]
        pins = [((8, 10), 8), ((8, 10), 9)]
        pinned = class_pin_counts(capacities, classes, pins)
        after = dp_memo_stats()["layer_hits"]
        assert after > before
        clear_dp_memo()
        assert class_pin_counts(capacities, classes, pins) == pinned

    def test_memo_keyed_on_budget_bounds(self):
        # A generous run must not let a tiny op budget succeed later.
        capacities = (3, 3, 3, 3)
        classes = {(0, 4): 6, (1, 3): 4, (0, 2): 2}
        assignment_count(capacities, classes)  # cached under default bounds
        with pytest.raises(GraphError, match="op budget"):
            assignment_count(capacities, classes, budget=DPBudget(max_ops=2))

    def test_results_unchanged_by_memo(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            capacities = tuple(int(c) for c in rng.integers(1, 4, size=k))
            classes = {}
            remaining = sum(capacities)
            while remaining > 0:
                lo = int(rng.integers(0, k))
                hi = int(rng.integers(lo + 1, k + 1))
                take = int(rng.integers(1, remaining + 1))
                classes[(lo, hi)] = classes.get((lo, hi), 0) + take
                remaining -= take
            clear_dp_memo()
            cold = assignment_count(capacities, classes)
            warm = assignment_count(capacities, classes)
            clear_dp_memo()
            again = assignment_count(capacities, classes)
            assert cold == warm == again


def _sweep_profile(n: int = 60, n_groups: int = 12) -> FrequencyProfile:
    counts = {f"item{i}": 10 + (i % n_groups) * 20 for i in range(n)}
    return FrequencyProfile(counts, 1000)


class TestSweepReuse:
    def test_sweep_byte_identical_with_and_without_memo(self):
        profile = _sweep_profile()
        tolerances = [round(0.02 + 0.01 * t, 6) for t in range(8)]

        baseline = []
        for tolerance in tolerances:
            # A fresh engine and DP memo per tolerance: nothing is reused.
            clear_dp_memo()
            baseline.append(
                AssessmentEngine().assess(profile, tolerance, runs=3, seed=0).assessment
            )

        clear_dp_memo()
        memo = AssessmentEngine()
        swept = memo.sweep_tolerance(profile, tolerances, runs=3, seed=0)

        assert [assessment_to_json(a) for a in baseline] == [
            assessment_to_json(o.assessment) for o in swept
        ]
        assert memo.metrics.snapshot()["counters"].get("exact_memo_hits", 0) > 0

    def test_exact_memo_distinguishes_interest_sets(self):
        profile = _sweep_profile()
        engine = AssessmentEngine()
        full = engine.assess(profile, 0.05, runs=3, seed=0).assessment
        subset = engine.assess(
            profile, 0.05, runs=3, seed=0, interest=["item0", "item1"]
        ).assessment
        assert full.exact_cracks != subset.exact_cracks


class TestDeadlineAwareRetries:
    def _flaky_engine(self, failures: int) -> AssessmentEngine:
        engine = AssessmentEngine()
        original = engine._compute
        state = {"left": failures}

        def compute(profile, params, fingerprint, budget=None):
            if state["left"] > 0:
                state["left"] -= 1
                raise OSError("transient fault")
            return original(profile, params, fingerprint, budget=budget)

        engine._compute = compute  # type: ignore[method-assign]
        return engine

    def test_backoff_capped_by_remaining_deadline(self):
        # One transient failure with a 10 s backoff under a 0.2 s
        # deadline: the old code slept the full 10 s regardless.
        engine = self._flaky_engine(failures=1)
        profile = _sweep_profile(n=20, n_groups=4)
        start = time.perf_counter()
        results = engine.assess_many(
            [(profile, self._params())],
            retries=2,
            backoff_seconds=10.0,
            deadline_seconds=0.2,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"backoff ignored the deadline ({elapsed:.1f}s)"
        # The sleep consumed the remaining budget, so the retry fails
        # fast instead of succeeding after a 10 s nap.
        assert results[0].attempts == 2
        assert results[0].error is not None
        assert "deadline" in results[0].error

    def test_retry_succeeds_when_deadline_allows(self):
        engine = self._flaky_engine(failures=1)
        profile = _sweep_profile(n=20, n_groups=4)
        results = engine.assess_many(
            [(profile, self._params())],
            retries=2,
            backoff_seconds=0.01,
            deadline_seconds=30.0,
        )
        assert results[0].ok
        assert results[0].attempts == 2

    def test_exhausted_deadline_fails_fast_without_sleeping(self):
        engine = self._flaky_engine(failures=5)
        profile = _sweep_profile(n=20, n_groups=4)

        # Burn the whole deadline inside the first attempt.
        original = engine._compute

        def compute(profile, params, fingerprint, budget=None):
            if budget is not None:
                budget._deadline = budget._clock() - 1.0
            return original(profile, params, fingerprint, budget=budget)

        engine._compute = compute  # type: ignore[method-assign]
        start = time.perf_counter()
        results = engine.assess_many(
            [(profile, self._params())],
            retries=3,
            backoff_seconds=10.0,
            deadline_seconds=0.2,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert not results[0].ok
        assert "transient fault" in results[0].error

    def test_undeadlined_batch_unchanged(self):
        engine = self._flaky_engine(failures=1)
        profile = _sweep_profile(n=20, n_groups=4)
        results = engine.assess_many(
            [(profile, self._params())], retries=2, backoff_seconds=0.0
        )
        assert results[0].ok
        assert results[0].attempts == 2

    @staticmethod
    def _params():
        from repro.service.fingerprint import AssessmentParams

        return AssessmentParams(tolerance=0.05, delta=None, runs=3, seed=0)


class TestBatchedEngineAgreement:
    def test_explicit_space_marginals_match_reference(self):
        # The batched engine must agree with per-matrix Ryser on a
        # multi-block explicit space (the bench_graph workload shape).
        from repro.graph import ExplicitMappingSpace, crack_marginals_exact
        from repro.graph.blocks import decompose
        from repro.graph.exact import _block_adjacency

        rng = np.random.default_rng(33)
        n, block_size = 40, 8
        adjacency = []
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            for i in range(start, stop):
                others = [
                    j for j in range(start, stop) if j != i and rng.random() < 0.5
                ]
                adjacency.append(sorted({i, *others}))
        space = ExplicitMappingSpace(
            items=tuple(range(n)),
            anonymized=tuple(f"{i}'" for i in range(n)),
            adjacency=adjacency,
            true_partner_of=list(range(n)),
        )
        marginals = crack_marginals_exact(space)
        reference = np.zeros(n)
        for block in decompose(space).blocks:
            matrix = _block_adjacency(space, block)
            total = ryser_int_python(matrix)
            anon_local = {j: r for r, j in enumerate(block.anon_indices)}
            for c, i in enumerate(block.item_indices):
                j = space.true_partner(i)
                row = anon_local.get(j)
                if row is None or matrix[row, c] == 0:
                    continue
                minor = np.delete(np.delete(matrix, row, axis=0), c, axis=1)
                reference[i] = ryser_int_python(minor) / total
        np.testing.assert_array_equal(marginals, reference)
