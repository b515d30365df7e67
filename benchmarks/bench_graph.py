"""Graph-engine benchmarks: Ryser vs block decomposition vs interval DP.

Measures the structure-exploiting exact engine against the historical
Ryser-only path across domain sizes, the attacker-workbench solver as an
``exact_strategy(preprocess=True)`` front end (forced pairs peeled off,
forbidden edges deleted, blocks re-split), plus the vectorized Gibbs
sweep against the legacy per-item Python loop, and writes the results as
machine-readable JSON (``BENCH_graph.json`` at the repo root) so future
changes have a perf trajectory to compare against.

Usage::

    PYTHONPATH=src python benchmarks/bench_graph.py           # full run, writes JSON
    PYTHONPATH=src python benchmarks/bench_graph.py --smoke   # tiny sizes, asserts only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.beliefs import interval_belief
from repro.graph import (
    count_matchings_exact,
    crack_marginals_exact,
    exact_strategy,
    space_from_frequencies,
)
from repro.graph.permanent import ryser_int_python as _ryser
from repro.simulation.gibbs import GibbsAssignmentSampler

FULL_SIZES = (12, 18, 50, 200, 1000)
SMOKE_SIZES = (6, 8, 10, 12)

#: Whole-matrix Ryser gets unbearably slow (minutes) past this size.
RYSER_TIMING_CAP = 18
#: Exact E[X] via Ryser minors costs n+1 permanents; cap lower still.
RYSER_MINORS_CAP = 12


def interval_instance(n: int, seed: int, group_size: int = 5, max_halfwidth: int = 2):
    """A compliant interval-belief space over ``n`` items.

    Frequencies fall into ``n // group_size`` packed groups; each item's
    belief interval spans up to ``max_halfwidth`` adjacent groups on each
    side — the ``delta_med`` regime the recipe produces.
    """
    rng = np.random.default_rng(seed)
    n_groups = max(n // group_size, 1)
    step = 0.9 / n_groups
    frequencies = {i: round(0.05 + step * (i % n_groups), 9) for i in range(n)}
    intervals = {}
    for i, f in frequencies.items():
        w = int(rng.integers(0, max_halfwidth + 1))
        intervals[i] = (max(0.0, f - step * w), min(1.0, f + step * w))
    return space_from_frequencies(interval_belief(intervals), frequencies)


def explicit_block_instance(n: int, block_size: int, seed: int):
    """A dense explicit space made of independent ``block_size`` blocks.

    Plain Ryser is infeasible past n=22; block decomposition keeps every
    component small, so the exact engine stays polynomial in the number
    of blocks.
    """
    from repro.graph import ExplicitMappingSpace

    rng = np.random.default_rng(seed)
    adjacency: list[list[int]] = []
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        for i in range(start, stop):
            others = [j for j in range(start, stop) if j != i and rng.random() < 0.5]
            adjacency.append(sorted({i, *others}))
    return ExplicitMappingSpace(
        items=tuple(range(n)),
        anonymized=tuple(f"{i}'" for i in range(n)),
        adjacency=adjacency,
        true_partner_of=list(range(n)),
    )


def bench_block_ryser(sizes, check: bool) -> list[dict]:
    rows = []
    for n in sizes:
        space = explicit_block_instance(n, block_size=10, seed=n)
        plan, plan_s = time_call(exact_strategy, space)
        count, block_s = time_call(count_matchings_exact, space)
        marginals, marg_s = time_call(crack_marginals_exact, space)
        row = {
            "n": n,
            "strategy": plan.strategy,
            "n_blocks": plan.n_blocks,
            "largest_block": plan.largest_block,
            "block_count_s": block_s,
            "block_expected_s": marg_s,
            "expected_cracks": float(marginals.sum()),
        }
        if n <= RYSER_TIMING_CAP:
            ryser_count, ryser_s = time_call(_ryser, space.adjacency_matrix())
            row["ryser_count_s"] = ryser_s
            row["count_agrees_with_ryser"] = float(count) == ryser_count
            if check:
                assert float(count) == ryser_count, (
                    f"n={n}: block-Ryser count {count} != Ryser {ryser_count}"
                )
        rows.append(row)
        print(
            f"  n={n:5d}  {plan.strategy:18s} blocks={plan.n_blocks:3d} "
            f"E[X]={row['expected_cracks']:9.4f}  block={marg_s:8.4f}s"
            + (f"  ryser={row['ryser_count_s']:8.4f}s" if "ryser_count_s" in row else "")
        )
    return rows


def staircase_instance(n: int):
    """Figure 6(a) scaled to ``n`` items: adjacency row ``i`` is ``0..i``.

    Degree-1 propagation alone cracks every item, so the preprocessed
    plan needs no permanent at all (``largest_block == 0``) while the
    plain plan sees one connected component of size ``n``.
    """
    from repro.graph import ExplicitMappingSpace

    return ExplicitMappingSpace(
        items=tuple(range(n)),
        anonymized=tuple(f"{i}'" for i in range(n)),
        adjacency=[list(range(i + 1)) for i in range(n)],
        true_partner_of=list(range(n)),
    )


def chained_pairs_instance(n: int):
    """Figure 6(b) tiled into one connected component of size ``n``.

    Consecutive item pairs ``{2i, 2i+1}`` share the candidate columns
    ``{2i, 2i+1}``; every even item past the first also carries a bridge
    edge into the previous pair. Each pair is a tight Hall set, so the
    solver deletes every bridge and the component shatters into blocks
    of two — the plain plan keeps a single size-``n`` block that Ryser
    cannot touch beyond n=22.
    """
    from repro.graph import ExplicitMappingSpace

    assert n % 2 == 0
    adjacency = []
    for i in range(n):
        if i % 2 == 0:
            adjacency.append([i - 1, i, i + 1] if i > 0 else [i, i + 1])
        else:
            adjacency.append([i - 1, i])
    return ExplicitMappingSpace(
        items=tuple(range(n)),
        anonymized=tuple(f"{i}'" for i in range(n)),
        adjacency=adjacency,
        true_partner_of=list(range(n)),
    )


def bench_solver_preprocess(sizes, check: bool) -> list[dict]:
    instances = [
        ("staircase", staircase_instance),
        ("chained-pairs", chained_pairs_instance),
    ]
    rows = []
    for name, build in instances:
        for n in sizes:
            space = build(n)
            plain, plain_s = time_call(exact_strategy, space)
            pre, pre_s = time_call(exact_strategy, space, preprocess=True)
            row = {
                "instance": name,
                "n": n,
                "plain_strategy": plain.strategy,
                "plain_largest_block": plain.largest_block,
                "plain_plan_s": plain_s,
                "pre_strategy": pre.strategy,
                "pre_largest_block": pre.largest_block,
                "pre_plan_s": pre_s,
                "forced_pairs": pre.forced_pairs,
                "forbidden_edges": pre.forbidden_edges,
                "largest_block_shrank": pre.largest_block < plain.largest_block,
            }
            _, pre_count_s = time_call(count_matchings_exact, space, preprocess=True)
            row["pre_count_s"] = pre_count_s
            if n <= RYSER_TIMING_CAP:
                plain_count, plain_count_s = time_call(count_matchings_exact, space)
                pre_count = count_matchings_exact(space, preprocess=True)
                row["plain_count_s"] = plain_count_s
                row["count_agrees"] = pre_count == plain_count
                if check:
                    assert pre_count == plain_count, (
                        f"{name} n={n}: preprocessed count {pre_count} != {plain_count}"
                    )
            if check:
                assert pre.preprocessed and pre.feasible and pre.matchable
                assert pre.largest_block < plain.largest_block, (
                    f"{name} n={n}: largest block {pre.largest_block} did not "
                    f"shrink below {plain.largest_block}"
                )
            rows.append(row)
            print(
                f"  {name:14s} n={n:5d}  largest block {plain.largest_block:4d} -> "
                f"{pre.largest_block:3d}  forced={pre.forced_pairs:4d} "
                f"forbidden={pre.forbidden_edges:5d}  count={pre_count_s:8.4f}s"
            )
    return rows


def time_call(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def ryser_expected_cracks(space) -> float:
    """The historical direct method: one Ryser minor per item."""
    matrix = space.adjacency_matrix()
    total = _ryser(matrix)
    expected = 0.0
    for i in range(space.n):
        j = space.true_partner(i)
        if matrix[j, i] == 0.0:
            continue
        minor = np.delete(np.delete(matrix, j, axis=0), i, axis=1)
        expected += _ryser(minor) / total
    return expected


class LegacyGibbs(GibbsAssignmentSampler):
    """The pre-vectorization sweep: Python lists and per-item loops."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._members = [[] for _ in range(self.k)]
        for i in range(self.n):
            self._members[int(self._assign[i])].append(i)

    def _resample_boundary(self, g: int) -> None:
        h = g + 1
        g_lo, g_hi = self._g_lo, self._g_hi
        flexible = [i for i in self._members[g] if g_lo[i] <= g and g_hi[i] > h] + [
            i for i in self._members[h] if g_lo[i] <= g and g_hi[i] > h
        ]
        if len(flexible) < 2:
            return
        quota_g = sum(1 for i in self._members[g] if g_lo[i] <= g and g_hi[i] > h)
        order = self.rng.permutation(len(flexible))
        keep_g = {flexible[int(j)] for j in order[:quota_g]}
        self._members[g] = [
            i for i in self._members[g] if not (g_lo[i] <= g and g_hi[i] > h)
        ]
        self._members[h] = [
            i for i in self._members[h] if not (g_lo[i] <= g and g_hi[i] > h)
        ]
        for i in flexible:
            target = g if i in keep_g else h
            self._members[target].append(i)
            self._assign[i] = target


def bench_exact_engine(sizes, check: bool) -> list[dict]:
    rows = []
    for n in sizes:
        space = interval_instance(n, seed=n)
        plan, plan_s = time_call(exact_strategy, space)
        count, dp_count_s = time_call(count_matchings_exact, space)
        marginals, dp_marginals_s = time_call(crack_marginals_exact, space)
        expected = float(marginals.sum())
        row = {
            "n": n,
            "strategy": plan.strategy,
            "n_blocks": plan.n_blocks,
            "largest_block": plan.largest_block,
            "cost_hint": plan.cost_hint,
            "plan_s": plan_s,
            "interval_dp_count_s": dp_count_s,
            "interval_dp_expected_s": dp_marginals_s,
            "expected_cracks": expected,
            "matchings_log10": None if count <= 0 else len(str(count)) - 1,
        }
        if n <= RYSER_TIMING_CAP:
            ryser_count, ryser_s = time_call(_ryser, space.adjacency_matrix())
            # Ryser's 2^n signed float accumulation loses ~1e-9 relative
            # accuracy past n=12; bit-identity is only claimed below that.
            if n <= RYSER_MINORS_CAP:
                agrees = float(count) == ryser_count
            else:
                agrees = abs(float(count) - ryser_count) <= 1e-6 * ryser_count
            row["ryser_count_s"] = ryser_s
            row["count_agrees_with_ryser"] = agrees
            if check:
                assert agrees, (
                    f"n={n}: interval-DP count {count} != Ryser {ryser_count}"
                )
        if n <= RYSER_MINORS_CAP:
            ryser_expected, ryser_exp_s = time_call(ryser_expected_cracks, space)
            row["ryser_expected_s"] = ryser_exp_s
            row["expected_agrees_with_ryser"] = abs(expected - ryser_expected) < 1e-9
            if check:
                assert abs(expected - ryser_expected) < 1e-9, (
                    f"n={n}: DP E[X] {expected} != Ryser {ryser_expected}"
                )
        rows.append(row)
        print(
            f"  n={n:5d}  {plan.strategy:18s} blocks={plan.n_blocks:3d} "
            f"E[X]={expected:9.4f}  dp={dp_marginals_s:8.4f}s"
            + (f"  ryser={row['ryser_expected_s']:8.4f}s" if "ryser_expected_s" in row else "")
        )
    return rows


def legacy_block_expected(space) -> float:
    """The pre-batching explicit-block path: one pure-Python Ryser walk
    per block total and per item minor (what ``crack_marginals_exact``
    did before the vectorized kernels)."""
    from repro.graph.blocks import decompose
    from repro.graph.exact import _block_adjacency

    expected = 0.0
    for block in decompose(space).blocks:
        matrix = _block_adjacency(space, block)
        total = _ryser(matrix)
        anon_local = {j: r for r, j in enumerate(block.anon_indices)}
        for c, i in enumerate(block.item_indices):
            j = space.true_partner(i)
            row = anon_local.get(j)
            if row is None or matrix[row, c] == 0:
                continue
            minor = np.delete(np.delete(matrix, row, axis=0), c, axis=1)
            expected += _ryser(minor) / total
    return expected


def bench_kernels(smoke: bool, check: bool) -> dict:
    """Before/after trajectory for the vectorized exact kernels.

    Three headline rows: chunked numpy Ryser vs the pure-Python walk on
    single matrices, the batched block engine vs the per-block loop on
    the n=200 explicit workload, and a 20-tolerance assessment sweep
    with and without the DP/engine memo layer.
    """
    from repro.data.database import FrequencyProfile
    from repro.graph.intervaldp import clear_dp_memo
    from repro.graph.kernels import ryser_int_chunked
    from repro.io import assessment_to_json
    from repro.service.engine import AssessmentEngine

    rng = np.random.default_rng(7)
    chunked_rows = []
    for n in (8, 10, 12) if smoke else (12, 14, 16, 18):
        matrix = rng.integers(0, 2, size=(n, n))
        pure, pure_s = time_call(_ryser, matrix)
        vec, vec_s = time_call(ryser_int_chunked, matrix)
        if check:
            assert pure == vec, f"n={n}: chunked Ryser {vec} != pure {pure}"
        chunked_rows.append(
            {
                "n": n,
                "pure_python_s": pure_s,
                "chunked_s": vec_s,
                "speedup": pure_s / vec_s if vec_s > 0 else None,
            }
        )
        print(
            f"  chunked-ryser n={n}: pure {pure_s:.4f}s, chunked {vec_s:.4f}s "
            f"({chunked_rows[-1]['speedup']:.1f}x)"
        )

    n_block = 50 if smoke else 200
    space = explicit_block_instance(n_block, block_size=10, seed=n_block)
    legacy_expected, legacy_s = time_call(legacy_block_expected, space)
    marginals, batched_s = time_call(crack_marginals_exact, space)
    batched_expected = float(marginals.sum())
    if check:
        assert abs(legacy_expected - batched_expected) < 1e-9, (
            f"batched block marginals {batched_expected} != legacy {legacy_expected}"
        )
    block_row = {
        "n": n_block,
        "legacy_expected_s": legacy_s,
        "batched_expected_s": batched_s,
        "speedup": legacy_s / batched_s if batched_s > 0 else None,
        "expected_cracks": batched_expected,
    }
    print(
        f"  block-ryser n={n_block}: legacy {legacy_s:.4f}s, batched "
        f"{batched_s:.4f}s ({block_row['speedup']:.1f}x)"
    )

    n_sweep, n_groups = (80, 16) if smoke else (200, 40)
    counts = {f"item{i}": 10 + (i % n_groups) * 20 for i in range(n_sweep)}
    profile = FrequencyProfile(counts, 1000)
    tolerances = [round(0.01 + 0.005 * t, 6) for t in range(5 if smoke else 20)]

    def run_sweep(reuse: bool) -> tuple[list[dict], float]:
        engine = AssessmentEngine()
        clear_dp_memo()
        start = time.perf_counter()
        outcomes = []
        for tolerance in tolerances:
            if not reuse:
                # Emulate the pre-memo engine: every tolerance re-solves
                # from scratch, with a fresh engine and DP memo.
                engine = AssessmentEngine()
                clear_dp_memo()
            outcomes.append(engine.assess(profile, tolerance, runs=3, seed=0))
        elapsed = time.perf_counter() - start
        return [assessment_to_json(o.assessment) for o in outcomes], elapsed

    baseline_results, baseline_s = run_sweep(reuse=False)
    memo_results, memo_s = run_sweep(reuse=True)
    if check:
        assert memo_results == baseline_results, (
            "sweep results changed under the DP/engine memo"
        )
    sweep_row = {
        "n": n_sweep,
        "tolerances": len(tolerances),
        "baseline_s": baseline_s,
        "memo_s": memo_s,
        "speedup": baseline_s / memo_s if memo_s > 0 else None,
    }
    print(
        f"  sweep n={n_sweep} x{len(tolerances)} tolerances: baseline "
        f"{baseline_s:.4f}s, memo {memo_s:.4f}s ({sweep_row['speedup']:.1f}x)"
    )
    return {
        "chunked_ryser": chunked_rows,
        "block_ryser_batched": block_row,
        "sweep_reuse": sweep_row,
    }


def bench_gibbs(n: int, sweeps: int) -> dict:
    # Few wide groups put ~n/20 flexible items on every boundary — the
    # regime where the vectorized sweep pays off over the Python loop.
    space = interval_instance(n, seed=n, group_size=max(n // 20, 2), max_halfwidth=1)
    legacy = LegacyGibbs(space, rng=np.random.default_rng(1))
    _, legacy_s = time_call(legacy.sweep, sweeps)
    vectorized = GibbsAssignmentSampler(space, rng=np.random.default_rng(1))
    _, vector_s = time_call(vectorized.sweep, sweeps)
    assert vectorized.check_consistency(), "vectorized sweep broke feasibility"
    result = {
        "n": n,
        "sweeps": sweeps,
        "legacy_s": legacy_s,
        "vectorized_s": vector_s,
        "speedup": legacy_s / vector_s if vector_s > 0 else None,
    }
    print(
        f"  gibbs n={n}: legacy {legacy_s:.4f}s, vectorized {vector_s:.4f}s "
        f"({result['speedup']:.1f}x)"
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, assert strategy agreement, write nothing",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_graph.json"),
        help="where to write the JSON report (full mode only)",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    print(f"interval-DP engine ({'smoke' if args.smoke else 'full'}):")
    engine_rows = bench_exact_engine(sizes, check=True)
    print("block-Ryser engine:")
    block_rows = bench_block_ryser(
        (10, 12) if args.smoke else (12, 50, 200), check=True
    )
    print("solver preprocessing (attacker workbench front end):")
    preprocess_rows = bench_solver_preprocess(
        (6, 10) if args.smoke else (12, 50, 200), check=True
    )
    gibbs = bench_gibbs(n=200 if args.smoke else 1000, sweeps=5 if args.smoke else 20)
    print("vectorized kernels and sweep memo:")
    kernels = bench_kernels(smoke=args.smoke, check=True)

    if args.smoke:
        committed = Path(args.output)
        if committed.exists():
            snapshot = json.loads(committed.read_text())
            assert "kernels" in snapshot, (
                f"{committed} lacks the 'kernels' section — regenerate with a "
                "full benchmark run"
            )
            print(f"committed {committed.name} has the kernels section")
        print("smoke OK: all strategies agree")
        return 0

    # Acceptance floors for the recorded trajectory: the batched block
    # engine and the sweep memo must beat the legacy paths decisively.
    assert kernels["block_ryser_batched"]["speedup"] >= 2.0, kernels
    assert kernels["sweep_reuse"]["speedup"] >= 3.0, kernels

    report = {
        "benchmark": "bench_graph",
        "schema": 1,
        "interval_dp": engine_rows,
        "block_ryser": block_rows,
        "solver_preprocess": preprocess_rows,
        "gibbs_sweep": gibbs,
        "kernels": kernels,
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
