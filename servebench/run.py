#!/usr/bin/env python3
"""Deterministic-work serving benchmark for ``repro-serve``.

Run from the repository root::

    python3 servebench/run.py --workload retail-warm --seed 1 --seconds 12 --trace 0

Each run builds a request sequence from ``--seed`` (``workloads.py``),
starts fresh ``repro-serve`` replicas through ``repro.cli.serve_main``
(set-up is repeated :data:`SETUPS` times and its median reported), and
replays the sequence over one keep-alive connection in a closed loop.
The window's request count is fixed by the workload and ``--seconds``,
so every run of one seed does the same work.  Afterwards the sequence
is replayed in-process with a fresh engine: its answers are the
response oracle and its counters the deterministic-work guard.  A few
distinct questions are also recomputed with the library recipe, which
shares none of the engine's memos.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally
replays the sequence with layer spans installed (``tracing.py``) and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it carries the details (sample counts, counters, spans that
could not be installed).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run cache directories and the
#: per-seed, per-program counter records of the deterministic-work guard.
STATE = ROOT / ".servebench"

#: Replicas launched and pre-warmed per run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest window requests: the p90 then has at least ten samples beyond it.
MIN_REQUESTS = 100
#: The host-drift sentinel runs before, between and after this many batches.
SENTINEL_BATCHES = 4
#: Distinct window questions per run also checked against the library recipe.
RECIPE_SAMPLES = 4

EXACT_STRATEGIES = (
    "ryser",
    "block-ryser",
    "interval-dp",
    "block-interval-dp",
    "infeasible",
    "propagation",
)


def host_ref_ms() -> float:
    """Time a fixed pure-Python kernel: a drift sentinel for the host.

    The kernel builds, sorts and serializes a 10,000-entry dict -- the
    same kind of work as the codec and the fingerprint -- so it slows
    down with the host's caches and memory as well as its clock.
    """
    start = time.perf_counter()
    table = {f"item-{value * 7919 % 100_003}": value for value in range(10_000)}
    json.dumps(sorted(table.items()))
    return (time.perf_counter() - start) * 1000.0


def program_key(roots: tuple[Path, ...] = (SRC / "repro", HERE)) -> str:
    """A digest of the program under test and of the benchmark's own code.

    The deterministic-work guard compares a run's counters only with
    earlier runs of the same seed under the same key: a change to either
    tree may rightly change the work a seed does.
    """
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            parts = path.relative_to(root).parts
            if not path.is_file() or any(p == "__pycache__" or p[0] == "." for p in parts):
                continue
            data = path.read_bytes()
            digest.update(f"{path.relative_to(root.parent)}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()[:16]


def percentile_with_beyond(samples: list[float], fraction: float) -> tuple[float, int]:
    """The *fraction* percentile (nearest rank) and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class HttpWindow:
    latencies: list[float]
    raw: list[tuple[int, bytes]]
    busy_seconds: float
    cpu_seconds: float
    peak_rss_mb: float
    counters: dict[str, int]
    host_refs: list[float]


def _start_replica(plan: Any, work: Path, attempt: int) -> tuple[Any, float]:
    """Launch a replica and answer the plan's pre-warm; returns it and the time taken."""
    from replica import Replica, ReplicaError

    start = time.perf_counter()
    replica = Replica(SRC, work / f"replica-{attempt}", work / "replica.log")
    try:
        for body in plan.setup:
            status, data = replica.request("POST", "/assess", body)
            if status != 200:
                raise ReplicaError(f"pre-warm request answered {status}: {data[:200]!r}")
    except BaseException:
        replica.stop()
        raise
    return replica, time.perf_counter() - start


def _http_window(
    replica: Any, plan: Any, after_each: Callable[[bytes], None] | None = None
) -> HttpWindow:
    """Replay the window over HTTP.  *after_each*, if given, runs after
    every request, outside its latency (``busy_seconds`` then includes it)."""
    from replay import counters, window_counters
    from replica import commit_lines

    before = counters(replica.get_json("/metrics"), commit_lines(replica.cache_dir))
    cpu_before = replica.cpu_seconds()
    latencies: list[float] = []
    raw: list[tuple[int, bytes]] = []
    host_refs: list[float] = []
    busy = 0.0
    batch = -(-len(plan.window) // SENTINEL_BATCHES)
    for offset in range(0, len(plan.window), batch):
        host_refs.append(host_ref_ms())
        batch_start = time.perf_counter()
        for body in plan.window[offset : offset + batch]:
            sent = time.perf_counter()
            raw.append(replica.request("POST", "/assess", body))
            latencies.append(time.perf_counter() - sent)
            if after_each is not None:
                after_each(body)
        busy += time.perf_counter() - batch_start
    host_refs.append(host_ref_ms())
    cpu = replica.cpu_seconds() - cpu_before
    after = counters(replica.get_json("/metrics"), commit_lines(replica.cache_dir))
    return HttpWindow(
        latencies=latencies,
        raw=raw,
        busy_seconds=busy,
        cpu_seconds=cpu,
        peak_rss_mb=replica.peak_rss_mb(),
        counters=window_counters(before, after),
        host_refs=host_refs,
    )


def _oracle_problems(plan: Any, answers: list[Any], expected: list[Any]) -> dict[int, str]:
    """Window index -> why the replica's answer is wrong."""
    from workloads import WORKLOADS

    expect_decision = WORKLOADS[plan.workload].expect_decision
    problems = {}
    for index, (got, want) in enumerate(zip(answers, expected)):
        if got.status != 200 or want.status != 200:
            problem = f"status {got.status} (replay {want.status})"
        elif got.fingerprint != want.fingerprint:
            problem = "fingerprint differs from the in-process replay"
        elif got.assessment != want.assessment:
            problem = "assessment differs from the in-process replay"
        elif got.cached is not plan.expect_cached or want.cached is not plan.expect_cached:
            problem = f"cached={got.cached} (replay {want.cached}), expected {plan.expect_cached}"
        elif got.partial:
            problem = "partial answer"
        elif expect_decision is not None and got.decision != expect_decision:
            problem = f"decision {got.decision}, expected {expect_decision}"
        else:
            continue
        problems[index] = problem
    return problems


def _recipe_problems(plan: Any, answers: list[Any]) -> dict[int, str]:
    """Window index -> why the answer differs from the library recipe.

    ``repro.recipe.assess.assess_risk`` implements Figure 8 apart from the
    service engine and its memos.  The first :data:`RECIPE_SAMPLES`
    distinct window questions are recomputed with it, its RNG seeded from
    the answer's fingerprint as the engine seeds its own, and must match
    byte for byte.
    """
    import numpy as np
    from repro.io import assessment_to_json, profile_from_json
    from repro.recipe.assess import assess_risk
    from repro.service.fingerprint import derived_seed

    checked: set[bytes] = set()
    problems = {}
    for index, (body, got) in enumerate(zip(plan.window, answers)):
        if len(checked) == RECIPE_SAMPLES:
            break
        if body in checked or got.status != 200:
            continue
        checked.add(body)
        payload = json.loads(body)
        reference = assess_risk(
            profile_from_json(payload["profile"]),
            payload["tolerance"],
            runs=payload["runs"],
            rng=np.random.default_rng(derived_seed(got.fingerprint)),
        )
        if json.dumps(assessment_to_json(reference), sort_keys=True) != got.assessment:
            problems[index] = "assessment differs from the library recipe"
    return problems


def _guard(
    plan: Any, observed: dict[str, dict[str, int]], records: Path, program: str
) -> list[str]:
    """Deterministic-work guard: every counter set must equal the first, and
    the counters an earlier run of the same seed on the same *program*
    (see :func:`program_key`) recorded under *records*."""
    reference_name, reference = next(iter(observed.items()))
    errors = [
        f"{name} counters {values} != {reference_name} counters {reference}"
        for name, values in observed.items()
        if values != reference
    ]
    record = records / f"{plan.workload}-{plan.seed}-{len(plan.window)}-{program}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != reference:
            errors.append(f"counters {reference} != an earlier run's {earlier} ({record.name})")
    elif not errors:
        records.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return errors


def _layer_metrics(
    plan: Any, tracer: Any, traced: Any, untraced: Any, window: HttpWindow
) -> dict[str, tuple[float, str]]:
    """The per-layer table of one traced run."""
    requests = len(plan.window)
    counters = window.counters

    def per_request_ms(name: str) -> float:
        return tracer.self_seconds.get(name, 0.0) * 1000.0 / requests

    # The recipe stages run inside engine.compute and are timed by the
    # engine itself; compute's own (glue) time is its self time minus them.
    stage_runs = {name: runs for name, (runs, _) in traced.stages.items()}
    stage_ms = {name: seconds * 1000.0 / requests for name, (_, seconds) in traced.stages.items()}

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    http_p50 = statistics.median(window.latencies) * 1000.0
    untraced_p50 = statistics.median(untraced.latencies) * 1000.0
    traced_p50 = statistics.median(traced.latencies) * 1000.0
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    memo_hits = counters.get("exact_memo_hits", 0) + counters.get("attack_memo_hits", 0)
    memo_lookups = memo_hits + stage_runs.get("exact", 0) + stage_runs.get("attack", 0)
    # Computed answers without an attack summary (the attack stage gave up).
    attack_skipped = sum(
        1
        for answer in traced.answers
        if answer.cached is False and json.loads(answer.assessment).get("attack") is None
    )
    metrics: dict[str, tuple[float, str]] = {
        "transport.overhead_ms": (http_p50 - untraced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
        "routes.dispatch_ms": (tracer.total_seconds["routes.dispatch"] * 1000.0 / requests, "ms"),
        "unattributed_ms": (per_request_ms("routes.dispatch"), "ms"),
        "io.decode_ms": (per_request_ms("io.decode"), "ms"),
        "io.encode_ms": (per_request_ms("io.encode"), "ms"),
        "io.request_kb": (sum(map(len, plan.window)) / 1024.0 / requests, "kB"),
        "fingerprint.ms": (
            per_request_ms("fingerprint.profile") + per_request_ms("fingerprint.request"),
            "ms",
        ),
        "fingerprint.calls": (tracer.calls["fingerprint.profile"], "count"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "cache.lookup_ms": (per_request_ms("cache.lookup"), "ms"),
        "cache.write_ms": (per_request_ms("cache.write"), "ms"),
        "cache.writes": (tracer.calls["cache.write"], "count"),
        "cache.commits": (counters.get("commit_log_lines", 0), "count"),
        "lease.acquire_ms": (per_request_ms("lease.acquire"), "ms"),
        "lease.release_ms": (per_request_ms("lease.release"), "ms"),
        "lease.acquired": (counters.get("cache.lease_acquired", 0), "count"),
        "lease.waited": (
            counters.get("cache.lease_coalesced", 0) + counters.get("cache.lease_timeouts", 0),
            "count",
        ),
        "engine.compute_ms": (per_request_ms("engine.compute") - sum(stage_ms.values()), "ms"),
        "engine.computed": (counters.get("computed", 0), "count"),
        "engine.exact_memo_hits": (counters.get("exact_memo_hits", 0), "count"),
        "engine.attack_memo_hits": (counters.get("attack_memo_hits", 0), "count"),
        "engine.memo_hit_ratio": (ratio(memo_hits, memo_lookups), "ratio"),
        "recipe.groups_ms": (stage_ms.get("groups", 0.0), "ms"),
        "recipe.space_ms": (stage_ms.get("space", 0.0), "ms"),
        "recipe.oestimate_ms": (stage_ms.get("oestimate", 0.0), "ms"),
        "recipe.exact_ms": (stage_ms.get("exact", 0.0), "ms"),
        "recipe.attack_ms": (stage_ms.get("attack", 0.0), "ms"),
        "recipe.alpha_ms": (stage_ms.get("alpha", 0.0), "ms"),
        "attack.skipped": (attack_skipped, "count"),
        "exact.skipped": (counters.get("exact_skipped", 0), "count"),
        "exact.dp_memo_hit_ratio": (
            ratio(traced.dp_memo_hits, traced.dp_memo_hits + traced.dp_memo_misses),
            "ratio",
        ),
        "runtime.gc_ms": (tracer.gc_seconds * 1000.0 / requests, "ms"),
        "runtime.gc_gen2": (tracer.gc_collections[2], "count"),
        "host.ref_ms": (statistics.median(window.host_refs), "ms"),
    }
    for strategy in EXACT_STRATEGIES:
        metrics[f"exact.strategy.{strategy}"] = (counters.get(f"exact:{strategy}", 0), "count")
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict[str, Any]:
    """One benchmark run; returns the result object (and details)."""
    from replay import Replay, parse_answer, replay
    from tracing import Tracer
    from workloads import WORKLOADS, build_plan

    requests = max(MIN_REQUESTS, round(WORKLOADS[workload].nominal_rps * seconds))
    plan = build_plan(workload, seed, requests)

    setup_times = []
    for attempt in range(SETUPS):
        replica, elapsed = _start_replica(plan, work, attempt)
        setup_times.append(elapsed)
        if attempt < SETUPS - 1:
            replica.stop()
    with replica:
        if trace:
            # Interleave the untraced replay with the HTTP window, request
            # by request, so transport.overhead_ms compares the two under
            # the same host conditions.  (The end-to-end metrics come only
            # from runs without --trace, where nothing is interleaved.)
            interleaved = Replay(plan, work / "replay")
            window = _http_window(replica, plan, after_each=interleaved.step)
        else:
            window = _http_window(replica, plan)

    answers = [
        parse_answer(status, json.loads(body) if status == 200 else {})
        for status, body in window.raw
    ]
    untraced = interleaved.finish() if trace else replay(plan, work / "replay")
    observed = {"replica": window.counters, "replay": untraced.counters}
    traced = tracer = None
    if trace:
        with Tracer().installed() as tracer:
            traced = replay(plan, work / "traced", tracer)
        observed["traced replay"] = traced.counters

    problems = _oracle_problems(plan, answers, untraced.answers)
    for index, problem in _recipe_problems(plan, answers).items():
        problems.setdefault(index, problem)
    if traced is not None:
        for index, problem in _oracle_problems(plan, answers, traced.answers).items():
            problems.setdefault(index, f"traced replay: {problem}")
    guard_errors = _guard(plan, observed, STATE / "counters", program_key())
    if untraced.setup_failures:
        guard_errors.append(f"replay pre-warm requests failed: {untraced.setup_failures}")
    for index in sorted(problems)[:5]:
        print(f"oracle: window request {index}: {problems[index]}", file=sys.stderr)
    for error in guard_errors:
        print(f"deterministic-work guard: {error}", file=sys.stderr)

    sent = len(plan.window)
    failed = len(problems)
    p90, beyond = percentile_with_beyond(window.latencies, 0.9)
    if trace:
        metrics = _layer_metrics(plan, tracer, traced, untraced, window)
    else:
        metrics = {
            "throughput_rps": ((sent - failed) / window.busy_seconds, "1/s"),
            "latency_p50_ms": (statistics.median(window.latencies) * 1000.0, "ms"),
            "latency_p90_ms": (p90 * 1000.0, "ms"),
            "server_cpu_ms_per_req": (window.cpu_seconds * 1000.0 / sent, "ms"),
            "server_peak_rss_mb": (window.peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    details = {
        "workload": workload,
        "seed": seed,
        "requests_sent": sent,
        "requests_succeeded": sent - failed,
        "requests_failed": failed,
        "latency_deciles_ms": [
            round(value * 1000.0, 2) for value in statistics.quantiles(window.latencies, n=10)
        ],
        "latency_p90_samples": sent,
        "latency_p90_samples_beyond": beyond,
        "setup_s_samples": [round(value, 4) for value in setup_times],
        "host_ref_ms": [round(value, 3) for value in window.host_refs],
        "window_counters": window.counters,
        "missing_spans": [] if tracer is None else tracer.missing,
        "guard_errors": guard_errors,
    }
    return {
        "details": details,
        "result": {
            "correct": failed == 0 and not guard_errors,
            "attempted": sent,
            "failed": failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    # A terminated benchmark still stops its replicas (the finally below
    # and the replica context managers run on SystemExit).
    signal.signal(signal.SIGTERM, _terminate)
    work = STATE / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome["details"], sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
