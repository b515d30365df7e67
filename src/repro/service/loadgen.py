"""Replayable load harness for the serving stack (``repro-loadgen``).

Answers the question the engine benchmarks cannot: how many requests
per second does the *system* sustain, at what latency, under which
replica topology?  The harness:

* generates fingerprint-skewed traffic — a seeded mix of small
  synthetic profiles sampled from a Zipf distribution, so a few
  fingerprints are hot (cache-friendly) and a long tail is cold, the
  shape real content-addressed caches see;
* launches real ``repro-serve`` subprocesses (1..N replicas, optionally
  sharing one ``--cache-dir`` in ``--shared-cache`` mode) and parses
  their startup banner for the bound port;
* drives them over real sockets with K concurrent keep-alive
  connections from a single-threaded asyncio client (one thread, so on
  a small host the client does not crowd out the servers it measures);
* cross-checks its client-side percentiles against the server's own
  ``/metrics`` latency histograms and cache counters;
* appends one run record per (replicas × connections) cell to
  the tracked ``BENCH_service.json`` trajectory.

The same seed replays the same request sequence — per-connection
streams are seeded independently from ``(seed, connection index)``, so
a run is reproducible for any concurrency level.  ``--faults PATH`` is
forwarded to the servers, composing load with failure schedules.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import repro
from repro.errors import ReproError
from repro.io import load_json, profile_to_json, save_json_atomic
from repro.data.database import FrequencyProfile
from repro.service.supervisor import ReplicaSupervisor, RestartPolicy

__all__ = [
    "WorkloadSpec",
    "CellResult",
    "ReplicaPool",
    "build_payloads",
    "run_cell",
    "run_shared_cache_trial",
    "append_trajectory",
]

_BANNER_MARKER = "listening on http://"


# -- workload ---------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """A replayable traffic description.

    ``profiles`` distinct fingerprints are ranked 1..M and sampled with
    probability proportional to ``rank ** -zipf_s`` — rank 1 is the hot
    head, the tail is cold.  ``runs=1`` and a generous tolerance keep a
    single cold compute in the low-millisecond range, so cells measure
    serving overhead rather than recipe depth.
    """

    profiles: int = 50
    items: int = 10
    zipf_s: float = 1.1
    tolerance: float = 0.8
    seed: int = 0


def synthetic_profile(index: int, items: int) -> FrequencyProfile:
    """A small deterministic profile, distinct per *index*.

    Counts are index-shifted so every profile hashes to a different
    fingerprint while staying structurally similar (same item count,
    similar group structure).
    """
    n_transactions = 1000
    counts = {
        item: 100 + 37 * ((item + index) % items) + (index % 7)
        for item in range(items)
    }
    return FrequencyProfile(counts, n_transactions)


def build_payloads(spec: WorkloadSpec) -> list[bytes]:
    """The pre-serialized ``POST /assess`` body for every fingerprint."""
    payloads = []
    for index in range(spec.profiles):
        body = {
            "profile": profile_to_json(synthetic_profile(index, spec.items)),
            "tolerance": spec.tolerance,
            "runs": 1,
            "seed": 0,
        }
        payloads.append(json.dumps(body, sort_keys=True).encode("utf-8"))
    return payloads


def _zipf_cumulative(count: int, s: float) -> list[float]:
    weights = [(rank + 1) ** -s for rank in range(count)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    return cumulative


def request_stream(
    spec: WorkloadSpec, connection_index: int
) -> Iterable[int]:
    """An endless, replayable stream of payload indices for one connection."""
    import bisect

    rng = random.Random(f"{spec.seed}:{connection_index}")
    cumulative = _zipf_cumulative(spec.profiles, spec.zipf_s)
    while True:
        yield bisect.bisect_left(cumulative, rng.random())


# -- server orchestration ---------------------------------------------------


class ReplicaPool:
    """N real ``repro-serve`` subprocesses behind a replica supervisor.

    The pool owns topology (replica count, cache flags, fault schedules) and
    delegates lifecycle to :class:`~repro.service.supervisor.
    ReplicaSupervisor`: ports are banner-parsed on first launch and
    pinned across restarts, shutdown escalates SIGTERM→SIGKILL.  Plain
    load runs never start the monitor (a dead replica stays dead, as
    before); chaos runs pass ``supervise=True`` and get automatic
    restart-with-backoff plus per-incarnation metric scraping.
    """

    def __init__(
        self,
        count: int = 1,
        cache_dir: Path | None = None,
        shared: bool = False,
        max_inflight: int = 8,
        max_queue: int = 128,
        faults: str | None = None,
        startup_timeout: float = 20.0,
        lease_stale_seconds: float | None = None,
        supervise: bool = False,
        policy: RestartPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.count = count
        self.cache_dir = cache_dir
        self.shared = shared
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.faults = faults
        self.startup_timeout = startup_timeout
        self.lease_stale_seconds = lease_stale_seconds
        self.supervise = supervise
        #: Per-replica fault-schedule overrides (chaos fault bursts);
        #: picked up by the replica's *next* incarnation.
        self._fault_overrides: dict[int, str] = {}
        self.supervisor = ReplicaSupervisor(
            self._launch_replica, count=count, policy=policy, seed=seed
        )

    @property
    def ports(self) -> list[int]:
        return self.supervisor.ports

    @property
    def processes(self) -> list[Any]:
        return list(self.supervisor.processes)

    def set_fault_override(self, index: int, schedule_path: str) -> None:
        """Arm replica *index*'s next incarnation with a fault schedule."""
        self._fault_overrides[index] = schedule_path

    def _serve_args(self, index: int, port: int) -> list[str]:
        args = [
            "--port", str(port),
            "--grace", "2",
            "--max-inflight", str(self.max_inflight),
            "--max-queue", str(self.max_queue),
        ]
        if self.cache_dir is not None:
            args += ["--cache-dir", str(self.cache_dir)]
        if self.shared:
            args.append("--shared-cache")
        if self.lease_stale_seconds is not None:
            args += ["--lease-stale", str(self.lease_stale_seconds)]
        faults = self._fault_overrides.get(index, self.faults)
        if faults is not None:
            args += ["--faults", faults]
        return args

    def _launch_replica(
        self, index: int, incarnation: int, port_hint: int
    ) -> tuple[subprocess.Popen[str], int]:
        """Spawn one ``repro-serve`` and banner-parse its bound port.

        The first incarnation binds port 0 (ephemeral); restarts re-bind
        the replica's original port (the server sets ``SO_REUSEADDR``),
        so clients keep one stable address per replica.
        """
        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        code = (
            "from repro.cli import serve_main; "
            f"raise SystemExit(serve_main({self._serve_args(index, port_hint)!r}))"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            port = self._await_banner(process)
        except BaseException:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=5.0)
            if process.stdout is not None:
                process.stdout.close()
            raise
        return process, port

    def __enter__(self) -> "ReplicaPool":
        self.supervisor.start()
        if self.supervise:
            self.supervisor.start_monitor()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _await_banner(self, process: subprocess.Popen[str]) -> int:
        assert process.stdout is not None
        deadline = time.monotonic() + self.startup_timeout
        while True:
            if process.poll() is not None:
                raise ReproError(
                    f"server replica exited with {process.returncode} "
                    "before printing its banner"
                )
            line = process.stdout.readline()
            if _BANNER_MARKER in line:
                return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
            if time.monotonic() > deadline:
                raise ReproError("timed out waiting for the server banner")

    def shutdown(self) -> None:
        self.supervisor.stop(grace_seconds=10.0)

    def metrics(self) -> list[dict[str, Any]]:
        """One ``GET /metrics`` snapshot per replica (blocking)."""
        snapshots = []
        for port in self.ports:
            connection = HTTPConnection("127.0.0.1", port, timeout=10.0)
            try:
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                snapshots.append(json.loads(response.read()))
            finally:
                connection.close()
        return snapshots


# -- the asyncio client -----------------------------------------------------


@dataclass
class _ClientStats:
    latencies: list[float] = field(default_factory=list)
    statuses: dict[int, int] = field(default_factory=dict)
    errors: int = 0
    reconnects: int = 0


async def _close_quietly(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (OSError, ConnectionError):
        pass


async def _drive_connection(
    host: str,
    port: int,
    payloads: Sequence[bytes],
    indices: Iterable[int],
    stop_at: float,
    max_requests: int,
    stats: _ClientStats,
    record: Callable[[int, int, bytes], None] | None = None,
) -> None:
    """One keep-alive connection's closed loop: send, await, record.

    A replica dying mid-request — ``ConnectionResetError`` /
    ``BrokenPipeError`` on the write, a truncated or garbled response on
    the read, connection refused while it restarts — is an *event*, not
    the end of the run: the failure is counted in ``stats.errors``, the
    connection is re-opened (with a short capped backoff, counted in
    ``stats.reconnects``), and the unanswered request is re-sent.
    Assessments are deterministic and cached, so the retry is
    idempotent.  *record*, when given, sees ``(payload_index, status,
    body)`` for every completed response — the chaos verifier compares
    these against a fault-free oracle replay.
    """
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    sent = 0
    backoff = 0.02
    iterator = iter(indices)
    index: int | None = None
    try:
        while sent < max_requests and time.monotonic() < stop_at:
            if writer is None or reader is None:
                try:
                    reader, writer = await asyncio.open_connection(host, port)
                    backoff = 0.02
                except OSError:
                    # The replica is down (or restarting): back off a
                    # little, but never past the cell's own deadline.
                    stats.errors += 1
                    remaining = stop_at - time.monotonic()
                    if remaining <= 0:
                        return
                    await asyncio.sleep(min(backoff, remaining))
                    backoff = min(0.25, backoff * 2.0)
                    continue
            if index is None:
                try:
                    index = next(iterator)
                except StopIteration:
                    return
            body = payloads[index]
            head = (
                "POST /assess HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "\r\n"
            ).encode("latin-1")
            start = time.perf_counter()
            try:
                writer.write(head + body)
                await writer.drain()
                status, response_body = await _read_response(reader)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                # Killed mid-request; re-send this index on a fresh
                # connection (the next loop iteration reconnects).
                stats.errors += 1
                stats.reconnects += 1
                await _close_quietly(writer)
                reader = writer = None
                continue
            stats.latencies.append(time.perf_counter() - start)
            stats.statuses[status] = stats.statuses.get(status, 0) + 1
            if record is not None:
                record(index, status, response_body)
            sent += 1
            index = None
    finally:
        if writer is not None:
            await _close_quietly(writer)


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
            break
    body = await reader.readexactly(length) if length else b""
    return status, body


# -- cells ------------------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    """One measured (replicas × connections) cell."""

    replicas: int
    connections: int
    requests: int
    duration_seconds: float
    rps: float
    p50_ms: float
    p99_ms: float
    shed_rate: float
    cache_hit_ratio: float
    coalesce_count: int
    client_errors: int
    statuses: dict[int, int]
    reconnects: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "replicas": self.replicas,
            "connections": self.connections,
            "requests": self.requests,
            "duration_seconds": round(self.duration_seconds, 4),
            "rps": round(self.rps, 2),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "shed_rate": round(self.shed_rate, 5),
            "cache_hit_ratio": round(self.cache_hit_ratio, 5),
            "coalesce_count": self.coalesce_count,
            "client_errors": self.client_errors,
            "reconnects": self.reconnects,
            "statuses": {str(code): count for code, count in sorted(self.statuses.items())},
        }


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


async def _run_clients(
    ports: Sequence[int],
    payloads: Sequence[bytes],
    spec: WorkloadSpec,
    connections: int,
    duration_seconds: float,
    max_requests_per_connection: int,
) -> tuple[_ClientStats, float]:
    stats = _ClientStats()
    stop_at = time.monotonic() + duration_seconds
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _drive_connection(
                "127.0.0.1",
                ports[worker % len(ports)],
                payloads,
                request_stream(spec, worker),
                stop_at,
                max_requests_per_connection,
                stats,
            )
            for worker in range(connections)
        )
    )
    return stats, time.perf_counter() - start


def _warm_cache(ports: Sequence[int], payloads: Sequence[bytes]) -> None:
    """One synchronous pass over every fingerprint against every replica."""
    for port in ports:
        connection = HTTPConnection("127.0.0.1", port, timeout=30.0)
        try:
            for body in payloads:
                connection.request(
                    "POST",
                    "/assess",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                connection.getresponse().read()
        finally:
            connection.close()


def run_cell(
    pool: ReplicaPool,
    spec: WorkloadSpec,
    connections: int,
    duration_seconds: float,
    max_requests_per_connection: int = 1_000_000,
    warm: bool = True,
) -> CellResult:
    """Drive one started pool at one concurrency level and measure it.

    With *warm* (the default for throughput cells) every fingerprint is
    assessed once per replica first, so the measured window is cache-hot
    and the number is serving overhead, not recipe compute.
    """
    payloads = build_payloads(spec)
    if warm:
        _warm_cache(pool.ports, payloads)
    stats, elapsed = asyncio.run(
        _run_clients(
            pool.ports,
            payloads,
            spec,
            connections,
            duration_seconds,
            max_requests_per_connection,
        )
    )
    requests = sum(stats.statuses.values())
    latencies = sorted(stats.latencies)
    shed = stats.statuses.get(429, 0)
    snapshots = pool.metrics()
    hits = sum(int(s["cache"]["hits"]) for s in snapshots)
    misses = sum(int(s["cache"]["misses"]) for s in snapshots)
    coalesced = sum(int(s["cache"]["coalesced"]) for s in snapshots)
    total_lookups = hits + misses
    return CellResult(
        replicas=len(pool.ports),
        connections=connections,
        requests=requests,
        duration_seconds=elapsed,
        rps=requests / elapsed if elapsed > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50) * 1000.0,
        p99_ms=_percentile(latencies, 0.99) * 1000.0,
        shed_rate=shed / requests if requests else 0.0,
        cache_hit_ratio=hits / total_lookups if total_lookups else 0.0,
        coalesce_count=coalesced,
        client_errors=stats.errors,
        statuses=dict(stats.statuses),
        reconnects=stats.reconnects,
    )


def run_shared_cache_trial(
    cache_dir: Path,
    spec: WorkloadSpec,
    replicas: int = 2,
    connections: int = 8,
    duration_seconds: float = 5.0,
) -> dict[str, Any]:
    """Cold-start *replicas* processes on one cache directory and race them.

    Every fingerprint must be computed exactly once across the fleet —
    the lease protocol's acceptance gate.  Returns the trial record,
    including per-replica compute counts and the summed coalesce
    counters.
    """
    payloads = build_payloads(spec)
    with ReplicaPool(count=replicas, cache_dir=cache_dir, shared=True) as pool:
        stats, elapsed = asyncio.run(
            _run_clients(
                pool.ports, payloads, spec, connections, duration_seconds,
                max_requests_per_connection=1_000_000,
            )
        )
        snapshots = pool.metrics()
    computed = [int(s["metrics"]["counters"].get("computed", 0)) for s in snapshots]
    lease_coalesced = sum(
        int(s["cache"].get("lease_coalesced", 0)) for s in snapshots
    )
    lease_acquired = sum(int(s["cache"].get("lease_acquired", 0)) for s in snapshots)
    artifacts = sorted(p.name for p in Path(cache_dir).glob("*.json"))
    requests = sum(stats.statuses.values())
    return {
        "replicas": replicas,
        "connections": connections,
        "requests": requests,
        "rps": round(requests / elapsed, 2) if elapsed > 0 else 0.0,
        "fingerprints": spec.profiles,
        "computed_per_replica": computed,
        "computed_total": sum(computed),
        "lease_acquired": lease_acquired,
        "lease_coalesced": lease_coalesced,
        "artifacts": len(artifacts),
        "client_errors": stats.errors,
        "reconnects": stats.reconnects,
    }


# -- the tracked trajectory -------------------------------------------------


def append_trajectory(
    path: Path,
    cells: Sequence[CellResult],
    shared_cache: dict[str, Any] | None,
    label: str,
) -> dict[str, Any]:
    """Append one run record to ``BENCH_service.json`` (created if absent)."""
    try:
        report = load_json(path)
        if not isinstance(report, dict) or report.get("benchmark") != "bench_service":
            report = {"benchmark": "bench_service", "schema": 1, "trajectory": []}
    except (OSError, ReproError):
        report = {"benchmark": "bench_service", "schema": 1, "trajectory": []}
    record: dict[str, Any] = {
        "label": label,
        "version": repro.__version__,
        "cells": [cell.to_json() for cell in cells],
    }
    if shared_cache is not None:
        record["shared_cache"] = shared_cache
    trajectory = report.setdefault("trajectory", [])
    assert isinstance(trajectory, list)
    trajectory.append(record)
    save_json_atomic(report, path)
    return report
