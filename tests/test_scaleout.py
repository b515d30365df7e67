"""Scale-out serving: leases, the shared cache tier, the asyncio front
end, keep-alive, and the load harness.

Fast, in-process tests run in tier 1; the tests that launch real
``repro-serve`` subprocesses (cross-process cold races, killed-owner
takeover) carry the ``faults`` marker and run in the faults CI job.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.data.database import FrequencyProfile
from repro.errors import ReproError
from repro.io import profile_to_json
from repro.service import AssessmentCache, AssessmentEngine, ServiceCore
from repro.service.faults import InjectedCrash
from repro.service.lease import (
    LeaseState,
    acquire_lease,
    lease_state,
    sweep_stale_leases,
    take_over,
)
from repro.service.loadgen import (
    WorkloadSpec,
    append_trajectory,
    build_payloads,
    request_stream,
    synthetic_profile,
)
from repro.service.server import AssessmentServer
from repro.recipe.assess import Decision, RiskAssessment


@pytest.fixture
def profile():
    return FrequencyProfile({1: 30, 2: 30, 3: 60, 4: 90}, 100)


def _assessment(tolerance: float = 0.9) -> RiskAssessment:
    return RiskAssessment(
        decision=Decision.DISCLOSE_POINT_VALUED,
        tolerance=tolerance,
        n_items=4,
        g=3,
    )


# -- lease mechanics --------------------------------------------------------


class TestLease:
    def test_exclusive_acquire(self, tmp_path):
        path = tmp_path / "fp.lease"
        lease = acquire_lease(path)
        assert lease is not None and path.exists()
        assert acquire_lease(path) is None  # somebody holds it
        lease.release()
        assert not path.exists()
        assert acquire_lease(path) is not None  # free again

    def test_release_is_idempotent(self, tmp_path):
        lease = acquire_lease(tmp_path / "fp.lease")
        lease.release()
        lease.release()
        assert lease.released

    def test_heartbeat_bumps_payload(self, tmp_path):
        path = tmp_path / "fp.lease"
        lease = acquire_lease(path)
        assert lease.heartbeat() == 1
        assert lease.heartbeat() == 2
        payload = json.loads(path.read_text())
        assert payload == {"heartbeats": 2, "pid": os.getpid()}
        lease.release()

    def test_heartbeat_after_release_raises(self, tmp_path):
        lease = acquire_lease(tmp_path / "fp.lease")
        lease.release()
        with pytest.raises(ReproError):
            lease.heartbeat()

    def test_state_classification(self, tmp_path):
        path = tmp_path / "fp.lease"
        assert lease_state(path).kind == LeaseState.MISSING
        lease = acquire_lease(path)
        state = lease_state(path, stale_after=60.0)
        assert state.kind == LeaseState.HELD
        assert state.info.pid == os.getpid() and state.info.owner_alive
        # Old mtime => stale even though the owner pid is alive (hung).
        os.utime(path, (time.time() - 120, time.time() - 120))
        assert lease_state(path, stale_after=60.0).kind == LeaseState.STALE
        lease.release()

    def test_dead_owner_is_stale_and_taken_over(self, tmp_path):
        path = tmp_path / "fp.lease"
        lease = acquire_lease(path, pid=2**22 + 12345)  # vanishingly unlikely pid
        lease._write_payload()
        state = lease_state(path, stale_after=60.0)
        assert state.kind == LeaseState.STALE and not state.info.owner_alive
        taken = take_over(path, stale_after=60.0)
        assert taken is not None and taken.pid == os.getpid()
        taken.release()

    def test_take_over_respects_live_owner(self, tmp_path):
        path = tmp_path / "fp.lease"
        lease = acquire_lease(path)
        assert take_over(path, stale_after=60.0) is None
        lease.release()

    def test_sweep_removes_only_stale(self, tmp_path):
        live = acquire_lease(tmp_path / "live.lease")
        dead = acquire_lease(tmp_path / "dead.lease", pid=2**22 + 54321)
        dead._write_payload()
        assert sweep_stale_leases(tmp_path, stale_after=60.0) == 1
        assert (tmp_path / "live.lease").exists()
        assert not (tmp_path / "dead.lease").exists()
        live.release()


# -- shared cache tier (in-process) -----------------------------------------


class TestSharedCache:
    def test_shared_requires_directory(self):
        with pytest.raises(ReproError):
            AssessmentCache(shared=True)

    def test_cold_compute_acquires_and_releases_lease(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path, shared=True)
        calls = []

        def compute():
            calls.append(1)
            assert (tmp_path / "fp.lease").exists()
            return _assessment()

        assessment, origin = cache.get_or_compute("fp", compute)
        assert origin == "computed" and calls == [1]
        assert not (tmp_path / "fp.lease").exists()
        stats = cache.stats()
        assert stats["lease_acquired"] == 1 and stats["misses"] == 1

    def test_two_cache_instances_single_flight(self, tmp_path):
        """Two caches on one directory: one compute, one coalesce."""
        a = AssessmentCache(directory=tmp_path, shared=True)
        b = AssessmentCache(directory=tmp_path, shared=True)
        started = threading.Event()
        release = threading.Event()
        results = {}

        def slow_compute():
            started.set()
            assert release.wait(5.0)
            return _assessment()

        def leader():
            results["a"] = a.get_or_compute("fp", slow_compute)

        def follower():
            assert started.wait(5.0)
            results["b"] = b.get_or_compute("fp", lambda: _assessment())

        threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
        threads[0].start()
        threads[1].start()
        time.sleep(0.15)  # let the follower reach the lease wait loop
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert results["a"][1] == "computed"
        assert results["b"][1] == "coalesced"
        assert b.stats()["lease_coalesced"] == 1

    def test_deadline_expiry_computes_locally(self, tmp_path):
        blocker = acquire_lease(tmp_path / "fp.lease")
        cache = AssessmentCache(directory=tmp_path, shared=True)
        assessment, origin = cache.compute_shared(
            "fp", _assessment, timeout_seconds=0.05
        )
        assert origin == "computed"
        assert cache.stats()["lease_timeouts"] == 1
        blocker.release()

    def test_store_predicate_withholds_partials(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path, shared=True)
        assessment, origin = cache.compute_shared(
            "fp", _assessment, store=lambda a: False
        )
        assert origin == "computed"
        assert cache.get("fp") is None
        assert not (tmp_path / "fp.json").exists()

    def test_crash_leaves_lease_for_stale_takeover(self, tmp_path):
        """An InjectedCrash mid-compute leaves kill -9 debris; a later
        replica takes the quiet lease over once it goes stale."""
        crashed = AssessmentCache(
            directory=tmp_path, shared=True, lease_stale_seconds=0.2
        )

        def dies():
            raise InjectedCrash("engine.compute", "simulated kill")

        with pytest.raises(InjectedCrash):
            crashed.get_or_compute("fp", dies)
        assert (tmp_path / "fp.lease").exists()  # debris, like a real crash

        survivor = AssessmentCache(
            directory=tmp_path, shared=True, lease_stale_seconds=0.2
        )
        assessment, origin = survivor.compute_shared(
            "fp", _assessment, timeout_seconds=5.0
        )
        assert origin == "computed"
        assert survivor.stats()["lease_takeovers"] == 1
        assert not (tmp_path / "fp.lease").exists()

    def test_plain_exception_releases_lease(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path, shared=True)

        def fails():
            raise OSError("transient")

        with pytest.raises(OSError):
            cache.get_or_compute("fp", fails)
        assert not (tmp_path / "fp.lease").exists()

    def test_construction_sweeps_stale_leases(self, tmp_path):
        dead = acquire_lease(tmp_path / "old.lease", pid=2**22 + 99)
        dead._write_payload()
        cache = AssessmentCache(
            directory=tmp_path, shared=True, lease_stale_seconds=60.0
        )
        assert not (tmp_path / "old.lease").exists()
        assert cache.stats()["stale_leases_swept"] == 1

    def test_clear_disk_removes_leases(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path, shared=True)
        acquire_lease(tmp_path / "fp.lease")
        cache.clear(disk=True)
        assert list(tmp_path.glob("*.lease")) == []


# -- the asyncio front end --------------------------------------------------


def _run(coroutine):
    return asyncio.run(coroutine)


async def _start_server(engine=None):
    core = ServiceCore(engine=engine) if engine is not None else None
    server = AssessmentServer(core=core)
    await server.start("127.0.0.1", 0)
    return server


async def _roundtrip(port, method, path, body=None, reader_writer=None):
    if reader_writer is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = reader_writer
    payload = b"" if body is None else body
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode()
    writer.write(head + payload)
    await writer.drain()
    response_head = await reader.readuntil(b"\r\n\r\n")
    status = int(response_head.split(b" ")[1])
    length = 0
    for line in response_head.split(b"\r\n"):
        if line.lower().startswith(b"content-length"):
            length = int(line.split(b":")[1])
    data = json.loads(await reader.readexactly(length)) if length else {}
    return status, data, (reader, writer)


class TestAsyncServer:
    def test_healthz_and_metrics(self):
        async def scenario():
            server = await _start_server()
            status, body, rw = await _roundtrip(server.server_port, "GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body, _ = await _roundtrip(
                server.server_port, "GET", "/metrics", reader_writer=rw
            )
            assert status == 200 and "admission" in body
            rw[1].close()
            await server.shutdown_gracefully(2.0)

        _run(scenario())

    def test_assess_keep_alive_and_cache(self, profile):
        async def scenario():
            server = await _start_server()
            body = json.dumps(
                {"profile": profile_to_json(profile), "tolerance": 0.9, "runs": 1}
            ).encode()
            status, first, rw = await _roundtrip(
                server.server_port, "POST", "/assess", body
            )
            assert status == 200 and first["cached"] is False
            status, second, _ = await _roundtrip(
                server.server_port, "POST", "/assess", body, reader_writer=rw
            )
            assert status == 200 and second["cached"] is True
            assert second["assessment"] == first["assessment"]
            rw[1].close()
            await server.shutdown_gracefully(2.0)

        _run(scenario())

    def test_pipelined_requests_answer_in_order(self):
        async def scenario():
            server = await _start_server()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.server_port
            )
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            await writer.drain()
            statuses = []
            for _ in range(3):
                head = await reader.readuntil(b"\r\n\r\n")
                statuses.append(int(head.split(b" ")[1]))
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
            assert statuses == [200, 200, 404]
            writer.close()
            await server.shutdown_gracefully(2.0)

        _run(scenario())

    def test_malformed_head_answers_400_and_closes(self):
        async def scenario():
            server = await _start_server()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.server_port
            )
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b" 400 " in head
            length = int(
                [
                    line.split(b":")[1]
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                ][0]
            )
            await reader.readexactly(length)
            assert await reader.read() == b""  # server hung up
            writer.close()
            await server.shutdown_gracefully(2.0)

        _run(scenario())

    def test_validation_error_maps_to_400(self, profile):
        async def scenario():
            server = await _start_server()
            body = json.dumps(
                {"profile": profile_to_json(profile), "tolerance": -1}
            ).encode()
            status, payload, rw = await _roundtrip(
                server.server_port, "POST", "/assess", body
            )
            assert status == 400 and payload["error"]["type"] == "ValueError"
            rw[1].close()
            await server.shutdown_gracefully(2.0)

        _run(scenario())

    def test_connection_close_honoured(self):
        async def scenario():
            server = await _start_server()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.server_port
            )
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"Connection: close" in head
            length = int(
                [
                    line.split(b":")[1]
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                ][0]
            )
            await reader.readexactly(length)
            assert await reader.read() == b""
            writer.close()
            await server.shutdown_gracefully(2.0)

        _run(scenario())


# -- keep-alive through http.client ----------------------------------------


class TestKeepAlive:
    def test_connection_reused_across_requests(self, profile, start_server):
        server = start_server()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=10
        )
        connection.request("GET", "/healthz")
        first = connection.getresponse()
        assert first.status == 200 and first.version == 11
        first.read()
        socket_before = connection.sock
        assert socket_before is not None  # keep-alive left it open
        body = json.dumps(
            {"profile": profile_to_json(profile), "tolerance": 0.9}
        )
        connection.request(
            "POST", "/assess", body=body,
            headers={"Content-Type": "application/json"},
        )
        second = connection.getresponse()
        assert second.status == 200
        second.read()
        assert connection.sock is socket_before  # same TCP connection
        connection.close()

    def test_error_responses_carry_content_length(self, start_server):
        server = start_server()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=10
        )
        for path, expected in (("/nope", 404), ("/assess", 405)):
            connection.request("GET", path)
            response = connection.getresponse()
            declared = int(response.headers["Content-Length"])
            data = response.read()
            assert len(data) == declared
            assert response.status in (404, expected)
        connection.close()


# -- metrics extensions -----------------------------------------------------


class TestMetricsExtensions:
    def test_metrics_payload_has_routes_histograms_admission(self, profile):
        engine = AssessmentEngine()
        core = ServiceCore(engine=engine)
        body = json.dumps(
            {"profile": profile_to_json(profile), "tolerance": 0.9}
        ).encode()
        assert core.dispatch("POST", "/assess", body).status == 200
        response = core.dispatch("GET", "/metrics")
        assert response.status == 200
        payload = response.payload
        assert payload["metrics"]["counters"]["route:POST /assess"] == 1
        assert payload["metrics"]["counters"]["route:GET /metrics"] == 1
        histogram = payload["metrics"]["histograms"]["latency:POST /assess"]
        assert histogram["count"] == 1
        assert sum(histogram["counts"]) == 1
        assert len(histogram["counts"]) == len(histogram["buckets_seconds"]) + 1
        admission = payload["admission"]
        assert admission == {
            "inflight": 0,
            "queued": 0,
            "max_inflight": 8,
            "max_queue": 32,
        }

    def test_unknown_route_counts_as_other(self):
        core = ServiceCore()
        assert core.dispatch("GET", "/wat").status == 404
        assert core.engine.metrics.counter("route:other") == 1


# -- the load harness (units) -----------------------------------------------


class TestLoadgenUnits:
    def test_payloads_are_deterministic_and_distinct(self):
        spec = WorkloadSpec(profiles=5, seed=3)
        first = build_payloads(spec)
        second = build_payloads(spec)
        assert first == second
        assert len(set(first)) == 5  # distinct fingerprints

    def test_request_stream_replays(self):
        spec = WorkloadSpec(profiles=10, seed=7)
        a = [index for index, _ in zip(request_stream(spec, 0), range(50))]
        b = [index for index, _ in zip(request_stream(spec, 0), range(50))]
        c = [index for index, _ in zip(request_stream(spec, 1), range(50))]
        assert a == b
        assert a != c  # connections draw independent streams
        assert all(0 <= index < 10 for index in a)

    def test_zipf_skews_toward_rank_zero(self):
        spec = WorkloadSpec(profiles=20, zipf_s=1.2, seed=0)
        draws = [index for index, _ in zip(request_stream(spec, 0), range(2000))]
        counts = [draws.count(rank) for rank in range(20)]
        assert counts[0] == max(counts)
        assert counts[0] > 3 * counts[-1]

    def test_synthetic_profiles_distinct(self):
        profiles = [synthetic_profile(index, 10) for index in range(8)]
        frequencies = [tuple(sorted(p.frequencies().items())) for p in profiles]
        assert len(set(frequencies)) == 8

    def test_append_trajectory_creates_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_service.json"
        report = append_trajectory(path, [], {"computed_total": 3}, label="one")
        assert report["benchmark"] == "bench_service"
        assert len(report["trajectory"]) == 1
        report = append_trajectory(path, [], None, label="two")
        assert [record["label"] for record in report["trajectory"]] == [
            "one",
            "two",
        ]
        on_disk = json.loads(path.read_text())
        assert on_disk == report


# -- cross-process single-flight (real subprocesses) ------------------------


def _serve_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_server(args, env):
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            f"from repro.cli import serve_main; "
            f"raise SystemExit(serve_main({args!r}))",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _await_port(process):
    banner = process.stdout.readline()
    assert "listening on http://" in banner, banner
    return int(banner.rsplit(":", 1)[1])


def _post_assess(port, payload, timeout=60.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(
            "POST", "/assess", body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _get_metrics(port):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", "/metrics")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


@pytest.mark.faults
class TestCrossProcessSingleFlight:
    # The second case admits one compute at a time: the cross-process
    # lease must single-flight the race whatever the in-process admission.
    @pytest.mark.parametrize("flavor_args", [[], ["--max-inflight", "1"]])
    def test_two_replicas_one_cold_compute(self, tmp_path, profile, flavor_args):
        """Two real server processes race one cold fingerprint: exactly
        one computes, both answer byte-identical assessments, one
        artifact lands in the shared directory."""
        env = _serve_env()
        cache_dir = tmp_path / "cache"
        args = [
            "--port", "0", "--grace", "2",
            "--cache-dir", str(cache_dir), "--shared-cache",
        ] + flavor_args
        payload = {
            "profile": profile_to_json(profile),
            "tolerance": 0.9,
            "runs": 1,
        }
        servers = [_spawn_server(args, env) for _ in range(2)]
        try:
            ports = [_await_port(process) for process in servers]
            results = {}

            def hit(name, port):
                results[name] = _post_assess(port, payload)

            threads = [
                threading.Thread(target=hit, args=(name, port))
                for name, port in zip("ab", ports)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            status_a, body_a = results["a"]
            status_b, body_b = results["b"]
            assert status_a == 200 and status_b == 200
            answer_a = json.loads(body_a)
            answer_b = json.loads(body_b)
            assert answer_a["fingerprint"] == answer_b["fingerprint"]
            # Byte-identical artifacts: the canonical JSON of both
            # replicas' assessments must match exactly.
            assert json.dumps(answer_a["assessment"], sort_keys=True) == json.dumps(
                answer_b["assessment"], sort_keys=True
            )
            snapshots = [_get_metrics(port) for port in ports]
            computed = [
                snapshot["metrics"]["counters"].get("computed", 0)
                for snapshot in snapshots
            ]
            assert sum(computed) == 1, computed  # exactly one cold compute
            coalesced = sum(
                snapshot["cache"]["coalesced"] + snapshot["cache"]["disk_hits"]
                for snapshot in snapshots
            )
            assert coalesced >= 1, snapshots
            artifacts = list(cache_dir.glob("*.json"))
            assert len(artifacts) == 1
            assert list(cache_dir.glob("*.lease")) == []
        finally:
            for process in servers:
                if process.poll() is None:
                    process.send_signal(signal.SIGTERM)
            for process in servers:
                process.wait(timeout=15)
                process.stdout.close()

    def test_killed_owner_lease_is_taken_over(self, tmp_path, profile):
        """A replica killed with SIGKILL mid-compute leaves its lease
        behind; a fresh replica on the same directory recovers (sweep on
        construction + stale takeover) and answers."""
        env = _serve_env()
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        # Simulate the kill -9 debris deterministically: a lease whose
        # owner pid is a subprocess we already reaped.
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait(timeout=10)
        dead_pid = probe.pid
        from repro.service.fingerprint import AssessmentParams, request_fingerprint

        fingerprint = request_fingerprint(
            profile, AssessmentParams(tolerance=0.9, runs=1)
        )
        lease = acquire_lease(cache_dir / f"{fingerprint}.lease", pid=dead_pid)
        lease._write_payload()

        args = [
            "--port", "0", "--grace", "2",
            "--cache-dir", str(cache_dir), "--shared-cache",
        ]
        process = _spawn_server(args, env)
        try:
            port = _await_port(process)
            status, body = _post_assess(
                port,
                {"profile": profile_to_json(profile), "tolerance": 0.9, "runs": 1},
            )
            assert status == 200
            assert json.loads(body)["cached"] is False
            snapshot = _get_metrics(port)
            cache_stats = snapshot["cache"]
            # The dead owner's lease never blocked the request: it was
            # swept at startup or taken over at compute time.
            assert (
                cache_stats["stale_leases_swept"] + cache_stats["lease_takeovers"]
                >= 1
            ), cache_stats
            assert list(cache_dir.glob("*.lease")) == []
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            process.wait(timeout=15)
            process.stdout.close()


@pytest.mark.faults
class TestReproServeProcess:
    def test_sigterm_with_idle_keep_alive_connection_exits_within_grace(self):
        """An idle keep-alive client must not hold shutdown open: the
        drain closes it and the process exits 0 within grace + 1 s."""
        env = _serve_env()
        process = _spawn_server(["--port", "0", "--grace", "2"], env)
        connection = None
        try:
            port = _await_port(process)
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            assert connection.sock is not None  # left open and idle
            process.send_signal(signal.SIGTERM)
            started = time.monotonic()
            try:
                out, _ = process.communicate(timeout=3.0)
            except subprocess.TimeoutExpired:
                pytest.fail("repro-serve still running 3 s after SIGTERM")
            assert time.monotonic() - started < 3.0
        finally:
            if connection is not None:
                connection.close()
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "shutting down" in out

    def test_verbose_writes_one_access_line_per_request(self):
        env = _serve_env()
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.cli import serve_main; "
                "raise SystemExit(serve_main(['--port', '0', '--verbose']))",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port = _await_port(process)
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            for path in ("/healthz", "/nope"):
                connection.request("GET", path)
                connection.getresponse().read()
            connection.close()
        finally:
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=15)
        access = [line for line in err.splitlines() if '"GET ' in line]
        assert len(access) == 2, err
        assert '"GET /healthz HTTP/1.1" 200' in access[0]
        assert '"GET /nope HTTP/1.1" 404' in access[1]
