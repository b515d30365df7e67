"""One ``repro-serve`` replica driven over a single keep-alive connection.

The replica is started through the package's public entry point
(``repro.cli.serve_main``) with the default front end and a shared cache
tier in a fresh directory; every other flag keeps its default.  The
client side is deliberately plain: one :class:`http.client.HTTPConnection`,
one request at a time, the response read to the last byte before the
next request is sent (a closed loop with one caller).
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path
from typing import Any

_BANNER = "listening on http://"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def commit_lines(cache_dir: Path) -> int:
    """Lines in a shared tier's commit log (one per durable write)."""
    log = cache_dir / "commits.log"
    if not log.exists():
        return 0
    with open(log, "rb") as handle:
        return sum(1 for _ in handle)


class ReplicaError(RuntimeError):
    """The replica could not be started or stopped cleanly."""


class Replica:
    """A running ``repro-serve`` process plus one client connection."""

    def __init__(
        self, src_dir: Path, cache_dir: Path, log_path: Path, banner_timeout: float = 60.0
    ) -> None:
        cache_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        argv = ["--port", "0", "--cache-dir", str(cache_dir), "--shared-cache"]
        code = (
            "from repro.cli import serve_main; "
            f"raise SystemExit(serve_main({argv!r}))"
        )
        self.cache_dir = cache_dir
        self._log_path = log_path
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self.connection: HTTPConnection | None = None
        try:
            self.port = self._await_banner(banner_timeout)
            self.connection = HTTPConnection("127.0.0.1", self.port, timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _await_banner(self, timeout: float) -> int:
        """The port from the ``listening on`` line, read within *timeout*
        seconds even if the replica hangs without printing or exiting."""
        assert self.process.stdout is not None
        stdout = self.process.stdout.fileno()
        deadline = time.monotonic() + timeout
        printed = b""
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            while (remaining := deadline - time.monotonic()) > 0:
                if not selector.select(remaining):
                    continue
                chunk = os.read(stdout, 4096)
                if not chunk:
                    raise ReplicaError(
                        f"repro-serve closed its output before printing its banner: "
                        f"{self._log_tail()}"
                    )
                printed += chunk
                *lines, _ = printed.decode("utf-8", "replace").split("\n")
                for line in lines:
                    if _BANNER in line:
                        return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        raise ReplicaError(f"timed out waiting for the repro-serve banner: {self._log_tail()}")

    def _log_tail(self) -> str:
        self._log.flush()
        return self._log_path.read_bytes()[-2000:].decode("utf-8", "replace")

    # -- requests ---------------------------------------------------------

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """One round trip on the keep-alive connection: ``(status, body)``."""
        assert self.connection is not None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> dict[str, Any]:
        status, body = self.request("GET", path)
        if status != 200:
            raise ReplicaError(f"GET {path} answered {status}")
        return json.loads(body)

    # -- process accounting (Linux /proc) ----------------------------------

    def cpu_seconds(self) -> float:
        """User + system CPU time the replica has consumed so far."""
        raw = Path(f"/proc/{self.process.pid}/stat").read_text()
        # Fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the full line.
        fields = raw[raw.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The replica's high-water resident set size (``VmHWM``)."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ReplicaError("VmHWM missing from /proc status")

    # -- shutdown ---------------------------------------------------------

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL if it lingers; always reaps."""
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()

    def __enter__(self) -> "Replica":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
