"""Bounded admission control for the HTTP front end.

The server accepts every connection it is offered, so without a bound
an overloaded process would pile up concurrent computations until
nothing finishes.  The :class:`AdmissionController` bounds the damage:

* at most ``max_inflight`` assessments compute concurrently;
* at most ``max_queue`` more wait (FIFO via condition-variable
  wakeups) for a slot — a waiter gives up when its own deadline budget
  would expire before compute could even start;
* beyond that, requests are *shed* immediately (HTTP 429), because a
  client is better served by an instant retry signal than by a request
  parked on a doomed queue.

The server sizes its dispatch executor from ``max_inflight`` and
``max_queue`` (plus headroom), so every excess request reaches the
controller and is shed rather than waiting unseen in front of it.

The ``inflight`` / ``queued`` gauges and the ``shed`` counter (on the
engine's :class:`~repro.service.metrics.ServiceMetrics`) expose the
controller's state; the ``server.admission`` fault-injection site fires
on every admission attempt so overload behaviour is deterministically
testable.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ReproError
from repro.service.faults import fault_point
from repro.service.metrics import ServiceMetrics

__all__ = ["AdmissionController", "QueueFullError", "AdmissionTimeout"]


class QueueFullError(ReproError):
    """Both the inflight slots and the waiting queue are full (HTTP 429)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionTimeout(ReproError):
    """A queued request's own deadline expired before a slot freed (503)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionController:
    """Bounded inflight + FIFO-ish queue with load shedding.

    Parameters
    ----------
    max_inflight:
        Concurrent admitted computations.
    max_queue:
        Requests allowed to wait for a slot; the next one is shed.
    metrics:
        Optional :class:`ServiceMetrics` for the ``inflight`` /
        ``queued`` gauges and the ``shed`` counter.
    """

    def __init__(
        self,
        max_inflight: int = 8,
        max_queue: int = 32,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if max_inflight < 1:
            raise ReproError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ReproError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._metrics = metrics
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self._update_gauges()

    def _update_gauges(self) -> None:
        if self._metrics is not None:
            self._metrics.set_gauge("inflight", self._inflight)
            self._metrics.set_gauge("queued", self._queued)

    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def queued(self) -> int:
        with self._cond:
            return self._queued

    def snapshot(self) -> dict[str, int]:
        """Queue depth and limits, for ``GET /metrics``."""
        with self._cond:
            return {
                "inflight": self._inflight,
                "queued": self._queued,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
            }

    @contextmanager
    def admitted(self, timeout_seconds: Optional[float] = None) -> Iterator[None]:
        """Hold an inflight slot for the duration of the ``with`` block.

        Raises :class:`QueueFullError` when the queue is full (shed) and
        :class:`AdmissionTimeout` when *timeout_seconds* elapses while
        waiting.  *timeout_seconds* should be the request's remaining
        deadline: a request whose budget would expire on the queue is
        told to come back rather than admitted to fail.
        """
        fault_point("server.admission")
        deadline = (
            None if timeout_seconds is None else time.monotonic() + timeout_seconds
        )
        with self._cond:
            if self._inflight >= self.max_inflight:
                if self._queued >= self.max_queue:
                    if self._metrics is not None:
                        self._metrics.increment("shed")
                    raise QueueFullError(
                        f"admission queue full ({self.max_inflight} inflight, "
                        f"{self.max_queue} queued); request shed",
                        retry_after=1.0,
                    )
                self._queued += 1
                self._update_gauges()
                try:
                    while self._inflight >= self.max_inflight:
                        remaining = (
                            None if deadline is None else deadline - time.monotonic()
                        )
                        if remaining is not None and remaining <= 0:
                            raise AdmissionTimeout(
                                "request deadline expired while queued for "
                                "an admission slot",
                                retry_after=1.0,
                            )
                        self._cond.wait(remaining)
                finally:
                    self._queued -= 1
                    self._update_gauges()
            self._inflight += 1
            self._update_gauges()
        try:
            yield
        finally:
            with self._cond:
                self._inflight -= 1
                self._update_gauges()
                self._cond.notify()
