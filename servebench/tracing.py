"""Layer spans timed from outside the program.

:class:`Tracer` replaces each layer's entry function, at the name its
caller looks it up under, with a wrapper that records a span: wall time,
number of calls, and *self time* -- the span's duration minus the time
covered by spans nested inside it.  Self times therefore add up: the sum
over every span inside ``routes.dispatch`` plus what no span covers
(``unattributed``) is the dispatch time.

Nothing inside the program changes; :meth:`Tracer.installed` restores
every original attribute on exit.  Spans are kept per thread on a plain
stack, which is exact for the single-threaded in-process replay that
uses them.

Garbage-collection pauses are recorded separately through
:data:`gc.callbacks`; they fall inside whichever span allocated, so they
are reported beside the layers, not added to them.
"""

from __future__ import annotations

import functools
import gc
import importlib
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["LAYER_TARGETS", "Tracer"]

#: ``(span name, module, attribute path)`` for every wrapped entry point.
#: The attribute is the one the caller resolves at call time, e.g. the
#: engine calls ``profile_fingerprint`` through ``repro.service.engine``'s
#: globals.  The recipe stages inside ``engine.compute`` are not wrapped:
#: the engine already times each of them (``stage:*`` timers in its
#: metrics), and the replay reads those instead.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("routes.dispatch", "repro.service.routes", "ServiceCore.dispatch"),
    ("io.decode", "repro.service.routes", "ServiceCore._parse_body"),
    ("io.decode", "repro.service.routes", "profile_from_json"),
    ("io.encode", "repro.service.routes", "assessment_to_json"),
    ("fingerprint.profile", "repro.service.engine", "profile_fingerprint"),
    ("fingerprint.request", "repro.service.engine", "request_fingerprint"),
    ("cache.lookup", "repro.service.cache", "AssessmentCache.get_or_compute"),
    ("cache.write", "repro.service.cache", "AssessmentCache._write_disk"),
    ("lease.acquire", "repro.service.cache", "acquire_lease"),
    ("lease.release", "repro.service.lease", "Lease.start_heartbeat"),
    ("lease.release", "repro.service.lease", "Lease.release"),
    ("engine.compute", "repro.service.engine", "AssessmentEngine._compute"),
)


class Tracer:
    """Per-span-name call counts, total time and self time."""

    def __init__(self, targets: tuple[tuple[str, str, str], ...] = LAYER_TARGETS) -> None:
        self.targets = targets
        self.calls: Counter[str] = Counter()
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.total_seconds: defaultdict[str, float] = defaultdict(float)
        self.gc_seconds = 0.0
        self.gc_collections: Counter[int] = Counter()
        #: Targets absent from the program (renamed or removed); their
        #: time shows up in the enclosing span or as unattributed.
        self.missing: list[str] = []
        self._local = threading.local()
        self._gc_start: float | None = None

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.calls.clear()
        self.self_seconds.clear()
        self.total_seconds.clear()
        self.gc_seconds = 0.0
        self.gc_collections.clear()

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """*function* with a span named *name* around every call."""
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer.calls[name] += 1
                tracer.total_seconds[name] += elapsed
                tracer.self_seconds[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections[info["generation"]] += 1
            self._gc_start = None

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper and the GC callback; restore on exit."""
        restore: list[tuple[object, str, object]] = []
        self.missing = []
        try:
            for name, module_name, path in self.targets:
                owner: object = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                try:
                    for parent in parents:
                        owner = getattr(owner, parent)
                    original = vars(owner)[attribute]
                except (AttributeError, KeyError):
                    self.missing.append(f"{module_name}:{path}")
                    continue
                if isinstance(original, staticmethod):
                    replacement: object = staticmethod(self.wrap(name, original.__func__))
                else:
                    replacement = self.wrap(name, original)
                setattr(owner, attribute, replacement)
                restore.append((owner, attribute, original))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)
