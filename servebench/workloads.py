"""Seed-generated request sequences for the three serving workloads.

A :class:`Plan` is a pure function of ``(workload, seed, requests)``: the
same arguments give byte-identical request bodies, so every run of one
seed makes the replica do exactly the same work.  The program under test
only ever sees the generated bodies.

Why these three workloads (see README.md for the full table):

* ``retail-warm`` -- RETAIL at paper scale (16,470 items), four
  tolerances answered once in set-up, so every timed request is a
  memory-tier hit.  The read path: JSON codec, fingerprinting, cache
  lookup and transport, with no recipe work.
* ``fresh-cold`` -- every request is a never-seen CHESS, MUSHROOM,
  CONNECT or ACCIDENTS profile, so every request runs the whole recipe
  and the shared-tier write (lease, fsync'd artifact, commit log).
* ``pumsb-sweep`` -- one PUMSB profile (2,113 items) at several
  tolerances and request seeds.  Set-up fills the engine memos; every
  timed request then misses the result cache while the groups, space,
  exact and attack memos hit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.datasets.registry import load_benchmark
from repro.io import profile_to_json

__all__ = [
    "FRESH_DATASETS",
    "PUMSB_TOLERANCES",
    "RETAIL_TOLERANCES",
    "WORKLOADS",
    "Plan",
    "build_plan",
    "derive_seed",
]

#: The four RETAIL tolerances; together they reach Step 2 (point-valued
#: disclosure), Step 7 (interval disclosure) and Steps 8-9 (alpha bound).
RETAIL_TOLERANCES = (0.005, 0.01, 0.02, 0.05)

#: Calibrated datasets small enough that a cold compute takes tens of ms.
FRESH_DATASETS = ("chess", "mushroom", "connect", "accidents")
FRESH_TOLERANCE = 0.1

#: Every one of these reaches Steps 8-9 on PUMSB.
PUMSB_TOLERANCES = (0.02, 0.05, 0.1)

RUNS = 5


@dataclass(frozen=True)
class Workload:
    """A named workload and the shape of its replica's expected answers."""

    name: str
    #: Requests per second at which the window lasts about one second;
    #: the window's request count is this times ``--seconds``.
    nominal_rps: float
    #: Every timed request is answered from the result cache (True) or
    #: computed (False).
    expect_cached: bool
    #: The decision every timed answer must carry, if the workload needs one.
    expect_decision: str | None = None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("retail-warm", nominal_rps=11.0, expect_cached=True),
        Workload("fresh-cold", nominal_rps=40.0, expect_cached=False),
        Workload(
            "pumsb-sweep", nominal_rps=40.0, expect_cached=False, expect_decision="ALPHA_BOUND"
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """Everything one run sends: pre-warm bodies, then the timed window."""

    workload: str
    seed: int
    setup: tuple[bytes, ...]
    window: tuple[bytes, ...]

    @property
    def expect_cached(self) -> bool:
        return WORKLOADS[self.workload].expect_cached


def derive_seed(seed: int, *labels: object) -> int:
    """A generator seed that depends only on *seed* and *labels*."""
    digest = hashlib.sha256(repr((seed,) + labels).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _body(profile_json: dict, tolerance: float, seed: int = 0) -> bytes:
    payload = {"profile": profile_json, "tolerance": tolerance, "runs": RUNS, "seed": seed}
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _retail_warm(seed: int, requests: int) -> tuple[list[bytes], list[bytes]]:
    profile = profile_to_json(load_benchmark("retail", seed=derive_seed(seed, "retail")).profile)
    bodies = [_body(profile, tolerance) for tolerance in RETAIL_TOLERANCES]
    order = hashlib.sha256(repr((seed, "order")).encode("utf-8")).digest()
    window = []
    while len(window) < requests:
        for byte in order:
            window.append(bodies[byte % len(bodies)])
        order = hashlib.sha256(order).digest()
    return bodies, window[:requests]


def _fresh_cold(seed: int, requests: int) -> tuple[list[bytes], list[bytes]]:
    seen: set[bytes] = set()

    def fresh(label: str, index: int) -> bytes:
        # A profile identical to an earlier one would be a cache hit;
        # draw the next sub-seed until the profile is new.
        name = FRESH_DATASETS[index % len(FRESH_DATASETS)]
        attempt = 0
        while True:
            generator_seed = derive_seed(seed, label, index, attempt)
            profile = profile_to_json(load_benchmark(name, seed=generator_seed).profile)
            body = _body(profile, FRESH_TOLERANCE)
            if body not in seen:
                seen.add(body)
                return body
            attempt += 1

    setup = [fresh("setup", index) for index in range(len(FRESH_DATASETS))]
    window = [fresh("window", index) for index in range(requests)]
    return setup, window


def _pumsb_sweep(seed: int, requests: int) -> tuple[list[bytes], list[bytes]]:
    profile = profile_to_json(load_benchmark("pumsb", seed=derive_seed(seed, "pumsb")).profile)
    # Request seed 0 fills the memos in set-up; the window uses 1, 2, ...
    setup = [_body(profile, PUMSB_TOLERANCES[-1], seed=0)]
    window = [
        _body(profile, PUMSB_TOLERANCES[index % len(PUMSB_TOLERANCES)], seed=1 + index)
        for index in range(requests)
    ]
    return setup, window


_BUILDERS = {
    "retail-warm": _retail_warm,
    "fresh-cold": _fresh_cold,
    "pumsb-sweep": _pumsb_sweep,
}


def build_plan(workload: str, seed: int, requests: int) -> Plan:
    """The request sequence of one run; a pure function of its arguments."""
    if requests < 1:
        raise ValueError(f"need at least one request, got {requests}")
    setup, window = _BUILDERS[workload](seed, requests)
    return Plan(workload=workload, seed=seed, setup=tuple(setup), window=tuple(window))
