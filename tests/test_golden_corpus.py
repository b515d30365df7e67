"""Golden corpus: the SHA-256 of ``assessment_to_json`` on a fixed corpus.

Each case runs once through the library recipe (``assess_risk`` with a
fixed ``rng``) and once through ``AssessmentEngine.assess`` (RNG derived
from the request fingerprint), and the canonical JSON of each answer is
pinned by hash.  The corpus reaches all four decisions, with and without
a subset of interest, with an explicit ``delta``, and through a budget
that expires mid-recipe.  A refactor of the recipe or the engine must
leave every hash unchanged.

Run ``python tests/test_golden_corpus.py`` (with ``src`` on the path) to
print the hashes of the code under test.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.budget import ComputeBudget
from repro.data import FrequencyProfile, TransactionDatabase
from repro.datasets.registry import load_benchmark
from repro.io import assessment_to_json
from repro.recipe import Decision, RiskAssessment, assess_risk
from repro.service import AssessmentEngine


def _bigmart() -> FrequencyProfile:
    """The BigMart database of tests/conftest.py, as a profile."""
    windows = {
        1: range(0, 5), 2: range(3, 7), 3: range(5, 10),
        4: range(2, 7), 5: range(7, 10), 6: range(5, 10),
    }
    transactions = [
        {item for item, window in windows.items() if t in window} for t in range(10)
    ]
    return TransactionDatabase(transactions, domain=range(1, 7)).to_profile()


def _profiles() -> dict[str, FrequencyProfile]:
    return {
        "bigmart": _bigmart(),
        "chess": load_benchmark("chess").profile,
        "mushroom": load_benchmark("mushroom").profile,
    }


def _interest(profile: FrequencyProfile, size: int) -> frozenset:
    return frozenset(sorted(profile.domain)[:size])


#: case id -> (dataset, tolerance, options).  Options: ``interest`` (the
#: first N items of the sorted domain), ``delta``, ``runs`` and
#: ``expire`` (a fake-clock budget that runs out inside the interval rung).
CASES: dict[str, tuple[str, float, dict]] = {
    "bigmart-point": ("bigmart", 0.5, {}),
    "bigmart-interval": ("bigmart", 0.4, {}),
    "bigmart-alpha": ("bigmart", 0.1, {}),
    "bigmart-interest": ("bigmart", 0.1, {"interest": 3}),
    "bigmart-delta": ("bigmart", 0.1, {"delta": 0.05, "runs": 3}),
    "bigmart-inconclusive": ("bigmart", 0.1, {"expire": True}),
    "chess-point": ("chess", 1.0, {}),
    "chess-interval": ("chess", 0.9, {}),
    "chess-alpha": ("chess", 0.05, {"runs": 3}),
    "chess-interest": ("chess", 0.1, {"interest": 20, "runs": 3}),
    "mushroom-point": ("mushroom", 0.9, {}),
    "mushroom-interval": ("mushroom", 0.5, {}),
    "mushroom-alpha": ("mushroom", 0.1, {"runs": 3}),
    "mushroom-delta": ("mushroom", 0.2, {"delta": 0.01, "runs": 3}),
    "mushroom-interest": ("mushroom", 0.2, {"interest": 40, "runs": 3}),
    "mushroom-inconclusive": ("mushroom", 0.1, {"expire": True}),
}

#: ``engine.sweep_tolerance`` over one MUSHROOM engine: later tolerances
#: are served from the engine's exact and attack memos.
SWEEP = ("mushroom", (0.05, 0.1, 0.2, 0.5))

#: case id -> (assess_risk hash, AssessmentEngine hash).
GOLDEN: dict[str, tuple[str, str]] = {
    "bigmart-alpha": (
        "1b22f85cac0416a7febc5e378c921c7fedfca3a08360acedb37545b84f366757",
        "1b22f85cac0416a7febc5e378c921c7fedfca3a08360acedb37545b84f366757",
    ),
    "bigmart-delta": (
        "c45e11a03043550fa3fba5ee332c043ee859181f9f6ba3796fb6415ba169a904",
        "03c1607aecc3c5f9e6b023bfbe21e8e631c377a9a7a6e5d8f831895b71b969de",
    ),
    "bigmart-inconclusive": (
        "53c9da37145a25e326ec0075fab429db1f8a757fc0de4a07e564c9a232752517",
        "53c9da37145a25e326ec0075fab429db1f8a757fc0de4a07e564c9a232752517",
    ),
    "bigmart-interest": (
        "acd22139ae9b3162e5129920ae30eb943e27eca9ce8f098fd313fbb3cde24d88",
        "acd22139ae9b3162e5129920ae30eb943e27eca9ce8f098fd313fbb3cde24d88",
    ),
    "bigmart-interval": (
        "6b97168873b18dd97d1deb62a21cf94a6db2051d5b82819b019511e044e4a666",
        "6b97168873b18dd97d1deb62a21cf94a6db2051d5b82819b019511e044e4a666",
    ),
    "bigmart-point": (
        "a0b9088cf227831aac1bfd3c031df772a1f5efd9cb9212b24e1d99935a70f99c",
        "a0b9088cf227831aac1bfd3c031df772a1f5efd9cb9212b24e1d99935a70f99c",
    ),
    "chess-alpha": (
        "d81ff84d6a19d006254704caf16a8e3a688d86621692c8dcd0770936b06fd10d",
        "92f162fd4a13acafd72c9bca6d34ce39d81a24b174c2858bcb782b5690a6fb05",
    ),
    "chess-interest": (
        "4c5affc173239c5f466ff8cac9647c8bd88edc8ff8e1adf94bdc110269cbb7af",
        "c73c9eb00de71644f7b6e5396e8ecab1904c20dc9d5a7d4899ba560112f3bece",
    ),
    "chess-interval": (
        "67734fe1c70ff7b03f69ea242d53260ab3c8b2bab4e971378fd3fc7db8731561",
        "67734fe1c70ff7b03f69ea242d53260ab3c8b2bab4e971378fd3fc7db8731561",
    ),
    "chess-point": (
        "602bcb8e23b0f8f38ce4a66a97b1ed3eb996f8347e08ede02d304664cb311f15",
        "602bcb8e23b0f8f38ce4a66a97b1ed3eb996f8347e08ede02d304664cb311f15",
    ),
    "mushroom-alpha": (
        "ff05a7ab4be063ea8282cb7246fbe5cfa76233d95c9ec3d895364d2ba7f0afa9",
        "fbcde0b4783b2ec9397143e246da54b02d9cd5a62ddc69fb7efea99b0dd5e5a8",
    ),
    "mushroom-delta": (
        "c9987099bd26185e20a484d9a7132b3d8f35c68ab8f5d6d9f83ee7b0489e9a39",
        "cc8b4749ccc04aec53605ba9d74156a6f71ffe2ab0deb2383d76c084dd267bba",
    ),
    "mushroom-inconclusive": (
        "9e68f3a60ec7db7d88ad2cab3a01d9a9f5ad6e02cb85ca4c7313afc54394e8fa",
        "9e68f3a60ec7db7d88ad2cab3a01d9a9f5ad6e02cb85ca4c7313afc54394e8fa",
    ),
    "mushroom-interest": (
        "5985e8bbf00086e09ccbecf24a7a74537407b2bc79fc244831321d03911034ad",
        "1119e0583d70b5538fd9fabd1c4bc01488a3a9c4f58fe9e63edf648d20e9bc9c",
    ),
    "mushroom-interval": (
        "6bb992f6858770aa6bc46f316079b9e92bad47d63b6f71cd6d7b6ca8a68b916d",
        "6bb992f6858770aa6bc46f316079b9e92bad47d63b6f71cd6d7b6ca8a68b916d",
    ),
    "mushroom-point": (
        "85fb3f8c8a5eccfb1569e963d9119ac07184c5c68ea1dfa41efc025f8045206a",
        "85fb3f8c8a5eccfb1569e963d9119ac07184c5c68ea1dfa41efc025f8045206a",
    ),
}

#: SWEEP hashes, in tolerance order.
GOLDEN_SWEEP: tuple[str, ...] = (
    "b227a3d3132b5edba1812f8660aa8fdd884727fde159ed5f7f436c501d064645",
    "fbcde0b4783b2ec9397143e246da54b02d9cd5a62ddc69fb7efea99b0dd5e5a8",
    "bc4ea427d74d22545cbdc3fca9770fe224481858f739cd9d9212eddceaf55eca",
    "6bb992f6858770aa6bc46f316079b9e92bad47d63b6f71cd6d7b6ca8a68b916d",
)


def _digest(assessment: RiskAssessment) -> str:
    text = json.dumps(assessment_to_json(assessment), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _expiring_budget(expire_on_poll: int) -> ComputeBudget:
    """A budget whose clock jumps past its deadline at poll *expire_on_poll*.

    The poll hook fires before the expiry check, so every earlier poll
    passes and that one (and all later ones) observe the deadline.
    """
    clock = _FakeClock()
    polls: list[str] = []

    def hook(site: str) -> None:
        polls.append(site)
        if len(polls) == expire_on_poll:
            clock.now += 100.0

    return ComputeBudget(seconds=50.0, clock=clock, fault_hook=hook)


def _recipe_case(profile: FrequencyProfile, tolerance: float, options: dict) -> RiskAssessment:
    # The recipe polls before Step 3, then inside the exact refinement.
    budget = _expiring_budget(2) if options.get("expire") else None
    return assess_risk(
        profile,
        tolerance,
        delta=options.get("delta"),
        runs=options.get("runs", 5),
        rng=np.random.default_rng(0),
        interest=_interest(profile, options["interest"]) if "interest" in options else None,
        budget=budget,
    )


def _engine_case(profile: FrequencyProfile, tolerance: float, options: dict) -> RiskAssessment:
    # The engine adds one poll on entry, ahead of the recipe's.
    budget = _expiring_budget(3) if options.get("expire") else None
    outcome = AssessmentEngine().assess(
        profile,
        tolerance,
        delta=options.get("delta"),
        runs=options.get("runs", 5),
        seed=0,
        interest=_interest(profile, options["interest"]) if "interest" in options else None,
        budget=budget,
    )
    return outcome.assessment


def _sweep(profiles: dict[str, FrequencyProfile]) -> tuple[AssessmentEngine, list[RiskAssessment]]:
    dataset, tolerances = SWEEP
    engine = AssessmentEngine()
    outcomes = engine.sweep_tolerance(profiles[dataset], tolerances, runs=3, seed=0)
    return engine, [outcome.assessment for outcome in outcomes]


@pytest.fixture(scope="module")
def profiles() -> dict[str, FrequencyProfile]:
    return _profiles()


@pytest.mark.parametrize("case", sorted(CASES))
def test_recipe_matches_golden(case, profiles):
    dataset, tolerance, options = CASES[case]
    assert _digest(_recipe_case(profiles[dataset], tolerance, options)) == GOLDEN[case][0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_golden(case, profiles):
    dataset, tolerance, options = CASES[case]
    assert _digest(_engine_case(profiles[dataset], tolerance, options)) == GOLDEN[case][1]


def test_sweep_matches_golden(profiles):
    engine, assessments = _sweep(profiles)
    assert tuple(_digest(a) for a in assessments) == GOLDEN_SWEEP
    counters = engine.metrics.snapshot()["counters"]
    assert counters.get("exact_memo_hits", 0) == len(SWEEP[1]) - 1
    assert counters.get("attack_memo_hits", 0) == len(SWEEP[1]) - 1


def test_corpus_reaches_every_decision(profiles):
    decisions = {
        _recipe_case(profiles[dataset], tolerance, options).decision
        for dataset, tolerance, options in CASES.values()
    }
    assert decisions == set(Decision)


if __name__ == "__main__":
    corpus = _profiles()
    for case in sorted(CASES):
        dataset, tolerance, options = CASES[case]
        recipe = _recipe_case(corpus[dataset], tolerance, options)
        engine_answer = _engine_case(corpus[dataset], tolerance, options)
        print(f'    "{case}": (  # {recipe.decision.name} / {engine_answer.decision.name}')
        print(f'        "{_digest(recipe)}",')
        print(f'        "{_digest(engine_answer)}",')
        print("    ),")
    print([_digest(a) for a in _sweep(corpus)[1]])
