"""Tests for the serving benchmark's own code.

Run from the repository root::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.io import profile_from_json
from repro.service import AssessmentEngine
from repro.service.fingerprint import AssessmentParams, request_fingerprint
from replay import parse_answer, replay
from replica import Replica, ReplicaError
from run import _guard, _oracle_problems, _recipe_problems, percentile_with_beyond, program_key
from tracing import LAYER_TARGETS, Tracer
from workloads import FRESH_DATASETS, PUMSB_TOLERANCES, WORKLOADS, build_plan

HERE = Path(__file__).resolve().parent


def _question(body: bytes) -> tuple[object, AssessmentParams]:
    payload = json.loads(body)
    params = AssessmentParams(
        tolerance=payload["tolerance"], runs=payload["runs"], seed=payload["seed"]
    )
    return profile_from_json(payload["profile"]), params


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plan_is_a_pure_function_of_the_seed(workload):
    first = build_plan(workload, seed=5, requests=9)
    second = build_plan(workload, seed=5, requests=9)
    assert first.setup == second.setup
    assert first.window == second.window
    assert len(first.window) == 9


def _profiles(plan):
    return {json.dumps(json.loads(body)["profile"]) for body in plan.setup + plan.window}


def test_another_seed_gives_other_fresh_cold_profiles():
    one = build_plan("fresh-cold", seed=1, requests=8)
    two = build_plan("fresh-cold", seed=2, requests=8)
    assert not _profiles(one) & _profiles(two)


def test_fresh_cold_fingerprints_never_repeat_within_a_run():
    plan = build_plan("fresh-cold", seed=3, requests=24)
    fingerprints = [request_fingerprint(*_question(body)) for body in plan.setup + plan.window]
    assert len(set(fingerprints)) == len(fingerprints)
    # One profile of each dataset in turn (their transaction counts differ).
    sizes = [json.loads(body)["profile"]["n_transactions"] for body in plan.window[:4]]
    assert len(set(sizes)) == len(FRESH_DATASETS)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_pumsb_sweep_question_reaches_alpha_bound(seed):
    plan = build_plan("pumsb-sweep", seed=seed, requests=2 * len(PUMSB_TOLERANCES))
    engine = AssessmentEngine()
    for body in plan.setup + plan.window:
        outcome = engine.assess_request(*_question(body))
        assert outcome.assessment.decision.name == "ALPHA_BOUND"


def test_retail_warm_repeats_its_four_questions():
    plan = build_plan("retail-warm", seed=0, requests=40)
    assert len(plan.setup) == 4
    assert set(plan.window) == set(plan.setup)


def test_every_layer_wrapper_restores_the_original():
    originals = []
    for _, module_name, path in LAYER_TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        originals.append((owner, attribute, vars(owner)[attribute]))
    tracer = Tracer()
    with tracer.installed():
        assert tracer.missing == []
        for owner, attribute, original in originals:
            assert vars(owner)[attribute] is not original
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original


def outer(value):
    return inner(value) + inner(value)


def inner(value):
    return value * 2


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer(
        targets=(("outer", __name__, "outer"), ("inner", __name__, "inner"))
    )
    with tracer.installed():
        assert outer(3) == 12
    assert tracer.calls == {"outer": 1, "inner": 2}
    total = tracer.self_seconds["outer"] + tracer.self_seconds["inner"]
    assert total == pytest.approx(tracer.total_seconds["outer"])
    assert outer is vars(sys.modules[__name__])["outer"]


def test_traced_replay_matches_untraced_replay(tmp_path):
    plan = build_plan("fresh-cold", seed=4, requests=8)
    untraced = replay(plan, tmp_path / "plain")
    tracer = Tracer()
    with tracer.installed():
        traced = replay(plan, tmp_path / "traced", tracer)
    assert traced.answers == untraced.answers
    assert traced.counters == untraced.counters
    assert untraced.counters["computed"] == len(plan.window)
    assert untraced.counters["commit_log_lines"] == len(plan.window)
    assert tracer.calls["routes.dispatch"] == len(plan.window)
    children = sum(
        seconds for name, seconds in tracer.self_seconds.items() if name != "routes.dispatch"
    )
    assert 0 < children < tracer.total_seconds["routes.dispatch"]
    # Every fresh-cold request runs each recipe stage once, timed by the
    # engine, and the stages lie inside the engine.compute span.
    assert {name: runs for name, (runs, _) in traced.stages.items()} == {
        stage: len(plan.window)
        for stage in ("groups", "space", "oestimate", "exact", "attack", "alpha")
    }
    stage_seconds = sum(seconds for _, seconds in traced.stages.values())
    assert 0 < stage_seconds < tracer.self_seconds["engine.compute"]


def test_oracle_flags_every_kind_of_wrong_answer():
    plan = build_plan("pumsb-sweep", seed=0, requests=1)
    payload = {
        "fingerprint": "f" * 64,
        "cached": False,
        "partial": False,
        "assessment": {"decision": "ALPHA_BOUND", "alpha_max": 0.5},
    }
    want = parse_answer(200, payload)

    def problems(status=200, **changes):
        got = parse_answer(status, {**payload, **changes} if status == 200 else {})
        return _oracle_problems(plan, [got], [want])

    assert problems() == {}
    assert "status" in problems(status=500)[0]
    assert "fingerprint" in problems(fingerprint="0" * 64)[0]
    assert "assessment" in problems(assessment={"decision": "ALPHA_BOUND", "alpha_max": 0.25})[0]
    assert "cached" in problems(cached=True)[0]
    assert "partial" in problems(partial=True)[0]
    # Replica and replay agree, but pumsb-sweep must reach Steps 8-9.
    other = parse_answer(200, {**payload, "assessment": {"decision": "DISCLOSE_INTERVAL"}})
    assert "decision" in _oracle_problems(plan, [other], [other])[0]


def test_library_recipe_agrees_with_the_served_answers(tmp_path):
    plan = build_plan("fresh-cold", seed=7, requests=3)
    answers = replay(plan, tmp_path / "replay").answers
    assert _recipe_problems(plan, answers) == {}
    tampered = dataclasses.replace(answers[1], assessment=answers[0].assessment)
    assert list(_recipe_problems(plan, [answers[0], tampered, answers[2]])) == [1]


def test_guard_flags_counters_that_differ_within_or_across_runs(tmp_path):
    plan = build_plan("fresh-cold", seed=6, requests=2)
    same = {"computed": 2, "commit_log_lines": 2}
    assert _guard(plan, {"replica": same, "replay": dict(same)}, tmp_path, "a") == []
    assert len(_guard(plan, {"replica": same, "replay": {"computed": 3}}, tmp_path, "a")) == 1
    # The first run recorded its counters; a later run of the seed on the
    # same program must match them.
    assert _guard(plan, {"replica": same}, tmp_path, "a") == []
    assert len(_guard(plan, {"replica": {"computed": 1}}, tmp_path, "a")) == 1


def test_guard_never_compares_runs_of_two_programs(tmp_path):
    plan = build_plan("fresh-cold", seed=6, requests=2)
    assert _guard(plan, {"replica": {"computed": 2}}, tmp_path, "parent") == []
    # Another program may do other work for the same seed ...
    assert _guard(plan, {"replica": {"computed": 1}}, tmp_path, "change") == []
    # ... and each keeps its own record.
    assert len(_guard(plan, {"replica": {"computed": 1}}, tmp_path, "parent")) == 1
    assert len(_guard(plan, {"replica": {"computed": 2}}, tmp_path, "change")) == 1


def test_program_key_follows_the_program_sources(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "engine.py").write_text("WORK = 1\n")
    first = program_key((package,))
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "engine.cpython.pyc").write_bytes(b"\0")
    assert program_key((package,)) == first
    (package / "engine.py").write_text("WORK = 2\n")
    assert program_key((package,)) != first
    assert len(program_key()) == 16


def test_a_replica_that_hangs_before_its_banner_times_out(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import time\n\ndef serve_main(argv):\n    time.sleep(120)\n"
    )
    start = time.monotonic()
    with pytest.raises(ReplicaError, match="timed out"):
        Replica(tmp_path / "src", tmp_path / "cache", tmp_path / "replica.log", banner_timeout=1.0)
    assert time.monotonic() - start < 30


def test_percentile_counts_the_samples_beyond_it():
    value, beyond = percentile_with_beyond([float(i) for i in range(1, 101)], 0.9)
    assert (value, beyond) == (90.0, 10)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fresh-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
