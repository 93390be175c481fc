"""Unit tests for declarative fault plans (repro.resilience.faults)."""

import json
from pathlib import Path

import pytest

from repro.resilience.faults import (
    FAULT_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    ShmAttachFault,
    WorkerFaultInjector,
    load_fault_plan,
)
from repro.tomlsubset import parse_toml_subset

REPO_ROOT = Path(__file__).resolve().parents[1]
STANDARD_PLAN = REPO_ROOT / "benchmarks" / "faults_standard.toml"


# ----------------------------------------------------------------------
# FaultSpec
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="meteor")


def test_spec_validation():
    with pytest.raises(ValueError, match="seconds > 0"):
        FaultSpec(kind="hang")
    with pytest.raises(ValueError, match="factor > 0"):
        FaultSpec(kind="slow", factor=0.0)
    with pytest.raises(ValueError, match="at_register"):
        FaultSpec(kind="shm_attach_fail", at_batch=3)
    with pytest.raises(ValueError, match="non-negative"):
        FaultSpec(kind="crash", worker=-1)


def test_spec_round_trip_and_unknown_field():
    spec = FaultSpec(
        kind="hang", worker=1, at_batch=4, seconds=2.5, on_respawn=True, name="h"
    )
    assert FaultSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match="unknown fault spec field"):
        FaultSpec.from_dict({"kind": "crash", "blast_radius": 9})


def test_spec_to_dict_omits_defaults():
    payload = FaultSpec(kind="crash", worker=0, at_batch=6).to_dict()
    assert payload == {"kind": "crash", "worker": 0, "at_batch": 6}


# ----------------------------------------------------------------------
# FaultPlan scheduling
# ----------------------------------------------------------------------
def test_scheduled_is_deterministic_and_pins_unset_fields():
    plan = FaultPlan(
        name="p",
        seed=11,
        faults=(
            FaultSpec(kind="crash"),
            FaultSpec(kind="slow", factor=2.0),
            FaultSpec(kind="shm_attach_fail"),
        ),
    )
    first = plan.scheduled(4)
    second = plan.scheduled(4)
    assert first == second
    for spec in first:
        assert spec.worker is not None and 0 <= spec.worker < 4
    assert first[0].at_batch is not None
    assert first[1].at_batch is not None
    assert first[2].at_register == 0
    # A different seed resolves differently (with overwhelming probability
    # across the joint (worker, at_batch) draw for three specs).
    other = FaultPlan(name="p", seed=12, faults=plan.faults).scheduled(4)
    assert other != first


def test_scheduled_respects_pinned_fields_and_empty_pool():
    spec = FaultSpec(kind="crash", worker=2, at_batch=5)
    plan = FaultPlan(faults=(spec,))
    assert plan.scheduled(4) == (spec,)
    assert plan.scheduled(0) == ()


def test_faults_for_worker_filters_worker_kinds():
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="crash", worker=0, at_batch=1),
            FaultSpec(kind="slow", worker=1, at_batch=0, factor=2.0),
        )
    )
    w0 = plan.faults_for_worker(0, 2)
    assert [s.kind for s in w0] == ["crash"]
    w1 = plan.faults_for_worker(1, 2)
    assert [s.kind for s in w1] == ["slow"]


def test_plan_round_trip_and_describe():
    plan = FaultPlan(
        name="trip",
        seed=3,
        batch_timeout=1.5,
        faults=(
            FaultSpec(kind="crash", worker=0, at_batch=6, name="boom"),
            FaultSpec(kind="hang", seconds=2.0, name="stall"),
        ),
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    text = plan.describe()
    assert "crash" in text and "hang" in text and "any worker" in text
    assert FaultPlan().describe().endswith("empty")


# ----------------------------------------------------------------------
# Loading (TOML subset, tomllib, JSON)
# ----------------------------------------------------------------------
def test_load_standard_plan_from_benchmarks():
    plan = load_fault_plan(STANDARD_PLAN)
    assert plan.name == "standard"
    assert plan.seed == 2022
    assert plan.batch_timeout == pytest.approx(2.0)
    kinds = sorted(s.kind for s in plan.faults)
    assert kinds == ["crash", "hang", "slow"]
    hang = next(s for s in plan.faults if s.kind == "hang")
    assert hang.seconds > plan.batch_timeout


def test_toml_subset_parser_matches_standard_plan():
    # Whatever parser load_fault_plan picked, the dependency-free subset
    # parser must read the committed plan identically.
    parsed = FaultPlan.from_dict(parse_toml_subset(STANDARD_PLAN.read_text()))
    assert parsed == load_fault_plan(STANDARD_PLAN)


def test_toml_subset_parser_scalars_and_comments():
    doc = parse_toml_subset(
        '\n'.join(
            [
                "[plan]",
                'name = "has # hash"  # trailing comment',
                "seed = 7",
                "[fault.f]",
                'kind = "slow"',
                "factor = 1.25",
                "on_respawn = true",
            ]
        )
    )
    assert doc["plan"] == {"name": "has # hash", "seed": 7}
    assert doc["fault"]["f"] == {"kind": "slow", "factor": 1.25, "on_respawn": True}
    with pytest.raises(ValueError, match="unsupported TOML value"):
        parse_toml_subset("x = { a = 1 }")
    with pytest.raises(ValueError, match="unparseable"):
        parse_toml_subset("not a key value line")


def test_load_json_plan(tmp_path):
    plan = FaultPlan(
        name="j",
        seed=9,
        faults=(FaultSpec(kind="reply_drop", worker=1, at_batch=2, name="drop"),),
    )
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    assert load_fault_plan(path) == plan
    with pytest.raises(FileNotFoundError):
        load_fault_plan(tmp_path / "missing.toml")


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
def test_injector_generation_filtering():
    specs = (
        FaultSpec(kind="slow", worker=0, at_batch=0, factor=2.0),
        FaultSpec(kind="shm_attach_fail", worker=0, at_register=0, on_respawn=True),
    )
    gen0 = WorkerFaultInjector(specs=specs, generation=0)
    assert [s.kind for s in gen0.specs] == ["slow"]
    gen1 = WorkerFaultInjector(specs=specs, generation=1)
    assert [s.kind for s in gen1.specs] == ["shm_attach_fail"]
    # The generation-0 slowdown never re-fires after a respawn.
    assert gen1.execute_factor(0) == 1.0


def test_injector_slow_persists_from_ordinal():
    inj = WorkerFaultInjector(
        specs=(FaultSpec(kind="slow", worker=0, at_batch=2, factor=3.0),)
    )
    assert inj.execute_factor(0) == 1.0
    assert inj.execute_factor(1) == 1.0
    assert inj.execute_factor(2) == pytest.approx(3.0)
    assert inj.execute_factor(7) == pytest.approx(3.0)
    assert inj.injected == 2


def test_injector_reply_drop_and_shm_attach():
    inj = WorkerFaultInjector(
        specs=(
            FaultSpec(kind="reply_drop", worker=0, at_batch=1),
            FaultSpec(kind="shm_attach_fail", worker=0, at_register=1),
        )
    )
    inj.on_register(0)  # no fault at ordinal 0
    with pytest.raises(ShmAttachFault):
        inj.on_register(1)
    assert inj.before_reply(0) is True
    assert inj.before_reply(1) is False
    assert inj.before_reply(2) is True


def test_injector_hang_sleeps(monkeypatch):
    naps = []
    monkeypatch.setattr("repro.resilience.faults.time.sleep", naps.append)
    inj = WorkerFaultInjector(
        specs=(FaultSpec(kind="hang", worker=0, at_batch=0, seconds=2.5),)
    )
    assert inj.before_reply(0) is True
    assert naps == [2.5]


def test_injector_crash_calls_exit(monkeypatch):
    codes = []
    monkeypatch.setattr("repro.resilience.faults.os._exit", codes.append)
    inj = WorkerFaultInjector(
        specs=(
            FaultSpec(kind="crash", worker=0, at_batch=3),
            FaultSpec(kind="crash", worker=0, at_register=1),
        )
    )
    inj.before_reply(2)
    inj.on_register(0)
    assert codes == []
    inj.before_reply(3)
    inj.on_register(1)
    assert codes == [FAULT_EXIT_CODE, FAULT_EXIT_CODE]
