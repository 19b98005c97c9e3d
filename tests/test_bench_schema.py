"""Contract tests for the benchmark record schemas.

``BENCH_scan.json`` (bench-scan/v1) and ``BENCH_machine.json``
(bench-machine/v1) are consumed across sessions (CI artifacts,
perf-trajectory diffs), so the schemas are pinned here: a record the
validator accepts today must keep validating, and the validator must
reject every mutation a refactor could plausibly introduce.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.harness import (  # noqa: E402
    BENCH_SCHEMA,
    REQUIRED_STAGES,
    STAGE_FIELDS,
    validate_bench_record,
)
from benchmarks import machine_harness  # noqa: E402


def stage_record(wall_s=1.5, workers=1):
    return {"wall_s": wall_s, "blocks_per_s": 1000.0, "keys": 4096, "workers": workers}


def valid_record(with_baseline=True):
    stages = {name: stage_record() for name in REQUIRED_STAGES}
    record = {
        "schema": BENCH_SCHEMA,
        "config": {"size_mib": 64, "workers": 4, "seed": 5, "bit_error_rate": 0.002},
        "stages": stages,
        "baseline": None,
    }
    if with_baseline:
        record["baseline"] = {name: stage_record(wall_s=6.0) for name in REQUIRED_STAGES}
        record["identical_keys"] = True
        record["speedup_vs_baseline"] = {"join": 4.0, "verify": 4.0, "end_to_end": 4.0}
    return record


def test_valid_record_passes():
    validate_bench_record(valid_record())


def test_valid_record_without_baseline_passes():
    validate_bench_record(valid_record(with_baseline=False))


def test_json_roundtrip_still_validates(tmp_path):
    path = tmp_path / "BENCH_scan.json"
    path.write_text(json.dumps(valid_record()))
    validate_bench_record(json.loads(path.read_text()))


def test_wrong_schema_tag_rejected():
    record = valid_record()
    record["schema"] = "bench-scan/v0"
    with pytest.raises(ValueError, match="schema"):
        validate_bench_record(record)


def test_missing_config_field_rejected():
    record = valid_record()
    del record["config"]["workers"]
    with pytest.raises(ValueError, match="workers"):
        validate_bench_record(record)


@pytest.mark.parametrize("stage", REQUIRED_STAGES)
def test_missing_stage_rejected(stage):
    record = valid_record()
    del record["stages"][stage]
    with pytest.raises(ValueError, match=stage):
        validate_bench_record(record)


@pytest.mark.parametrize("field", STAGE_FIELDS)
def test_missing_stage_field_rejected(field):
    record = valid_record()
    del record["stages"]["join"][field]
    with pytest.raises(ValueError, match=field):
        validate_bench_record(record)


def test_negative_wall_time_rejected():
    record = valid_record()
    record["stages"]["verify"]["wall_s"] = -0.1
    with pytest.raises(ValueError, match="wall_s"):
        validate_bench_record(record)


def test_zero_workers_rejected():
    record = valid_record()
    record["stages"]["end_to_end"]["workers"] = 0
    with pytest.raises(ValueError):
        validate_bench_record(record)


def test_baseline_without_speedups_rejected():
    record = valid_record()
    del record["speedup_vs_baseline"]
    with pytest.raises(ValueError, match="speedup"):
        validate_bench_record(record)


def test_baseline_without_identical_keys_rejected():
    record = valid_record()
    del record["identical_keys"]
    with pytest.raises(ValueError, match="identical_keys"):
        validate_bench_record(record)


# ------------------------------------------------- bench-machine/v1 schema


def machine_stage(wall_s=0.5):
    return {"wall_s": wall_s, "mib_per_s": 128.0}


def valid_machine_record(with_baseline=True):
    stages = {name: machine_stage() for name in machine_harness.REQUIRED_STAGES}
    record = {
        "schema": machine_harness.BENCH_SCHEMA,
        "config": {
            "size_mib": 64,
            "machine": "i5-6400",
            "seed": 7,
            "decay_flip_probability": 0.001,
        },
        "stages": stages,
        "baseline": None,
    }
    if with_baseline:
        record["baseline"] = {
            name: machine_stage(wall_s=8.0) for name in machine_harness.REQUIRED_STAGES
        }
        record["identical_dumps"] = True
        record["speedup_vs_baseline"] = {
            name: 16.0 for name in machine_harness.REQUIRED_STAGES
        }
    return record


def test_valid_machine_record_passes():
    machine_harness.validate_bench_record(valid_machine_record())


def test_valid_machine_record_without_baseline_passes():
    machine_harness.validate_bench_record(valid_machine_record(with_baseline=False))


def test_machine_json_roundtrip_still_validates(tmp_path):
    path = tmp_path / "BENCH_machine.json"
    path.write_text(json.dumps(valid_machine_record()))
    machine_harness.validate_bench_record(json.loads(path.read_text()))


def test_machine_wrong_schema_tag_rejected():
    record = valid_machine_record()
    record["schema"] = BENCH_SCHEMA  # the scan schema is not the machine schema
    with pytest.raises(ValueError, match="schema"):
        machine_harness.validate_bench_record(record)


@pytest.mark.parametrize("field", ["size_mib", "machine", "seed", "decay_flip_probability"])
def test_machine_missing_config_field_rejected(field):
    record = valid_machine_record()
    del record["config"][field]
    with pytest.raises(ValueError, match=field):
        machine_harness.validate_bench_record(record)


@pytest.mark.parametrize("stage", machine_harness.REQUIRED_STAGES)
def test_machine_missing_stage_rejected(stage):
    record = valid_machine_record()
    del record["stages"][stage]
    with pytest.raises(ValueError, match=stage):
        machine_harness.validate_bench_record(record)


@pytest.mark.parametrize("field", machine_harness.STAGE_FIELDS)
def test_machine_missing_stage_field_rejected(field):
    record = valid_machine_record()
    del record["stages"]["fill"][field]
    with pytest.raises(ValueError, match=field):
        machine_harness.validate_bench_record(record)


def test_machine_negative_wall_time_rejected():
    record = valid_machine_record()
    record["stages"]["dump"]["wall_s"] = -0.1
    with pytest.raises(ValueError, match="wall_s"):
        machine_harness.validate_bench_record(record)


def test_machine_baseline_without_identity_gate_rejected():
    """A baseline record must assert byte-identical dumps, not just omit it."""
    record = valid_machine_record()
    del record["identical_dumps"]
    with pytest.raises(ValueError, match="identical_dumps"):
        machine_harness.validate_bench_record(record)
    record = valid_machine_record()
    record["identical_dumps"] = False
    with pytest.raises(ValueError, match="identical_dumps"):
        machine_harness.validate_bench_record(record)


def test_committed_machine_record_validates():
    """The checked-in BENCH_machine.json must satisfy its own schema."""
    path = Path(__file__).resolve().parent.parent / "BENCH_machine.json"
    record = json.loads(path.read_text())
    machine_harness.validate_bench_record(record)
    assert record["identical_dumps"] is True
    assert record["speedup_vs_baseline"]["end_to_end"] >= 10.0


# --------------------------------------------------- robust-chaos/v1 schema


from benchmarks.chaos_soak import (  # noqa: E402
    CHAOS_SCHEMA,
    SCENARIOS,
    validate_chaos_record,
)


def chaos_iteration(iteration=0, scenario="crash-retry", violations=()):
    return {
        "iteration": iteration,
        "scenario": scenario,
        "fault_kinds": ["crash"],
        "workers": 2,
        "backend": "shm",
        "complete_first_pass": True,
        "interrupted": False,
        "deadline_expired": False,
        "stall_kills": 0,
        "pool_rebuilds": 0,
        "degraded_to_serial": False,
        "journaled_shards": 4,
        "resumed_shards": 0,
        "resume_ran": False,
        "keys_byte_identical": True,
        "seconds": 3.2,
        "violations": list(violations),
    }


def valid_chaos_record():
    return {
        "schema": CHAOS_SCHEMA,
        "seed": 5,
        "n_shards": 4,
        "baseline_keys": 2,
        "repro_command": (
            "PYTHONPATH=src python -m benchmarks.chaos_soak "
            "--seed 5 --iterations 56"),
        "iterations": [
            chaos_iteration(i, scenario) for i, scenario in enumerate(SCENARIOS)
        ],
        "acceptance": {
            "iterations_run": len(SCENARIOS),
            "zero_violations": True,
            "watchdog_fired": True,
            "drain_exercised": True,
            "deadline_exercised": True,
            "degradation_exercised": True,
            "all_byte_identical": True,
        },
    }


def test_valid_chaos_record_passes():
    assert validate_chaos_record(valid_chaos_record()) == []


def test_chaos_json_roundtrip_still_validates(tmp_path):
    path = tmp_path / "ROBUST_chaos.json"
    path.write_text(json.dumps(valid_chaos_record()))
    assert validate_chaos_record(json.loads(path.read_text())) == []


def test_chaos_wrong_schema_tag_rejected():
    record = valid_chaos_record()
    record["schema"] = "robust-chaos/v0"
    assert any("schema" in e for e in validate_chaos_record(record))


def test_chaos_empty_iterations_rejected():
    record = valid_chaos_record()
    record["iterations"] = []
    assert any("iterations" in e for e in validate_chaos_record(record))


@pytest.mark.parametrize("field", [
    "scenario", "fault_kinds", "stall_kills", "keys_byte_identical",
    "violations", "seconds",
])
def test_chaos_missing_iteration_field_rejected(field):
    record = valid_chaos_record()
    del record["iterations"][0][field]
    assert any(field in e for e in validate_chaos_record(record))


def test_chaos_unknown_scenario_rejected():
    record = valid_chaos_record()
    record["iterations"][0]["scenario"] = "meteor-strike"
    assert any("scenario" in e for e in validate_chaos_record(record))


def test_chaos_bool_masquerading_as_count_rejected():
    """`stall_kills: true` must not satisfy the int check (bool is a
    subclass of int — the validator has to reject it explicitly)."""
    record = valid_chaos_record()
    record["iterations"][0]["stall_kills"] = True
    assert any("stall_kills" in e for e in validate_chaos_record(record))


@pytest.mark.parametrize("field", [
    "zero_violations", "watchdog_fired", "drain_exercised",
    "deadline_exercised", "degradation_exercised", "all_byte_identical",
])
def test_chaos_missing_acceptance_bool_rejected(field):
    record = valid_chaos_record()
    del record["acceptance"][field]
    assert any(field in e for e in validate_chaos_record(record))


def test_committed_chaos_record_validates():
    """The checked-in ROBUST_chaos.json must satisfy its own schema and
    certify the soak's headline claims: every fault layer exercised,
    zero invariant violations, every run byte-identical (directly or
    via resume)."""
    path = Path(__file__).resolve().parent.parent / "ROBUST_chaos.json"
    record = json.loads(path.read_text())
    assert validate_chaos_record(record) == []
    acceptance = record["acceptance"]
    assert acceptance["iterations_run"] >= 50
    assert acceptance["zero_violations"] is True
    assert acceptance["watchdog_fired"] is True
    assert acceptance["drain_exercised"] is True
    assert acceptance["deadline_exercised"] is True
    assert acceptance["degradation_exercised"] is True
    assert acceptance["all_byte_identical"] is True


def test_committed_chaos_record_names_its_repro_command():
    """A failing nightly rotation must be reproducible with one pasted
    command — the artifact carries it alongside the seed."""
    path = Path(__file__).resolve().parent.parent / "ROBUST_chaos.json"
    record = json.loads(path.read_text())
    assert f"--seed {record['seed']}" in record["repro_command"]
    assert "benchmarks.chaos_soak" in record["repro_command"]


# ------------------------------------------------- robust-service/v1 schema


from benchmarks.service_soak import (  # noqa: E402
    SCENARIOS as SERVICE_SCENARIOS,
    SERVICE_SCHEMA,
    validate_service_record,
)


def service_iteration(iteration=0, scenario="kill-mid-job", violations=()):
    return {
        "iteration": iteration,
        "scenario": scenario,
        "jobs_submitted": 1,
        "jobs_rejected": 0,
        "server_starts": 2,
        "kills": 1,
        "terminal_states": {"DONE": 1},
        "identity_checks": 1,
        "byte_identical": True,
        "duplicate_side_effects": 0,
        "lost_jobs": [],
        "seconds": 4.2,
        "violations": list(violations),
    }


def valid_service_record():
    return {
        "schema": SERVICE_SCHEMA,
        "seed": 5,
        "n_shards": 8,
        "scan_workers": 2,
        "rotations": 3,
        "repro_command": (
            "PYTHONPATH=src python -m benchmarks.service_soak "
            "--seed 5 --rotations 3"),
        "iterations": [
            service_iteration(i, scenario)
            for i, scenario in enumerate(SERVICE_SCENARIOS)
        ],
        "acceptance": {
            "iterations_run": len(SERVICE_SCENARIOS),
            "zero_violations": True,
            "zero_lost_jobs": True,
            "zero_duplicate_side_effects": True,
            "all_resumed_byte_identical": True,
            "kill_exercised": True,
            "drain_exercised": True,
            "deadline_exercised": True,
            "rejection_exercised": True,
            "quarantine_exercised": True,
            "cancel_exercised": True,
        },
    }


def test_valid_service_record_passes():
    assert validate_service_record(valid_service_record()) == []


def test_service_wrong_schema_tag_rejected():
    record = valid_service_record()
    record["schema"] = "robust-service/v0"
    assert any("schema" in e for e in validate_service_record(record))


def test_service_empty_iterations_rejected():
    record = valid_service_record()
    record["iterations"] = []
    assert any("iterations" in e for e in validate_service_record(record))


@pytest.mark.parametrize("field", [
    "scenario", "kills", "terminal_states", "byte_identical",
    "duplicate_side_effects", "lost_jobs", "violations",
])
def test_service_missing_iteration_field_rejected(field):
    record = valid_service_record()
    del record["iterations"][0][field]
    assert any(field in e for e in validate_service_record(record))


def test_service_unknown_scenario_rejected():
    record = valid_service_record()
    record["iterations"][0]["scenario"] = "meteor-strike"
    assert any("scenario" in e for e in validate_service_record(record))


def test_service_bool_masquerading_as_count_rejected():
    record = valid_service_record()
    record["iterations"][0]["kills"] = True
    assert any("kills" in e for e in validate_service_record(record))


def test_service_missing_repro_command_rejected():
    record = valid_service_record()
    del record["repro_command"]
    assert any("repro_command" in e for e in validate_service_record(record))


@pytest.mark.parametrize("field", [
    "zero_violations", "zero_lost_jobs", "zero_duplicate_side_effects",
    "all_resumed_byte_identical", "kill_exercised", "drain_exercised",
    "deadline_exercised", "rejection_exercised", "quarantine_exercised",
    "cancel_exercised",
])
def test_service_missing_acceptance_bool_rejected(field):
    record = valid_service_record()
    del record["acceptance"][field]
    assert any(field in e for e in validate_service_record(record))


def test_committed_service_record_validates():
    """The checked-in ROBUST_service.json must satisfy its own schema
    and certify the job engine's headline claims: zero lost jobs, zero
    duplicated side effects, byte-identical resumed reports, and every
    failure mode actually exercised."""
    path = Path(__file__).resolve().parent.parent / "ROBUST_service.json"
    record = json.loads(path.read_text())
    assert validate_service_record(record) == []
    acceptance = record["acceptance"]
    assert acceptance["iterations_run"] >= 16
    assert acceptance["zero_violations"] is True
    assert acceptance["zero_lost_jobs"] is True
    assert acceptance["zero_duplicate_side_effects"] is True
    assert acceptance["all_resumed_byte_identical"] is True
    assert acceptance["kill_exercised"] is True
    assert acceptance["drain_exercised"] is True
    assert acceptance["deadline_exercised"] is True
    assert acceptance["rejection_exercised"] is True
    assert acceptance["quarantine_exercised"] is True
    assert acceptance["cancel_exercised"] is True
    assert f"--seed {record['seed']}" in record["repro_command"]


# --------------------------------------------------- robust-decay/v2 schema


def _robust_point(rate, seed_exact=0, exact=2, spurious=0, recovered=2,
                  confidence=0.5):
    return {
        "bit_error_rate": rate,
        "seed_exact_keys": seed_exact,
        "seed_keys_recovered": seed_exact,
        "adaptive_exact_keys": exact,
        "adaptive_spurious_keys": spurious,
        "adaptive_keys_recovered": recovered,
        "max_confidence": confidence,
        "confidences": [confidence] * recovered,
        "stages_run": ["strict", "decoded"],
        "work_spent": 5,
        "estimated_decay_rate": rate,
        "decay_source": "litmus-mismatch",
        "seed_seconds": 1.0,
        "adaptive_seconds": 2.0,
        "stage_seconds": {"strict": 1.0, "decoded": 1.0},
        "decode_tables": 4,
        "decode_iterations": 40,
        "decode_converged": 2,
        "decode_abstained": 2,
        "quarantined_regions": 0,
        "diagnostics": [],
    }


def _valid_robust_record():
    from benchmarks.robustness import ROBUST_SCHEMA, _acceptance

    points = [
        _robust_point(0.002, seed_exact=2, confidence=0.8),
        _robust_point(0.040, confidence=0.2),
        _robust_point(0.080, exact=0, recovered=0, confidence=0.0),
    ]
    return {
        "schema": ROBUST_SCHEMA,
        "seed": 5,
        "total_work": 10,
        "points": points,
        "acceptance": _acceptance(points),
    }


def test_valid_robust_record_passes():
    from benchmarks.robustness import validate_robust_record

    assert validate_robust_record(_valid_robust_record()) == []


def test_robust_wrong_schema_tag_rejected():
    from benchmarks.robustness import validate_robust_record

    record = _valid_robust_record()
    record["schema"] = "robust-decay/v1"
    assert any("schema" in e for e in validate_robust_record(record))


def test_robust_missing_point_field_rejected():
    from benchmarks.robustness import validate_robust_record

    record = _valid_robust_record()
    del record["points"][0]["decode_tables"]
    assert any("decode_tables" in e for e in validate_robust_record(record))


def test_robust_acceptance_requires_decode_bar():
    from benchmarks.robustness import validate_robust_record

    record = _valid_robust_record()
    del record["acceptance"]["exact_at_twice_classical_crossover"]
    assert any(
        "exact_at_twice_classical_crossover" in e
        for e in validate_robust_record(record)
    )


def test_robust_acceptance_semantics():
    from benchmarks.robustness import _acceptance

    accepted = _acceptance(_valid_robust_record()["points"])
    assert accepted["exact_at_twice_classical_crossover"] is True
    assert accepted["max_full_exact_rate"] == 0.040
    assert accepted["abstains_not_wrong"] is True
    # A point that recovers keys but none exact is a wrong answer, not
    # an abstain — the bar the decode stage must never cross.
    spurious = [_robust_point(0.06, exact=0, spurious=1, recovered=1)]
    assert _acceptance(spurious)["abstains_not_wrong"] is False
    assert _acceptance(spurious)["all_keys_byte_exact"] is False


def test_robust_baseline_gate_catches_regressions():
    from benchmarks.robustness import compare_to_baseline

    baseline = _valid_robust_record()
    fresh = _valid_robust_record()
    assert compare_to_baseline(fresh, baseline) == []
    # Losing an exact key at a shared rate is a regression...
    fresh["points"][1]["adaptive_exact_keys"] = 1
    assert any("exact keys fell" in p for p in compare_to_baseline(fresh, baseline))
    # ...and a new spurious key is one even when exactness holds.
    fresh["points"][1]["adaptive_exact_keys"] = 2
    fresh["points"][1]["adaptive_spurious_keys"] = 1
    assert any("spurious" in p for p in compare_to_baseline(fresh, baseline))
    # Grids may grow: rates only one record has are ignored.
    fresh = _valid_robust_record()
    fresh["points"].append(_robust_point(0.123, exact=0, recovered=0))
    assert compare_to_baseline(fresh, baseline) == []


def test_robust_baseline_gate_reads_the_baseline_it_overwrites(tmp_path, monkeypatch):
    """Regenerating in place (``--baseline`` naming the ``--output``
    file) must gate against the old record, not the one just written."""
    from benchmarks import robustness

    path = tmp_path / "ROBUST_decay.json"
    path.write_text(json.dumps(_valid_robust_record()))
    fresh = _valid_robust_record()
    fresh["points"][1]["adaptive_exact_keys"] = 1
    monkeypatch.setattr(robustness, "robustness_sweep", lambda rates, seed: fresh)
    assert robustness.main(["--output", str(path), "--baseline", str(path)]) == 1
    assert json.loads(path.read_text()) == fresh


def test_committed_robust_record_validates():
    """The checked-in ROBUST_decay.json must satisfy its own schema and
    certify the decoded-stage acceptance bar."""
    from benchmarks.robustness import validate_robust_record

    path = Path(__file__).resolve().parent.parent / "ROBUST_decay.json"
    record = json.loads(path.read_text())
    assert validate_robust_record(record) == []
    acceptance = record["acceptance"]
    assert acceptance["adaptive_beats_seed"] is True
    assert acceptance["all_keys_byte_exact"] is True
    assert acceptance["exact_at_twice_classical_crossover"] is True
    assert acceptance["abstains_not_wrong"] is True


# --------------------------------------------------- bench-decode/v1 schema


from benchmarks import decode_harness  # noqa: E402


def decode_stage(wall_s=0.3, workers=1):
    return {
        "wall_s": wall_s,
        "tables_per_s": 100.0,
        "sweeps": 120,
        "converged": 4,
        "abstained": 28,
        "workers": workers,
    }


def valid_decode_record(with_baseline=True):
    record = {
        "schema": decode_harness.BENCH_SCHEMA,
        "config": {
            "key_bits": 256,
            "batch": 32,
            "n_true": 4,
            "seed": 11,
            "bit_error_rate": 0.040,
            "max_iters": 72,
        },
        "stages": {
            "decode": decode_stage(),
            "decode_sharded": decode_stage(workers=2),
        },
        "baseline": None,
        "sharded_identical": True,
    }
    if with_baseline:
        record["baseline"] = {"decode": decode_stage(wall_s=5.0)}
        record["identical_keys"] = True
        record["identical_abstains"] = True
        record["speedup_vs_baseline"] = {"decode": 16.0, "decode_sharded": 14.0}
    return record


def test_valid_decode_record_passes():
    decode_harness.validate_bench_record(valid_decode_record())


def test_valid_decode_record_without_baseline_passes():
    decode_harness.validate_bench_record(valid_decode_record(with_baseline=False))


def test_decode_json_roundtrip_still_validates(tmp_path):
    path = tmp_path / "BENCH_decode.json"
    path.write_text(json.dumps(valid_decode_record()))
    decode_harness.validate_bench_record(json.loads(path.read_text()))


def test_decode_wrong_schema_tag_rejected():
    record = valid_decode_record()
    record["schema"] = BENCH_SCHEMA  # the scan schema is not the decode schema
    with pytest.raises(ValueError, match="schema"):
        decode_harness.validate_bench_record(record)


@pytest.mark.parametrize(
    "field", ["key_bits", "batch", "n_true", "seed", "bit_error_rate", "max_iters"]
)
def test_decode_missing_config_field_rejected(field):
    record = valid_decode_record()
    del record["config"][field]
    with pytest.raises(ValueError, match=field):
        decode_harness.validate_bench_record(record)


@pytest.mark.parametrize("field", decode_harness.STAGE_FIELDS)
def test_decode_missing_stage_field_rejected(field):
    record = valid_decode_record()
    del record["stages"]["decode"][field]
    with pytest.raises(ValueError, match=field):
        decode_harness.validate_bench_record(record)


def test_decode_negative_wall_time_rejected():
    record = valid_decode_record()
    record["stages"]["decode"]["wall_s"] = -0.1
    with pytest.raises(ValueError, match="wall_s"):
        decode_harness.validate_bench_record(record)


def test_decode_baseline_without_identity_gates_rejected():
    record = valid_decode_record()
    del record["identical_keys"]
    with pytest.raises(ValueError, match="identical_keys"):
        decode_harness.validate_bench_record(record)
    record = valid_decode_record()
    del record["identical_abstains"]
    with pytest.raises(ValueError, match="identical_abstains"):
        decode_harness.validate_bench_record(record)


def test_decode_baseline_without_speedups_rejected():
    record = valid_decode_record()
    del record["speedup_vs_baseline"]
    with pytest.raises(ValueError, match="speedup"):
        decode_harness.validate_bench_record(record)


def test_committed_decode_record_validates():
    """The checked-in BENCH_decode.json must satisfy its own schema and
    certify the decoded-stage acceptance bar: >= 5x over the frozen
    dense reference at BER 0.040 with identical keys and abstains."""
    path = Path(__file__).resolve().parent.parent / "BENCH_decode.json"
    record = json.loads(path.read_text())
    decode_harness.validate_bench_record(record)
    assert record["config"]["bit_error_rate"] == pytest.approx(0.040)
    assert record["identical_keys"] is True
    assert record["identical_abstains"] is True
    assert record["sharded_identical"] is True
    assert record["speedup_vs_baseline"]["decode"] >= 5.0
