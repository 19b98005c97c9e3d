"""Smoke test: every pipeline-benchmark workload at toy size.

Runs the same measurement code the benchmark command runs — set-up,
untraced and traced passes, key checks — on a 4 MiB cold boot, one
BER-0.002 adaptive pass and two service jobs, and pins the output to
what ``BENCHMARK.json`` declares.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.pipeline import runner  # noqa: E402
from benchmarks.pipeline.__main__ import main  # noqa: E402
from benchmarks.pipeline.workloads import (  # noqa: E402
    WORKLOADS,
    AdaptiveInputs,
    ServiceInputs,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_benchmark_json_declares_what_the_code_emits():
    assert declared("end_to_end") == runner.END_TO_END_UNITS
    assert declared("per_layer") == runner.PER_LAYER_UNITS
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(WORKLOADS)


def input_bytes(inputs) -> bytes:
    """Everything a pass reads from its inputs, as bytes."""
    if isinstance(inputs, ServiceInputs):
        return b"".join(path.read_bytes() for path, _ in inputs.jobs)
    if isinstance(inputs, AdaptiveInputs):
        return bytes(inputs.dump.data)
    return inputs.contents


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_held_out_seed_gives_other_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    default, held_out = tmp_path / "default", tmp_path / "held-out"
    default.mkdir()
    held_out.mkdir()
    assert input_bytes(workload.setup(workload.held_out_seed, False, held_out)) != input_bytes(
        workload.setup(workload.default_seed, False, default)
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_toy_run_is_correct_declared_and_adds_up(name, tmp_path):
    workload = WORKLOADS[name]
    for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
        measured = runner.measure(workload, workload.default_seed, traced, tmp_path, toy=True)
        line = measured.line
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(declared(kind))
        for metric, value in line["metrics"].items():
            assert METRIC_NAME.fullmatch(metric)
            assert value["unit"] == declared(kind)[metric]
        if traced:
            assert measured.detail["missing_spans"] == []
            assert line["metrics"]["trace.residual_fraction"]["value"] < 0.05
        else:
            assert all(value["value"] > 0 for value in line["metrics"].values())


def test_seconds_other_than_run_seconds_is_refused():
    with pytest.raises(SystemExit) as refused:
        main(["--workload", "coldboot-64mib", "--seconds", "1", "--trace", "0"])
    assert refused.value.code == 2


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.pipeline", "--workload", "coldboot-64mib",
         "--seed", "1", "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout
