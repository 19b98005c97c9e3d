"""One measured run of one workload: set up, run passes, report metrics.

``--trace 0`` runs untraced passes and reports the end-to-end metrics;
``--trace 1`` runs traced passes instead and reports the per-layer
metrics, the residual and the tracing overhead.

A run makes :data:`PASSES` passes of every workload.  The count is
fixed rather than decided by the clock: the first pass of a process
also pays lazy set-up, so a run that sometimes fits one pass and
sometimes two would move the median by that alone.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.pipeline import trace
from benchmarks.pipeline.workloads import PassResult, Unit, Workload

#: Set-up is repeated this many times per run and its median reported,
#: so that work moved into set-up shows and one slow repeat does not.
SETUP_REPEATS = 3

#: Passes per run: two, so that every end-to-end metric has a spread
#: for ``compare`` to judge.  A toy run makes one.
PASSES = 2

#: Every end-to-end metric and its unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "exact_keys": "count",
}

#: Every per-layer metric and its unit.
PER_LAYER_UNITS = {name: unit for name, unit, _ in trace.LAYER_METRICS}


@dataclass
class Measurement:
    """A run's result line, the samples behind it, and its traces."""

    line: dict
    detail: dict
    tracers: list[trace.Tracer] = field(default_factory=list)


@dataclass
class _Pass:
    result: PassResult
    cpu_s: float
    peak_rss_mib: float


def _run_pass(workload: Workload, inputs, tracer) -> _Pass:
    """One pass; a pass that raises is one failed unit, not a dead run."""
    trace.reset_peak_rss()
    cpu, start = time.process_time(), time.perf_counter()
    try:
        result = workload.run(inputs, tracer)
    except Exception:  # noqa: BLE001 — counted as a failure and reported
        traceback.print_exc()
        result = PassResult([Unit(time.perf_counter() - start, 0, 0, failed=True)])
    return _Pass(result, time.process_time() - cpu, trace.peak_rss_mib())


def _passes(workload, inputs, count: int, traced: bool) -> tuple[list, list, set]:
    passes, tracers, missing = [], [], set()
    for _ in range(count):
        if traced:
            tracer = trace.Tracer()
            with trace.installed(tracer) as missing:
                passes.append(_run_pass(workload, inputs, tracer))
            tracers.append(tracer)
        else:
            passes.append(_run_pass(workload, inputs, trace.NullTracer()))
    return passes, tracers, missing


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def measure(
    workload: Workload,
    seed: int,
    traced: bool,
    workdir: Path,
    toy: bool = False,
    import_s: float = 0.0,
) -> Measurement:
    """Set up ``workload``, run its passes, and build the result line."""
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed, toy, workdir)
        setup_samples.append(import_s + time.perf_counter() - start)
    passes, tracers, missing = _passes(workload, inputs, 1 if toy else PASSES, traced)
    units = [unit for p in passes for unit in p.result.units]
    failed = sum(unit.failed for unit in units)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "spurious_keys": sum(unit.spurious for unit in units),
        "failed_fraction": failed / len(units),
        "setup_s_samples": setup_samples,
    }
    if traced:
        per_pass = [
            trace.layer_metrics(t.spans, len(p.result.units), missing, p.result.dues)
            for t, p in zip(tracers, passes)
        ]
        values = {name: _mean(m[name] for m in per_pass) for name in per_pass[0]}
        accounts = [trace.accounting(t.spans, p.result.dues) for t, p in zip(tracers, passes)]
        accounted = max(sum(wall for _, wall in accounts), 1e-12)
        values["trace.residual_fraction"] = sum(residual for residual, _ in accounts) / accounted
        values["trace.overhead_fraction"] = sum(t.overhead_s for t in tracers) / accounted
        units_of = PER_LAYER_UNITS
        detail.update(
            missing_spans=sorted(missing),
            layer_mix_violations=workload.layer_mix(values),
            traced_unit_wall_s=_mean(unit.wall_s for unit in units),
        )
    else:
        samples = {
            "setup_s": setup_samples,
            "wall_s": [u.wall_s for u in units],
            "cpu_s": [p.cpu_s / len(p.result.units) for p in passes],
            # Each pass's own high-water mark, reset as the pass starts.
            "peak_rss_mib": [p.peak_rss_mib for p in passes],
            "exact_keys": [float(u.exact) for u in units],
        }
        values = {name: statistics.median(s) for name, s in samples.items()}
        units_of = END_TO_END_UNITS
        detail["samples"] = samples
    line = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]} for name, value in values.items()
        },
    }
    return Measurement(line, detail, tracers)
