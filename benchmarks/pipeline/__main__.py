"""Command line of the pipeline benchmark.

    python -m benchmarks.pipeline                   # all workloads -> record + spans
    python -m benchmarks.pipeline --workload adaptive-ber-0.024 --output run.json
    python -m benchmarks.pipeline --held-out        # held-out seeds, layer-mix check
    python -m benchmarks.pipeline compare A.json B.json

Without ``--trace`` the command runs each workload in two fresh child
processes, one after the other — an untraced run for the end-to-end
metrics, then a traced run for the per-layer metrics — and writes the
merged record (default ``.bench_out/pipeline/record.json``) plus the
spans beside it as ``<record>.spans.jsonl``.  The record is refused
when any workload's residual reaches 5%.

With ``--trace 0|1`` it is one such child: one workload, measured in
this process, ending with its JSON result line::

    python -m benchmarks.pipeline --workload NAME --seed N --seconds S --trace 0|1

Every run makes a fixed number of passes (``runner.PASSES``), sized so
a run measures about ``run_seconds`` of ``BENCHMARK.json``; ``--seconds``
is accepted only with that value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out" / "pipeline"
RESIDUAL_LIMIT = 0.05


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: {SRC / 'repro'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")


def _workload_names(wanted: str | None) -> list[str]:
    from benchmarks.pipeline.workloads import WORKLOADS

    if wanted is None:
        return list(WORKLOADS)
    if wanted not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {wanted!r} (one of {', '.join(WORKLOADS)})")
    return [wanted]


def run_one(args) -> int:
    """One workload measured in this process; prints the JSON result line last."""
    _use_checkout_source()
    start = time.perf_counter()
    from benchmarks.pipeline import runner, workloads

    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[_workload_names(args.workload)[0]]
    seed = workload.default_seed if args.seed is None else args.seed
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        measured = runner.measure(workload, seed, bool(args.trace), workdir, import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = measured.line
    _print_metrics(
        f"{workload.name} seed={seed} attempted={line['attempted']} failed={line['failed']}",
        line["metrics"],
    )
    for violation in measured.detail.get("layer_mix_violations", ()):
        print(f"benchmark: layer mix: {violation}", file=sys.stderr)
    if args.record:
        record = Path(args.record)
        record.write_text(json.dumps({"line": line, "detail": measured.detail}), encoding="utf-8")
        for index, tracer in enumerate(measured.tracers):
            tracer.write_jsonl(
                record.with_suffix(".spans.jsonl"), workload=workload.name, traced_pass=index
            )
    print(json.dumps(line))
    return 0


def _child(name: str, seed: int, traced: int, scratch: Path) -> dict:
    record = scratch / f"{name}-{traced}.json"
    command = [
        sys.executable, "-m", "benchmarks.pipeline",
        "--workload", name, "--seed", str(seed), "--trace", str(traced), "--record", str(record),
    ]
    print(f"{name}: {'traced' if traced else 'untraced'} run, seed {seed}", flush=True)
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900)
    if completed.returncode != 0:
        raise RuntimeError(f"{name} --trace {traced} exited {completed.returncode}")
    child = json.loads(record.read_text(encoding="utf-8"))
    spans = record.with_suffix(".spans.jsonl")
    child["spans"] = spans.read_text(encoding="utf-8") if spans.exists() else ""
    return child


def run_all(args) -> int:
    """Every chosen workload in fresh children; merge, check, write."""
    _use_checkout_source()
    import numpy

    from benchmarks.pipeline.runner import PASSES
    from benchmarks.pipeline.workloads import WORKLOADS

    names = _workload_names(args.workload)
    output = Path(args.output) if args.output else OUT / "record.json"
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="children-", dir=OUT))
    record = {
        "schema": "bench-pipeline/v1",
        "passes_per_run": PASSES,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": {},
    }
    spans = []
    try:
        for name in names:
            workload = WORKLOADS[name]
            seed = args.seed
            if seed is None:
                seed = workload.held_out_seed if args.held_out else workload.default_seed
            untraced = _child(name, seed, 0, scratch)
            traced = _child(name, seed, 1, scratch)
            spans.append(traced["spans"])
            lines = (untraced["line"], traced["line"])
            attempted = sum(line["attempted"] for line in lines)
            failed = sum(line["failed"] for line in lines)
            end_to_end = {
                metric: {**value, "samples": untraced["detail"]["samples"][metric]}
                for metric, value in untraced["line"]["metrics"].items()
            }
            # Both children set up, in two processes: their samples
            # together show how much import time moves between runs.
            setups = untraced["detail"]["setup_s_samples"] + traced["detail"]["setup_s_samples"]
            end_to_end["setup_s"].update(value=statistics.median(setups), samples=setups)
            record["workloads"][name] = {
                "seed": seed,
                "correct": all(line["correct"] for line in lines),
                "attempted": attempted,
                "failed": failed,
                "failed_fraction": failed / attempted,
                "spurious_keys": untraced["detail"]["spurious_keys"]
                + traced["detail"]["spurious_keys"],
                "end_to_end": end_to_end,
                "per_layer": traced["line"]["metrics"],
                "traced_unit_wall_s": traced["detail"]["traced_unit_wall_s"],
                "missing_spans": traced["detail"]["missing_spans"],
                "layer_mix_violations": traced["detail"]["layer_mix_violations"],
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    refused = broken = False
    print("\nend-to-end metrics (median over units; a unit is a pass, or a service job)")
    for name, entry in record["workloads"].items():
        residual = entry["per_layer"]["trace.residual_fraction"]["value"]
        overhead = entry["per_layer"]["trace.overhead_fraction"]["value"]
        _print_metrics(
            f"{name} seed={entry['seed']} correct={entry['correct']} "
            f"failed={entry['failed']}/{entry['attempted']} spurious={entry['spurious_keys']} "
            f"residual={residual:.2%} overhead={overhead:.2%}",
            entry["end_to_end"],
        )
        for violation in entry["layer_mix_violations"]:
            print(f"  layer mix violated: {violation}")
        broken = broken or not entry["correct"] or bool(entry["layer_mix_violations"])
        if residual >= RESIDUAL_LIMIT:
            print(f"  refused: residual {residual:.2%} is not below {RESIDUAL_LIMIT:.0%}")
            refused = True
    if refused:
        return 1
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    output.with_suffix(".spans.jsonl").write_text("".join(spans), encoding="utf-8")
    print(f"\nrecord: {output}\nspans:  {output.with_suffix('.spans.jsonl')}")
    return 1 if broken else 0


def run_compare(argv: list[str]) -> int:
    from benchmarks.pipeline.compare import compare

    parser = argparse.ArgumentParser(prog="python -m benchmarks.pipeline compare")
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    rows = compare(
        json.loads(args.baseline.read_text(encoding="utf-8")),
        json.loads(args.candidate.read_text(encoding="utf-8")),
        _benchmark(),
    )
    print(f"{'workload':20s} {'metric':14s} {'baseline':>12s} {'candidate':>12s} "
          f"{'worse by':>9s}  verdict")
    for workload, metric, outcome, before, after, worse_by in rows:
        print(f"{workload:20s} {metric:14s} {before:12.6g} {after:12.6g} "
              f"{worse_by:+9.2%}  {outcome}")
    return 1 if any(row[2] == "worse" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return run_compare(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pipeline", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all, in order)")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="input seed (default: each workload's own)")
    seeds.add_argument("--held-out", action="store_true", help="use each workload's held-out seed")
    parser.add_argument("--seconds", type=float,
                        help="must be run_seconds of BENCHMARK.json: the pass count is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure one workload in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--output", help="record path (default .bench_out/pipeline/record.json)")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds != _benchmark()["run_seconds"]:
        parser.error(f"--seconds must be {_benchmark()['run_seconds']}: each run makes a "
                     "fixed number of passes")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
