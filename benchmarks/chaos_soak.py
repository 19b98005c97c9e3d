"""Composed chaos soak: every failure mode at once, crash-only invariants.

The watchdog-runtime tentpole claims the attack pipeline is *crash-only*:
whatever combination of worker crashes, kills, hangs, data corruption,
signals, deadlines, and pool breakdowns lands mid-scan, a run either

* **completes** with recovered keys byte-identical to a clean run, or
* **stops resumable** — journalled shards on disk, a resume run finishes
  the scan and converges to the same byte-identical keys.

``python -m benchmarks.chaos_soak`` soaks that claim: each iteration
composes a deterministic fault stack (rotating through seven scenarios so
every mode is exercised several times), runs the real
:func:`~repro.attack.parallel.resilient_recover_keys` path against it,
and checks the invariants.  The result is
``ROBUST_chaos.json`` (schema ``robust-chaos/v2``), validated by
:func:`validate_chaos_record` before it is written so schema drift fails
the soak instead of poisoning downstream tooling.  ``--quick`` runs one
scenario rotation for CI smoke.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.attack.parallel import resilient_recover_keys
from repro.attack.sweep import synthetic_dump
from repro.resilience.checkpoint import count_shard_records
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.resilience.shutdown import GracefulShutdown
from repro.resilience.watchdog import WatchdogConfig

#: Schema tag for downstream consumers of the JSON artifact.  v2 records
#: each iteration's ``executor`` where v1 recorded a publication backend.
CHAOS_SCHEMA = "robust-chaos/v2"

#: One full rotation covers every failure mode; the default soak runs
#: eight rotations (56 iterations — comfortably past the 50-iteration
#: acceptance floor).
SCENARIOS = (
    "crash-retry",
    "kill-rebuild",
    "hang-watchdog",
    "signal-drain",
    "deadline-expiry",
    "serial-degraded",
    "kitchen-sink",
)

DEFAULT_ITERATIONS = 56
QUICK_ITERATIONS = len(SCENARIOS)
N_SHARDS = 4

#: The deadline-expiry budget, as a fraction of the clean baseline
#: scan's measured wall time.  That scan is serial; the scenario's
#: 2-worker scan needs about half of it, so the budget runs out
#: mid-scan however fast the scan itself has become.
DEADLINE_FRACTION = (0.15, 0.4)

_ITERATION_FIELDS = {
    "iteration": int,
    "scenario": str,
    "fault_kinds": list,
    "workers": int,
    "executor": str,
    "complete_first_pass": bool,
    "interrupted": bool,
    "deadline_expired": bool,
    "stall_kills": int,
    "pool_rebuilds": int,
    "degraded_to_serial": bool,
    "journaled_shards": int,
    "resumed_shards": int,
    "resume_ran": bool,
    "keys_byte_identical": bool,
    "seconds": float,
    "violations": list,
}

_ACCEPTANCE_BOOLS = (
    "zero_violations",
    "watchdog_fired",
    "drain_exercised",
    "deadline_exercised",
    "degradation_exercised",
    "all_byte_identical",
)


def _policy(**overrides) -> RetryPolicy:
    return RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, **overrides)


def _keys_hex(report) -> list[str]:
    return sorted(r.master_key.hex() for r in report.recovered)


class _JournalWatcher:
    """Fires a graceful stop once the first shard lands in the journal.

    The in-process analogue of SIGTERM-ing a CLI run mid-scan: polling
    the checkpoint file guarantees the stop arrives *after* some work is
    journalled and (usually) before the scan finishes, so the drain path
    actually has in-flight shards to drain.
    """

    def __init__(self, journal: Path, stop: GracefulShutdown) -> None:
        self.journal = journal
        self.stop = stop
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._watch, daemon=True)

    def _watch(self) -> None:
        while not self.done.is_set():
            if count_shard_records(self.journal) >= 1:
                self.stop.request("chaos-signal")
                return
            self.done.wait(0.02)

    def __enter__(self) -> "_JournalWatcher":
        self.thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.done.set()
        self.thread.join(timeout=5.0)


def _build_scenario(
    scenario: str, rng: random.Random, offsets: list[int], baseline_seconds: float
) -> dict:
    """Compose one iteration's fault stack.

    Destructive data faults (corrupt) only ever target ``offsets[1:]`` —
    the shards that carry no planted key material — so a *complete* run
    is always held to the byte-identical bar.  Process faults (crash,
    kill, hang, poison) fire on the first attempt only; the retry,
    rebuild, and stall-kill paths are what absorb them.
    """
    faults: list[tuple[int, FaultSpec]] = []
    spec = {
        "workers": 2,
        "retry_policy": _policy(),
        "watchdog": None,
        "deadline": None,
        "signal": False,
    }

    def add(offset: int, kind: str, **kwargs) -> None:
        faults.append((offset, FaultSpec(kind=kind, first_attempts=1, **kwargs)))

    empty = offsets[1:]
    if scenario == "crash-retry":
        spec["workers"] = rng.choice((1, 2))
        add(rng.choice(offsets), "crash")
        add(rng.choice(empty), "corrupt", corrupt_bits=64)
    elif scenario == "kill-rebuild":
        add(rng.choice(offsets), "kill")
        add(rng.choice(empty), "bitrot", corrupt_rate=0.01)
    elif scenario == "hang-watchdog":
        add(rng.choice(offsets), "hang", hang_seconds=60.0)
        spec["watchdog"] = WatchdogConfig(stall_timeout_s=2.0, poll_interval_s=0.1)
    elif scenario == "signal-drain":
        spec["signal"] = True
    elif scenario == "deadline-expiry":
        spec["deadline"] = rng.uniform(*DEADLINE_FRACTION) * baseline_seconds
    elif scenario == "serial-degraded":
        # A pool allowed no rebuild: the kill's broken pool degrades the
        # rest of the scan to in-process serial execution.
        spec["retry_policy"] = _policy(max_pool_rebuilds=0)
        killed = rng.choice(offsets)
        add(killed, "kill")
        add(rng.choice([o for o in empty if o != killed]), "corrupt", corrupt_bits=64)
    elif scenario == "kitchen-sink":
        spec["watchdog"] = WatchdogConfig(stall_timeout_s=2.0, poll_interval_s=0.1)
        add(offsets[0], "poison", corrupt_bits=16)
        add(offsets[1], "hang", hang_seconds=60.0)
        add(offsets[2], "crash")
    else:  # pragma: no cover — scenario list and builder must agree
        raise ValueError(f"unknown scenario {scenario!r}")

    spec["fault_plan"] = FaultPlan(faults=tuple(faults), seed=rng.randrange(1 << 30)) if faults else None
    return spec


def soak_iteration(
    iteration: int, scenario: str, rng: random.Random,
    dump, offsets: list[int], baseline: list[str], tmp: Path, baseline_seconds: float,
) -> dict:
    """Run one composed-fault iteration and check the crash-only bar."""
    journal = tmp / f"iter{iteration:03d}.checkpoint.jsonl"
    spec = _build_scenario(scenario, rng, offsets, baseline_seconds)
    plan = spec["fault_plan"]
    violations: list[str] = []
    start = time.perf_counter()

    stop = GracefulShutdown() if spec["signal"] else None

    def run(fault_plan, active_stop):
        return resilient_recover_keys(
            dump,
            workers=spec["workers"],
            n_shards=N_SHARDS,
            retry_policy=spec["retry_policy"],
            checkpoint=journal,
            resume=True,
            fault_plan=fault_plan,
            deadline=spec["deadline"],
            stop=active_stop,
            watchdog=spec["watchdog"],
        )

    try:
        if stop is not None:
            with _JournalWatcher(journal, stop):
                report = run(plan, stop)
        else:
            report = run(plan, None)
    except Exception as exc:  # crash-only: nothing may escape
        return {
            "iteration": iteration,
            "scenario": scenario,
            "fault_kinds": sorted({s.kind for _, s in (plan.faults if plan else ())}),
            "workers": spec["workers"],
            "executor": "unknown",
            "complete_first_pass": False,
            "interrupted": False,
            "deadline_expired": False,
            "stall_kills": 0,
            "pool_rebuilds": 0,
            "degraded_to_serial": False,
            "journaled_shards": count_shard_records(journal),
            "resumed_shards": 0,
            "resume_ran": False,
            "keys_byte_identical": False,
            "seconds": time.perf_counter() - start,
            "violations": [f"exception escaped the runtime: {exc!r}"],
        }

    if report.quarantined_offsets:
        violations.append(
            f"transient faults quarantined shards {report.quarantined_offsets}"
        )
    if scenario == "serial-degraded" and not report.ledger.degraded_to_serial:
        violations.append("the broken pool did not degrade the scan to serial")

    resume_ran = False
    resumed_shards = report.resumed_shards
    if report.complete:
        keys_identical = _keys_hex(report) == baseline
        if not keys_identical:
            violations.append("complete run diverged from the clean baseline")
    else:
        # Stopped early: the run must be resumable, and the resume must
        # land byte-identical on the baseline.
        if not report.unscanned_offsets:
            violations.append("incomplete run left no unscanned shards to resume")
        if not (report.interrupted or report.deadline_expired):
            violations.append("incomplete run claims neither interrupt nor deadline")
        resume_ran = True
        resumed = resilient_recover_keys(
            dump, workers=2, n_shards=N_SHARDS, retry_policy=_policy(),
            checkpoint=journal, resume=True,
        )
        resumed_shards = resumed.resumed_shards
        keys_identical = _keys_hex(resumed) == baseline
        if not resumed.complete:
            violations.append("resume run did not complete the scan")
        if not keys_identical:
            violations.append("resume run diverged from the clean baseline")

    return {
        "iteration": iteration,
        "scenario": scenario,
        "fault_kinds": sorted({s.kind for _, s in (plan.faults if plan else ())}),
        "workers": spec["workers"],
        "executor": report.executor,
        "complete_first_pass": report.complete,
        "interrupted": report.interrupted,
        "deadline_expired": report.deadline_expired,
        "stall_kills": report.ledger.stall_kills,
        "pool_rebuilds": report.ledger.pool_rebuilds,
        "degraded_to_serial": report.ledger.degraded_to_serial,
        "journaled_shards": count_shard_records(journal),
        "resumed_shards": resumed_shards,
        "resume_ran": resume_ran,
        "keys_byte_identical": keys_identical,
        "seconds": time.perf_counter() - start,
        "violations": violations,
    }


def _acceptance(iterations: list[dict]) -> dict:
    """The claims ``ROBUST_chaos.json`` exists to certify, as booleans."""
    return {
        "iterations_run": len(iterations),
        "zero_violations": all(not it["violations"] for it in iterations),
        # Each degradation layer must actually have fired during the soak
        # — a soak that never stalls a worker proves nothing about the
        # watchdog.
        "watchdog_fired": any(it["stall_kills"] > 0 for it in iterations),
        "drain_exercised": any(it["interrupted"] for it in iterations),
        "deadline_exercised": any(it["deadline_expired"] for it in iterations),
        "degradation_exercised": any(it["degraded_to_serial"] for it in iterations),
        "all_byte_identical": all(it["keys_byte_identical"] for it in iterations),
    }


def chaos_soak(iterations: int = DEFAULT_ITERATIONS, seed: int = 5, on_progress=None) -> dict:
    """Full soak: composed-fault iterations plus the acceptance digest."""
    dump, master, _ = synthetic_dump(bit_error_rate=0.0, seed=seed)
    start = time.perf_counter()
    clean = resilient_recover_keys(dump, workers=1, n_shards=N_SHARDS, retry_policy=_policy())
    baseline_seconds = time.perf_counter() - start
    baseline = _keys_hex(clean)
    truth = {master[:32].hex(), master[32:].hex()}
    if not truth <= set(baseline):
        raise RuntimeError("clean baseline failed to recover the planted master key")
    offsets = sorted(o.shard_offset for o in clean.ledger.completed)

    results: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="chaos-soak-") as tmp_name:
        tmp = Path(tmp_name)
        for iteration in range(iterations):
            scenario = SCENARIOS[iteration % len(SCENARIOS)]
            rng = random.Random((seed << 20) ^ iteration)
            entry = soak_iteration(
                iteration, scenario, rng, dump, offsets, baseline, tmp, baseline_seconds
            )
            results.append(entry)
            if on_progress is not None:
                on_progress(entry)

    record = {
        "schema": CHAOS_SCHEMA,
        "seed": seed,
        "n_shards": N_SHARDS,
        "baseline_keys": len(baseline),
        "baseline_seconds": round(baseline_seconds, 3),
        "repro_command": (
            f"PYTHONPATH=src python -m benchmarks.chaos_soak "
            f"--seed {seed} --iterations {iterations}"),
        "iterations": results,
        "acceptance": _acceptance(results),
    }
    errors = validate_chaos_record(record)
    if errors:
        raise ValueError("chaos soak produced an invalid record: " + "; ".join(errors))
    return record


def validate_chaos_record(record: dict) -> list[str]:
    """Schema check for a ``robust-chaos/v2`` record; returns problems."""
    errors: list[str] = []
    if record.get("schema") != CHAOS_SCHEMA:
        errors.append(f"schema is {record.get('schema')!r}, want {CHAOS_SCHEMA!r}")
    for field in ("seed", "n_shards", "baseline_keys"):
        if not isinstance(record.get(field), int):
            errors.append(f"{field} must be an int")
    if not isinstance(record.get("repro_command"), str):
        errors.append("repro_command must be a string")
    iterations = record.get("iterations")
    if not isinstance(iterations, list) or not iterations:
        return errors + ["iterations must be a non-empty list"]
    for index, entry in enumerate(iterations):
        for field, kind in _ITERATION_FIELDS.items():
            value = entry.get(field)
            ok = isinstance(value, kind) or (kind is float and isinstance(value, int))
            if kind is int and isinstance(value, bool):
                ok = False
            if not ok:
                errors.append(f"iterations[{index}].{field} must be {kind.__name__}")
        if entry.get("scenario") not in SCENARIOS:
            errors.append(f"iterations[{index}].scenario is not a known scenario")
        for violation in entry.get("violations", ()):
            if not isinstance(violation, str):
                errors.append(f"iterations[{index}] has a non-string violation")
    acceptance = record.get("acceptance")
    if not isinstance(acceptance, dict):
        errors.append("acceptance must be a dict")
    else:
        if not isinstance(acceptance.get("iterations_run"), int):
            errors.append("acceptance.iterations_run must be an int")
        for field in _ACCEPTANCE_BOOLS:
            if not isinstance(acceptance.get(field), bool):
                errors.append(f"acceptance.{field} must be a bool")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="ROBUST_chaos.json")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="one scenario rotation for CI smoke runs")
    args = parser.parse_args(argv)
    iterations = args.iterations or (QUICK_ITERATIONS if args.quick else DEFAULT_ITERATIONS)

    def progress(entry: dict) -> None:
        status = "ok" if not entry["violations"] else "VIOLATION"
        phase = ("complete" if entry["complete_first_pass"]
                 else f"resumed({entry['resumed_shards']})")
        print(
            f"[{entry['iteration'] + 1:3d}] {entry['scenario']:<16} "
            f"{phase:<12} executor={entry['executor']:<7} "
            f"stalls={entry['stall_kills']} {entry['seconds']:5.1f}s {status}",
            flush=True,
        )

    record = chaos_soak(iterations=iterations, seed=args.seed, on_progress=progress)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    acceptance = record["acceptance"]
    print(f"wrote {args.output}: {acceptance}")
    ok = all(acceptance[field] for field in _ACCEPTANCE_BOOLS)
    if not ok:
        print(f"soak FAILED — reproduce with: {record['repro_command']}",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
