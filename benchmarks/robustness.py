"""Decay-robustness sweep: adaptive engine vs the frozen seed scan.

The claim this harness certifies — and ``ROBUST_decay.json`` records —
is the tentpole of the error-correcting recovery work: the decoded
stage (belief propagation over the AES key-expansion constraint graph)
recovers keys byte-identical to the planted ground truth at decay
rates at least twice the classical crossover (~0.020), and past its
own envelope it *abstains* — at no swept rate does any pipeline stage
return a wrong key.  The sweep also keeps the earlier adaptive-vs-seed
claims: there are rates where the seed pipeline (fixed litmus 16 /
verify 16 budgets, exactly as :mod:`benchmarks.legacy_scan` freezes
it) recovers nothing while the adaptive engine recovers everything,
and confidence degrades monotonically with the channel.

Run ``python -m benchmarks.robustness`` to regenerate the JSON; the
``--quick`` flag trims the grid for CI smoke, and ``--baseline`` gates
a fresh sweep against a committed artifact — fewer exact keys or any
new spurious key at a shared rate fails the run.  Every record is
checked by :func:`validate_robust_record` before it is written, so a
schema drift fails the sweep rather than poisoning downstream tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchmarks.legacy_scan import legacy_recover_keys
from repro.attack.adaptive import AdaptiveRecoveryEngine
from repro.attack.sweep import synthetic_dump

#: Schema tag for downstream consumers of the JSON artifact.  v2 adds
#: the decoded stage: per-stage wall seconds, decode-table telemetry
#: (tables tried, message-passing sweeps, converged/abstained counts),
#: and the abstain-not-wrong acceptance gates.
ROBUST_SCHEMA = "robust-decay/v2"

#: The sweep grid.  The seed pipeline's cliff sits between 0.008 and
#: 0.012 on the synthetic dump and the classical (vote+repair) ladder's
#: crossover near 0.020; the grid brackets both, covers the decoded
#: stage's byte-exact band beyond 2× the classical crossover, and
#: extends far past every envelope to show abstention rather than
#: wrong answers.
DEFAULT_RATES = (0.002, 0.008, 0.012, 0.016, 0.020, 0.024, 0.032, 0.040,
                 0.056, 0.080, 0.100)

_POINT_FIELDS = {
    "bit_error_rate": float,
    "seed_keys_recovered": int,
    "seed_exact_keys": int,
    "adaptive_keys_recovered": int,
    "adaptive_exact_keys": int,
    "adaptive_spurious_keys": int,
    "estimated_decay_rate": float,
    "decay_source": str,
    "stages_run": list,
    "stage_seconds": dict,
    "confidences": list,
    "max_confidence": float,
    "quarantined_regions": int,
    "decode_tables": int,
    "decode_iterations": int,
    "decode_converged": int,
    "decode_abstained": int,
    "seed_seconds": float,
    "adaptive_seconds": float,
}


def _exact_half_count(recovered_masters: set[bytes], master: bytes) -> int:
    """How many halves of the planted XTS master were recovered exactly."""
    return sum(1 for half in (master[:32], master[32:]) if half in recovered_masters)


def sweep_point(bit_error_rate: float, seed: int = 5, total_work: int = 10) -> dict:
    """Run both pipelines on one synthetic dump and compare outcomes."""
    dump, master, _ = synthetic_dump(bit_error_rate=bit_error_rate, seed=seed)
    truth = {master[:32], master[32:]}

    start = time.perf_counter()
    seed_recovered = legacy_recover_keys(dump)
    seed_seconds = time.perf_counter() - start
    seed_masters = {r.master_key for r in seed_recovered}

    start = time.perf_counter()
    result = AdaptiveRecoveryEngine(total_work=total_work).recover(dump)
    adaptive_seconds = time.perf_counter() - start
    adaptive_masters = {r.master_key for r in result.recovered}
    confidences = sorted((r.confidence for r in result.recovered), reverse=True)
    decode = result.decode or {}

    return {
        "bit_error_rate": bit_error_rate,
        "seed_keys_recovered": len(seed_recovered),
        "seed_exact_keys": _exact_half_count(seed_masters, master),
        "adaptive_keys_recovered": len(result.recovered),
        "adaptive_exact_keys": _exact_half_count(adaptive_masters, master),
        "adaptive_spurious_keys": len(adaptive_masters - truth),
        "estimated_decay_rate": result.estimate.rate,
        "decay_source": result.estimate.source,
        "stages_run": list(result.stages_run),
        "stage_seconds": {k: round(v, 3) for k, v in result.stage_seconds.items()},
        "confidences": confidences,
        "max_confidence": confidences[0] if confidences else 0.0,
        "quarantined_regions": len(result.quarantined),
        "decode_tables": int(decode.get("tables", 0)),
        "decode_iterations": int(decode.get("iterations", 0)),
        "decode_converged": int(decode.get("converged", 0)),
        "decode_abstained": int(decode.get("abstained", 0)),
        "seed_seconds": seed_seconds,
        "adaptive_seconds": adaptive_seconds,
    }


def _acceptance(points: list[dict]) -> dict:
    """The claims the artifact exists to certify, as booleans."""
    crossover = [
        p["bit_error_rate"]
        for p in points
        if p["seed_exact_keys"] == 0 and p["adaptive_exact_keys"] >= 1
    ]
    # Only rates where something was recovered can rank confidences; an
    # abstaining point contributes no key whose calibration could lie.
    ordered = [p for p in sorted(points, key=lambda p: p["bit_error_rate"])
               if p["adaptive_keys_recovered"]]
    confidences = [p["max_confidence"] for p in ordered]
    exact_rates = [p["bit_error_rate"] for p in points
                   if p["adaptive_exact_keys"] == 2 and p["adaptive_spurious_keys"] == 0]
    return {
        # Rates where adaptive recovers a full AES key and the frozen
        # seed path recovers none — the headline robustness win.
        "crossover_rates": crossover,
        "adaptive_beats_seed": bool(crossover),
        # No recovered key may differ from the planted truth by even a
        # bit: robustness must not come at the price of wrong answers.
        "all_keys_byte_exact": all(p["adaptive_spurious_keys"] == 0 for p in points),
        # Calibration: a worse channel must never yield *higher*
        # confidence in what it recovers.
        "confidence_monotone": all(
            later <= earlier + 1e-9
            for earlier, later in zip(confidences, confidences[1:])
        ),
        # The tentpole: full byte-exact recovery survives to at least
        # twice the classical crossover (~0.020) — the decoded stage's
        # contribution over PR 3's ladder.
        "max_full_exact_rate": max(exact_rates, default=0.0),
        "exact_at_twice_classical_crossover": max(exact_rates, default=0.0) >= 0.040,
        # Past every envelope the pipeline abstains instead of guessing:
        # no swept point pairs zero exact keys with a nonzero key count.
        "abstains_not_wrong": all(
            p["adaptive_keys_recovered"] == 0 or p["adaptive_exact_keys"] > 0
            for p in points
        ),
    }


def robustness_sweep(
    rates: tuple[float, ...] = DEFAULT_RATES, seed: int = 5, total_work: int = 10
) -> dict:
    """Full sweep: per-rate comparison points plus the acceptance digest."""
    points = [sweep_point(rate, seed=seed, total_work=total_work) for rate in rates]
    record = {
        "schema": ROBUST_SCHEMA,
        "seed": seed,
        "total_work": total_work,
        "points": points,
        "acceptance": _acceptance(points),
    }
    errors = validate_robust_record(record)
    if errors:
        raise ValueError("robustness sweep produced an invalid record: " + "; ".join(errors))
    return record


def validate_robust_record(record: dict) -> list[str]:
    """Schema check for a ``robust-decay/v2`` record; returns problems."""
    errors: list[str] = []
    if record.get("schema") != ROBUST_SCHEMA:
        errors.append(f"schema is {record.get('schema')!r}, want {ROBUST_SCHEMA!r}")
    for field in ("seed", "total_work"):
        if not isinstance(record.get(field), int):
            errors.append(f"{field} must be an int")
    points = record.get("points")
    if not isinstance(points, list) or not points:
        return errors + ["points must be a non-empty list"]
    for index, point in enumerate(points):
        for field, kind in _POINT_FIELDS.items():
            value = point.get(field)
            ok = isinstance(value, kind) or (kind is float and isinstance(value, int))
            if not ok:
                errors.append(f"points[{index}].{field} must be {kind.__name__}")
        for confidence in point.get("confidences", ()):
            if not isinstance(confidence, (int, float)) or not 0.0 <= confidence <= 1.0:
                errors.append(f"points[{index}] has confidence outside [0, 1]")
    acceptance = record.get("acceptance")
    if not isinstance(acceptance, dict):
        errors.append("acceptance must be a dict")
    else:
        for field in (
            "adaptive_beats_seed",
            "all_keys_byte_exact",
            "confidence_monotone",
            "exact_at_twice_classical_crossover",
            "abstains_not_wrong",
        ):
            if not isinstance(acceptance.get(field), bool):
                errors.append(f"acceptance.{field} must be a bool")
        if not isinstance(acceptance.get("crossover_rates"), list):
            errors.append("acceptance.crossover_rates must be a list")
        if not isinstance(acceptance.get("max_full_exact_rate"), (int, float)):
            errors.append("acceptance.max_full_exact_rate must be a number")
    return errors


def compare_to_baseline(record: dict, baseline: dict) -> list[str]:
    """Regression gate: a fresh sweep must not lose ground on a baseline.

    Rates are matched by value; rates present in only one record are
    ignored (grids may grow).  At every shared rate the fresh sweep
    must recover at least as many exact keys and introduce no spurious
    key the baseline did not have.  Baselines of the retired
    ``robust-decay/v1`` schema are accepted — their points carry the
    shared count fields — so the first v2 run can gate against the v1
    artifact it replaces.
    """
    problems: list[str] = []
    fresh = {p["bit_error_rate"]: p for p in record.get("points", [])}
    for base_point in baseline.get("points", []):
        rate = base_point["bit_error_rate"]
        point = fresh.get(rate)
        if point is None:
            continue
        if point["adaptive_exact_keys"] < base_point["adaptive_exact_keys"]:
            problems.append(
                f"BER {rate}: exact keys fell "
                f"{base_point['adaptive_exact_keys']} -> {point['adaptive_exact_keys']}"
            )
        if point["adaptive_spurious_keys"] > base_point.get("adaptive_spurious_keys", 0):
            problems.append(
                f"BER {rate}: spurious keys rose to {point['adaptive_spurious_keys']}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="ROBUST_decay.json")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="four-point grid for CI smoke runs")
    parser.add_argument("--baseline", default=None,
                        help="committed artifact to gate regressions against")
    args = parser.parse_args(argv)
    rates = (0.002, 0.012, 0.040, 0.080) if args.quick else DEFAULT_RATES
    # Read the baseline before the sweep writes: ``--baseline`` may name
    # the ``--output`` file, and the gate must compare against the old one.
    baseline = None
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    record = robustness_sweep(rates, seed=args.seed)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    acceptance = record["acceptance"]
    for point in record["points"]:
        print(
            f"BER {point['bit_error_rate']:.3f}: "
            f"seed {point['seed_exact_keys']}/2, "
            f"adaptive {point['adaptive_exact_keys']}/2 exact, "
            f"{point['adaptive_spurious_keys']} spurious "
            f"(confidence {point['max_confidence']:.2f}, "
            f"stages {'+'.join(point['stages_run'])}, "
            f"decode {point['decode_converged']}/{point['decode_tables']} converged)"
        )
    print(f"wrote {args.output}: {acceptance}")
    ok = (
        acceptance["adaptive_beats_seed"]
        and acceptance["all_keys_byte_exact"]
        and acceptance["confidence_monotone"]
        and acceptance["exact_at_twice_classical_crossover"]
        and acceptance["abstains_not_wrong"]
    )
    if baseline is not None:
        problems = compare_to_baseline(record, baseline)
        for problem in problems:
            print(f"REGRESSION: {problem}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
