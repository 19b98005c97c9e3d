#!/usr/bin/env python
"""Decode-performance harness: time the BP decoder, gate the speedup.

Builds a pinned-seed batch of candidate key-schedule tables — a few
true AES schedules flipped at the configured bit-error rate plus a
majority of junk tables, the mix the adaptive ladder's decoded rung
actually sees — then decodes it two ways::

    python benchmarks/decode_harness.py                  # full record
    python benchmarks/decode_harness.py --smoke          # CI-sized pass
    python benchmarks/decode_harness.py --repeat 3       # median-of-3
    python benchmarks/decode_harness.py --min-speedup 5  # regression gate

* ``stages.decode`` — the live residual-scheduled decoder
  (:func:`repro.attack.decode.decode_schedule`) over the whole batch
  in one call, the shape :meth:`AesKeySearch._decode` uses for the
  list-decode combos.
* ``baseline.decode`` — the frozen pre-rewrite dense decoder
  (:mod:`benchmarks.legacy_decode`) run per-table, sequentially, the
  way the seed's ``_decode_group`` loop ran it.

The identity gates are the point, not a side check: the converged set
(equivalently, the abstain set) and every recovered master key must
agree between the live decoder and the frozen reference.  Abstained
tables are *expected* to differ byte-wise — the float32 decoder keeps
hard decisions, not message bits — which is why the gate compares
decisions and keys, not raw posterior dumps.

With ``--min-speedup X`` the harness exits non-zero when the decode
speedup over the frozen reference drops below ``X`` or any identity
gate fails; CI runs ``--smoke --min-speedup 3``.  The committed
``BENCH_decode.json`` is the full-sized record.  See
``docs/performance.md`` §5 for how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_REPO_ROOT / "src"), str(_REPO_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.attack.decode import (  # noqa: E402
    ChannelModel,
    DecodeResult,
    decode_schedule,
)
from repro.crypto.aes import expand_key  # noqa: E402

from benchmarks.legacy_decode import legacy_decode_schedules  # noqa: E402

#: Schema tag written into (and required from) every BENCH_decode.json.
BENCH_SCHEMA = "bench-decode/v2"
#: Required fields of every stage record.
STAGE_FIELDS = ("wall_s", "tables_per_s", "sweeps", "converged", "abstained")
#: Stages a complete record must report.
REQUIRED_STAGES = ("decode",)

#: Pinned defaults — change them and historical records stop comparing.
DEFAULT_SEED = 11
DEFAULT_BIT_ERROR_RATE = 0.040
DEFAULT_KEY_BITS = 256
DEFAULT_MAX_ITERS = 72


def validate_bench_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the harness schema."""
    if record.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"schema must be {BENCH_SCHEMA!r}, got {record.get('schema')!r}"
        )
    config = record.get("config")
    if not isinstance(config, dict):
        raise ValueError("missing config object")
    for field in ("key_bits", "batch", "n_true", "seed", "bit_error_rate",
                  "max_iters"):
        if field not in config:
            raise ValueError(f"config lacks {field!r}")

    def check_stages(stages: object, where: str) -> None:
        if not isinstance(stages, dict):
            raise ValueError(f"{where} must be an object of stage records")
        for name in REQUIRED_STAGES:
            if name not in stages:
                raise ValueError(f"{where} lacks stage {name!r}")
        for name, stage in stages.items():
            if not isinstance(stage, dict):
                raise ValueError(f"{where}[{name}] must be an object")
            for field in STAGE_FIELDS:
                if field not in stage:
                    raise ValueError(f"{where}[{name}] lacks {field!r}")
            if not float(stage["wall_s"]) >= 0.0:
                raise ValueError(f"{where}[{name}].wall_s must be >= 0")
            if not float(stage["tables_per_s"]) >= 0.0:
                raise ValueError(f"{where}[{name}].tables_per_s must be >= 0")
            if int(stage["sweeps"]) < 0:
                raise ValueError(f"{where}[{name}].sweeps must be >= 0")
            if int(stage["converged"]) < 0 or int(stage["abstained"]) < 0:
                raise ValueError(
                    f"{where}[{name}] has negative converged/abstained"
                )

    check_stages(record.get("stages"), "stages")
    if record.get("baseline") is not None:
        check_stages(record["baseline"], "baseline")
        speedups = record.get("speedup_vs_baseline")
        if not isinstance(speedups, dict) or "decode" not in speedups:
            raise ValueError("baseline present but speedup_vs_baseline incomplete")
        if not isinstance(record.get("identical_keys"), bool):
            raise ValueError("baseline present but identical_keys missing")
        if not isinstance(record.get("identical_abstains"), bool):
            raise ValueError("baseline present but identical_abstains missing")


def build_workload(
    key_bits: int, n_true: int, n_junk: int, bit_error_rate: float, seed: int
) -> tuple[np.ndarray, list[bytes]]:
    """True schedules flipped at the BER, padded with junk tables.

    Returns the observed table batch (true tables first) and the planted
    master keys, so the identity gate can also assert the decoders
    recover what was actually planted.
    """
    rng = np.random.default_rng(seed)
    key_len = key_bits // 8
    tables: list[np.ndarray] = []
    masters: list[bytes] = []
    for _ in range(n_true):
        master = rng.bytes(key_len)
        schedule = np.frombuffer(expand_key(master), dtype=np.uint8).copy()
        bits = np.unpackbits(schedule, bitorder="little")
        flips = rng.random(bits.size) < bit_error_rate
        noisy = np.packbits(bits ^ flips, bitorder="little")
        tables.append(noisy)
        masters.append(master)
    n_vars = tables[0].size
    for _ in range(n_junk):
        tables.append(rng.integers(0, 256, n_vars, dtype=np.uint8))
    return np.stack(tables), masters


def _recovered_keys(result: DecodeResult, key_bits: int) -> dict[int, bytes]:
    """Master keys read off the converged tables, by batch index."""
    key_len = key_bits // 8
    return {
        int(i): bytes(result.tables[i, :key_len])
        for i in np.flatnonzero(result.converged)
    }


def _stage(
    wall_s: float,
    result: DecodeResult,
    samples: list[float] | None = None,
    **extra: object,
) -> dict:
    batch = result.tables.shape[0]
    record = {
        "wall_s": wall_s,
        "tables_per_s": (batch / wall_s) if wall_s > 0 else 0.0,
        "sweeps": int(result.table_iterations.sum())
        if result.table_iterations is not None
        else int(result.iterations) * batch,
        "converged": int(result.converged.sum()),
        "abstained": int(batch - result.converged.sum()),
    }
    if samples is not None and len(samples) > 1:
        record["wall_s_samples"] = samples
    record.update(extra)
    return record


def run_benchmark(
    key_bits: int = DEFAULT_KEY_BITS,
    n_true: int = 4,
    n_junk: int = 28,
    bit_error_rate: float = DEFAULT_BIT_ERROR_RATE,
    seed: int = DEFAULT_SEED,
    max_iters: int = DEFAULT_MAX_ITERS,
    with_baseline: bool = True,
    smoke: bool = False,
    repeat: int = 1,
) -> dict:
    """Measure the decode stages on one pinned workload; return the record.

    ``repeat`` reruns the live-decoder measurements that many times and
    records the median; the frozen reference runs once — it is ~N×
    slower and not the thing whose noise we are smoothing.
    """
    observed, masters = build_workload(
        key_bits, n_true, n_junk, bit_error_rate, seed
    )
    batch = observed.shape[0]
    channel = ChannelModel.symmetric(bit_error_rate)
    print(
        f"[decode-harness] {batch} tables (AES-{key_bits}, {n_true} true, "
        f"ber={bit_error_rate}, seed={seed})"
    )

    decode_samples: list[float] = []
    fast = None
    for rep in range(repeat):
        start = time.perf_counter()
        fast = decode_schedule(
            observed, key_bits, channel, max_iters=max_iters
        )
        decode_samples.append(time.perf_counter() - start)
        print(
            f"[decode-harness] rep {rep + 1}/{repeat}: decode "
            f"{decode_samples[-1]:.2f}s ({int(fast.converged.sum())} converged"
            f"/{batch})"
        )

    fast_keys = _recovered_keys(fast, key_bits)
    planted = set(masters)
    if not planted <= set(fast_keys.values()):
        raise SystemExit(
            "[decode-harness] FATAL: decode failed to recover every "
            "planted master key"
        )

    record: dict = {
        "schema": BENCH_SCHEMA,
        "config": {
            "key_bits": key_bits,
            "batch": batch,
            "n_true": n_true,
            "seed": seed,
            "bit_error_rate": bit_error_rate,
            "max_iters": max_iters,
            "smoke": smoke,
            "repeat": repeat,
        },
        "stages": {
            "decode": _stage(
                statistics.median(decode_samples), fast,
                samples=decode_samples,
            ),
        },
        "baseline": None,
    }

    if with_baseline:
        # Per-table and sequential: the shape the seed's decode loop had
        # before batching, which is what the decoded-rung wall clock was
        # actually made of.
        start = time.perf_counter()
        parts = [
            legacy_decode_schedules(
                observed[i], key_bits, channel, max_iters=max_iters
            )
            for i in range(batch)
        ]
        legacy_s = time.perf_counter() - start
        legacy_converged = np.array([bool(p.converged[0]) for p in parts])
        legacy_tables = np.stack([p.tables[0] for p in parts])
        legacy_sweeps = sum(int(p.iterations) for p in parts)
        legacy_keys = {
            int(i): bytes(legacy_tables[i, : key_bits // 8])
            for i in np.flatnonzero(legacy_converged)
        }
        identical_abstains = bool(
            np.array_equal(fast.converged, legacy_converged)
        )
        identical_keys = identical_abstains and fast_keys == legacy_keys and all(
            np.array_equal(fast.tables[i], legacy_tables[i])
            for i in fast_keys
        )
        legacy = DecodeResult(
            tables=legacy_tables,
            converged=legacy_converged,
            iterations=max(int(p.iterations) for p in parts),
            syndrome_weight=np.concatenate([p.syndrome_weight for p in parts]),
            posterior_entropy=np.concatenate(
                [p.posterior_entropy for p in parts]
            ),
            certainty=np.concatenate([p.certainty for p in parts]),
        )
        record["baseline"] = {
            "decode": _stage(legacy_s, legacy, sweeps=legacy_sweeps),
        }
        record["identical_keys"] = identical_keys
        record["identical_abstains"] = identical_abstains
        record["speedup_vs_baseline"] = {
            "decode": (legacy_s / record["stages"]["decode"]["wall_s"])
            if record["stages"]["decode"]["wall_s"] > 0
            else float("inf"),
        }
        speedup = record["speedup_vs_baseline"]["decode"]
        print(
            f"[decode-harness] baseline {legacy_s:.2f}s "
            f"({legacy_sweeps} sweeps); speedup {speedup:.2f}x; "
            f"identical keys: {identical_keys}, "
            f"identical abstains: {identical_abstains}"
        )
        if not identical_keys or not identical_abstains:
            raise SystemExit(
                "[decode-harness] FATAL: live decoder and frozen reference "
                "disagree on recovered keys or abstain decisions"
            )
    return record


def main(argv: list[str] | None = None) -> int:
    # allow_abbrev: a typo'd --smok must not silently run (and overwrite
    # the output record) as --smoke.
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--key-bits", type=int, default=DEFAULT_KEY_BITS,
                        choices=(128, 192, 256))
    parser.add_argument("--n-true", type=int, default=4,
                        help="planted true schedules (default 4)")
    parser.add_argument("--n-junk", type=int, default=28,
                        help="junk tables padding the batch (default 28)")
    parser.add_argument("--bit-error-rate", type=float,
                        default=DEFAULT_BIT_ERROR_RATE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the frozen-reference baseline run")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: 8-table batch, baseline included")
    parser.add_argument("--repeat", type=int, default=1,
                        help="measure the live decoder N times, record "
                             "medians (default 1)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="regression gate: exit non-zero unless the "
                             "decode speedup vs the frozen reference reaches "
                             "this floor with identical keys and abstains")
    parser.add_argument("--output", default="BENCH_decode.json",
                        help="where to write the record (default "
                             "BENCH_decode.json)")
    args = parser.parse_args(argv)
    if args.n_true < 1:
        parser.error("--n-true must be at least 1")
    if args.n_junk < 0:
        parser.error("--n-junk must be >= 0")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.min_speedup is not None and args.no_baseline:
        parser.error("--min-speedup needs the baseline (drop --no-baseline)")

    n_true = 2 if args.smoke else args.n_true
    n_junk = 6 if args.smoke else args.n_junk
    record = run_benchmark(
        key_bits=args.key_bits,
        n_true=n_true,
        n_junk=n_junk,
        bit_error_rate=args.bit_error_rate,
        seed=args.seed,
        max_iters=args.max_iters,
        with_baseline=not args.no_baseline,
        smoke=args.smoke,
        repeat=args.repeat,
    )
    validate_bench_record(record)
    Path(args.output).write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(f"[decode-harness] wrote {args.output}")

    if args.min_speedup is not None:
        speedup = record["speedup_vs_baseline"]["decode"]
        if speedup < args.min_speedup:
            print(
                f"[decode-harness] GATE FAILED: decode speedup "
                f"{speedup:.2f}x (floor {args.min_speedup:.2f}x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"[decode-harness] gate passed: {speedup:.2f}x >= "
            f"{args.min_speedup:.2f}x, identical keys and abstains"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
