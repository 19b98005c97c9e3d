#!/usr/bin/env python
"""Machine-throughput harness: time the simulated memory system itself.

Boots a Table-I Skylake victim, fills its whole module through the
scrambling controller, dumps it back through the descrambler, and
decays the raw image — then repeats every stage on the preserved seed
implementation (:mod:`benchmarks.legacy_machine`), asserts the bulk and
legacy paths produce **byte-identical** scrambled contents, plaintext
dumps and (on the dense decay path, at and above
``SPARSE_DECAY_THRESHOLD``) decayed images, and writes the measurements
to ``BENCH_machine.json``::

    python benchmarks/machine_harness.py              # 64 MiB reference run
    python benchmarks/machine_harness.py --smoke      # CI-sized quick pass
    python benchmarks/machine_harness.py --size-mib 16 --no-baseline

Every stage record has the same shape — ``{"wall_s": float,
"mib_per_s": float}`` — and ``end_to_end`` is the boot+fill+dump+decay
sum (the cost of simulating one machine's life and its cold transfer).
The default decay is the −25 °C, 5 s transfer's flip probability, the
one the cold boot experiment pays.
The record is refused (no file written, non-zero exit) unless the two
paths agree byte for byte.  See ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_REPO_ROOT / "src"), str(_REPO_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from repro.dram.cells import SPARSE_DECAY_THRESHOLD, apply_decay  # noqa: E402
from repro.dram.module import DramModule  # noqa: E402
from repro.scrambler.base import bios_seed  # noqa: E402
from repro.scrambler.ddr3 import Ddr3Scrambler  # noqa: E402
from repro.scrambler.ddr4 import Ddr4Scrambler  # noqa: E402
from repro.util.rng import SplitMix64, derive_seed  # noqa: E402
from repro.victim.machine import (  # noqa: E402
    BOOT_POLLUTION_BYTES,
    TABLE_I_MACHINES,
    Machine,
)

from benchmarks.legacy_machine import (  # noqa: E402
    LegacyMemoryController,
    legacy_apply_decay,
    legacy_warm_key_pool,
)

#: Schema tag written into (and required from) every BENCH_machine.json.
BENCH_SCHEMA = "bench-machine/v1"
#: Required fields of every stage record.
STAGE_FIELDS = ("wall_s", "mib_per_s")
#: Stages a complete record must report.
REQUIRED_STAGES = ("boot", "fill", "dump", "decay", "end_to_end")
#: Stages whose sum defines end_to_end.
END_TO_END_STAGES = ("boot", "fill", "dump", "decay")

#: Pinned defaults — change them and historical records stop comparing.
DEFAULT_SEED = 7
DEFAULT_MACHINE = "i5-6400"
#: The −25 °C, 5 s transfer's flip probability (``DDR4_A``), on the
#: dense decay path; records taken at the old 0.001 do not compare.
DEFAULT_DECAY_P = 0.016474


def validate_bench_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the harness schema."""
    if record.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"schema must be {BENCH_SCHEMA!r}, got {record.get('schema')!r}")
    config = record.get("config")
    if not isinstance(config, dict):
        raise ValueError("missing config object")
    for field in ("size_mib", "machine", "seed", "decay_flip_probability"):
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
            if not float(stage["mib_per_s"]) >= 0.0:
                raise ValueError(f"{where}[{name}].mib_per_s must be >= 0")

    check_stages(record.get("stages"), "stages")
    if record.get("baseline") is not None:
        check_stages(record["baseline"], "baseline")
        speedups = record.get("speedup_vs_baseline")
        if not isinstance(speedups, dict) or "end_to_end" not in speedups:
            raise ValueError("baseline present but speedup_vs_baseline incomplete")
        if record.get("identical_dumps") is not True:
            raise ValueError("baseline present but identical_dumps is not true")


def _stage(wall_s: float, size_mib: float) -> dict:
    return {
        "wall_s": wall_s,
        "mib_per_s": (size_mib / wall_s) if wall_s > 0 else 0.0,
    }


def _fill_payload(size: int, seed: int) -> bytes:
    """Deterministic whole-module fill pattern."""
    rng = np.random.Generator(np.random.PCG64(derive_seed("bench-machine-fill", seed)))
    return rng.integers(0, 256, size, dtype=np.uint8).tobytes()


def _scrambled_contents(modules: dict) -> bytes:
    """Raw (post-scrambler) cell contents, concatenated by channel."""
    return b"".join(modules[channel].dump() for channel in sorted(modules))


def _end_to_end(stages: dict, size_mib: float) -> dict:
    return _stage(sum(stages[name]["wall_s"] for name in END_TO_END_STAGES), size_mib)


def _run_fast(
    spec, size: int, seed: int, payload: bytes, decay_p: float
) -> tuple[dict, bytes, bytes, np.ndarray]:
    """Time the bulk path; returns (stages, scrambled contents, dump,
    decayed contents)."""
    size_mib = size / (1 << 20)

    start = time.perf_counter()
    machine = Machine(spec, memory_bytes=size, machine_id=seed)
    for channel in machine.modules:
        machine.scrambler.key_pool(channel)
    boot_s = time.perf_counter() - start

    start = time.perf_counter()
    machine.write(0, payload)
    fill_s = time.perf_counter() - start

    start = time.perf_counter()
    image = machine.bare_metal_dump(0, size)
    dump_s = time.perf_counter() - start
    plain = bytes(image.data)

    scrambled = _scrambled_contents(machine.modules)
    raw = np.frombuffer(scrambled, dtype=np.uint8).copy()
    ground = np.concatenate(
        [machine.modules[ch].ground_state[:] for ch in sorted(machine.modules)]
    )
    rng = np.random.Generator(np.random.PCG64(derive_seed("bench-machine-decay", seed)))
    start = time.perf_counter()
    flips = apply_decay(raw, ground, decay_p, rng)
    decay_s = time.perf_counter() - start

    stages = {
        "boot": _stage(boot_s, size_mib),
        "fill": _stage(fill_s, size_mib),
        "dump": _stage(dump_s, size_mib),
        "decay": {**_stage(decay_s, size_mib), "flips": flips},
    }
    stages["end_to_end"] = _end_to_end(stages, size_mib)
    return stages, scrambled, plain, raw


def _run_legacy(
    spec, size: int, seed: int, payload: bytes, decay_p: float
) -> tuple[dict, bytes, bytes, np.ndarray]:
    """Time the frozen seed path on an identically configured machine."""
    from repro.dram.address import address_map_for

    size_mib = size / (1 << 20)
    address_map = address_map_for(spec.microarchitecture, spec.channels)
    profile = "DDR4_A" if spec.ddr_generation == "DDR4" else "DDR3_A"
    boot = bios_seed(1, spec.bios_resets_seed, seed)

    start = time.perf_counter()
    modules = {
        ch: DramModule(
            size // spec.channels, profile, serial=derive_seed("dimm", seed, ch)
        )
        for ch in range(spec.channels)
    }
    scrambler_cls = Ddr4Scrambler if spec.ddr_generation == "DDR4" else Ddr3Scrambler
    scrambler = scrambler_cls(boot, address_map, spec.microarchitecture)
    for channel in range(spec.channels):
        legacy_warm_key_pool(scrambler, channel)
    controller = LegacyMemoryController(address_map, modules, scrambler)
    firmware = SplitMix64(derive_seed("boot-pollution", seed, 1))
    controller.write(0, firmware.next_bytes(BOOT_POLLUTION_BYTES))
    boot_s = time.perf_counter() - start

    start = time.perf_counter()
    controller.write(0, payload)
    fill_s = time.perf_counter() - start

    start = time.perf_counter()
    plain = controller.read(0, size)
    dump_s = time.perf_counter() - start

    scrambled = _scrambled_contents(modules)
    raw = np.frombuffer(scrambled, dtype=np.uint8).copy()
    ground = np.concatenate([modules[ch].ground_state[:] for ch in sorted(modules)])
    rng = np.random.Generator(np.random.PCG64(derive_seed("bench-machine-decay", seed)))
    start = time.perf_counter()
    flips = legacy_apply_decay(raw, ground, decay_p, rng)
    decay_s = time.perf_counter() - start

    stages = {
        "boot": _stage(boot_s, size_mib),
        "fill": _stage(fill_s, size_mib),
        "dump": _stage(dump_s, size_mib),
        "decay": {**_stage(decay_s, size_mib), "flips": flips},
    }
    stages["end_to_end"] = _end_to_end(stages, size_mib)
    return stages, scrambled, plain, raw


def run_benchmark(
    size_mib: int,
    seed: int = DEFAULT_SEED,
    machine_name: str = DEFAULT_MACHINE,
    decay_p: float = DEFAULT_DECAY_P,
    with_baseline: bool = True,
    smoke: bool = False,
) -> dict:
    """Measure every machine stage at ``size_mib``; return the JSON record."""
    spec = TABLE_I_MACHINES[machine_name]
    size = size_mib << 20
    print(f"[machine-harness] {machine_name}, {size_mib} MiB, seed={seed}")
    payload = _fill_payload(size, seed)

    stages, scrambled, plain, decayed = _run_fast(spec, size, seed, payload, decay_p)
    if plain != payload:
        raise SystemExit(
            "[machine-harness] FATAL: descrambled dump does not round-trip the fill"
        )
    for name in ("boot", "fill", "dump", "decay"):
        print(
            f"[machine-harness] {name}: {stages[name]['wall_s']:.3f}s "
            f"({stages[name]['mib_per_s']:.0f} MiB/s)"
        )

    record: dict = {
        "schema": BENCH_SCHEMA,
        "config": {
            "size_mib": size_mib,
            "machine": machine_name,
            "seed": seed,
            "decay_flip_probability": decay_p,
            "smoke": smoke,
        },
        "stages": stages,
        "baseline": None,
    }

    if with_baseline:
        base, base_scrambled, base_plain, base_decayed = _run_legacy(
            spec, size, seed, payload, decay_p
        )
        identical = scrambled == base_scrambled and plain == base_plain
        # Below the threshold the sparse sampler flips other bits than
        # the frozen dense draw, so only the dense path can be compared.
        if decay_p >= SPARSE_DECAY_THRESHOLD:
            identical = identical and np.array_equal(decayed, base_decayed)
        print(
            f"[machine-harness] baseline boot: {base['boot']['wall_s']:.2f}s, "
            f"fill: {base['fill']['wall_s']:.2f}s, dump: {base['dump']['wall_s']:.2f}s, "
            f"decay: {base['decay']['wall_s']:.2f}s; identical dumps: {identical}"
        )
        if not identical:
            raise SystemExit(
                "[machine-harness] FATAL: bulk and legacy paths disagree on "
                "scrambled contents, dump bytes or the decayed image — "
                "refusing to emit a record"
            )
        record["baseline"] = base
        record["identical_dumps"] = identical
        record["speedup_vs_baseline"] = {
            name: (base[name]["wall_s"] / stages[name]["wall_s"])
            if stages[name]["wall_s"] > 0
            else float("inf")
            for name in REQUIRED_STAGES
        }
        speedups = record["speedup_vs_baseline"]
        print(
            "[machine-harness] speedup vs seed: "
            + ", ".join(f"{name} {speedups[name]:.1f}x" for name in REQUIRED_STAGES)
        )
    return record


def main(argv: list[str] | None = None) -> int:
    # allow_abbrev: a typo'd --smok must not silently run (and overwrite
    # the output record) as --smoke.
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--size-mib", type=int, default=64,
                        help="module size in MiB (default 64)")
    parser.add_argument("--machine", default=DEFAULT_MACHINE,
                        choices=sorted(TABLE_I_MACHINES),
                        help=f"Table-I machine to simulate (default {DEFAULT_MACHINE})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--decay-p", type=float, default=DEFAULT_DECAY_P,
                        help="per-bit flip probability for the decay stage")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the seed-implementation baseline run")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: 4 MiB module, baseline included")
    parser.add_argument("--output", default="BENCH_machine.json",
                        help="where to write the JSON record (default BENCH_machine.json)")
    args = parser.parse_args(argv)
    if args.size_mib < 1:
        parser.error("--size-mib must be at least 1")

    size_mib = 4 if args.smoke else args.size_mib
    record = run_benchmark(
        size_mib=size_mib,
        seed=args.seed,
        machine_name=args.machine,
        decay_p=args.decay_p,
        with_baseline=not args.no_baseline,
        smoke=args.smoke,
    )
    validate_bench_record(record)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"[machine-harness] wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
