#!/usr/bin/env python
"""Peak memory of one cold boot pass, against the stated bound.

Runs the paper's attack once in this process: boot a Skylake victim,
fill its module, mount a VeraCrypt volume, boot the attacker, freeze
and transfer the module at −25 °C for 5 s, dump it, and run the
two-shard fused scan on two threads.  It reads the RSS once the victim
contents are built and the RSS high-water mark (VmHWM, never reset)
once the pass is done, and prints one JSON line::

    python benchmarks/coldboot_footprint.py --size-mib 64
    python benchmarks/coldboot_footprint.py --size-mib 1024   # ~3.5 GiB peak

The bound (``docs/performance.md`` §9): the pass may add at most
:data:`GROWTH_PER_MODULE_MIB` MiB per MiB of module, plus
:data:`FIXED_GROWTH_MIB`, to what the process holds once the contents
are built.  The pass needs two copies of the module, its cells and the
dump; the rest of the allowance is headroom.  The exit status is
non-zero unless both XTS halves are recovered and the growth is within
the bound.  Linux only: the readings come from ``/proc/self/status``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.attack.coldboot import TransferConditions, cold_boot_transfer  # noqa: E402
from repro.attack.pipeline import Ddr4ColdBootAttack  # noqa: E402
from repro.util.rng import derive_seed  # noqa: E402
from repro.victim.machine import TABLE_I_MACHINES, Machine  # noqa: E402
from repro.victim.workload import synthesize_memory  # noqa: E402

#: Peak growth allowed per MiB of module (the slope of the bound).
GROWTH_PER_MODULE_MIB = 2.5
#: Peak growth allowed whatever the module size (the scan's tables,
#: thread stacks, the mined key pool).
FIXED_GROWTH_MIB = 128.0

PAGE = 4096
#: Victim contents start here, clear of the boot-polluted low memory.
CONTENTS_AT = 64 * 1024
#: Seeds the contents, the machines and the key table's address.
SEED = 21


def _status_mib(field: str) -> float:
    text = Path("/proc/self/status").read_text(encoding="ascii")
    return int(re.search(rf"^{field}:\s+(\d+) kB", text, re.MULTILINE).group(1)) / 1024.0


def victim_contents(memory_bytes: int, seed: int) -> bytearray:
    """Pages drawn from a 1 MiB ``synthesize_memory`` pool, 35 % zeroed.

    Built in place, 1 MiB at a time, so set-up never holds a second
    copy of the contents.
    """
    pool, _ = synthesize_memory(1 << 20, zero_fraction=0.0, seed=seed)
    pages = np.frombuffer(pool, dtype=np.uint8).reshape(-1, PAGE)
    rng = np.random.Generator(np.random.PCG64(derive_seed("coldboot-footprint", seed)))
    n_pages = (memory_bytes - CONTENTS_AT) // PAGE
    contents = bytearray(n_pages * PAGE)
    view = np.frombuffer(contents, dtype=np.uint8).reshape(n_pages, PAGE)
    for start in range(0, n_pages, 256):
        rows = view[start : start + 256]
        rows[:] = pages[rng.integers(0, len(pages), size=len(rows))]
        rows[rng.random(len(rows)) < 0.35] = 0
    return contents


def measure(size_mib: int) -> dict:
    """One pass at ``size_mib``; its readings and whether both keys came back."""
    memory = size_mib << 20
    contents = victim_contents(memory, SEED)
    key_table_address = CONTENTS_AT + int(
        np.random.Generator(np.random.PCG64(SEED)).integers(0, memory - 2 * CONTENTS_AT)
    )
    contents_rss = _status_mib("VmRSS")
    start = time.perf_counter()
    victim = Machine(TABLE_I_MACHINES["i5-6400"], memory_bytes=memory, machine_id=2 * SEED + 1)
    victim.write(CONTENTS_AT, contents)
    volume = victim.mount_encrypted_volume(
        f"footprint {SEED}".encode(), key_table_address=key_table_address
    )
    attacker = Machine(TABLE_I_MACHINES["i5-6600K"], memory_bytes=memory, machine_id=2 * SEED + 2)
    dump = cold_boot_transfer(
        victim, attacker, TransferConditions(temperature_c=-25.0, transfer_seconds=5.0)
    )
    report = Ddr4ColdBootAttack().run_sharded(dump, workers=2, n_shards=2)
    wall_s = time.perf_counter() - start
    peak = _status_mib("VmHWM")
    master = volume.master_key
    growth = peak - contents_rss
    bound = GROWTH_PER_MODULE_MIB * size_mib + FIXED_GROWTH_MIB
    return {
        "module_mib": size_mib,
        "contents_rss_mib": round(contents_rss, 1),
        "peak_rss_mib": round(peak, 1),
        "growth_mib": round(growth, 1),
        "bound_mib": bound,
        "exact_keys": len({master[:32], master[32:]} & set(report.master_keys)),
        "keys": len(report.master_keys),
        "wall_s": round(wall_s, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size-mib", type=int, default=64, help="module size (default 64)")
    args = parser.parse_args(argv)
    if args.size_mib < 1:
        parser.error("--size-mib must be at least 1")
    record = measure(args.size_mib)
    print(json.dumps(record))
    ok = record["exact_keys"] == record["keys"] == 2 and record["growth_mib"] <= record["bound_mib"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
