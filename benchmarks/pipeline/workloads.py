"""The four workloads: inputs from a seed, one pass, and its verdict.

Every workload drives the entry points a user calls and checks every
recovered key against the planted ground truth.  A *unit* is what a
user waits for — one whole pass for the three batch workloads, one job
for the service — and every end-to-end metric is a median over units.

Why these four, and what each is predicted to exercise, is in
``README.md`` beside this file.
"""

from __future__ import annotations

import itertools
import json
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.attack import adaptive, coldboot, pipeline, sweep
from repro.dram.image import MemoryImage
from repro.resilience.errors import UnknownJobError
from repro.resilience.shutdown import GracefulShutdown
from repro.service import client, server
from repro.service.jobstore import DONE, TERMINAL_STATES, JobSpec
from repro.util.rng import derive_seed
from repro.victim import machine
from repro.victim.workload import synthesize_memory

from benchmarks.pipeline import trace

PAGE = 4096


@dataclass
class Unit:
    """One unit of user-visible work and its verdict."""

    wall_s: float
    exact: int
    spurious: int
    failed: bool


@dataclass
class PassResult:
    """What one pass produced; ``dues`` maps service job ids to due times."""

    units: list[Unit]
    dues: dict[str, float] = field(default_factory=dict)


def score(recovered: list[bytes], planted: set[bytes]) -> tuple[int, int]:
    """``(exact, spurious)``: planted keys recovered, and every other output.

    Each output key must be a distinct planted key, so a wrong key and
    a second copy of a right one both count as spurious.
    """
    exact = len(planted.intersection(recovered))
    return exact, len(recovered) - exact


def judge(wall_s: float, recovered: list[bytes], planted: set[bytes], state: str = DONE) -> Unit:
    """A unit fails unless it ended DONE with exactly the planted keys."""
    exact, spurious = score(recovered, planted)
    failed = state != DONE or spurious > 0 or exact < len(planted)
    return Unit(wall_s=wall_s, exact=exact, spurious=spurious, failed=failed)


def xts_halves(master: bytes) -> set[bytes]:
    """The two AES-256 keys of a 64-byte XTS master key."""
    return {master[:32], master[32:]}


def permute_regions(dump: MemoryImage, index: int) -> MemoryImage:
    """``dump`` with its 256 KiB regions in permutation ``index`` (mod n!).

    A region is the adaptive engine's triage unit and a multiple of the
    scrambler key period, so a permuted dump holds the same keys and the
    same junk at other places: a different input that asks for the same
    work.
    """
    region = adaptive.DEFAULT_REGION_BYTES
    pieces = [bytes(dump.data[i : i + region]) for i in range(0, len(dump), region)]
    orders = list(itertools.permutations(range(len(pieces))))
    return MemoryImage(b"".join(pieces[i] for i in orders[index % len(orders)]))


def _violations(metrics: dict, rules: dict[str, str]) -> list[str]:
    """Rules are ``metric: "zero" | "positive"``; absent metrics are skipped."""
    broken = []
    for name, want in rules.items():
        if name not in metrics:
            continue
        value = metrics[name]
        if (want == "zero") != (value == 0):
            broken.append(f"{name}={value:g}, predicted {want}")
    return broken


_MACHINE_METRICS = tuple(f"{name}_s" for name in trace.MACHINE_SPANS)


class Workload:
    """Base for one benchmark workload."""

    name = ""
    #: The seed a run uses when none is given.
    default_seed = 0
    #: A seed that builds other inputs than ``default_seed`` and must
    #: keep the workload's layer mix (see :meth:`layer_mix`).
    held_out_seed = 0
    #: ``metric: "zero" | "positive"`` — which layers the workload must
    #: (and must not) exercise.
    mix: dict[str, str] = {}

    def setup(self, seed: int, toy: bool, workdir: Path):
        raise NotImplementedError

    def run(self, inputs, tracer) -> PassResult:
        raise NotImplementedError

    def layer_mix(self, metrics: dict) -> list[str]:
        return _violations(metrics, self.mix)


# ------------------------------------------------------------------ coldboot


@dataclass
class ColdbootInputs:
    memory_bytes: int
    contents: bytes
    key_table_address: int
    password: bytes
    victim_id: int
    attacker_id: int


class ColdbootWorkload(Workload):
    """The paper's physical experiment, §III-A/C, end to end.

    The run seed picks a scenario from :attr:`SCENARIOS`, scenario seeds
    on which a pass recovered both keys.  Decay is seeded from the
    module serial, so a scenario's outcome is fixed, and the strict scan
    misses a key schedule on about one scenario in seventy: on scenario
    68 the tweak schedule (18 of its 1920 bits decayed) gets no hit.
    """

    name = "coldboot-64mib"
    default_seed = 21
    held_out_seed = 37
    mix = {
        **dict.fromkeys(_MACHINE_METRICS, "positive"),
        "aes_search.scan_fused_s": "positive",
        "aes_search.scan_radius1_s": "zero",
        "decode.calls": "zero",
    }

    #: Victim contents start here, clear of the boot-polluted low memory.
    CONTENTS_AT = 64 * 1024
    #: Run seed ``s`` runs scenario ``SCENARIOS[s % len(SCENARIOS)]``, so
    #: seeds 0–67 are their own scenario.
    SCENARIOS = tuple(s for s in range(72) if s != 68)

    def setup(self, seed: int, toy: bool, workdir: Path) -> ColdbootInputs:
        """Victim contents resampled from ``synthesize_memory`` pages.

        Synthesizing 64 MiB page by page takes seconds, which set-up
        (repeated every run) cannot afford.  Each page is instead zero
        with probability 0.35 — ``synthesize_memory``'s own per-page
        rule at ``zero_fraction=0.35`` — and otherwise a copy of one of
        its text/code/heap pages from a 1 MiB pool.
        """
        seed = self.SCENARIOS[seed % len(self.SCENARIOS)]
        memory = (4 if toy else 64) << 20
        pool, _ = synthesize_memory((256 if toy else 1024) * 1024, zero_fraction=0.0, seed=seed)
        pages = np.frombuffer(pool, dtype=np.uint8).reshape(-1, PAGE)
        rng = np.random.Generator(np.random.PCG64(derive_seed("bench-coldboot", seed)))
        n_pages = (memory - self.CONTENTS_AT) // PAGE
        chosen = pages[rng.integers(0, pages.shape[0], size=n_pages)]
        chosen[rng.random(n_pages) < 0.35] = 0
        return ColdbootInputs(
            memory_bytes=memory,
            contents=chosen.tobytes(),
            key_table_address=self.CONTENTS_AT
            + int(rng.integers(0, memory - 2 * self.CONTENTS_AT)),
            password=f"bench password {seed}".encode(),
            victim_id=2 * seed + 1,
            attacker_id=2 * seed + 2,
        )

    def run(self, inputs: ColdbootInputs, tracer) -> PassResult:
        start = time.perf_counter()
        with tracer.span("pass"):
            victim = machine.Machine(
                machine.TABLE_I_MACHINES["i5-6400"],
                memory_bytes=inputs.memory_bytes,
                machine_id=inputs.victim_id,
            )
            victim.write(self.CONTENTS_AT, inputs.contents)
            volume = victim.mount_encrypted_volume(
                inputs.password, key_table_address=inputs.key_table_address
            )
            attacker = machine.Machine(
                machine.TABLE_I_MACHINES["i5-6600K"],
                memory_bytes=inputs.memory_bytes,
                machine_id=inputs.attacker_id,
            )
            dump = coldboot.cold_boot_transfer(
                victim,
                attacker,
                coldboot.TransferConditions(temperature_c=-25.0, transfer_seconds=5.0),
            )
            report = pipeline.Ddr4ColdBootAttack().run_sharded(dump, workers=2, n_shards=2)
        wall = time.perf_counter() - start
        return PassResult([judge(wall, report.master_keys, xts_halves(volume.master_key))])


# ------------------------------------------------------------------ adaptive


@dataclass
class AdaptiveInputs:
    dump: MemoryImage
    planted: set[bytes]


class AdaptiveWorkload(Workload):
    """``AdaptiveRecoveryEngine.recover`` on one decayed synthetic dump.

    The dump is ``synthetic_dump(ber, seed=5)`` for every run.  At these
    error rates both the decode load and the outcome depend on the
    decay realisation — on ``synthetic_dump`` seeds 1, 2, 3, 5 and 6 the
    0.024 run decodes 0 to 908 tables, and seeds 1, 3 and 6 return
    spurious keys — so a dump drawn per seed would make the run-to-run
    spread exceed any usable bound.  The run seed picks one of the
    dump's six :func:`permute_regions` orders instead.
    """

    SCENARIO_SEED = 5
    default_seed = 0
    held_out_seed = 4

    def __init__(self, name: str, ber: float, mix: dict[str, str]) -> None:
        self.name = name
        self.ber = ber
        self.mix = {
            **dict.fromkeys(_MACHINE_METRICS, "zero"),
            "aes_search.scan_radius1_s": "positive",
            "decode.tables": "positive",
            **mix,
        }

    def setup(self, seed: int, toy: bool, workdir: Path) -> AdaptiveInputs:
        dump, master, _ = sweep.synthetic_dump(
            0.002 if toy else self.ber, seed=self.SCENARIO_SEED
        )
        return AdaptiveInputs(permute_regions(dump, seed), xts_halves(master))

    def run(self, inputs: AdaptiveInputs, tracer) -> PassResult:
        start = time.perf_counter()
        with tracer.span("pass"):
            result = adaptive.AdaptiveRecoveryEngine(total_work=10).recover(inputs.dump)
        wall = time.perf_counter() - start
        return PassResult([judge(wall, result.masters, inputs.planted)])


# ------------------------------------------------------------------- service


@dataclass
class ServiceInputs:
    workdir: Path
    #: One ``(dump file, planted keys)`` per job, in submission order.
    jobs: list[tuple[Path, set[bytes]]]
    interval_s: float


class ServiceWorkload(Workload):
    """An open loop of submissions to one in-process job engine.

    The engine runs one job at a time (``workers=1``): with two job
    workers the concurrent in-process scans share
    ``repro.attack.parallel``'s module-level worker state, and shards
    fail and retry (see the README's known defects).  Each job scans
    with two threads, so at most two threads work at once.  Jobs are due on a
    fixed schedule whatever the engine's progress; each job's latency
    runs from its due time to its ``DONE`` record.

    A pass is one window of :attr:`JOBS` submissions to a fresh engine.
    Job dumps are ``synthetic_dump(0.002)`` at the pinned seeds 5 and 6,
    taken in turns.  A dump's scan cost is set mostly by how many junk
    hits it has to reconstruct, which varies from dump to dump (29 per
    job for seed 1's dumps, 46 for seed 2's; over seeds 1–10 the median
    job latency ranged from 1.34 to 1.93 s), so the run seed only picks
    each job's :func:`permute_regions` order: job ``i`` takes order
    ``(seed + i) mod 6``, so seeds equal mod 6 give the same inputs.
    """

    name = "service-open-loop"
    default_seed = 5
    held_out_seed = 8
    mix = {
        **dict.fromkeys(_MACHINE_METRICS, "zero"),
        "aes_search.scan_radius1_s": "zero",
        "decode.calls": "zero",
        "service.run_s": "positive",
    }
    #: A job not terminal this long after its due time counts as failed.
    JOB_TIMEOUT_S = 120.0
    #: Jobs submitted per pass, one due every ``interval_s``.
    JOBS = 3

    DUMP_SEEDS = (5, 6)

    def setup(self, seed: int, toy: bool, workdir: Path) -> ServiceInputs:
        dumps = [sweep.synthetic_dump(0.002, seed=pinned) for pinned in self.DUMP_SEEDS]
        jobs = []
        for index in range(2 if toy else self.JOBS):
            dump, master, _ = dumps[index % len(dumps)]
            path = workdir / f"job-{index:02d}.bin"
            permute_regions(dump, seed + index).save(path)
            jobs.append((path, xts_halves(master)))
        return ServiceInputs(workdir=workdir, jobs=jobs, interval_s=0.5 if toy else 2.5)

    def run(self, inputs: ServiceInputs, tracer) -> PassResult:
        service_dir = Path(tempfile.mkdtemp(prefix="service-", dir=inputs.workdir))
        engine = server.JobEngine(service_dir, workers=1, poll_interval_s=0.05)
        stop = GracefulShutdown()
        loop = threading.Thread(
            target=engine.serve_forever, kwargs={"stop": stop}, name="bench-engine"
        )
        loop.start()
        dues: dict[str, float] = {}
        planted: dict[str, set[bytes]] = {}
        try:
            origin, wall_origin = time.perf_counter(), time.time()
            for index, (path, keys) in enumerate(inputs.jobs):
                job_id = f"job-{index:02d}"
                due = origin + index * inputs.interval_s
                time.sleep(max(0.0, due - time.perf_counter()))
                dues[job_id], planted[job_id] = due, keys
                client.submit_job(
                    service_dir, JobSpec(job_id=job_id, dump=str(path), n_shards=2, scan_workers=2)
                )
            jobs = self._wait_terminal(engine, dues)
            units = []
            for job_id, due in dues.items():
                job = jobs.get(job_id)
                if job is None:
                    units.append(Unit(self.JOB_TIMEOUT_S, 0, 0, failed=True))
                    continue
                recovered = []
                if job.state == DONE:
                    report = json.loads(Path(job.report_path).read_text(encoding="utf-8"))
                    recovered = [bytes.fromhex(k["master_key"]) for k in report["recovered_keys"]]
                latency = job.finished_at - (wall_origin + due - origin)
                units.append(judge(latency, recovered, planted[job_id], state=job.state))
        finally:
            stop.request("benchmark finished")
            loop.join(timeout=60.0)
            shutil.rmtree(service_dir, ignore_errors=True)
        return PassResult(units, dues)

    def _wait_terminal(self, engine: server.JobEngine, dues: dict[str, float]) -> dict:
        """Poll the engine until every job is terminal, rejected or late."""
        deadline = max(dues.values()) + self.JOB_TIMEOUT_S
        jobs = {}
        pending = set(dues)
        while pending and time.perf_counter() < deadline:
            for job_id in sorted(pending):
                if engine.dirs.rejection(job_id).exists():
                    pending.discard(job_id)
                    continue
                try:
                    job = engine.store.get(job_id)
                except UnknownJobError:
                    continue
                if job.state in TERMINAL_STATES:
                    jobs[job_id] = job
                    pending.discard(job_id)
            time.sleep(0.02)
        return jobs


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        ColdbootWorkload(),
        AdaptiveWorkload(
            "adaptive-ber-0.024",
            0.024,
            {"adaptive.rung.calibrated_s": "positive", "adaptive.rung.decoded_s": "positive"},
        ),
        AdaptiveWorkload(
            "adaptive-ber-0.040",
            0.040,
            {"adaptive.rung.calibrated_s": "zero", "adaptive.rung.decoded_s": "positive"},
        ),
        ServiceWorkload(),
    )
}
