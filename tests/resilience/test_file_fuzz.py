"""Fuzz the durable files at their boundaries.

Each file is written by its real writer — a shard checkpoint journal, a
job WAL (events and a rotation snapshot), a decode-state sidecar, a
memory dump and a spooled submission — then damaged three ways: cut at
every byte, one bit flipped at every byte, and one line (or entry)
swapped for a record of the wrong shape whose CRC is valid.  Every
entry point that reads the damaged file must return or raise a
:class:`~repro.resilience.errors.ReproError`, never anything else.

Beyond "no traceback", the properties that make a resume trustworthy:

* a cut loses only the record it tears — a journal or WAL cut inside
  its last line loads everything before that line;
* a flip never replays a changed record (the per-line CRC catches it);
* ``verify_journal_file`` (the CLI's ``--resume`` preflight) raises
  exactly when ``CheckpointJournal.open(resume=True)`` with the
  journal's own header raises; an empty file, which ``open`` treats as
  a fresh start, has nothing to resume and fails the preflight;
* ``replay_jobs`` (read-only) and ``JobStore.open`` (repairing) agree.
"""

import copy
import json
import math
from unittest import mock

import numpy as np
import pytest

from repro.attack.aes_search import RecoveredAesKey, ScheduleHit
from repro.attack.decode import ChannelModel, DecodeState, _SweepSchedule, decode_schedule
from repro.dram.image import MemoryImage
from repro.resilience.checkpoint import (
    CheckpointJournal,
    DecodeStateStore,
    JournalHeader,
    dump_fingerprint,
    line_crc,
    verify_journal_file,
)
from repro.resilience.errors import (
    CheckpointCorruptError,
    DeadlineExceededError,
    DumpFormatError,
    ReproError,
)
from repro.service.client import job_status, submit_job, wait_for_admission
from repro.service.jobstore import (
    ADMITTED,
    CANCELLED,
    QUEUED,
    RETRYING,
    RUNNING,
    JobSpec,
    JobStore,
    replay_jobs,
)
from repro.service.server import JobEngine
from repro.util import cpus as util_cpus

from ..attack.test_decode import (
    WORK_COUNTERS,
    CountdownDeadline,
    _mixed_batch,
    assert_same_decode,
)

HEADER = JournalHeader(
    dump_len=4096,
    dump_sha256=dump_fingerprint(bytes(4096)),
    key_bits=256,
    n_shards=4,
    overlap_bytes=304,
)


def flips(raw: bytes):
    """``(label, bytes)`` with one bit flipped at each byte of ``raw``."""
    for position in range(len(raw)):
        flipped = bytearray(raw)
        flipped[position] ^= 1 << (position % 8)
        yield f"flip@{position}", bytes(flipped)


def damaged(raw: bytes) -> list:
    """``(label, bytes)`` for every cut of ``raw`` and one flip per byte."""
    return [(f"cut@{cut}", raw[:cut]) for cut in range(len(raw))] + [*flips(raw)]


def crc_line(shape) -> str:
    """A JSON line for ``shape``; objects carry a valid ``crc`` field."""
    if isinstance(shape, dict):
        shape = {**shape, "crc": line_crc(shape)}
    return json.dumps(shape)


def swapped(raw: bytes, shapes):
    """``(label, bytes)`` with each line of ``raw`` replaced by each shape."""
    lines = raw.decode("utf-8").splitlines()
    for shape in shapes:
        for index in range(len(lines)):
            edited = list(lines)
            edited[index] = crc_line(shape)
            yield f"line {index + 1} := {shape!r}", ("\n".join(edited) + "\n").encode()


#: Wrong shapes any line-per-record file must refuse with a typed error.
NOT_OBJECTS = ([], [1, 2], "text", 7, None, True)


def outcome(call):
    """``("ok", result)`` or ``("error", exc)`` for a ReproError; anything
    else propagates and fails the test."""
    try:
        return "ok", call()
    except ReproError as exc:
        return "error", exc


# ------------------------------------------------------------------ journal


def key(seed: int) -> RecoveredAesKey:
    return RecoveredAesKey(
        master_key=bytes(range(seed, seed + 32)),
        key_bits=256,
        votes=2,
        first_block_index=seed,
        match_fraction=0.75,
        region_agreement=0.5,
        confidence=0.25,
        hits=(ScheduleHit(block_index=seed, key_index=3, offset=11, round_index=0,
                          mismatch_bits=1, key_bits=256),),
    )


RESULT = {
    "master_key": "00" * 32, "key_bits": 256, "votes": 1, "first_block_index": 0,
    "match_fraction": 1.0, "region_agreement": 1.0, "confidence": 0.5, "hits": [],
}

JOURNAL_SHAPES = NOT_OBJECTS + (
    {},
    {"type": "shard"},
    {"type": "shard", "offset": "abc", "results": []},
    {"type": "shard", "offset": math.inf, "results": []},
    {"type": "shard", "offset": [0], "results": []},
    {"type": "shard", "offset": 0, "results": 5},
    {"type": "shard", "offset": 0, "results": ["x"]},
    {"type": "shard", "offset": 0, "results": [{**RESULT, "votes": "many"}]},
    {"type": "shard", "offset": 0, "results": [{**RESULT, "master_key": "zz"}]},
    {"type": "shard", "offset": 0, "results": [{**RESULT, "master_key": 7}]},
    {"type": "shard", "offset": 0, "results": [{**RESULT, "hits": [[1, 2]]}]},
    {"type": "shard", "offset": 0, "results": [{**RESULT, "hits": [{"block_index": "x"}]}]},
    {"type": "header", "version": 1, "dump_len": "big"},
    {**HEADER.to_json(), "n_shards": math.inf},
    {**HEADER.to_json(), "version": "1"},
    {"type": "job", "job_id": "job-1", "event": "QUEUED"},
)


@pytest.fixture(scope="module")
def journal_file(tmp_path_factory):
    """A journal of three shards, and the completed shards each byte
    count of it holds: ``[(end of line, {offset: results}), ...]``."""
    path = tmp_path_factory.mktemp("journal") / "scan.jsonl"
    journal, _ = CheckpointJournal.open(path, HEADER, resume=False)
    prefixes = [(path.stat().st_size, {})]
    done = {}
    for offset, results in ((0, [key(1), key(2)]), (1024, []), (2048, [key(5)])):
        journal.record(offset, results)
        done[offset] = results
        prefixes.append((path.stat().st_size, dict(done)))
    return path.read_bytes(), prefixes


def check_journal(path, raw, original):
    """Preflight and loader agree, and neither replays a changed record."""
    path.write_bytes(raw)
    verdict = outcome(lambda: verify_journal_file(path))
    assert path.read_bytes() == raw, "the preflight must not touch the file"
    loaded = outcome(lambda: CheckpointJournal.open(path, HEADER, resume=True)[1])
    if raw:
        assert verdict[0] == loaded[0], (verdict, loaded)
    else:  # nothing to resume: the preflight refuses, the loader starts fresh
        assert verdict[0] == "error" and loaded == ("ok", {})
    if loaded[0] == "ok":
        for offset, results in loaded[1].items():
            assert results == original[offset]
        if raw:
            assert verdict[1] == len(loaded[1])
    return loaded


class TestJournalFuzz:
    def test_every_cut_loses_only_the_torn_record(self, journal_file, tmp_path):
        raw, prefixes = journal_file
        path = tmp_path / "scan.jsonl"
        original = prefixes[-1][1]
        for cut in range(len(raw)):
            loaded = check_journal(path, raw[:cut], original)
            whole = [(end, done) for end, done in prefixes if end <= cut]
            if cut == 0:
                continue
            if not whole:  # the header itself is torn
                assert loaded[0] == "error", cut
                assert isinstance(loaded[1], CheckpointCorruptError)
                continue
            end, done = whole[-1]
            assert loaded == ("ok", done), cut
            assert path.read_bytes() == raw[:end], "the torn tail is truncated away"

    def test_bit_flips_and_wrong_shapes_end_typed(self, journal_file, tmp_path):
        raw, prefixes = journal_file
        path = tmp_path / "scan.jsonl"
        original = prefixes[-1][1]
        outcomes = set()
        for label, bad in [*flips(raw), *swapped(raw, JOURNAL_SHAPES)]:
            try:
                outcomes.add(check_journal(path, bad, original)[0])
            except AssertionError as exc:
                raise AssertionError(f"{label}: {exc}") from exc
        assert outcomes == {"ok", "error"}

    def test_the_board_counts_any_damaged_journal(self, journal_file, tmp_path):
        raw, _ = journal_file
        engine = JobEngine(tmp_path / "svc", workers=1)
        engine.scheduler.submit(JobSpec(job_id="job-j", dump="dump.bin"))
        journal = engine.dirs.job_dir("job-j") / "checkpoint.jsonl"
        journal.parent.mkdir(parents=True)
        damage = damaged(raw)[::7] + [*swapped(raw, JOURNAL_SHAPES)]
        for label, bad in damage:
            journal.write_bytes(bad)
            engine.write_board()
            board = json.loads(engine.dirs.board.read_text())
            shards = board["jobs"]["job-j"]["progress"]["journaled_shards"]
            assert 0 <= shards <= bad.count(b"\n"), label


# ---------------------------------------------------------------------- WAL


def spec(job_id: str) -> JobSpec:
    return JobSpec(job_id=job_id, dump="dump.bin", scan_workers=2, n_shards=4)


WAL_SHAPES = NOT_OBJECTS + (
    {},
    {"type": "job"},
    {"type": "job", "job_id": "", "event": "QUEUED"},
    {"type": "job", "job_id": ["job-1"], "event": "QUEUED"},
    {"type": "job", "job_id": "job-1", "event": ["QUEUED"]},
    {"type": "job", "job_id": "job-1", "event": "LOST"},
    {"type": "job", "job_id": "job-9", "event": "QUEUED", "t": "abc",
     "spec": spec("job-9").to_json()},
    {"type": "job", "job_id": "job-9", "event": "QUEUED", "t": [1.0],
     "spec": spec("job-9").to_json()},
    {"type": "job", "job_id": "job-9", "event": "QUEUED", "spec": [1]},
    {"type": "job", "job_id": "job-9", "event": "QUEUED", "spec": {"job_id": "job-9"}},
    {"type": "job", "job_id": "job-9", "event": "QUEUED",
     "spec": {"job_id": "job-9", "dump": "d", "key_bits": "x"}},
    {"type": "job", "job_id": "job-9", "event": "QUEUED",
     "spec": {"job_id": "job-9", "dump": "d", "priority": math.inf}},
    {"type": "job", "job_id": "job-9", "event": "QUEUED", "spec": spec("job-8").to_json()},
    {"type": "job", "job_id": "job-1", "event": "RETRYING", "t": 1.0, "not_before": "later"},
    {"type": "job", "job_id": "job-1", "event": "RUNNING", "t": 1.0, "checkpoint": {"a": 1}},
    {"type": "job", "job_id": "job-1", "event": "CANCELLED", "t": 1.0, "report": 5},
    {"type": "job", "job_id": "job-9", "event": "snapshot"},
    {"type": "job", "job_id": "job-9", "event": "snapshot", "spec": spec("job-9").to_json(),
     "state": "WAT"},
    {"type": "job", "job_id": "job-9", "event": "snapshot", "spec": spec("job-9").to_json(),
     "state": 5},
    {"type": "job", "job_id": "job-9", "event": "snapshot", "spec": spec("job-9").to_json(),
     "state": "DONE", "admitted_at": "soon"},
    {"type": "job", "job_id": "job-9", "event": "snapshot", "spec": spec("job-9").to_json(),
     "state": "DONE", "attempts": math.inf},
    {"type": "job", "job_id": "job-9", "event": "snapshot", "spec": spec("job-9").to_json(),
     "state": "DONE", "checkpoint": ["c"]},
    {"type": "header", "version": "1"},
    {"type": "shard", "offset": 0, "results": []},
)


@pytest.fixture(scope="module")
def wal_file(tmp_path_factory):
    """A WAL with a rotation snapshot and events after it, and the jobs
    each byte count of it holds: ``[(end of line, jobs), ...]``."""
    path = tmp_path_factory.mktemp("wal") / "jobs.wal"
    store = JobStore.open(path)
    store.append_event("job-1", QUEUED, spec=spec("job-1"), t=1.0)
    store.append_event("job-1", ADMITTED, t=2.0)
    store.append_event("job-1", RUNNING, t=3.0, checkpoint="c.jsonl")
    store.append_event("job-2", QUEUED, spec=spec("job-2"), t=4.0)
    store.rotate()
    at_rotation = copy.deepcopy(store.jobs)
    lines = path.read_bytes().splitlines(keepends=True)
    prefixes, end = [], 0
    for count, line in enumerate(lines):
        end += len(line)
        prefixes.append((end, {job_id: at_rotation[job_id]
                               for job_id in sorted(at_rotation)[:count]}))
    for job_id, event, fields in (
        ("job-1", RETRYING, {"cause": "drain", "failure": True, "error": "E",
                             "not_before": 6.5}),
        ("job-1", ADMITTED, {}),
        ("job-2", ADMITTED, {}),
        ("job-2", CANCELLED, {"report": "r.json"}),
    ):
        store.append_event(job_id, event, t=float(len(prefixes)), **fields)
        prefixes.append((path.stat().st_size, copy.deepcopy(store.jobs)))
    return path.read_bytes(), prefixes


def check_wal(path, raw):
    """The read-only replay and the repairing open agree."""
    path.write_bytes(raw)
    replayed = outcome(lambda: replay_jobs(path))
    assert path.read_bytes() == raw, "replay must not touch the file"
    opened = outcome(lambda: JobStore.open(path))
    assert replayed[0] == opened[0], (replayed, opened)
    if opened[0] == "ok":
        assert replayed[1] == opened[1].jobs
    return opened


class TestWalFuzz:
    def test_every_cut_loses_only_the_torn_record(self, wal_file, tmp_path):
        raw, prefixes = wal_file
        path = tmp_path / "jobs.wal"
        for cut in range(len(raw)):
            opened = check_wal(path, raw[:cut])
            whole = [(end, jobs) for end, jobs in prefixes if end <= cut]
            if cut == 0:
                assert opened[0] == "ok" and opened[1].jobs == {}
            elif not whole:  # the header itself is torn
                assert opened[0] == "error", cut
            else:
                end, jobs = whole[-1]
                assert opened[0] == "ok" and opened[1].jobs == jobs, cut
                assert path.read_bytes() == raw[:end], "the torn tail is truncated away"

    def test_bit_flips_and_wrong_shapes_end_typed(self, wal_file, tmp_path):
        raw, _ = wal_file
        path = tmp_path / "jobs.wal"
        engine = JobEngine(tmp_path / "svc", workers=1)
        outcomes = set()
        for label, bad in [*flips(raw), *swapped(raw, WAL_SHAPES)]:
            try:
                opened = check_wal(path, bad)
                outcomes.add(opened[0])
                if opened[0] == "ok":
                    # Whatever loads is well-typed enough to publish.
                    engine.store = opened[1]
                    engine.write_board()
            except AssertionError as exc:
                raise AssertionError(f"{label}: {exc}") from exc
        assert outcomes == {"ok", "error"}


# ------------------------------------------------------------ decode sidecar


def test_decode_sidecar_damage_starts_empty_or_loads_the_original(tmp_path):
    path = tmp_path / "scan.jsonl.decode"
    store = DecodeStateStore(path)
    # Entry b carries a list decode's scheduling record, per-table
    # sweep counts included.
    sched = _SweepSchedule(2, 2)
    sched.sweeps = np.array([7, 2])
    for name, iteration in (("a", 3), ("b", 7)):
        messages = np.arange(16, dtype=np.float64).reshape(1, 2, 2, 4) / iteration
        store.save(name, DecodeState(iteration=iteration, messages=messages,
                                     digest=f"ctx-{name}",
                                     sched=sched.to_dict() if name == "b" else None).to_dict())
    originals = [store.load("a"), store.load("b")]
    raw = path.read_bytes()
    blob = json.loads(raw)
    a = {k: v for k, v in originals[0].items() if k != "crc"}
    wrong_entries = ({"iteration": "x"}, {"messages_b64": 5, "crc32": "y", "shape": {}},
                     {**a, "shape": [9, 9]}, {**a, "crc32": 1}, {**a, "iteration": None})
    shapes = [(f"entry a := {entry!r}",
               {**blob, "entries": {**blob["entries"], "a": {**entry, "crc": line_crc(entry)}}})
              for entry in wrong_entries]
    shapes += [(repr(shape), shape) for shape in (
        *NOT_OBJECTS, {"version": 1, "entries": []}, {"version": "1", "entries": blob["entries"]})]
    for label, bad in [*damaged(raw), *((label, json.dumps(s).encode()) for label, s in shapes)]:
        path.write_bytes(bad)
        reopened = DecodeStateStore(path)
        for name in ("a", "b"):
            entry = reopened.load(name)
            if entry is None:
                continue
            # Resuming a CRC-valid entry of the wrong shape falls back
            # to a fresh decode (None); it never raises.
            state = DecodeState.from_dict(entry)
            if entry in originals:
                assert state is not None, label
            else:
                assert label.startswith("entry a") and name == "a" and state is None, label


def test_decode_sidecar_sweep_counts_of_the_wrong_shape_restart(tmp_path):
    """A list decode records the sweeps of each table it started.  A
    sidecar entry whose counts are of the wrong shape, its CRC valid,
    restarts the decode from sweep 0: the straight run, work counters
    included.  The entry as written resumes it."""
    observed = _mixed_batch(61, 2, 1, 0.06)
    channel = ChannelModel.symmetric(0.06)

    def refuse(index, table):
        return False

    def decode(**kwargs):
        with mock.patch.object(util_cpus, "usable_cpus", lambda: 1):
            return decode_schedule(observed, 256, channel, accept=refuse, **kwargs)

    straight = decode()
    with pytest.raises(DeadlineExceededError) as err:
        decode(deadline=CountdownDeadline(3))
    record = err.value.decode_state.to_dict()
    assert len(record["sched"]["sweeps"]) < observed.shape[0]
    store = DecodeStateStore(tmp_path / "scan.jsonl.decode")
    store.save("resumes", record)
    resumed = decode(state=DecodeState.from_dict(store.load("resumes")))
    assert_same_decode(resumed, straight, skip=WORK_COUNTERS)
    assert resumed.checks_updated < straight.checks_updated
    for sweeps in ("3", None, [3.0], [-1], [True], [[3]], [3] * 4):
        bad = copy.deepcopy(record)
        bad["sched"]["sweeps"] = sweeps
        store.save("bad", bad)
        state = DecodeState.from_dict(store.load("bad"))
        with pytest.raises(ValueError):
            _SweepSchedule.from_dict(state.sched, 3, 208)
        assert_same_decode(decode(state=state), straight)


# ------------------------------------------------------------------ the dump


def test_dump_damage_loads_whole_blocks_or_raises_typed(tmp_path):
    path = tmp_path / "dump.bin"
    MemoryImage(bytes(range(256)) * 3).save(path)
    for label, bad in damaged(path.read_bytes()):
        path.write_bytes(bad)
        loaded = outcome(lambda: MemoryImage.load_tolerant(path))
        usable = len(bad) - len(bad) % 64
        if usable == 0:
            assert loaded[0] == "error" and isinstance(loaded[1], DumpFormatError), label
        else:
            assert loaded[0] == "ok" and loaded[1].data == bad[:usable], label
    for target in (tmp_path, tmp_path / "missing.bin"):
        assert isinstance(outcome(lambda: MemoryImage.load_tolerant(target))[1],
                          DumpFormatError)


# ------------------------------------------------------------------ the spool


SPOOL_SHAPES = NOT_OBJECTS + (
    {},
    {"job_id": ""},
    {"job_id": "", "dump": "d"},
    {"job_id": ["job-s"], "dump": "d"},
    {"job_id": "job-s", "dump": "d", "key_bits": "x"},
    {"job_id": "job-s", "dump": "d", "priority": math.inf},
    {"job_id": "job-s", "dump": "d", "n_shards": [4]},
    {"job_id": "job-s", "dump": "d", "deadline_s": "soon"},
    {"job_id": "a/b", "dump": "d"},
    {"job_id": "..", "dump": "d"},
    {"job_id": "a\u0000b", "dump": "d"},
)


def test_damaged_submissions_are_dropped_or_queued_never_poisoning_the_wal(tmp_path):
    service = tmp_path / "svc"
    engine = JobEngine(service, workers=1, max_queued=4)
    submit_job(service, JobSpec(job_id="job-s", dump="dump.bin", priority=3))
    submission = engine.dirs.submission("job-s")
    raw = submission.read_bytes()
    damage = [*damaged(raw), *((repr(s), json.dumps(s).encode()) for s in SPOOL_SHAPES)]
    outcomes = set()
    for label, bad in damage:
        submission.write_bytes(bad)
        picked = outcome(engine.poll_spool)
        assert picked[0] == "ok", (label, picked)
        outcomes.add(picked[1])
        assert not submission.exists(), label
        # Whatever was queued, the WAL still replays.
        assert replay_jobs(engine.dirs.wal) == JobStore.open(engine.dirs.wal).jobs, label
    assert outcomes == {0, 1}


# ------------------------------------------------ damaged service files


class TestDamagedServiceFilesDegrade:
    """The board is advisory and a receipt is a courtesy: damage to either
    must not stop the server or a status call."""

    def engine_with_journal(self, tmp_path, content: bytes):
        engine = JobEngine(tmp_path / "svc", workers=1)
        engine.scheduler.submit(JobSpec(job_id="job-b", dump="dump.bin"))
        journal = engine.dirs.job_dir("job-b") / "checkpoint.jsonl"
        journal.parent.mkdir(parents=True)
        journal.write_bytes(content)
        return engine

    def test_board_survives_a_json_array_line_in_a_journal(self, tmp_path):
        header = json.dumps({**HEADER.to_json(), "crc": line_crc(HEADER.to_json())})
        engine = self.engine_with_journal(
            tmp_path, f'{header}\n[1, 2]\n{{"type": "shard"}}\n'.encode())
        engine.write_board()
        board = json.loads(engine.dirs.board.read_text())
        assert board["jobs"]["job-b"]["progress"] == {"journaled_shards": 1}

    def test_board_survives_a_non_utf8_byte_in_a_journal(self, tmp_path):
        engine = self.engine_with_journal(
            tmp_path, b'{"type": "shard"}\n{"type": "sh\xffrd"}\n{"type": "shard"}\n')
        engine.write_board()
        board = json.loads(engine.dirs.board.read_text())
        assert board["jobs"]["job-b"]["progress"] == {"journaled_shards": 2}

    @pytest.mark.parametrize("job_id", ["a/b", "..", "a\u0000b"])
    def test_a_job_id_that_cannot_name_a_file_is_dropped(self, tmp_path, job_id):
        """Such an id names files outside its own: a rejection receipt
        under ``spool/a/``, a job directory at the service root."""
        engine = JobEngine(tmp_path / "svc", workers=1, max_queued=2)
        engine.scheduler.submit(JobSpec(job_id="job-q", dump="dump.bin"))
        submission = engine.dirs.submission("job-x")
        submission.write_text(json.dumps({"job_id": job_id, "dump": "dump.bin"}))
        assert engine.poll_spool() == 0
        assert not submission.exists()
        assert set(replay_jobs(engine.dirs.wal)) == {"job-q"}

    def test_status_of_a_job_with_a_torn_rejection_receipt(self, tmp_path):
        service = tmp_path / "svc"
        engine = JobEngine(service, workers=1, max_queued=1)
        engine.scheduler.submit(JobSpec(job_id="job-q", dump="dump.bin"))
        submit_job(service, JobSpec(job_id="job-r", dump="dump.bin"))
        engine.poll_spool()  # the queue is full: a rejection receipt
        receipt = engine.dirs.rejection("job-r")
        receipt.write_bytes(receipt.read_bytes()[:20])  # torn mid-write
        assert job_status(service, "job-r")["state"] == "REJECTED"
        with pytest.raises(ReproError):
            wait_for_admission(service, "job-r", timeout_s=0.1)
