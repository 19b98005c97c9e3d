"""Crash-safe journal: roundtrip, torn-tail repair, corruption detection,
and ENOSPC rotation to the fallback directory."""

import errno
import json

import pytest

from repro.attack.aes_search import RecoveredAesKey, ScheduleHit
from repro.resilience.checkpoint import (
    CheckpointJournal,
    JournalHeader,
    deserialize_recovered,
    dump_fingerprint,
    serialize_recovered,
)
from repro.resilience.errors import CheckpointCorruptError, CheckpointStorageError


def make_header(**overrides) -> JournalHeader:
    defaults = dict(
        dump_len=4096,
        dump_sha256=dump_fingerprint(b"\x00" * 4096),
        key_bits=256,
        n_shards=4,
        overlap_bytes=304,
    )
    defaults.update(overrides)
    return JournalHeader(**defaults)


def make_result(base_block: int = 7) -> RecoveredAesKey:
    hits = (
        ScheduleHit(
            block_index=base_block,
            key_index=3,
            offset=11,
            round_index=0,
            mismatch_bits=0,
            key_bits=256,
        ),
    )
    return RecoveredAesKey(
        master_key=bytes(range(32)),
        key_bits=256,
        votes=3,
        first_block_index=base_block,
        match_fraction=1.0,
        region_agreement=1.0,
        hits=hits,
    )


class TestSerialization:
    def test_roundtrip_preserves_everything(self):
        original = make_result()
        clone = deserialize_recovered(serialize_recovered(original))
        assert clone == original

    def test_serialized_form_is_json(self):
        payload = serialize_recovered(make_result())
        assert json.loads(json.dumps(payload)) == payload


class TestJournal:
    def test_fresh_journal_then_resume(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        header = make_header()
        journal, done = CheckpointJournal.open(path, header)
        assert done == {}
        journal.record(0, [make_result(0)])
        journal.record(1024, [])
        journal.close()

        _, done = CheckpointJournal.open(path, header, resume=True)
        assert set(done) == {0, 1024}
        assert done[0][0].master_key == bytes(range(32))
        assert done[1024] == []

    def test_resume_false_starts_over(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        header = make_header()
        journal, _ = CheckpointJournal.open(path, header)
        journal.record(0, [])
        journal.close()
        _, done = CheckpointJournal.open(path, header, resume=False)
        assert done == {}

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        header = make_header()
        journal, _ = CheckpointJournal.open(path, header)
        journal.record(0, [make_result(0)])
        journal.record(1024, [make_result(16)])
        journal.close()
        # Simulate a crash mid-write: chop the last line in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(raw.splitlines(keepends=True)[-1]) // 2 - 1])

        journal, done = CheckpointJournal.open(path, header, resume=True)
        assert set(done) == {0}  # the torn record is discarded...
        journal.record(1024, [])  # ...and the journal accepts appends again
        journal.close()
        _, done = CheckpointJournal.open(path, header, resume=True)
        assert set(done) == {0, 1024}

    def test_interior_corruption_is_an_error(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        header = make_header()
        journal, _ = CheckpointJournal.open(path, header)
        journal.record(0, [])
        journal.record(1024, [])
        journal.close()
        lines = path.read_text().splitlines()
        lines[1] = '{"type": "shard", garbage'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError):
            CheckpointJournal.open(path, header, resume=True)

    def test_header_mismatch_rejects_stale_journal(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        journal, _ = CheckpointJournal.open(path, make_header())
        journal.record(0, [])
        journal.close()
        other = make_header(dump_sha256=dump_fingerprint(b"\x01" * 4096))
        with pytest.raises(CheckpointCorruptError):
            CheckpointJournal.open(path, other, resume=True)

    def test_missing_header_is_corrupt(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        path.write_text('{"type": "shard", "offset": 0, "results": []}\n')
        with pytest.raises(CheckpointCorruptError):
            CheckpointJournal.open(path, make_header(), resume=True)


class TestLineCrc:
    def test_content_rot_fails_the_crc(self, tmp_path):
        """Valid JSON with silently altered content is still rejected."""
        path = tmp_path / "scan.jsonl"
        header = make_header()
        journal, _ = CheckpointJournal.open(path, header)
        journal.record(0, [make_result(0)])
        journal.record(1024, [])
        journal.close()
        lines = path.read_text().splitlines()
        rotted = json.loads(lines[1])
        rotted["offset"] = 512  # bit-rot that keeps the line parseable
        lines[1] = json.dumps(rotted)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError, match="CRC mismatch on line 2"):
            CheckpointJournal.open(path, header, resume=True)

    def test_journal_without_crc_fields_still_resumes(self, tmp_path):
        """Journals written before the CRC field existed stay readable."""
        path = tmp_path / "scan.jsonl"
        header = make_header()
        journal, _ = CheckpointJournal.open(path, header)
        journal.record(0, [make_result(0)])
        journal.record(1024, [])
        journal.close()
        stripped = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("crc", None)
            stripped.append(json.dumps(record))
        path.write_text("\n".join(stripped) + "\n")
        _, done = CheckpointJournal.open(path, header, resume=True)
        assert set(done) == {0, 1024}
        assert done[0][0].master_key == bytes(range(32))

    def test_crc_valid_shard_of_the_wrong_shape_names_the_line(self, tmp_path):
        """A record whose CRC holds but whose offset is not a number is
        corruption, reported as such — not a bare ValueError."""
        from repro.resilience.checkpoint import line_crc

        path = tmp_path / "scan.jsonl"
        header = make_header()
        journal, _ = CheckpointJournal.open(path, header)
        journal.record(0, [])
        journal.close()
        record = {"type": "shard", "offset": "abc", "results": []}
        record["crc"] = line_crc(record)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(CheckpointCorruptError, match="line 3"):
            CheckpointJournal.open(path, header, resume=True)

    def test_crc_ignores_field_order(self):
        from repro.resilience.checkpoint import line_crc

        record = {"type": "shard", "offset": 7, "results": []}
        shuffled = {"results": [], "offset": 7, "type": "shard"}
        assert line_crc(record) == line_crc(shuffled)


class TestDecodeStateStore:
    def make_state_dict(self):
        import numpy as np

        from repro.attack.decode import DecodeState

        return DecodeState(
            iteration=4,
            messages=np.random.default_rng(0).random((1, 3, 3, 256)),
            digest="ctx",
        ).to_dict()

    def test_save_load_round_trip(self, tmp_path):
        from repro.attack.decode import DecodeState
        from repro.resilience.checkpoint import DecodeStateStore

        store = DecodeStateStore(tmp_path / "scan.jsonl.decode")
        original = self.make_state_dict()
        store.save("0xaf0b:0", original)

        reopened = DecodeStateStore(tmp_path / "scan.jsonl.decode")
        loaded = reopened.load("0xaf0b:0")
        assert loaded is not None
        state = DecodeState.from_dict(loaded)
        assert state is not None and state.iteration == 4
        back = DecodeState.from_dict(original)
        assert (state.messages == back.messages).all()

    def test_corrupt_entry_is_dropped_on_load(self, tmp_path):
        import json as jsonlib

        from repro.resilience.checkpoint import DecodeStateStore

        path = tmp_path / "scan.jsonl.decode"
        store = DecodeStateStore(path)
        store.save("a", self.make_state_dict())
        store.save("b", self.make_state_dict())
        blob = jsonlib.loads(path.read_text())
        blob["entries"]["a"]["iteration"] = 99  # rot without a CRC update
        path.write_text(jsonlib.dumps(blob))
        reopened = DecodeStateStore(path)
        assert reopened.load("a") is None
        assert reopened.load("b") is not None

    def test_unreadable_or_alien_file_starts_empty(self, tmp_path):
        from repro.resilience.checkpoint import DecodeStateStore

        path = tmp_path / "scan.jsonl.decode"
        path.write_text("not json at all {")
        assert DecodeStateStore(path).load("x") is None
        path.write_text('{"version": 99, "entries": {}}')
        assert DecodeStateStore(path).load("x") is None

    def test_non_utf8_sidecar_starts_empty(self, tmp_path):
        from repro.resilience.checkpoint import DecodeStateStore

        path = tmp_path / "scan.jsonl.decode"
        path.write_bytes(b'{"version": 1, "entries": {"\xff": {}}}')
        assert DecodeStateStore(path).load("x") is None

    def test_discard_removes_consumed_state(self, tmp_path):
        from repro.resilience.checkpoint import DecodeStateStore

        path = tmp_path / "scan.jsonl.decode"
        store = DecodeStateStore(path)
        store.save("done", self.make_state_dict())
        store.discard("done")
        assert store.load("done") is None
        assert DecodeStateStore(path).load("done") is None


# ---------------------------------------------------------- ENOSPC rotation


def _journal(tmp_path, fallback=None):
    header = JournalHeader(
        dump_len=64, dump_sha256=dump_fingerprint(b"\0" * 64), key_bits=256,
        n_shards=1, overlap_bytes=0,
    )
    journal, completed = CheckpointJournal.open(
        tmp_path / "scan.jsonl", header, fallback_directory=fallback
    )
    assert completed == {}
    return journal


def _fail_next_appends(monkeypatch, journal, failures: int):
    """Make the next ``failures`` appends die with ENOSPC."""
    real_append = CheckpointJournal._append
    state = {"left": failures}

    def flaky(self, line):
        if state["left"] > 0:
            state["left"] -= 1
            raise OSError(errno.ENOSPC, "No space left on device")
        real_append(self, line)

    monkeypatch.setattr(CheckpointJournal, "_append", flaky)


def test_enospc_rotates_to_fallback_and_keeps_journaling(tmp_path, monkeypatch):
    fallback = tmp_path / "fallback"
    fallback.mkdir()
    journal = _journal(tmp_path, fallback=fallback)
    journal.record(0, [])
    _fail_next_appends(monkeypatch, journal, failures=1)
    journal.record(4096, [])  # first append fails, rotation retries

    assert journal.rotated
    assert journal.rotated_from == tmp_path / "scan.jsonl"
    assert journal.path == fallback / "scan.jsonl.fallback"
    # The fallback carries the earlier records plus the retried one.
    lines = journal.path.read_text().splitlines()
    assert len(lines) == 3  # header + shard 0 + shard 4096
    journal.record(8192, [])  # subsequent appends stay on the fallback
    assert len(journal.path.read_text().splitlines()) == 4


def test_enospc_on_both_paths_raises_typed_error(tmp_path, monkeypatch):
    journal = _journal(tmp_path, fallback=tmp_path / "also-full")
    (tmp_path / "also-full").mkdir()
    journal.record(0, [])
    _fail_next_appends(monkeypatch, journal, failures=2)
    with pytest.raises(CheckpointStorageError):
        journal.record(4096, [])


def test_rotation_failure_itself_raises_typed_error(tmp_path, monkeypatch):
    journal = _journal(tmp_path, fallback=tmp_path / "missing-dir")
    journal.record(0, [])
    _fail_next_appends(monkeypatch, journal, failures=1)
    # The fallback directory does not exist, so the rotation copy fails.
    with pytest.raises(CheckpointStorageError, match="rotation"):
        journal.record(4096, [])
