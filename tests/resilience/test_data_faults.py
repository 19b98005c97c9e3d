"""Data-level chaos: bit-rot, journal corruption, poisoned key matrices.

The process-level chaos suite (:mod:`tests.resilience.test_faults`)
kills and hangs workers; this one damages the *data* those workers
depend on and checks the runtime converges to the clean run's keys —
or quarantines with structured diagnostics — instead of crashing or
silently returning wrong answers.
"""

import pytest

from repro.attack.parallel import resilient_recover_keys
from repro.attack.sweep import synthetic_dump
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy

N_SHARDS = 4


@pytest.fixture(scope="module")
def dump():
    image, master, _ = synthetic_dump(bit_error_rate=0.002, seed=5)
    return image, master


@pytest.fixture(scope="module")
def clean_scan(dump):
    image, _ = dump
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05)
    report = resilient_recover_keys(image, workers=1, n_shards=N_SHARDS, retry_policy=policy)
    assert report.recovered
    return report


def _policy() -> RetryPolicy:
    return RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05)


def _keys(report) -> list[bytes]:
    return sorted(r.master_key for r in report.recovered)


def _shard_offsets(clean_scan) -> list[int]:
    return sorted(outcome.shard_offset for outcome in clean_scan.ledger.completed)


class TestSingleDataFaults:
    def test_mild_bitrot_on_the_key_shard_is_absorbed(self, dump, clean_scan):
        """Localized rot within the decay budget degrades nothing.

        Bit-rot is *data* damage: the scan still runs, and the search's
        Hamming tolerances — not retries — are what absorb it.  Rot the
        shard holding the planted key table at a rate the budget covers
        and the recovered keys must stay byte-identical.
        """
        image, _ = dump
        offsets = _shard_offsets(clean_scan)
        plan = FaultPlan(
            faults=(
                (offsets[0], FaultSpec(kind="bitrot", corrupt_rate=0.002, first_attempts=1)),
            ),
            seed=7,
        )
        report = resilient_recover_keys(
            image, workers=1, n_shards=N_SHARDS, retry_policy=_policy(), fault_plan=plan
        )
        assert _keys(report) == _keys(clean_scan)
        assert report.quarantined_offsets == []

    def test_poisoned_key_matrix_is_caught_and_retried(self, dump, clean_scan):
        """A corrupted shared key matrix must fail its CRC, not mislead."""
        image, _ = dump
        offsets = _shard_offsets(clean_scan)
        plan = FaultPlan(
            faults=((offsets[0], FaultSpec(kind="poison", corrupt_bits=16, first_attempts=1)),),
            seed=11,
        )
        events: list[str] = []
        report = resilient_recover_keys(
            image,
            workers=1,
            n_shards=N_SHARDS,
            retry_policy=_policy(),
            fault_plan=plan,
            on_event=events.append,
        )
        assert _keys(report) == _keys(clean_scan)
        assert any("retry" in event for event in events)

    def test_heavy_bitrot_degrades_without_crashing(self, dump, clean_scan):
        """Rot far past the decay budget loses keys, never the run.

        The run must complete (no exception, nothing quarantined — the
        bytes were scanned, they just carry nothing recoverable) and
        never invent keys the clean scan didn't find.
        """
        from repro.resilience.faults import PERMANENT

        image, _ = dump
        offsets = _shard_offsets(clean_scan)
        plan = FaultPlan(
            faults=(
                (
                    offsets[0],
                    FaultSpec(kind="bitrot", corrupt_rate=0.2, first_attempts=PERMANENT),
                ),
            ),
            seed=13,
        )
        report = resilient_recover_keys(
            image, workers=1, n_shards=N_SHARDS, retry_policy=_policy(), fault_plan=plan
        )
        assert report.complete
        assert set(_keys(report)) < set(_keys(clean_scan))


class TestJournalFaults:
    def test_corrupted_record_is_rejected_on_resume(self, dump, clean_scan, tmp_path):
        image, _ = dump
        offsets = _shard_offsets(clean_scan)
        journal = tmp_path / "scan.checkpoint.jsonl"
        plan = FaultPlan(faults=((offsets[2], FaultSpec(kind="journal")),), seed=17)
        first = resilient_recover_keys(
            image,
            workers=1,
            n_shards=N_SHARDS,
            retry_policy=_policy(),
            fault_plan=plan,
            checkpoint=journal,
            resume=True,
        )
        assert _keys(first) == _keys(clean_scan)

        second = resilient_recover_keys(
            image,
            workers=1,
            n_shards=N_SHARDS,
            retry_policy=_policy(),
            checkpoint=journal,
            resume=True,
        )
        assert second.checkpoint_rejected is not None
        # Depending on which byte the rot hit, the bad line is caught by
        # the per-line CRC or by the JSON parser — both are structured
        # rejections naming the line, never a replay of bad data.
        assert ("CRC mismatch" in second.checkpoint_rejected
                or "unreadable record" in second.checkpoint_rejected)
        assert "line" in second.checkpoint_rejected
        assert second.resumed_shards == 0  # nothing replayed from the bad journal
        assert _keys(second) == _keys(clean_scan)

    def test_clean_journal_still_resumes(self, dump, clean_scan, tmp_path):
        image, _ = dump
        journal = tmp_path / "scan.checkpoint.jsonl"
        first = resilient_recover_keys(
            image, workers=1, n_shards=N_SHARDS, retry_policy=_policy(),
            checkpoint=journal, resume=True,
        )
        second = resilient_recover_keys(
            image, workers=1, n_shards=N_SHARDS, retry_policy=_policy(),
            checkpoint=journal, resume=True,
        )
        assert second.checkpoint_rejected is None
        assert second.resumed_shards == N_SHARDS
        assert _keys(first) == _keys(second) == _keys(clean_scan)


class TestCombinedChaos:
    def test_all_three_data_faults_in_one_scan(self, dump, clean_scan, tmp_path):
        """Bit-rot + a poisoned key matrix + a corrupted journal line,
        all in one run: the scan must still converge byte-for-byte."""
        image, _ = dump
        offsets = _shard_offsets(clean_scan)
        journal = tmp_path / "chaos.checkpoint.jsonl"
        plan = FaultPlan(
            faults=(
                (offsets[0], FaultSpec(kind="bitrot", corrupt_rate=0.002, first_attempts=1)),
                (offsets[1], FaultSpec(kind="poison", corrupt_bits=16, first_attempts=1)),
                (offsets[2], FaultSpec(kind="journal")),
            ),
            seed=23,
        )
        chaotic = resilient_recover_keys(
            image,
            workers=1,
            n_shards=N_SHARDS,
            retry_policy=_policy(),
            fault_plan=plan,
            checkpoint=journal,
            resume=True,
        )
        assert _keys(chaotic) == _keys(clean_scan)
        assert chaotic.quarantined_offsets == []

        # The journal fault left a rotten line behind; the resume path
        # must reject it with a diagnostic and rescan to the same keys.
        resumed = resilient_recover_keys(
            image,
            workers=1,
            n_shards=N_SHARDS,
            retry_policy=_policy(),
            checkpoint=journal,
            resume=True,
        )
        assert resumed.checkpoint_rejected is not None
        assert _keys(resumed) == _keys(clean_scan)

    def test_multiprocess_poison_converges(self, dump, clean_scan):
        """The CRC check must also hold in forked process workers, whose
        integrity error reaches the parent as a retryable failure rather
        than as a broken pool."""
        image, _ = dump
        offsets = _shard_offsets(clean_scan)
        plan = FaultPlan(
            faults=(
                (offsets[0], FaultSpec(kind="poison", corrupt_bits=16)),
                (offsets[1], FaultSpec(kind="hang", hang_seconds=0.01)),
            ),
            seed=29,
        )
        report = resilient_recover_keys(
            image, workers=2, n_shards=N_SHARDS, retry_policy=_policy(), fault_plan=plan
        )
        assert report.executor == "process"
        assert report.ledger.pool_rebuilds == 0
        assert not report.ledger.degraded_to_serial
        assert _keys(report) == _keys(clean_scan)


class TestCliSurface:
    def test_adaptive_cli_reports_quarantine_without_traceback(self, tmp_path, capsys):
        """A torn dump at the CLI yields diagnostics, never a traceback."""
        import json

        from repro.cli import main
        from repro.dram.image import MemoryImage

        # A dump large enough that every keystream block has a donor
        # zero page outside any single 256 KiB region — the torn region
        # must cost coverage, not the key table.
        image, _, _ = synthetic_dump(bit_error_rate=0.002, n_blocks=6 * 4096, seed=5)
        region = 256 * 1024
        start = 2 * region
        torn = image.data[:start] + b"\xaa" * region + image.data[start + region :]
        dump_path = tmp_path / "torn.bin"
        MemoryImage(torn).save(dump_path)
        report_path = tmp_path / "report.json"

        code = main(
            ["attack", str(dump_path), "--adaptive", "--json", str(report_path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err and "Traceback" not in captured.out
        assert "torn" in captured.err

        payload = json.loads(report_path.read_text())
        regions = payload["robustness"]["quarantined_regions"]
        assert len(regions) == 1
        assert regions[0]["reason"] == "torn"
        assert regions[0]["offset"] == start
