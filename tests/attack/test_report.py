"""Tests for attack-report serialisation."""

import json

import pytest

from repro.attack.pipeline import Ddr4ColdBootAttack
from repro.attack.report import (
    REPORT_SCHEMA_VERSION,
    load_report_json,
    migrate_report_dict,
    report_to_dict,
    report_to_markdown,
    save_report_json,
)
from repro.attack.sweep import synthetic_dump


@pytest.fixture(scope="module")
def successful_report():
    dump, master, _ = synthetic_dump(bit_error_rate=0.0, n_blocks=3 * 4096, seed=41)
    return Ddr4ColdBootAttack().run(dump), master


class TestJsonForm:
    def test_round_trips_through_json(self, successful_report):
        report, _ = successful_report
        blob = json.dumps(report_to_dict(report))
        parsed = json.loads(blob)
        assert parsed["schema_version"] == REPORT_SCHEMA_VERSION
        assert parsed["dump_bytes"] == report.dump_bytes
        assert len(parsed["recovered_keys"]) == len(report.recovered_keys)

    def test_keys_present_by_default(self, successful_report):
        report, master = successful_report
        parsed = report_to_dict(report)
        keys = {entry["master_key"] for entry in parsed["recovered_keys"]}
        assert master[:32].hex() in keys

    def test_redaction(self, successful_report):
        report, master = successful_report
        parsed = report_to_dict(report, include_keys=False)
        assert all("redacted" in e["master_key"] for e in parsed["recovered_keys"])
        assert master.hex() not in json.dumps(parsed)

    def test_save(self, successful_report, tmp_path):
        report, _ = successful_report
        path = tmp_path / "report.json"
        save_report_json(report, path)
        assert json.loads(path.read_text())["dump_bytes"] == report.dump_bytes

    def test_hit_details_serialised(self, successful_report):
        report, _ = successful_report
        parsed = report_to_dict(report)
        hit = parsed["recovered_keys"][0]["hits"][0]
        assert {"block_index", "key_index", "offset", "round_index"} <= set(hit)


class TestMarkdownForm:
    def test_contains_summary_and_table(self, successful_report):
        report, _ = successful_report
        text = report_to_markdown(report)
        assert "# Cold boot attack report" in text
        assert "| # | bits |" in text
        assert "redacted" in text  # keys hidden by default

    def test_include_keys(self, successful_report):
        report, master = successful_report
        text = report_to_markdown(report, include_keys=True)
        assert master[:32].hex() in text

    def test_empty_report(self):
        from repro.attack.pipeline import AttackReport

        text = report_to_markdown(AttackReport())
        assert "No expanded AES key schedules" in text


class TestResilienceFields:
    def make_sharded_report(self):
        from repro.attack.pipeline import AttackReport

        return AttackReport(
            dump_bytes=1 << 20,
            n_shards=8,
            quarantined_shards=[0x30000, 0x70000],
            resumed_shards=3,
            degraded_to_serial=True,
        )

    def test_json_carries_resilience_block(self):
        parsed = report_to_dict(self.make_sharded_report())
        resilience = parsed["resilience"]
        assert resilience["n_shards"] == 8
        assert resilience["quarantined_shards"] == [0x30000, 0x70000]
        assert resilience["resumed_shards"] == 3
        assert resilience["degraded_to_serial"] is True
        assert resilience["complete_scan"] is False

    def test_monolithic_report_is_marked_complete(self, successful_report):
        report, _ = successful_report
        parsed = report_to_dict(report)
        assert parsed["resilience"]["n_shards"] == 0
        assert parsed["resilience"]["complete_scan"] is True

    def test_markdown_warns_about_quarantine(self):
        text = report_to_markdown(self.make_sharded_report())
        assert "8 shards" in text
        assert "0x30000" in text

    def test_summary_mentions_sharding(self):
        summary = self.make_sharded_report().summary()
        assert "shards=8" in summary
        assert "resumed=3" in summary
        assert "QUARANTINED=2" in summary


class TestTimingFields:
    def make_expired_report(self):
        from repro.attack.pipeline import AttackReport

        return AttackReport(
            dump_bytes=1 << 20,
            n_shards=4,
            deadline_s=300.0,
            deadline_expired=True,
            expiry_cause="deadline",
            unscanned_shards=[0x40000, 0x60000],
            stall_kills=1,
            resource_backend="shm",
            checkpoint_path="/tmp/scan.jsonl",
        )

    def test_json_carries_timing_block(self):
        parsed = report_to_dict(self.make_expired_report())
        timing = parsed["timing"]
        assert timing["deadline_seconds"] == 300.0
        assert timing["deadline_expired"] is True
        assert timing["interrupted"] is False
        assert timing["expiry_cause"] == "deadline"
        resilience = parsed["resilience"]
        assert resilience["unscanned_shards"] == [0x40000, 0x60000]
        assert resilience["stall_kills"] == 1
        assert resilience["resource_backend"] == "shm"
        assert resilience["checkpoint_path"] == "/tmp/scan.jsonl"
        assert resilience["complete_scan"] is False

    def test_resumable_property(self):
        report = self.make_expired_report()
        assert report.resumable
        report.unscanned_shards = []
        assert not report.resumable

    def test_markdown_warns_about_early_stop(self):
        text = report_to_markdown(self.make_expired_report())
        assert "run stopped early" in text
        assert "deadline" in text


class TestSchemaMigration:
    def v1_dict(self):
        return {
            "schema_version": 1,
            "dump_bytes": 1024,
            "timings": {
                "mine_seconds": 1.5,
                "search_seconds": 2.5,
                "scan_rate_mb_per_hour": 9.0,
            },
            "candidate_keys": {"count": 0, "top_frequencies": []},
            "recovered_keys": [],
        }

    def test_v1_upgrades_to_current(self):
        migrated = migrate_report_dict(self.v1_dict())
        assert migrated["schema_version"] == REPORT_SCHEMA_VERSION
        assert migrated["timing"]["stages"]["mine_seconds"] == 1.5
        assert migrated["timing"]["deadline_seconds"] is None
        assert migrated["timing"]["deadline_expired"] is False
        assert migrated["resilience"]["complete_scan"] is True
        assert migrated["resilience"]["unscanned_shards"] == []
        assert migrated["resilience"]["stall_kills"] == 0
        assert migrated["robustness"]["quarantined_regions"] == []

    def test_migration_preserves_existing_fields(self):
        original = self.v1_dict()
        migrated = migrate_report_dict(original)
        assert migrated["dump_bytes"] == 1024
        assert migrated["timings"]["scan_rate_mb_per_hour"] == 9.0
        assert original["schema_version"] == 1  # input untouched

    def test_migration_is_idempotent(self):
        once = migrate_report_dict(self.v1_dict())
        assert migrate_report_dict(once) == once

    def test_current_report_passes_unchanged(self, successful_report):
        report, _ = successful_report
        current = report_to_dict(report)
        assert migrate_report_dict(current) == current

    def test_newer_schema_is_refused(self):
        too_new = {"schema_version": REPORT_SCHEMA_VERSION + 1}
        with pytest.raises(ValueError, match="newer"):
            migrate_report_dict(too_new)

    def test_v3_keeps_its_resilience_counts(self):
        v3 = self.v1_dict()
        v3["schema_version"] = 3
        v3["resilience"] = {
            "n_shards": 8,
            "quarantined_shards": [7],
            "resumed_shards": 2,
            "degraded_to_serial": True,
            "complete_scan": False,
        }
        migrated = migrate_report_dict(v3)
        assert migrated["resilience"]["n_shards"] == 8
        assert migrated["resilience"]["resumed_shards"] == 2
        assert migrated["resilience"]["stall_kills"] == 0  # filled default

    def test_load_report_json_round_trip(self, successful_report, tmp_path):
        """save → load of an old-version file yields a current dict."""
        report, master = successful_report
        path = tmp_path / "report.json"
        save_report_json(report, path)
        # Age the file: rewrite it as if a v3 writer had produced it.
        aged = json.loads(path.read_text())
        aged["schema_version"] = 3
        del aged["timing"]
        for field in ("unscanned_shards", "stall_kills", "resource_backend",
                      "checkpoint_path", "checkpoint_error"):
            del aged["resilience"][field]
        path.write_text(json.dumps(aged))

        loaded = load_report_json(path)
        assert loaded["schema_version"] == REPORT_SCHEMA_VERSION
        assert loaded["timing"]["stages"]["mine_seconds"] == aged["timings"]["mine_seconds"]
        keys = {entry["master_key"] for entry in loaded["recovered_keys"]}
        assert master[:32].hex() in keys


class TestV6DecodeMigration:
    def v5_dict(self):
        return {
            "schema_version": 5,
            "dump_bytes": 2048,
            "timings": {"mine_seconds": 1.0, "search_seconds": 1.0,
                        "scan_rate_mb_per_hour": 1.0},
            "candidate_keys": {"count": 0, "top_frequencies": []},
            "recovered_keys": [],
            "robustness": {
                "adaptive": {"stages_run": ["strict"]},
                "quarantined_regions": [],
                "min_confidence": 0.5,
            },
        }

    def test_v5_gains_a_null_decode_block(self):
        migrated = migrate_report_dict(self.v5_dict())
        assert migrated["schema_version"] == REPORT_SCHEMA_VERSION
        assert migrated["robustness"]["decode"] is None
        # Pre-existing robustness content survives verbatim.
        assert migrated["robustness"]["min_confidence"] == 0.5

    def test_v6_round_trips_decode_telemetry(self, tmp_path):
        from repro.attack.pipeline import AttackReport

        report = AttackReport(
            dump_bytes=4096,
            adaptive={
                "stages_run": ["strict", "decoded"],
                "decode": {"tables": 9, "converged": 2, "abstained": 7,
                           "iterations": 120, "interrupted": False},
            },
        )
        path = tmp_path / "v6.json"
        save_report_json(report, path)
        loaded = load_report_json(path)
        assert loaded["robustness"]["decode"]["converged"] == 2
        assert migrate_report_dict(loaded) == loaded

    def test_v1_chain_reaches_v6_with_decode_default(self):
        v1 = {
            "schema_version": 1,
            "dump_bytes": 1,
            "timings": {"mine_seconds": 0.0, "search_seconds": 0.0,
                        "scan_rate_mb_per_hour": 0.0},
            "candidate_keys": {"count": 0, "top_frequencies": []},
            "recovered_keys": [],
        }
        migrated = migrate_report_dict(v1)
        assert migrated["schema_version"] == REPORT_SCHEMA_VERSION
        assert migrated["robustness"]["decode"] is None

    def test_markdown_reports_decode_stage(self):
        from repro.attack.pipeline import AttackReport

        report = AttackReport(
            adaptive={
                "estimated_decay_rate": 0.04,
                "decay_source": "litmus-mismatch",
                "stages_run": ["strict", "decoded"],
                "n_recovered": 1,
                "decode": {"tables": 9, "converged": 2, "abstained": 7,
                           "iterations": 120, "interrupted": True},
            },
        )
        text = report_to_markdown(report)
        assert "decoded stage: 2 converged / 7 abstained of 9 tables" in text
        assert "interrupted by deadline" in text

    def decoded_report(self, **counters):
        from repro.attack.pipeline import AttackReport

        return AttackReport(
            adaptive={
                "estimated_decay_rate": 0.024,
                "decay_source": "litmus-mismatch",
                "stages_run": ["strict", "calibrated", "decoded"],
                "n_recovered": 2,
                "decode": {"tables": 65, "converged": 8, "abstained": 57,
                           "iterations": 869, "interrupted": False, **counters},
            },
        )

    def test_markdown_reports_gated_and_claimed_bases(self, tmp_path):
        report = self.decoded_report(gated=1141, claimed=26)
        text = report_to_markdown(report)
        assert "of 65 tables (869 sweeps, 1141 bases gated, 26 bases claimed)" in text
        path = tmp_path / "v7.json"
        save_report_json(report, path)
        decode = load_report_json(path)["robustness"]["decode"]
        assert (decode["gated"], decode["claimed"]) == (1141, 26)

    def test_decode_block_without_the_counters_still_renders(self, tmp_path):
        """Reports written before ``gated``/``claimed`` were folded in
        lack both; they load and render without inventing zeros."""
        report = self.decoded_report()
        path = tmp_path / "older.json"
        save_report_json(report, path)
        loaded = load_report_json(path)
        assert "gated" not in loaded["robustness"]["decode"]
        assert migrate_report_dict(loaded) == loaded
        text = report_to_markdown(report)
        assert "of 65 tables (869 sweeps)" in text
        assert "gated" not in text and "claimed" not in text


class TestV7ServiceMigration:
    def versioned_dict(self, version: int) -> dict:
        base = {
            "schema_version": version,
            "dump_bytes": 512,
            "timings": {"mine_seconds": 0.1, "search_seconds": 0.2,
                        "scan_rate_mb_per_hour": 3.0},
            "candidate_keys": {"count": 0, "top_frequencies": []},
            "recovered_keys": [],
        }
        if version >= 2:
            base["resilience"] = {
                "n_shards": 4, "quarantined_shards": [], "resumed_shards": 1,
                "degraded_to_serial": False, "complete_scan": True,
            }
        if version >= 3:
            base["robustness"] = {
                "adaptive": None, "quarantined_regions": [],
                "min_confidence": 0.0,
            }
        return base

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_every_prior_version_gains_a_null_service_block(self, version):
        migrated = migrate_report_dict(self.versioned_dict(version))
        assert migrated["schema_version"] == REPORT_SCHEMA_VERSION
        assert migrated["service"] is None

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_migration_round_trips_every_prior_version(self, version):
        once = migrate_report_dict(self.versioned_dict(version))
        assert migrate_report_dict(once) == once

    def test_existing_service_block_survives_migration(self):
        aged = self.versioned_dict(6)
        aged["service"] = {"job_id": "job-x", "attempts": 2}
        migrated = migrate_report_dict(aged)
        assert migrated["service"] == {"job_id": "job-x", "attempts": 2}

    def test_report_dicts_carry_null_service_by_default(self, successful_report):
        report, _ = successful_report
        assert report_to_dict(report)["service"] is None

    def test_v6_report_resumed_under_v7_yields_identical_keys(self, tmp_path):
        """A journal a v6 run left behind resumes byte-identically on v7.

        Simulates the upgrade path: a v6 deployment ran a sharded scan
        to completion and archived its report; the same journal resumed
        by v7 tooling must recover the same keys, and migrating the
        archived v6 report must agree with the fresh v7 one on every
        canonical (non-volatile) byte.
        """
        from repro.attack.report import canonical_report_bytes

        dump, master, _ = synthetic_dump(
            bit_error_rate=0.0, n_blocks=3 * 4096, seed=43)
        journal = tmp_path / "v6-run.checkpoint.jsonl"
        v6_report = Ddr4ColdBootAttack().run_sharded(
            dump, workers=2, n_shards=4, checkpoint=journal)
        aged = report_to_dict(v6_report)
        aged["schema_version"] = 6
        del aged["service"]  # a v6 writer never emitted the block

        resumed = Ddr4ColdBootAttack().run_sharded(
            dump, workers=2, n_shards=4, checkpoint=journal, resume=True)
        assert resumed.resumed_shards == 4  # nothing re-scanned
        assert [r.master_key for r in resumed.recovered_keys] == \
            [r.master_key for r in v6_report.recovered_keys]
        assert master[:32].hex() in {r.master_key.hex()
                                     for r in resumed.recovered_keys}
        assert canonical_report_bytes(migrate_report_dict(aged)) == \
            canonical_report_bytes(report_to_dict(resumed))


class TestCanonicalReportBytes:
    def test_volatile_fields_do_not_change_identity(self, successful_report):
        from repro.attack.report import canonical_report_bytes

        report, _ = successful_report
        one = report_to_dict(report)
        two = report_to_dict(report)
        two["timings"]["mine_seconds"] = 999.0
        two["timing"]["stages"]["search_seconds"] = 999.0
        two["service"] = {"job_id": "job-y", "attempts": 3}
        two["resilience"]["resumed_shards"] = 7
        two["resilience"]["executor"] = "process"
        two["resilience"]["checkpoint_path"] = "/elsewhere.jsonl"
        assert canonical_report_bytes(one) == canonical_report_bytes(two)

    def test_finding_changes_do_change_identity(self, successful_report):
        from repro.attack.report import canonical_report_bytes

        report, _ = successful_report
        one = report_to_dict(report)
        two = report_to_dict(report)
        two["recovered_keys"] = []
        assert canonical_report_bytes(one) != canonical_report_bytes(two)

    def test_input_is_not_modified(self, successful_report):
        from repro.attack.report import canonical_report_bytes

        report, _ = successful_report
        data = report_to_dict(report)
        before = json.dumps(data, sort_keys=True)
        canonical_report_bytes(data)
        assert json.dumps(data, sort_keys=True) == before
