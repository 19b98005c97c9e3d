"""Self-time, residual and hook arithmetic of the pipeline benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.pipeline import trace  # noqa: E402
from benchmarks.pipeline.trace import Span  # noqa: E402


def span(id, name, start, end, parent=None, thread="MainThread", **attrs):
    return Span(id, name, float(start), float(end), parent, thread, attrs)


class TestSelfTime:
    def test_union_merges_overlaps(self):
        assert trace.union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert trace.covered_within([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2.0

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            span(0, "outer", 0, 10),
            span(1, "a", 1, 3, parent=0),
            span(2, "b", 2, 5, parent=0),
            span(3, "leaf", 2, 3, parent=2),
        ]
        selfs = trace.self_times(spans)
        assert selfs == {0: 6.0, 1: 2.0, 2: 2.0, 3: 1.0}

    def test_self_times_plus_residual_add_up_to_the_pass(self):
        spans = [
            span(0, "pass", 0, 10),
            span(1, "victim.boot", 0, 1, parent=0),
            span(2, "parallel.scan", 1, 9, parent=0),
            span(3, "keymine", 1, 2, parent=2),
            span(4, "parallel.search", 2, 8.5, parent=2, workers=2),
            # Worker-thread spans overlap each other and the search; they
            # are busy time, not wall time, so they change no residual.
            span(5, "aes_search.recover", 2, 8, thread="w0"),
            span(6, "aes_search.recover", 2.5, 8.5, thread="w1"),
        ]
        residual, wall = trace.root_accounting(spans)
        assert (residual, wall) == (1.0, 10.0)
        selfs = trace.self_times(spans)
        main = [s for s in spans if s.thread == "MainThread"]
        assert sum(selfs[s.id] for s in main) == pytest.approx(wall)

    def test_worker_busy_time_and_efficiency(self):
        spans = [
            span(0, "pass", 0, 10),
            span(1, "parallel.search", 2, 8, parent=0, workers=2),
            span(2, "aes_search.recover", 2, 7, thread="w0"),
            span(3, "aes_search.recover", 3, 8, thread="w1"),
            span(4, "aes_search.recover", 9, 9.5),  # outside any search
        ]
        metrics = trace.layer_metrics(spans, units=1)
        assert metrics["parallel.busy_s"] == 10.0
        assert metrics["parallel.efficiency"] == pytest.approx(10.0 / 12.0)
        assert metrics["parallel.search_wall_s"] == 6.0

    def test_counts_are_per_unit(self):
        spans = [
            span(0, "decode", 0, 1, tables=10, sweeps=40, converged=1),
            span(1, "decode", 1, 2, tables=30, sweeps=60, converged=3),
        ]
        metrics = trace.layer_metrics(spans, units=2)
        assert metrics["decode.calls"] == 1.0
        assert metrics["decode.tables"] == 20.0
        assert metrics["decode.converged_fraction"] == 0.1
        assert metrics["decode.s_per_table"] == 2.0 / 40

    def test_junk_hits_are_hits_off_every_recovered_base(self):
        spans = [
            span(0, "aes_search.recover", 0, 2, bases=[100]),
            span(1, "aes_search.scan", 0, 1, parent=0, hits=4, _hit_bases=[100, 100, 7, 9]),
        ]
        assert trace.layer_metrics(spans, units=1)["aes_search.junk_hit_fraction"] == 0.5


class TestAdaptiveRungs:
    def test_rungs_start_at_each_mining_call_after_triage(self):
        spans = [
            span(0, "adaptive", 0, 20, stages_run=["strict", "calibrated", "decoded"]),
            span(1, "keymine", 0, 1, parent=0),
            span(2, "adaptive.triage", 1, 2, parent=0),
            span(3, "keymine", 2, 3, parent=0),
            span(4, "keymine", 4, 5, parent=0),
            span(5, "aes_search.recover", 5, 9, parent=0),
            span(6, "keymine", 9, 10, parent=0),
            span(7, "aes_search.recover", 10, 19, parent=0),
            span(8, "aes_search.scan", 10, 12, parent=7, radius=1),
        ]
        metrics = trace.layer_metrics(spans, units=1)
        assert metrics["adaptive.rung.strict_s"] == 2.0
        assert metrics["adaptive.rung.calibrated_s"] == 5.0
        assert metrics["adaptive.rung.decoded_s"] == 11.0
        assert metrics["adaptive.rung.widened_s"] == 0.0
        assert metrics["adaptive.decoded_scan_s"] == 2.0


class TestServiceJobs:
    def test_job_latency_splits_into_waits_spans_and_residual(self):
        def wal(id, start, end, event):
            return span(
                id, "service.wal_append", start, end, thread="engine", job_id="j", event=event
            )

        spans = [
            span(0, "service.submit", 0.5, 0.6, job_id="j"),
            wal(1, 1.0, 1.1, "QUEUED"),
            wal(2, 1.1, 1.2, "ADMITTED"),
            wal(3, 2.0, 2.1, "RUNNING"),
            span(4, "service.run", 2.2, 5.0, thread="worker", job_id="j"),
            wal(5, 5.1, 5.2, "DONE"),
        ]
        jobs = trace.job_accounting(spans, {"j": 0.0})
        assert jobs["latency"] == pytest.approx(5.2)
        assert jobs["pickup_wait"] == pytest.approx(0.4)
        assert jobs["queue_wait"] == pytest.approx(0.8)
        assert jobs["lag_max"] == pytest.approx(0.5)
        # Only the gaps around execute_attack_job are unclaimed.
        assert jobs["residual"] == pytest.approx(0.2)
        metrics = trace.service_metrics(jobs)
        assert metrics["service.wal_appends"] == 4.0
        assert metrics["service.run_s"] == pytest.approx(2.8)


class TestHooks:
    def test_missing_target_warns_and_drops_its_metrics(self):
        hooks = (
            trace.Hook("repro.no_such_module.function", "ghost"),
            trace.Hook("repro.attack.aes_search.no_such_function", "decode"),
        )
        tracer = trace.Tracer()
        with pytest.warns(UserWarning, match="not found"):
            with trace.installed(tracer, hooks) as missing:
                assert missing == {"ghost", "decode"}
        metrics = trace.layer_metrics([span(0, "keymine", 0, 1)], units=1, missing=missing)
        assert "keymine.s" in metrics
        assert not [name for name in metrics if name.startswith("decode.")]

    def test_a_span_survives_if_any_of_its_hooks_remains(self):
        hooks = (
            trace.Hook("repro.attack.aes_search.decode_schedule", "decode"),
            trace.Hook("repro.attack.aes_search.no_such_function", "decode"),
        )
        with pytest.warns(UserWarning):
            with trace.installed(trace.Tracer(), hooks) as missing:
                assert missing == set()

    def test_hooks_record_spans_and_restore_originals(self, tmp_path):
        from repro.dram.image import MemoryImage

        raw = MemoryImage.__dict__["load_tolerant"]
        path = tmp_path / "dump.bin"
        path.write_bytes(bytes(128))
        tracer = trace.Tracer()
        hooks = (trace.Hook("repro.dram.image.MemoryImage.load_tolerant", "service.load_dump"),)
        with trace.installed(tracer, hooks):
            assert len(MemoryImage.load_tolerant(path)) == 128
        assert MemoryImage.__dict__["load_tolerant"] is raw
        assert [s.name for s in tracer.spans] == ["service.load_dump"]
        assert tracer.overhead_s > 0

    def test_failing_annotation_warns_but_returns_the_result(self):
        from repro.attack import keymine

        def broken(call, result):
            raise KeyError("renamed argument")

        hooks = (trace.Hook("repro.attack.keymine.keys_matrix", "keymine", annotate=broken),)
        tracer = trace.Tracer()
        with pytest.warns(UserWarning, match="cannot count"):
            with trace.installed(tracer, hooks):
                assert keymine.keys_matrix([]).shape[0] == 0
        assert tracer.spans[0].attrs == {}
