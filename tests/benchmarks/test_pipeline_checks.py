"""The pipeline benchmark's correctness checker and its compare verdicts."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.pipeline.compare import compare, spread, verdict  # noqa: E402
from benchmarks.pipeline.workloads import judge, score, xts_halves  # noqa: E402

MASTER = bytes(range(64))
PRIMARY, TWEAK = MASTER[:32], MASTER[32:]
PLANTED = xts_halves(MASTER)
WRONG = bytes(32 * [0xAA])


class TestCorrectnessChecker:
    def test_exact_recovery_passes(self):
        unit = judge(1.0, [PRIMARY, TWEAK], PLANTED)
        assert (unit.exact, unit.spurious, unit.failed) == (2, 0, False)

    def test_wrong_key_is_spurious(self):
        assert score([PRIMARY, WRONG], PLANTED) == (1, 1)
        assert judge(1.0, [PRIMARY, TWEAK, WRONG], PLANTED).failed

    def test_missing_xts_half_fails(self):
        unit = judge(1.0, [TWEAK], PLANTED)
        assert (unit.exact, unit.spurious, unit.failed) == (1, 0, True)

    def test_duplicate_key_counts_as_spurious(self):
        unit = judge(1.0, [PRIMARY, TWEAK, PRIMARY], PLANTED)
        assert (unit.exact, unit.spurious, unit.failed) == (2, 1, True)

    @pytest.mark.parametrize("state", ["FAILED", "EXPIRED", "CANCELLED"])
    def test_service_job_not_done_fails_even_with_keys(self, state):
        unit = judge(1.0, [PRIMARY, TWEAK], PLANTED, state=state)
        assert unit.failed and unit.exact == 2

    def test_xts_halves_split_primary_and_tweak(self):
        assert xts_halves(MASTER) == {PRIMARY, TWEAK}


def metric(value, samples=None):
    """A record entry; by default two samples without spread."""
    return {"value": value, "unit": "s", "samples": [value, value] if samples is None else samples}


class TestCompare:
    def test_spread_is_interquartile_share_of_median(self):
        assert spread([1.0]) == math.inf
        assert spread([9.0, 10.0, 11.0]) == pytest.approx(0.1)

    @pytest.mark.parametrize("single", ["base", "cand"])
    def test_a_single_sample_is_unresolved(self, single):
        one, two = metric(10.0, [10.0]), metric(10.0)
        base, cand = (one, two) if single == "base" else (two, one)
        assert verdict(base, cand, "lower", 0.1)[0] == "unresolved"

    def test_single_samples_every_one_better_reads_better(self):
        assert verdict(metric(10.0, [10.0]), metric(5.0, [5.0]), "lower", 0.1)[0] == "better"

    @pytest.mark.parametrize(
        "base, cand, better, expected",
        [
            (10.0, 10.5, "lower", "within bound"),
            (10.0, 12.0, "lower", "worse"),
            (10.0, 8.0, "lower", "better"),
            (2.0, 1.0, "higher", "worse"),
            (2.0, 2.0, "higher", "within bound"),
        ],
    )
    def test_verdicts_use_the_bound_and_direction(self, base, cand, better, expected):
        assert verdict(metric(base), metric(cand), better, 0.1)[0] == expected

    def test_wide_spread_is_unresolved(self):
        noisy = metric(10.0, [5.0, 10.0, 15.0])
        assert verdict(noisy, metric(10.5), "lower", 0.1)[0] == "unresolved"

    def test_wide_spread_but_every_sample_better_reads_better(self):
        noisy = metric(10.0, [9.0, 10.0, 14.0])
        assert verdict(noisy, metric(5.0, [4.0, 5.0, 6.0]), "lower", 0.1)[0] == "better"

    def test_compare_rows_cover_every_metric_and_shared_workload(self):
        benchmark = {
            "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [
                {"name": "wall_s", "better": "lower", "bound": 0.1},
                {"name": "exact_keys", "better": "higher", "bound": 0.01},
            ],
        }
        before = {"wall_s": metric(10.0), "exact_keys": metric(2.0)}
        base = {"workloads": {"a": {"end_to_end": before}}}
        cand = {"workloads": {"a": {"end_to_end": {"wall_s": metric(12.0)}}}}
        rows = compare(base, cand, benchmark)
        assert [(row[0], row[1], row[2]) for row in rows] == [
            ("a", "wall_s", "worse"),
            ("a", "exact_keys", "unresolved"),
        ]
