"""Decoded keys claim their schedule region; aliases inside it are skipped.

``AesKeySearch.recover_keys`` visits bases from the most schedule-like
span table down, and a key the decode path returns claims
``[base, base + 240)``: later bases inside it are shifted aliases of
that schedule, never decoded.  That must change nothing but the work.
The claim-free loop is frozen in
:func:`benchmarks.legacy_scan.claim_free_recover_keys` (address order,
every group decoded, overlaps settled afterwards); these tests run the
whole adaptive engine with the live loop and with the oracle patched
in, and compare every recovered field.  A deadline that cuts the
decoded rung after the first claim must still resume to the same keys.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_scan import claim_free_recover_keys  # noqa: E402
from benchmarks.pipeline.workloads import permute_regions  # noqa: E402

from repro.attack.adaptive import AdaptiveRecoveryEngine  # noqa: E402
from repro.attack.aes_search import AesKeySearch  # noqa: E402
from repro.attack.sweep import synthetic_dump  # noqa: E402
from repro.crypto.aes import schedule_bytes  # noqa: E402
from repro.resilience.checkpoint import DecodeStateStore  # noqa: E402
from repro.resilience.deadline import Deadline  # noqa: E402

SCHEDULE_LEN = schedule_bytes(256)


def _recover(monkeypatch, dump, oracle: bool):
    """Run the engine; return its result and the decoded rung's visits.

    A visit is ``(base, decoded)`` for each group ``recover_keys`` sent
    through ``_recover_from_group`` with decoding on; pinned rescues of
    ``recover_at_base`` are not visits of the loop under test.
    """
    visits: list[tuple[int, bool]] = []
    original = AesKeySearch._recover_from_group

    def recording(self, blocks, base, group, span_gate, pinned=False):
        result, decoded = original(self, blocks, base, group, span_gate, pinned=pinned)
        if self.schedule_decode and not pinned:
            visits.append((base, decoded))
        return result, decoded

    with monkeypatch.context() as patch:
        patch.setattr(AesKeySearch, "_recover_from_group", recording)
        if oracle:
            patch.setattr(AesKeySearch, "recover_keys", claim_free_recover_keys)
        result = AdaptiveRecoveryEngine(total_work=10).recover(dump)
    return result, visits


class TestClaimsMatchTheClaimFreeLoop:
    @pytest.mark.parametrize("ber", [0.040, 0.024])
    def test_identical_keys_with_aliases_skipped(self, monkeypatch, ber):
        dump, _, _ = synthetic_dump(ber, seed=5)
        dump = permute_regions(dump, 2)
        live, live_visits = _recover(monkeypatch, dump, oracle=False)
        frozen, frozen_visits = _recover(monkeypatch, dump, oracle=True)

        # Every RecoveredAesKey field (hits and confidence included).
        assert live.recovered == frozen.recovered
        assert len(live.recovered) == 2
        assert live.stages_run == frozen.stages_run

        claimants = [base for base, decoded in live_visits if decoded]
        skipped = {base for base, _ in frozen_visits} - {base for base, _ in live_visits}
        assert live.decode["claimed"] > 0
        assert live.decode["claimed"] == len(skipped)
        assert all(
            any(abs(base - claimant) < SCHEDULE_LEN for claimant in claimants)
            for base in skipped
        )
        assert live.decode["tables"] < frozen.decode["tables"]
        assert live.decode["converged"] == frozen.decode["converged"]
        assert live.decode["gated"] <= frozen.decode["gated"]

    def test_nothing_to_claim_past_the_decode_horizon(self, monkeypatch):
        """At BER 0.080 nothing converges, so nothing claims a region
        and the live loop decodes exactly the oracle's tables."""
        dump, _, _ = synthetic_dump(0.080, seed=5)
        live, live_visits = _recover(monkeypatch, dump, oracle=False)
        frozen, frozen_visits = _recover(monkeypatch, dump, oracle=True)
        assert live.recovered == frozen.recovered == []
        assert live.decode["claimed"] == 0
        assert live.decode["tables"] == frozen.decode["tables"] > 0
        assert sorted(live_visits) == sorted(frozen_visits)


def _stored_states(path: Path) -> dict:
    """The decode states a ``DecodeStateStore`` sidecar holds."""
    return json.loads(path.read_text(encoding="utf-8"))["entries"]


class CountdownDeadline(Deadline):
    """Counts ``expired`` polls; expires after ``checks`` of them."""

    def __init__(self, checks: float = float("inf")) -> None:
        object.__setattr__(self, "expires_at", float("inf"))
        object.__setattr__(self, "total_seconds", 3600.0)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "polls", 0)

    @property
    def expired(self) -> bool:
        object.__setattr__(self, "polls", self.polls + 1)
        return self.polls > self.checks


class TestResumeThroughAClaim:
    def test_interrupted_after_the_first_claim_resumes_identically(
        self, monkeypatch, tmp_path
    ):
        dump, _, _ = synthetic_dump(0.040, seed=5)

        # Uninterrupted reference, noting how many deadline polls had
        # happened at the first claim.  On this dump every later poll is
        # a decode sweep of the decoded rung, which recovers both keys
        # and ends the ladder (the XTS sibling through the pinned
        # rescue).
        counter = CountdownDeadline()
        claims_at: list[int] = []
        original = AesKeySearch._recover_from_group

        def noting_claims(self, blocks, base, group, span_gate, pinned=False):
            result, decoded = original(self, blocks, base, group, span_gate, pinned=pinned)
            if decoded and not pinned:
                claims_at.append(counter.polls)
            return result, decoded

        with monkeypatch.context() as patch:
            patch.setattr(AesKeySearch, "_recover_from_group", noting_claims)
            straight = AdaptiveRecoveryEngine(total_work=10).recover(dump, deadline=counter)
        assert len(straight.recovered) == 2
        assert straight.stages_run[-1] == "decoded"
        assert counter.polls - claims_at[0] >= 2

        path = tmp_path / "scan.jsonl.decode"
        cut = CountdownDeadline((claims_at[0] + counter.polls) // 2)
        interrupted = AdaptiveRecoveryEngine(
            total_work=10, decode_state_store=DecodeStateStore(path)
        ).recover(dump, deadline=cut)
        assert interrupted.decode["interrupted"]
        assert interrupted.stages_run[-1] == "decoded"
        assert _stored_states(path), "no partial decode was checkpointed"

        resumed = AdaptiveRecoveryEngine(
            total_work=10, decode_state_store=DecodeStateStore(path)
        ).recover(dump)
        assert resumed.recovered == straight.recovered
        assert not resumed.decode["interrupted"]
        # The checkpointed decode was picked up, finished and retired.
        assert not _stored_states(path)
