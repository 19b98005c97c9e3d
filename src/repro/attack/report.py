"""Serialisable attack reports: JSON for tooling, markdown for humans.

An open-source release of this attack would be used in forensics
pipelines, so the pipeline's findings need machine-readable output
(``python -m repro attack dump.bin --json report.json``) and a
readable summary.  Keys are redacted by default in the markdown form —
a habit worth keeping when the tool is pointed at real dumps.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.attack.pipeline import AttackReport

#: Schema version for downstream consumers.  v2 added the
#: ``resilience`` section (sharding, quarantine, and resume accounting);
#: v3 added the ``robustness`` section (decay estimate, escalation
#: stages, quarantined regions), per-key ``confidence`` scores, and
#: per-candidate litmus residuals; v4 added the ``timing`` section
#: (per-stage wall time, the run's deadline, how and why it ended) and
#: the degradation fields in ``resilience`` (stall kills, unscanned
#: shards, resource backend, checkpoint rotation/error); v5 added
#: ``resilience.executor`` (which worker pool ran the shards); v6 added
#: ``robustness.decode`` (belief-propagation telemetry of the decoded
#: escalation stage: tables tried, message-passing sweeps, converged
#: and abstained counts, per-base abstain evidence, interrupt flag);
#: v7 added the ``service`` block (``None`` outside ``repro serve``:
#: job id, attempts, admission latency, terminal state — how the job
#: engine ran this report's scan).
REPORT_SCHEMA_VERSION = 7


def report_to_dict(report: AttackReport, include_keys: bool = True) -> dict:
    """Flatten an :class:`AttackReport` into JSON-ready primitives."""
    def key_text(key: bytes) -> str:
        return key.hex() if include_keys else f"<redacted {len(key)} bytes>"

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dump_bytes": report.dump_bytes,
        "timings": {
            "mine_seconds": report.mine_seconds,
            "search_seconds": report.search_seconds,
            "scan_rate_mb_per_hour": report.scan_rate_mb_per_hour,
        },
        "timing": {
            "stages": {
                "mine_seconds": report.mine_seconds,
                "search_seconds": report.search_seconds,
            },
            "deadline_seconds": report.deadline_s,
            "deadline_expired": report.deadline_expired,
            "interrupted": report.interrupted,
            "expiry_cause": report.expiry_cause,
        },
        "candidate_keys": {
            "count": len(report.candidate_keys),
            "top_frequencies": [c.count for c in report.candidate_keys[:16]],
            "top_litmus_mismatch_bits": [
                c.litmus_mismatch_bits for c in report.candidate_keys[:16]
            ],
        },
        "resilience": {
            "n_shards": report.n_shards,
            "quarantined_shards": list(report.quarantined_shards),
            "resumed_shards": report.resumed_shards,
            "degraded_to_serial": report.degraded_to_serial,
            "complete_scan": report.complete_scan,
            "unscanned_shards": list(report.unscanned_shards),
            "stall_kills": report.stall_kills,
            "resource_backend": report.resource_backend,
            "executor": report.executor,
            "checkpoint_path": report.checkpoint_path,
            "checkpoint_error": report.checkpoint_error,
        },
        "robustness": {
            "adaptive": report.adaptive,
            "quarantined_regions": list(report.quarantined_regions),
            "min_confidence": report.min_confidence,
            "decode": (report.adaptive or {}).get("decode"),
        },
        # Filled in by the job engine when the scan ran under
        # ``repro serve`` (see repro.service.server.execute_attack_job).
        "service": None,
        "recovered_keys": [
            {
                "key_bits": recovered.key_bits,
                "master_key": key_text(recovered.master_key),
                "table_base": recovered.hits[0].table_base if recovered.hits else None,
                "votes": recovered.votes,
                "match_fraction": recovered.match_fraction,
                "region_agreement": recovered.region_agreement,
                "confidence": recovered.confidence,
                "hits": [asdict(hit) for hit in recovered.hits],
            }
            for recovered in report.recovered_keys
        ],
    }


def save_report_json(report: AttackReport, path: str | Path, include_keys: bool = True) -> None:
    """Write the JSON form of a report to disk."""
    Path(path).write_text(
        json.dumps(report_to_dict(report, include_keys), indent=2), encoding="utf-8"
    )


def migrate_report_dict(data: dict) -> dict:
    """Upgrade an older report dict to the current schema, losslessly.

    Reports are archived artifacts — a forensics pipeline that stored a
    v2/v3 report must still be able to feed it to v4 tooling.  Every
    field that exists in the input is preserved verbatim; fields the
    newer schema added are filled with their "nothing happened"
    defaults (no deadline, no interrupt, no degradation).  Migration is
    idempotent: migrating an already-current dict returns an equal
    dict, so load → migrate → save round-trips.

    Raises ``ValueError`` for a report *newer* than this reader — the
    fields it would drop are exactly the ones its writer cared about.
    """
    import copy

    version = int(data.get("schema_version", 1))
    if version > REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"report schema v{version} is newer than this reader "
            f"(v{REPORT_SCHEMA_VERSION}); refusing to downgrade it"
        )
    migrated = copy.deepcopy(data)
    if version < 2:
        migrated.setdefault(
            "resilience",
            {
                "n_shards": 0,
                "quarantined_shards": [],
                "resumed_shards": 0,
                "degraded_to_serial": False,
                "complete_scan": True,
            },
        )
    if version < 3:
        migrated.setdefault(
            "robustness",
            {"adaptive": None, "quarantined_regions": [], "min_confidence": 0.0},
        )
    if version < 4:
        timings = migrated.get("timings", {})
        migrated.setdefault(
            "timing",
            {
                "stages": {
                    "mine_seconds": timings.get("mine_seconds", 0.0),
                    "search_seconds": timings.get("search_seconds", 0.0),
                },
                "deadline_seconds": None,
                "deadline_expired": False,
                "interrupted": False,
                "expiry_cause": None,
            },
        )
        resilience = migrated.setdefault("resilience", {})
        resilience.setdefault("unscanned_shards", [])
        resilience.setdefault("stall_kills", 0)
        resilience.setdefault("resource_backend", "")
        resilience.setdefault("checkpoint_path", None)
        resilience.setdefault("checkpoint_error", None)
    if version < 5:
        resilience = migrated.setdefault("resilience", {})
        resilience.setdefault("executor", "")
    if version < 6:
        robustness = migrated.setdefault("robustness", {})
        robustness.setdefault("decode", None)
    if version < 7:
        migrated.setdefault("service", None)
    migrated["schema_version"] = REPORT_SCHEMA_VERSION
    return migrated


#: Fields excluded from :func:`canonical_report_bytes` — everything
#: that legitimately differs between two runs of the *same* scan
#: (wall-clock timing, executor/backend selection, resume accounting,
#: and the service block's attempt/latency bookkeeping).  What remains
#: is the attack's findings, which the crash-safety guarantees pin
#: byte-for-byte across kill/resume.
VOLATILE_REPORT_FIELDS = ("timings", "timing", "service")
VOLATILE_RESILIENCE_FIELDS = (
    "resumed_shards", "degraded_to_serial", "stall_kills",
    "resource_backend", "executor", "checkpoint_path", "checkpoint_error",
)


def canonical_report_bytes(data: dict) -> bytes:
    """A report dict's deterministic identity, as canonical JSON bytes.

    Two runs of the same scan — one uninterrupted, one SIGKILL'd and
    resumed from its journals — must produce the same *findings*:
    recovered keys with all their evidence, candidate statistics,
    quarantine decisions.  This strips the fields that are allowed to
    differ (wall-clock timings, pool/backend selection, resume and
    service bookkeeping — see :data:`VOLATILE_REPORT_FIELDS`) and
    serialises the rest with sorted keys, so "byte-identical" is a
    simple bytes comparison.  The input is not modified.
    """
    import copy

    canonical = copy.deepcopy(data)
    for field in VOLATILE_REPORT_FIELDS:
        canonical.pop(field, None)
    resilience = canonical.get("resilience")
    if isinstance(resilience, dict):
        for field in VOLATILE_RESILIENCE_FIELDS:
            resilience.pop(field, None)
    robustness = canonical.get("robustness")
    if isinstance(robustness, dict):
        adaptive = robustness.get("adaptive")
        if isinstance(adaptive, dict):
            adaptive.pop("stage_seconds", None)
    return json.dumps(canonical, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def load_report_json(path: str | Path) -> dict:
    """Read a report JSON of any supported schema version, migrated to
    the current one."""
    return migrate_report_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def report_to_markdown(report: AttackReport, include_keys: bool = False) -> str:
    """A human-readable summary (keys redacted unless asked for)."""
    lines = [
        "# Cold boot attack report",
        "",
        f"* dump size: {report.dump_bytes / 1048576:.2f} MiB",
        f"* mining: {report.mine_seconds:.2f} s "
        f"({len(report.candidate_keys)} candidate scrambler keys)",
        f"* search: {report.search_seconds:.2f} s "
        f"({report.scan_rate_mb_per_hour:.0f} MB/h overall)",
        f"* AES keys recovered: {len(report.recovered_keys)}",
        "",
    ]
    if report.n_shards:
        lines.append(
            f"* sharding: {report.n_shards} shards, "
            f"{report.resumed_shards} resumed from checkpoint, "
            f"{len(report.quarantined_shards)} quarantined"
        )
        if report.quarantined_shards:
            offsets = ", ".join(f"{offset:#x}" for offset in report.quarantined_shards)
            lines.append(f"* **warning: unscanned (quarantined) shard offsets:** {offsets}")
        if report.unscanned_shards:
            lines.append(
                f"* **warning: run stopped early ({report.expiry_cause or 'stopped'});** "
                f"{len(report.unscanned_shards)} shard(s) unscanned — resume with the "
                f"same checkpoint to finish"
            )
        lines.append("")
    if report.adaptive is not None:
        lines.append(
            f"* adaptive recovery: decay rate {report.adaptive['estimated_decay_rate']:.4f} "
            f"({report.adaptive['decay_source']}), stages "
            f"{' → '.join(report.adaptive['stages_run']) or 'none'}"
        )
        decode = report.adaptive.get("decode")
        if decode:
            notes = [f"{decode['iterations']} sweeps"]
            # Reports written before these counters existed lack them.
            notes += [
                f"{decode[name]} bases {name}" for name in ("gated", "claimed") if name in decode
            ]
            if decode.get("interrupted"):
                notes.append("interrupted by deadline")
            lines.append(
                f"* decoded stage: {decode['converged']} converged / "
                f"{decode['abstained']} abstained of {decode['tables']} tables "
                f"({', '.join(notes)})"
            )
        for region in report.quarantined_regions:
            lines.append(
                f"* **warning: quarantined region** {region['offset']:#x}"
                f"+{region['length']:#x} ({region['reason']}): {region['detail']}"
            )
        lines.append("")
    if report.recovered_keys:
        lines.append("| # | bits | image offset | votes | region match | confidence | key |")
        lines.append("|---|------|--------------|-------|--------------|------------|-----|")
        for index, recovered in enumerate(report.recovered_keys, start=1):
            base = recovered.hits[0].table_base if recovered.hits else 0
            key = (
                recovered.master_key.hex()
                if include_keys
                else f"&lt;redacted {len(recovered.master_key)}B&gt;"
            )
            lines.append(
                f"| {index} | {recovered.key_bits} | {base:#x} | {recovered.votes} "
                f"| {100 * recovered.match_fraction:.1f}% "
                f"| {recovered.confidence:.2f} | `{key}` |"
            )
    else:
        lines.append("_No expanded AES key schedules were located._")
    lines.append("")
    return "\n".join(lines)
