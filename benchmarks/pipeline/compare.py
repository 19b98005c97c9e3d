"""Verdicts between two benchmark records, using BENCHMARK.json's bounds.

For every (end-to-end metric, workload) pair present in both records:

* **worse** — the candidate's value is worse than the baseline's by
  more than the metric's bound;
* **better** — better by more than the bound;
* **within bound** — neither;
* **unresolved** — either record has fewer than two samples, or its
  spread (the distance between the quartiles of its samples, as a
  share of their median) is wider than the bound, so the difference
  cannot be judged — unless every candidate sample is better than
  every baseline sample, which reads as better.
"""

from __future__ import annotations

import math
import statistics


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median; unknown (inf) below 2 samples."""
    if len(samples) < 2:
        return math.inf
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / median if median else 0.0


def verdict(base: dict, cand: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening share)`` for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cand["value"] - base["value"]) / base["value"] if base["value"] else 0.0
    base_samples = base.get("samples", [base["value"]])
    cand_samples = cand.get("samples", [cand["value"]])
    if max(spread(base_samples), spread(cand_samples)) > bound:
        all_better = all(sign * (c - b) < 0 for c in cand_samples for b in base_samples)
        return ("better" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "within bound", worse_by


def compare(base: dict, cand: dict, benchmark: dict) -> list[tuple]:
    """Rows of ``(workload, metric, verdict, base value, candidate value, worse_by)``."""
    rows = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in cand["workloads"]:
            continue
        before = base["workloads"][name]["end_to_end"]
        after = cand["workloads"][name]["end_to_end"]
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            if key not in before or key not in after:
                rows.append((name, key, "unresolved", float("nan"), float("nan"), float("nan")))
                continue
            outcome, worse_by = verdict(before[key], after[key], metric["better"], metric["bound"])
            rows.append((name, key, outcome, before[key]["value"], after[key]["value"], worse_by))
    return rows
