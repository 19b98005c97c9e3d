"""Spans recorded from outside the program, and the arithmetic on them.

The traced pass wraps public functions of each layer (looked up by
dotted name, see :data:`HOOKS`) so that every call records a
:class:`Span` — name, start, end, parent and thread — into an in-memory
:class:`Tracer`.  Nothing under ``src/`` knows it is being traced.

Two rules turn spans into numbers:

* a span's **self time** is its duration minus the part of that
  interval its child spans cover (children are the spans opened on the
  same thread while it was open);
* the self times of the spans under a unit's root, plus the root's own
  self time — the **residual**, time no layer claimed — add up to the
  unit's wall time.  Spans on worker threads have no parent on the
  measuring thread, so they count as busy time, never as wall time.

A hook whose target no longer exists is skipped with a warning, and
the metrics that need its span are left out: refactors that delete a
function must not crash the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import re
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MIB = float(1 << 20)


# ----------------------------------------------------------------- memory


def reset_peak_rss() -> bool:
    """Reset the kernel's RSS high-water mark (VmHWM) to the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mib() -> float:
    """The RSS high-water mark since the last reset, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            match = re.search(r"^VmHWM:\s+(\d+) kB", handle.read(), re.MULTILINE)
    except OSError:
        match = None
    if match is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return int(match.group(1)) / 1024.0


# ------------------------------------------------------------------ spans


@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware span recorder for one traced pass.

    Each thread keeps its own stack of open spans, so a span's parent
    is the innermost span its own thread had open.  A span opened with
    ``rss=True`` and not nested in another such span resets the RSS
    high-water mark on entry and records the peak on exit.

    ``overhead_s`` accumulates the tracer's own time — what each span
    costs outside its ``[start, end]`` interval, on every thread — which
    the traced run reports as its tracing overhead.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, rss: bool = False, **attrs):
        entered = time.perf_counter()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
        track_rss = rss and not any(open_span.attrs.get("_rss") for open_span in stack)
        if track_rss:
            attrs["_rss"] = reset_peak_rss()
        span = Span(
            span_id,
            name,
            time.perf_counter(),
            0.0,
            stack[-1].id if stack else None,
            threading.current_thread().name,
            attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if track_rss:
                span.attrs["peak_rss_mib"] = peak_rss_mib()
            with self._lock:
                self.spans.append(span)
                self.overhead_s += span.start - entered + time.perf_counter() - span.end

    def charge(self, seconds: float) -> None:
        """Count tracer work done outside any span (annotating results)."""
        with self._lock:
            self.overhead_s += seconds

    def write_jsonl(self, path: Path, **extra) -> None:
        """Append every span as one JSON line (``extra`` keys on each)."""
        spans = sorted(self.spans, key=lambda s: s.start)
        origin = spans[0].start if spans else 0.0
        selfs = self_times(spans)
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                record = dict(extra)
                record.update(
                    id=span.id,
                    name=span.name,
                    parent=span.parent,
                    thread=span.thread,
                    start_s=span.start - origin,
                    end_s=span.end - origin,
                    duration_s=span.duration,
                    self_s=selfs[span.id],
                    attrs={k: v for k, v in span.attrs.items() if not k.startswith("_")},
                )
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    """Stand-in for untraced passes: spans cost nothing and record nothing."""

    def span(self, name: str, rss: bool = False, **attrs):
        return contextlib.nullcontext()


# ------------------------------------------------------------- arithmetic


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def covered_within(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by ``intervals``."""
    clipped = [(max(a, start), min(b, end)) for a, b in intervals]
    return union_length([(a, b) for a, b in clipped if b > a])


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered_within(children[span.id], span.start, span.end)
        for span in spans
    }


def root_accounting(spans: list[Span]) -> tuple[float, float]:
    """``(residual_s, wall_s)`` summed over every root ``pass`` span.

    The residual is the roots' self time: the wall time that no layer
    span on the measuring thread claimed.
    """
    selfs = self_times(spans)
    roots = [span for span in spans if span.name == "pass" and span.parent is None]
    return sum(selfs[r.id] for r in roots), sum(r.duration for r in roots)


def accounting(spans: list[Span], dues: dict[str, float]) -> tuple[float, float]:
    """``(residual_s, wall_s)`` of one traced pass.

    What must add up is each service job's latency when the pass ran
    jobs (``dues`` maps their ids to due times), else the pass itself.
    """
    if dues:
        jobs = job_accounting(spans, dues)
        return jobs.get("residual", 0.0), jobs.get("latency", 0.0)
    return root_accounting(spans)


def job_accounting(spans: list[Span], dues: dict[str, float]) -> dict:
    """Per-job latency breakdown for the open-loop service workload.

    A job's latency runs from its due time to the end of its ``DONE``
    write-ahead-log append.  The parts that claim it: the submitter's
    lag, the ``submit`` call, the wait for spool pickup, every WAL
    append for the job, the waits for a worker (and any retry backoff),
    and ``execute_attack_job``.  What none of them covers is the job's
    residual.  Returns each part summed over the jobs, the job count,
    and the submitter's worst lag.
    """
    by_job: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        job_id = span.attrs.get("job_id")
        if job_id in dues and span.name in ("service.submit", "service.wal_append", "service.run"):
            by_job[job_id].append(span)
    totals = defaultdict(float)
    lag_max = 0.0
    for job_id, due in dues.items():
        timeline = sorted(by_job.get(job_id, []), key=lambda s: s.start)
        submits = [s for s in timeline if s.name == "service.submit"]
        appends = [s for s in timeline if s.name == "service.wal_append"]
        done = [s for s in appends if s.attrs.get("event") == "DONE"]
        if not submits or not done:
            continue
        submit, finish = submits[0], done[-1].end
        lag_max = max(lag_max, submit.start - due)
        waits = {"pickup": [], "queue": []}
        previous = submit
        for append in appends:
            event = append.attrs.get("event")
            if event == "QUEUED":
                waits["pickup"].append((previous.end, append.start))
            elif previous.attrs.get("event") in ("ADMITTED", "RETRYING"):
                waits["queue"].append((previous.end, append.start))
            previous = append
        claimed = [(due, submit.start)] + waits["pickup"] + waits["queue"]
        claimed += [(s.start, s.end) for s in timeline]
        latency = finish - due
        totals["latency"] += latency
        totals["residual"] += latency - covered_within(claimed, due, finish)
        totals["pickup_wait"] += sum(b - a for a, b in waits["pickup"])
        totals["queue_wait"] += sum(b - a for a, b in waits["queue"])
        totals["run"] += sum(s.duration for s in timeline if s.name == "service.run")
        totals["wal_appends"] += len(appends)
        totals["wal_append"] += sum(s.duration for s in appends)
        totals["jobs"] += 1
    totals["lag_max"] = lag_max
    return dict(totals)


# ------------------------------------------------------------------ hooks


def _bind(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _mined(call: dict, result) -> dict:
    limit = call.get("scan_limit_bytes")
    size = len(call["image"])
    return {"candidates": len(result), "bytes": size if limit is None else min(size, limit)}


def _scanned(call: dict, result) -> dict:
    return {
        "radius": int(getattr(call["self"], "join_radius_bits", 0)),
        "bytes": len(call["image"]),
        "hits": len(result),
        "_hit_bases": [hit.table_base for hit in result],
    }


def _recovered(call: dict, result) -> dict:
    return {"bases": [r.hits[0].table_base for r in result if r.hits]}


def _decoded(call: dict, result) -> dict:
    tables = int(len(result.converged))
    sweeps = result.table_iterations
    return {
        "tables": tables,
        "sweeps": int(sweeps.sum()) if sweeps is not None else int(result.iterations) * tables,
        "converged": int(result.converged.sum()),
    }


def _ledger(call: dict, result) -> dict:
    retries = sum(max(0, outcome.attempts - 1) for outcome in result.outcomes.values())
    return {"workers": int(call["self"].workers), "retries": retries}


@dataclass(frozen=True)
class Hook:
    """Wrap the callable at dotted ``target`` in a span named ``span``.

    ``annotate(arguments, result)`` returns span attributes (counts);
    ``rss`` records the peak RSS of top-level calls.
    """

    target: str
    span: str
    annotate: Callable[[dict, object], dict] | None = None
    rss: bool = False


#: Every layer boundary the traced pass records.  Module functions are
#: hooked where their callers look them up (``repro.attack.parallel``
#: and ``repro.attack.adaptive`` each bind ``mine_scrambler_keys``).
HOOKS: tuple[Hook, ...] = (
    Hook("repro.victim.machine.Machine.__init__", "victim.boot", rss=True),
    Hook("repro.victim.machine.Machine.boot", "victim.boot"),
    Hook("repro.victim.machine.Machine.write", "controller.fill", rss=True),
    Hook(
        "repro.victim.machine.Machine.bare_metal_dump",
        "controller.dump",
        annotate=lambda call, result: {"bytes": len(result)},
    ),
    Hook("repro.dram.module.DramModule.advance_time", "dram.decay"),
    Hook("repro.attack.coldboot.cold_boot_transfer", "coldboot.transfer", rss=True),
    Hook("repro.attack.pipeline.Ddr4ColdBootAttack.run_sharded", "parallel.scan", rss=True),
    Hook("repro.resilience.executor.ResilientShardRunner.run", "parallel.search", _ledger),
    Hook("repro.attack.parallel.merge_recovered", "parallel.merge"),
    Hook("repro.attack.parallel.mine_scrambler_keys", "keymine", _mined),
    Hook("repro.attack.adaptive.mine_scrambler_keys", "keymine", _mined),
    Hook("repro.attack.aes_search.KeyFingerprintCache.precompute", "aes_search.cache_build"),
    Hook("repro.attack.aes_search.AesKeySearch.recover_keys", "aes_search.recover", _recovered),
    Hook("repro.attack.aes_search.AesKeySearch.find_hits", "aes_search.scan", _scanned),
    Hook("repro.attack.aes_search.AesKeySearch.recover_at_base", "aes_search.rescue"),
    Hook("repro.attack.aes_search.decode_schedule", "decode", _decoded),
    Hook("repro.attack.aes_search.decode_schedules_sharded", "decode", _decoded),
    Hook(
        "repro.attack.adaptive.AdaptiveRecoveryEngine.recover",
        "adaptive",
        annotate=lambda call, result: {"stages_run": list(result.stages_run)},
        rss=True,
    ),
    Hook("repro.attack.adaptive.estimate_decay_rate", "adaptive.estimate"),
    Hook("repro.attack.adaptive.triage_regions", "adaptive.triage"),
    Hook("repro.resilience.checkpoint.CheckpointJournal.record", "resilience.journal"),
    Hook(
        "repro.service.client.submit_job",
        "service.submit",
        annotate=lambda call, result: {"job_id": call["spec"].job_id},
    ),
    Hook(
        "repro.service.jobstore.JobStore.append_event",
        "service.wal_append",
        annotate=lambda call, result: {"job_id": call["job_id"], "event": call["event"]},
    ),
    Hook(
        "repro.service.server.execute_attack_job",
        "service.run",
        annotate=lambda call, result: {"job_id": call["job"].job_id},
        rss=True,
    ),
    Hook("repro.dram.image.MemoryImage.load_tolerant", "service.load_dump"),
    Hook("repro.service.server.JobEngine.write_board", "service.board_write"),
)


def _resolve(target: str):
    """``(owner, attribute name)`` for a dotted name, or ``None``."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


def _wrap(tracer: Tracer, hook: Hook, function):
    try:
        signature = inspect.signature(function)
    except (TypeError, ValueError):
        signature = None
    warned = []

    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(hook.span, rss=hook.rss) as span:
            result = function(*args, **kwargs)
        if hook.annotate is not None and signature is not None:
            started = time.perf_counter()
            # A changed signature or result type must cost this span its
            # counts, never the traced program its run.
            try:
                span.attrs.update(hook.annotate(_bind(signature, args, kwargs), result))
            except Exception as exc:  # noqa: BLE001 — boundary, see above
                if not warned:
                    warned.append(exc)
                    warnings.warn(f"cannot count {hook.target}: {exc!r}", stacklevel=2)
            tracer.charge(time.perf_counter() - started)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, hooks: tuple[Hook, ...] = HOOKS):
    """Install ``hooks`` for the duration of the block.

    Yields the set of span names that no installed hook produces — the
    spans whose metrics must be left out.  Originals are restored on
    exit, including on error.
    """
    restore = []
    produced: set[str] = set()
    wanted = {hook.span for hook in hooks}
    try:
        for hook in hooks:
            resolved = _resolve(hook.target)
            if resolved is None:
                warnings.warn(
                    f"hook target {hook.target} not found; its {hook.span!r} span "
                    "is not recorded and the metrics that need it are left out",
                    stacklevel=3,
                )
                continue
            owner, name = resolved
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(_wrap(tracer, hook, raw.__func__))
            else:
                patched = _wrap(tracer, hook, raw)
            restore.append((owner, name, raw, name in vars(owner)))
            setattr(owner, name, patched)
            produced.add(hook.span)
        yield wanted - produced
    finally:
        for owner, name, raw, own in reversed(restore):
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)


# ---------------------------------------------------------------- metrics

#: Spans whose peak RSS is reported as ``<span>.peak_rss_mib``.
RSS_SPANS = tuple(hook.span for hook in HOOKS if hook.rss)
MACHINE_SPANS = (
    "victim.boot", "controller.fill", "dram.decay", "controller.dump", "coldboot.transfer"
)
_RUNGS = ("strict", "calibrated", "widened", "decoded")
_RUNG_NEEDS = ("adaptive", "keymine", "adaptive.triage")

#: ``(name, unit, spans the value needs)`` for every per-layer metric.
LAYER_METRICS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    *((f"{name}_s", "s", (name,)) for name in MACHINE_SPANS),
    ("controller.dump_mib_per_s", "MiB/s", ("controller.dump",)),
    ("keymine.calls", "count", ("keymine",)),
    ("keymine.s", "s", ("keymine",)),
    ("keymine.candidates", "count", ("keymine",)),
    ("keymine.mib_per_s", "MiB/s", ("keymine",)),
    ("aes_search.cache_build_s", "s", ("aes_search.cache_build",)),
    ("aes_search.scan_fused_s", "s", ("aes_search.scan",)),
    ("aes_search.scan_fused_mib_per_s", "MiB/s", ("aes_search.scan",)),
    ("aes_search.scan_radius1_s", "s", ("aes_search.scan",)),
    ("aes_search.hits", "count", ("aes_search.scan",)),
    ("aes_search.junk_hit_fraction", "ratio", ("aes_search.scan", "aes_search.recover")),
    ("aes_search.reconstruct_s", "s", ("aes_search.recover",)),
    ("aes_search.rescue_s", "s", ("aes_search.rescue",)),
    ("decode.calls", "count", ("decode",)),
    ("decode.s", "s", ("decode",)),
    ("decode.tables", "count", ("decode",)),
    ("decode.sweeps", "count", ("decode",)),
    ("decode.converged", "count", ("decode",)),
    ("decode.converged_fraction", "ratio", ("decode",)),
    ("decode.s_per_table", "s", ("decode",)),
    ("adaptive.estimate_s", "s", ("adaptive.estimate",)),
    ("adaptive.triage_s", "s", ("adaptive.triage",)),
    *((f"adaptive.rung.{rung}_s", "s", _RUNG_NEEDS) for rung in _RUNGS),
    ("adaptive.decoded_scan_s", "s", _RUNG_NEEDS + ("aes_search.scan",)),
    ("adaptive.self_s", "s", ("adaptive",)),
    ("parallel.scan_s", "s", ("parallel.scan",)),
    ("parallel.search_wall_s", "s", ("parallel.search",)),
    ("parallel.busy_s", "s", ("parallel.search", "aes_search.recover")),
    ("parallel.efficiency", "ratio", ("parallel.search", "aes_search.recover")),
    ("parallel.merge_s", "s", ("parallel.merge",)),
    ("parallel.self_s", "s", ("parallel.scan",)),
    ("parallel.retries", "count", ("parallel.search",)),
    ("resilience.journal_records", "count", ("resilience.journal",)),
    ("resilience.journal_s", "s", ("resilience.journal",)),
    ("service.pickup_wait_s", "s", ("service.submit", "service.wal_append")),
    ("service.queue_wait_s", "s", ("service.submit", "service.wal_append")),
    ("service.run_s", "s", ("service.submit", "service.wal_append", "service.run")),
    ("service.wal_appends", "count", ("service.submit", "service.wal_append")),
    ("service.wal_append_s", "s", ("service.submit", "service.wal_append")),
    ("service.load_dump_s", "s", ("service.load_dump",)),
    ("service.board_write_s", "s", ("service.board_write",)),
    ("service.generator_lag_max_s", "s", ("service.submit", "service.wal_append")),
    *((f"{name}.peak_rss_mib", "MiB", (name,)) for name in RSS_SPANS),
    ("trace.residual_fraction", "ratio", ()),
    ("trace.overhead_fraction", "ratio", ()),
)


def _rung_windows(spans: list[Span]) -> list[tuple[str, float, float]]:
    """``(rung, start, end)`` for every rung of every adaptive run.

    The engine mines, estimates and triages once, then each rung it
    runs opens with one mining call followed by that rung's search; so
    the mining calls after the triage mark the rung boundaries, and the
    returned ``stages_run`` names them in order.
    """
    windows = []
    by_parent: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_parent[span.parent].append(span)
    for run in (s for s in spans if s.name == "adaptive"):
        children = sorted(by_parent[run.id], key=lambda s: s.start)
        triaged = [i for i, s in enumerate(children) if s.name == "adaptive.triage"]
        if not triaged:
            continue
        starts = [s.start for s in children[triaged[0] + 1 :] if s.name == "keymine"]
        names = run.attrs.get("stages_run", [])
        if len(starts) != len(names):
            warnings.warn(
                f"adaptive run has {len(starts)} rung starts but stages_run={names}; "
                "rung times left at zero",
                stacklevel=2,
            )
            continue
        ends = starts[1:] + [run.end]
        windows.extend(zip(names, starts, ends))
    return windows


def layer_metrics(
    spans: list[Span],
    units: int,
    missing: set[str] = frozenset(),
    dues: dict[str, float] | None = None,
) -> dict:
    """Per-layer metrics per unit of work (pass or job) from ``spans``.

    Time metrics are self times summed over every thread, so on a
    worker pool they are busy seconds.  ``dues`` are the service jobs'
    due times, for the ``service.*`` job-timeline metrics.  Metrics that
    need a span in ``missing`` are left out.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    per = 1.0 / max(units, 1)

    def self_sum(items) -> float:
        return sum(selfs[s.id] for s in items)

    def attr_sum(items, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in items))

    def rate(items) -> float:
        seconds = sum(s.duration for s in items)
        return attr_sum(items, "bytes") / MIB / seconds if seconds > 0 else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {f"{name}_s": self_sum(by_name[name]) * per for name in MACHINE_SPANS}
    values["controller.dump_mib_per_s"] = rate(by_name["controller.dump"])

    mines = by_name["keymine"]
    values["keymine.calls"] = len(mines) * per
    values["keymine.s"] = self_sum(mines) * per
    values["keymine.candidates"] = attr_sum(mines, "candidates") * per
    values["keymine.mib_per_s"] = rate(mines)

    scans = by_name["aes_search.scan"]
    fused = [s for s in scans if s.attrs.get("radius", 0) == 0]
    radius1 = [s for s in scans if s.attrs.get("radius", 0) != 0]
    values["aes_search.cache_build_s"] = self_sum(by_name["aes_search.cache_build"]) * per
    values["aes_search.scan_fused_s"] = self_sum(fused) * per
    values["aes_search.scan_fused_mib_per_s"] = rate(fused)
    values["aes_search.scan_radius1_s"] = self_sum(radius1) * per
    values["aes_search.hits"] = attr_sum(scans, "hits") * per
    recovered_bases = {s.id: set(s.attrs.get("bases", ())) for s in by_name["aes_search.recover"]}
    judged = junk = 0
    for scan in scans:
        if scan.parent in recovered_bases:
            bases = scan.attrs.get("_hit_bases", ())
            judged += len(bases)
            junk += sum(1 for base in bases if base not in recovered_bases[scan.parent])
    values["aes_search.junk_hit_fraction"] = ratio(junk, judged)
    values["aes_search.reconstruct_s"] = self_sum(by_name["aes_search.recover"]) * per
    values["aes_search.rescue_s"] = self_sum(by_name["aes_search.rescue"]) * per

    decodes = by_name["decode"]
    tables = attr_sum(decodes, "tables")
    values["decode.calls"] = len(decodes) * per
    values["decode.s"] = self_sum(decodes) * per
    values["decode.tables"] = tables * per
    values["decode.sweeps"] = attr_sum(decodes, "sweeps") * per
    values["decode.converged"] = attr_sum(decodes, "converged") * per
    values["decode.converged_fraction"] = ratio(attr_sum(decodes, "converged"), tables)
    values["decode.s_per_table"] = ratio(self_sum(decodes), tables)

    values["adaptive.estimate_s"] = self_sum(by_name["adaptive.estimate"]) * per
    values["adaptive.triage_s"] = self_sum(by_name["adaptive.triage"]) * per
    rungs = dict.fromkeys(_RUNGS, 0.0)
    decoded_scan = 0.0
    for rung, start, end in _rung_windows(spans):
        rungs[rung] = rungs.get(rung, 0.0) + end - start
        if rung == "decoded":
            decoded_scan += self_sum(s for s in radius1 if start <= s.start < end)
    for rung in _RUNGS:
        values[f"adaptive.rung.{rung}_s"] = rungs[rung] * per
    values["adaptive.decoded_scan_s"] = decoded_scan * per
    values["adaptive.self_s"] = self_sum(by_name["adaptive"]) * per

    searches = by_name["parallel.search"]
    busy = sum(
        s.duration
        for s in by_name["aes_search.recover"]
        if any(search.start <= s.start < search.end for search in searches)
    )
    capacity = sum(search.attrs.get("workers", 1) * search.duration for search in searches)
    values["parallel.scan_s"] = sum(s.duration for s in by_name["parallel.scan"]) * per
    values["parallel.search_wall_s"] = sum(s.duration for s in searches) * per
    values["parallel.busy_s"] = busy * per
    values["parallel.efficiency"] = ratio(busy, capacity)
    values["parallel.merge_s"] = self_sum(by_name["parallel.merge"]) * per
    values["parallel.self_s"] = self_sum(by_name["parallel.scan"]) * per
    values["parallel.retries"] = attr_sum(searches, "retries") * per

    journal = by_name["resilience.journal"]
    values["resilience.journal_records"] = len(journal) * per
    values["resilience.journal_s"] = self_sum(journal) * per
    values["service.load_dump_s"] = self_sum(by_name["service.load_dump"]) * per
    values["service.board_write_s"] = self_sum(by_name["service.board_write"]) * per
    for name in RSS_SPANS:
        values[f"{name}.peak_rss_mib"] = max(
            (s.attrs.get("peak_rss_mib", 0.0) for s in by_name[name]), default=0.0
        )
    values.update(service_metrics(job_accounting(spans, dues or {})))
    return {
        name: values[name]
        for name, _, needs in LAYER_METRICS
        if name in values and not missing.intersection(needs)
    }


def service_metrics(jobs: dict) -> dict:
    """The ``service.*`` per-job means from :func:`job_accounting`."""
    count = jobs.get("jobs", 0)
    per = 1.0 / count if count else 0.0
    return {
        "service.pickup_wait_s": jobs.get("pickup_wait", 0.0) * per,
        "service.queue_wait_s": jobs.get("queue_wait", 0.0) * per,
        "service.run_s": jobs.get("run", 0.0) * per,
        "service.wal_appends": jobs.get("wal_appends", 0.0) * per,
        "service.wal_append_s": jobs.get("wal_append", 0.0) * per,
        "service.generator_lag_max_s": jobs.get("lag_max", 0.0),
    }
