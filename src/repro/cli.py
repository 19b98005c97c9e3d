"""Command-line interface: ``python -m repro <command>``.

The tools an investigator (or a curious reader) actually wants:

* ``demo``      — run the end-to-end §III-C attack on a fresh simulated
  victim and print the recovered VeraCrypt master key;
* ``mine``      — mine scrambler-key candidates from a dump file;
* ``attack``    — run the full key-recovery pipeline on a dump file;
* ``keyfind``   — classic Halderman search over an unscrambled dump;
* ``figure3``   — regenerate the Figure 3 panels as PGM files;
* ``figures``   — regenerate Figures 6/7 and the retention curves (SVG);
* ``analyze``   — characterise an unknown scrambler from two boots'
  keystream dumps (§III-A/B);
* ``retention`` — print the §III-D retention table;
* ``sweep``     — run the decay/ablation sweeps (success vs BER);
* ``engines``   — print Table II and the §IV latency/power analyses;
* ``serve``     — run the persistent crash-safe job engine over a
  service directory (many dumps in flight, durable across SIGKILL);
* ``submit``    — spool a dump into a service directory as a job;
* ``status``    — job or whole-service status from a read-only replay;
* ``cancel``    — request cancellation of a queued or running job;
* ``watch``     — stream one job's progress from the heartbeat board.

Dump files are raw binary images (any multiple of 64 bytes), e.g. the
output of :meth:`repro.dram.MemoryImage.save`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.attack import Ddr4ColdBootAttack, TransferConditions, cold_boot_transfer
    from repro.victim import TABLE_I_MACHINES, Machine, synthesize_memory

    memory = args.memory_kib << 10
    victim = Machine(TABLE_I_MACHINES["i5-6400"], memory_bytes=memory, machine_id=args.seed)
    contents, _ = synthesize_memory(memory - 64 * 1024, zero_fraction=0.35, seed=args.seed)
    victim.write(64 * 1024, contents)
    volume = victim.mount_encrypted_volume(b"demo password", key_table_address=memory // 2 + 37)
    print(f"victim ready: {victim.spec.cpu_model}, true key {volume.master_key.hex()[:24]}...")

    attacker = Machine(TABLE_I_MACHINES["i5-6600K"], memory_bytes=memory, machine_id=args.seed + 1)
    dump = cold_boot_transfer(
        victim, attacker, TransferConditions(temperature_c=-25.0, transfer_seconds=5.0)
    )
    print(f"cold boot complete: {len(dump) >> 10} KiB dump")
    attack = Ddr4ColdBootAttack()
    master = attack.recover_xts_master_key(dump)
    if master is None:
        print("attack failed to recover the key")
        return 1
    print(f"recovered XTS master key: {master.hex()}")
    print(f"matches: {master == volume.master_key}")
    return 0 if master == volume.master_key else 1


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_dump(path: str):
    from repro.dram.image import MemoryImage

    # Tolerant by design: real cold-boot dumps arrive truncated or
    # torn.  Unusable files raise DumpFormatError, which main() turns
    # into a one-line message and a nonzero exit instead of a traceback.
    return MemoryImage.load_tolerant(path)


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.attack import mine_scrambler_keys

    dump = _load_dump(args.dump)
    candidates = mine_scrambler_keys(
        dump,
        tolerance_bits=args.tolerance,
        scan_limit_bytes=None if args.no_limit else 16 << 20,
    )
    print(f"{len(candidates)} candidate scrambler keys from {len(dump) >> 10} KiB")
    for candidate in candidates[: args.top]:
        print(f"  count={candidate.count:<5d} {candidate.key.hex()}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    if args.profile or args.profile_out:
        # Wrap the whole scan in cProfile and show where the time went.
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _run_attack(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative")
            if args.profile_out:
                # Raw pstats dump for offline analysis (snakeviz,
                # pstats.Stats(path), gprof2dot, ...).
                stats.dump_stats(args.profile_out)
                print(f"[profile] raw pstats written to {args.profile_out}",
                      file=sys.stderr)
            if args.profile:
                print("\n[profile] top 20 functions by cumulative time:",
                      file=sys.stderr)
                stats.print_stats(20)
    return _run_attack(args)


def _run_attack(args: argparse.Namespace) -> int:
    from repro.attack import AttackConfig, Ddr4ColdBootAttack
    from repro.attack.report import save_report_json
    from repro.resilience.shutdown import (
        EXIT_DEADLINE_EXPIRED,
        EXIT_INTERRUPTED,
        GracefulShutdown,
    )

    dump = _load_dump(args.dump)
    if args.adaptive and (args.workers > 1 or args.shards):
        print("error: --adaptive runs monolithically; drop --workers/--shards",
              file=sys.stderr)
        return 2
    checkpoint = args.checkpoint
    if args.resume and checkpoint is None:
        checkpoint = f"{args.dump}.checkpoint.jsonl"
    if args.resume and not args.adaptive:
        # Preflight the journal before loading anything heavy: a missing
        # or corrupt journal surfaces as one CheckpointCorruptError line
        # (with the offending line number) instead of a traceback deep
        # inside the scan.
        from repro.resilience.checkpoint import verify_journal_file

        verify_journal_file(checkpoint)
    # The decoded rung costs 4 work units; asking for it explicitly
    # raises the ladder budget so it actually fits.
    total_work = 10 if args.max_stage == "decoded" else 6
    attack = Ddr4ColdBootAttack(
        AttackConfig(
            key_bits=args.key_bits,
            adaptive=args.adaptive,
            adaptive_total_work=total_work,
            adaptive_max_stage=args.max_stage,
            decode_iters=args.decode_iters,
            # In adaptive mode the journal path doubles as the decode
            # state sidecar: a deadline that expires mid-decode saves
            # the partial posteriors there, and --resume warm-starts
            # them for a byte-identical finish.
            decode_checkpoint=checkpoint if args.adaptive else None,
            deadline_s=args.deadline,
            stall_timeout_s=args.stall_timeout,
            executor=args.executor,
        )
    )
    if not args.adaptive and (args.workers > 1 or args.shards or checkpoint):
        # Fault-tolerant sharded scan: crashed/hung shards retry, the
        # journal lets a killed run resume with --resume.  A resumed run
        # adopts the journal's shard count unless --shards overrides it
        # (the journal's geometry is authoritative anyway).
        n_shards = args.shards or _journal_shard_count(checkpoint)
        # SIGINT/SIGTERM drain in-flight shards to the journal and exit
        # resumable; a second signal abandons them (still resumable).
        with GracefulShutdown() as stop:
            report = attack.run_sharded(
                dump,
                workers=args.workers,
                n_shards=n_shards,
                checkpoint=checkpoint,
                resume=args.resume or args.checkpoint is not None,
                on_event=lambda message: print(f"[resilience] {message}", file=sys.stderr),
                stop=stop,
                checkpoint_fallback_dir=args.checkpoint_fallback_dir,
            )
        if report.resumed_shards:
            print(f"resumed: {report.resumed_shards}/{report.n_shards} shards "
                  f"already in {checkpoint}")
        for offset in report.quarantined_shards:
            print(f"warning: shard at {offset:#x} quarantined (unscanned)",
                  file=sys.stderr)
        # The sharded report already holds every schedule at its global
        # offset; pair adjacent ones rather than re-running the attack.
        master = _pair_xts(report.recovered_keys, attack.config.key_bits)
    elif args.adaptive:
        reference = _load_dump(args.reference) if args.reference else None
        report = attack.run(dump, reference=reference)
        for note in (report.adaptive or {}).get("diagnostics", ()):
            print(f"[adaptive] {note}", file=sys.stderr)
        for region in report.quarantined_regions:
            print(f"warning: region {region['offset']:#x}+{region['length']:#x} "
                  f"quarantined ({region['reason']}): {region['detail']}",
                  file=sys.stderr)
        # The adaptive engine already rescued XTS siblings; pair here.
        master = _pair_xts(report.recovered_keys, attack.config.key_bits)
    else:
        report = attack.run(dump)
        master = attack.recover_xts_master_key(dump)
    if args.json:
        save_report_json(report, args.json, include_keys=not args.redact)
        print(f"wrote {args.json}")
    print(report.summary())
    for recovered in report.recovered_keys:
        print(f"  offset {recovered.hits[0].table_base:#x}: "
              f"AES-{recovered.key_bits} key {recovered.master_key.hex()} "
              f"({recovered.votes} votes, {100 * recovered.match_fraction:.1f}% match)")
    if master is not None:
        print(f"XTS master key (primary||tweak): {master.hex()}")
    if report.resumable:
        how = (f"--checkpoint {checkpoint} --resume"
               if checkpoint else "a --checkpoint journal")
        print(f"run stopped early ({report.expiry_cause or 'stopped'}); "
              f"rerun with {how} to finish", file=sys.stderr)
        return EXIT_INTERRUPTED if report.interrupted else EXIT_DEADLINE_EXPIRED
    return 0 if report.recovered_keys else 1


def _journal_shard_count(checkpoint) -> int | None:
    if not checkpoint or not Path(checkpoint).exists():
        return None
    import json

    try:
        with open(checkpoint, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
    except (OSError, ValueError):
        return None  # CheckpointJournal.open will diagnose it properly
    if header.get("type") == "header":
        return header.get("n_shards")
    return None


def _pair_xts(recovered, key_bits: int) -> bytes | None:
    from repro.crypto.aes import schedule_bytes

    by_base = {r.hits[0].table_base: r for r in recovered if r.hits}
    stride = schedule_bytes(key_bits)
    for base in sorted(by_base):
        partner = by_base.get(base + stride)
        if partner is not None:
            return by_base[base].master_key + partner.master_key
    return None


def _cmd_keyfind(args: argparse.Namespace) -> int:
    from repro.attack import find_aes_keys, unique_master_keys

    dump = _load_dump(args.dump)
    matches = find_aes_keys(dump, key_bits=args.key_bits, tolerance_bits=args.tolerance)
    keys = unique_master_keys(matches, min_votes=args.min_votes)
    print(f"{len(matches)} window matches, {len(keys)} distinct keys")
    for key in keys:
        print(f"  AES-{args.key_bits} key: {key.hex()}")
    return 0 if keys else 1


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.analysis import bytes_to_pixels, duplicate_block_stats, write_pgm
    from repro.dram.image import MemoryImage
    from repro.scrambler import Ddr3Scrambler, Ddr4Scrambler
    from repro.victim.workload import test_image

    plain = test_image(256, 256).tobytes()
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    panels = {
        "a_original": plain,
        "b_ddr3_scrambled": Ddr3Scrambler(boot_seed=1).scramble_range(0, plain),
        "c_ddr3_reboot": Ddr3Scrambler(boot_seed=2).descramble_range(
            0, Ddr3Scrambler(boot_seed=1).scramble_range(0, plain)
        ),
        "d_ddr4_scrambled": Ddr4Scrambler(boot_seed=1).scramble_range(0, plain),
        "e_ddr4_reboot": Ddr4Scrambler(boot_seed=2).descramble_range(
            0, Ddr4Scrambler(boot_seed=1).scramble_range(0, plain)
        ),
    }
    for name, data in panels.items():
        path = out / f"figure3_{name}.pgm"
        write_pgm(bytes_to_pixels(data, 256), path)
        stats = duplicate_block_stats(MemoryImage(data))
        print(f"{path}: {stats.n_distinct} distinct blocks "
              f"({100 * stats.duplicate_fraction:.0f}% duplicated)")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import os

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    previous = Path.cwd()
    os.chdir(out)
    try:
        from examples import regenerate_figures  # type: ignore[import-not-found]
    except ImportError:
        # examples/ may not be importable as a package; inline the work.
        from repro.analysis.charts import LineChart
        from repro.dram.timing import MIN_CAS_LATENCY_NS
        from repro.engine.queuing import load_sweep

        chart = LineChart(
            title="Figure 6: decryption latency vs outstanding CAS requests",
            x_label="outstanding back-to-back CAS requests",
            y_label="decryption latency (ns)",
            reference_y=MIN_CAS_LATENCY_NS,
            reference_label="12.5 ns CAS window",
        )
        series: dict[str, list[tuple[float, float]]] = {}
        for point in load_sweep():
            series.setdefault(point.engine, []).append(
                (point.outstanding_requests, point.decryption_latency_ns)
            )
        for engine, points in series.items():
            chart.add_series(engine, points)
        chart.save("figure6_latency_vs_load.svg")
        print(f"wrote {out / 'figure6_latency_vs_load.svg'}")
        os.chdir(previous)
        return 0
    regenerate_figures.main()
    os.chdir(previous)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.scrambler.analysis import analyze_scrambler

    boot1 = _load_dump(args.keystream_boot1)
    boot2 = _load_dump(args.keystream_boot2)
    report = analyze_scrambler(boot1, boot2)
    print(f"keys per channel:        {report.keys_per_channel}")
    print(f"key-index address bits:  {list(report.key_index_bits)}")
    print(f"separable seed mixing:   {report.separable_seed_mixing}")
    print(f"keys reused on reboot:   {report.keys_reused_across_reboot}")
    print(f"verdict:                 {report.generation_verdict()}")
    return 0


def _cmd_retention(args: argparse.Namespace) -> int:
    from repro.dram.retention import retention_sweep

    points = retention_sweep()
    print(f"{'module':10s} {'celsius':>8s} {'seconds':>8s} {'retained':>9s}")
    for point in points:
        print(f"{point.module:10s} {point.celsius:>8.0f} {point.seconds:>8.1f} "
              f"{point.percent_retained:>8.2f}%")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.attack.pipeline import Ddr4ColdBootAttack
    from repro.attack.sweep import ablate_search, synthetic_dump

    print("master-key recovery vs uniform bit error rate:")
    for ber in (0.0, 0.004, 0.008, 0.016):
        dump, master, _ = synthetic_dump(bit_error_rate=ber, seed=args.seed)
        recovered = Ddr4ColdBootAttack().recover_xts_master_key(dump)
        print(f"  BER {100 * ber:5.2f}%: {'recovered' if recovered == master else 'failed'}")
    print("\nhardening ablation at 0.8% BER:")
    for result in ablate_search(bit_error_rate=0.008, seed=args.seed):
        print(f"  {result.configuration:14s} keys={result.keys_recovered} "
              f"master={'yes' if result.master_recovered else 'no'}")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.engine import ENGINE_SPECS, estimate_overhead, simulate_burst

    print(f"{'cipher':10s} {'GHz':>5s} {'cyc/64B':>8s} {'delay ns':>9s} "
          f"{'exposed@18':>11s}")
    for name, spec in ENGINE_SPECS.items():
        worst = simulate_burst(name, 18)
        print(f"{name:10s} {spec.max_frequency_ghz:>5.2f} {spec.cycles_per_block:>8d} "
              f"{spec.pipeline_delay_ns:>9.2f} {worst.exposed_ns:>9.2f}ns")
    print("\npower/area overhead (ChaCha8, full utilisation):")
    for cpu in ("Atom N280", "Core i3-330M", "Core i5-700", "Xeon W3520"):
        e = estimate_overhead(cpu, "ChaCha8", 1.0)
        print(f"  {cpu:14s} power +{e.power_overhead_percent:5.2f}%  "
              f"area +{e.area_overhead_percent:4.2f}%")
    return 0


# ------------------------------------------------------------------- service


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.resilience.retry import RetryPolicy
    from repro.resilience.shutdown import GracefulShutdown
    from repro.service import JobEngine

    engine = JobEngine(
        args.service_dir,
        workers=args.workers,
        max_queued=args.max_queued,
        retry_policy=RetryPolicy(
            max_attempts=args.max_attempts,
            base_delay_s=args.retry_base_delay,
            max_delay_s=args.retry_max_delay,
        ),
        poll_interval_s=args.poll_interval,
        on_event=lambda message: print(f"[serve] {message}", file=sys.stderr),
    )
    # SIGINT/SIGTERM start the two-stage drain: admission closes,
    # running jobs drain their in-flight shards to their journals and
    # land RETRYING; a second signal abandons them (still resumable —
    # the next serve folds RUNNING back through RETRYING).
    with GracefulShutdown() as stop:
        return engine.serve_forever(stop, idle_exit_s=args.idle_exit)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import JobSpec, new_job_id, submit_job, wait_for_admission

    spec = JobSpec(
        job_id=args.job_id or new_job_id(),
        dump=str(Path(args.dump).resolve()),
        key_bits=args.key_bits,
        scan_workers=args.scan_workers,
        n_shards=args.shards or None,
        deadline_s=args.deadline,
        priority=args.priority,
        submitter=args.submitter,
    )
    submit_job(args.service_dir, spec)
    print(f"submitted {spec.job_id}")
    if args.no_wait:
        return 0
    try:
        state = wait_for_admission(args.service_dir, spec.job_id,
                                   timeout_s=args.timeout)
    except TimeoutError as error:
        print(f"warning: {error}", file=sys.stderr)
        return 0  # the submission is durable; a later serve admits it
    print(f"{spec.job_id}: {state}")
    return 0


def _service_exit_code(state: str) -> int:
    from repro.resilience.shutdown import (
        EXIT_DEADLINE_EXPIRED,
        EXIT_INTERRUPTED,
        EXIT_JOB_FAILED,
    )

    return {
        "DONE": 0,
        "CANCELLED": EXIT_INTERRUPTED,
        "EXPIRED": EXIT_DEADLINE_EXPIRED,
        "FAILED": EXIT_JOB_FAILED,
    }.get(state, 0)


def _cmd_status(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.service import job_status, service_status, wait_terminal

    if args.job_id:
        if args.wait:
            status = wait_terminal(args.service_dir, args.job_id,
                                   timeout_s=args.timeout)
        else:
            status = job_status(args.service_dir, args.job_id)
        print(json_module.dumps(status, indent=2))
        return _service_exit_code(status["state"]) if args.wait else 0
    digest = service_status(args.service_dir)
    print(json_module.dumps(digest, indent=2))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import job_status, request_cancel

    # Surfaces UnknownJobError as one line via main()'s handler.
    status = job_status(args.service_dir, args.job_id)
    if status["state"] in ("DONE", "FAILED", "CANCELLED", "EXPIRED"):
        print(f"{args.job_id} already terminal: {status['state']}")
        return 0
    request_cancel(args.service_dir, args.job_id)
    print(f"cancel requested for {args.job_id}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.service import watch_job

    last = None
    try:
        for snapshot in watch_job(args.service_dir, args.job_id,
                                  timeout_s=args.timeout):
            line = (
                f"{snapshot.get('state', '?'):9s} "
                f"attempts={snapshot.get('attempts', 0)} "
                f"beats={snapshot.get('beats', '-')} "
                f"shards={(snapshot.get('progress') or {}).get('journaled_shards', '-')}"
            )
            if line != last:
                print(f"[{args.job_id}] {line}")
                last = line
    except TimeoutError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    final = snapshot.get("state", "?")
    if snapshot.get("error"):
        print(f"[{args.job_id}] error: {snapshot['error']}", file=sys.stderr)
    return _service_exit_code(final)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cold Boot Attacks are Still Hot (HPCA 2017) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end simulated attack demo")
    demo.add_argument("--memory-kib", type=int, default=2048)
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(func=_cmd_demo)

    mine = sub.add_parser("mine", help="mine scrambler keys from a dump file")
    mine.add_argument("dump")
    mine.add_argument("--tolerance", type=int, default=16)
    mine.add_argument("--top", type=int, default=10)
    mine.add_argument("--no-limit", action="store_true", help="scan beyond 16 MiB")
    mine.set_defaults(func=_cmd_mine)

    attack = sub.add_parser("attack", help="full key recovery from a dump file")
    attack.add_argument("dump")
    attack.add_argument("--key-bits", type=int, default=256, choices=(128, 192, 256))
    attack.add_argument("--json", help="write a machine-readable report to this path")
    attack.add_argument("--redact", action="store_true", help="omit key bytes from the report")
    attack.add_argument("--workers", type=int, default=1,
                        help="workers for the sharded scan (default 1)")
    attack.add_argument("--executor", choices=("auto", "thread", "process"),
                        default="auto",
                        help="worker pool for sharded scans: threads share the "
                             "dump and join tables in-process (the kernels "
                             "release the GIL), processes give killable "
                             "isolation; auto picks threads unless the run "
                             "needs a stall watchdog (default: auto)")
    attack.add_argument("--shards", type=int, default=0,
                        help="shard count (default: one per worker)")
    attack.add_argument("--checkpoint", metavar="PATH",
                        help="journal completed shards to this JSONL file")
    attack.add_argument("--profile", action="store_true",
                        help="run the scan under cProfile and print the top 20 "
                             "functions by cumulative time to stderr")
    attack.add_argument("--profile-out", metavar="PATH",
                        help="also dump the raw cProfile stats to PATH for "
                             "offline analysis (pstats/snakeviz); implies "
                             "profiling even without --profile")
    attack.add_argument("--resume", action="store_true",
                        help="skip shards already in the checkpoint journal "
                             "(default journal: <dump>.checkpoint.jsonl)")
    attack.add_argument("--deadline", type=float, metavar="SECONDS",
                        help="wall-clock budget for the whole run; on expiry "
                             "the scan checkpoints, writes a partial report, "
                             "and exits resumable (exit code 4)")
    attack.add_argument("--stall-timeout", type=float, metavar="SECONDS",
                        help="kill and resubmit a worker whose heartbeat "
                             "goes silent this long (sharded scans only)")
    attack.add_argument("--checkpoint-fallback-dir", metavar="DIR",
                        help="rotate the checkpoint journal here if its "
                             "primary path stops accepting writes (ENOSPC)")
    attack.add_argument("--adaptive", action="store_true",
                        help="estimate the dump's decay rate, quarantine damaged "
                             "regions, and escalate Hamming budgets until keys "
                             "surface (confidence-scored recoveries)")
    attack.add_argument("--reference", metavar="PATH",
                        help="pre-decay reference dump for a direct decay-rate "
                             "measurement (adaptive mode only)")
    attack.add_argument("--max-stage", metavar="STAGE", default=None,
                        choices=("strict", "calibrated", "widened", "decoded"),
                        help="highest adaptive escalation rung; 'decoded' "
                             "turns on belief-propagation key recovery and "
                             "raises the work budget to fit it")
    attack.add_argument("--decode-iters", type=_positive_int, default=72,
                        help="cap on message-passing sweeps per decoded "
                             "table (adaptive mode, default: 72)")
    attack.set_defaults(func=_cmd_attack)

    keyfind = sub.add_parser("keyfind", help="Halderman search over plaintext dumps")
    keyfind.add_argument("dump")
    keyfind.add_argument("--key-bits", type=int, default=256, choices=(128, 192, 256))
    keyfind.add_argument("--tolerance", type=int, default=8)
    keyfind.add_argument("--min-votes", type=int, default=2)
    keyfind.set_defaults(func=_cmd_keyfind)

    figure3 = sub.add_parser("figure3", help="regenerate the Figure 3 panels")
    figure3.add_argument("--output-dir", default=".")
    figure3.set_defaults(func=_cmd_figure3)

    figures = sub.add_parser("figures", help="regenerate Figures 6/7 + retention curves as SVG")
    figures.add_argument("--output-dir", default=".")
    figures.set_defaults(func=_cmd_figures)

    analyze = sub.add_parser("analyze", help="characterise a scrambler from keystream dumps")
    analyze.add_argument("keystream_boot1")
    analyze.add_argument("keystream_boot2")
    analyze.set_defaults(func=_cmd_analyze)

    retention = sub.add_parser("retention", help="print the §III-D retention table")
    retention.set_defaults(func=_cmd_retention)

    sweep = sub.add_parser("sweep", help="decay/ablation sweeps (slow: several minutes)")
    sweep.add_argument("--seed", type=int, default=5)
    sweep.set_defaults(func=_cmd_sweep)

    engines = sub.add_parser("engines", help="print Table II / Figure 6-7 analyses")
    engines.set_defaults(func=_cmd_engines)

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe job engine over a service directory")
    serve.add_argument("service_dir",
                       help="service state root (WAL, spool, job dirs, board)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent jobs (each may shard further via "
                            "its own scan_workers; default 2)")
    serve.add_argument("--max-queued", type=int, default=16,
                       help="admission bound: jobs waiting past this are "
                            "rejected with a receipt (default 16)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="attempts before a failing job is quarantined "
                            "FAILED (default 3)")
    serve.add_argument("--retry-base-delay", type=float, default=0.2,
                       metavar="SECONDS", help="first retry backoff (default 0.2)")
    serve.add_argument("--retry-max-delay", type=float, default=5.0,
                       metavar="SECONDS", help="backoff ceiling (default 5)")
    serve.add_argument("--poll-interval", type=float, default=0.2,
                       metavar="SECONDS",
                       help="spool pickup / board heartbeat period (default 0.2)")
    serve.add_argument("--idle-exit", type=float, default=None,
                       metavar="SECONDS",
                       help="exit 0 after this long with nothing queued, "
                            "running, or spooled (default: serve forever)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="spool a dump for the job engine")
    submit.add_argument("service_dir")
    submit.add_argument("dump")
    submit.add_argument("--job-id", default=None,
                        help="explicit job id (default: generated; resubmitting "
                             "an existing id is an idempotent no-op)")
    submit.add_argument("--key-bits", type=int, default=256, choices=(128, 192, 256))
    submit.add_argument("--scan-workers", type=int, default=1,
                        help="shard workers inside the job's scan (default 1)")
    submit.add_argument("--shards", type=int, default=0,
                        help="shard count for the job's scan (default: auto)")
    submit.add_argument("--deadline", type=float, metavar="SECONDS",
                        help="per-job budget; expiry lands EXPIRED with a "
                             "resumable partial report")
    submit.add_argument("--priority", type=int, default=1,
                        help="admission priority, lower runs first (default 1)")
    submit.add_argument("--submitter", default="anonymous",
                        help="fair-share identity (round-robins between "
                             "submitters at equal priority)")
    submit.add_argument("--no-wait", action="store_true",
                        help="spool and exit without waiting for admission")
    submit.add_argument("--timeout", type=float, default=10.0,
                        help="seconds to wait for a server to admit (default 10)")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="job or whole-service status (read-only WAL replay)")
    status.add_argument("service_dir")
    status.add_argument("job_id", nargs="?", default=None,
                        help="one job's digest (default: whole service)")
    status.add_argument("--wait", action="store_true",
                        help="block until the job is terminal; exit code maps "
                             "the verdict (0 done / 3 cancelled / 4 expired / "
                             "5 failed)")
    status.add_argument("--timeout", type=float, default=300.0,
                        help="--wait limit in seconds (default 300)")
    status.set_defaults(func=_cmd_status)

    cancel = sub.add_parser("cancel", help="request cancellation of a job")
    cancel.add_argument("service_dir")
    cancel.add_argument("job_id")
    cancel.set_defaults(func=_cmd_cancel)

    watch = sub.add_parser(
        "watch", help="stream a job's progress from the heartbeat board")
    watch.add_argument("service_dir")
    watch.add_argument("job_id")
    watch.add_argument("--timeout", type=float, default=None,
                       help="give up after this many seconds (default: never)")
    watch.set_defaults(func=_cmd_watch)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from repro.resilience.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        # Operator errors (bad dump, stale checkpoint, broken shard
        # layout) get one readable line, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
