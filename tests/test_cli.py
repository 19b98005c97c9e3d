"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.crypto.aes import expand_key
from repro.dram.image import MemoryImage
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.rng import SplitMix64


@pytest.fixture
def scrambled_dump_file(tmp_path):
    """A small scrambled dump with exposed keys and one planted schedule."""
    scrambler = Ddr4Scrambler(boot_seed=77)
    n_blocks = 3 * 4096
    rng = SplitMix64(1)
    plain = bytearray(rng.next_bytes(n_blocks * 64))
    for b in range(0, n_blocks, 3):
        plain[b * 64 : (b + 1) * 64] = bytes(64)
    master = rng.next_bytes(32)
    plain[500 * 64 + 9 : 500 * 64 + 9 + 240] = expand_key(master)
    path = tmp_path / "dump.bin"
    MemoryImage(scrambler.scramble_range(0, bytes(plain))).save(path)
    return str(path), master


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        one_arg = {"mine", "attack", "keyfind"}
        two_arg = {"analyze"}
        for command in ("demo", "mine", "attack", "keyfind", "figure3", "figures",
                        "analyze", "retention", "engines"):
            if command in one_arg:
                argv = [command, "x"]
            elif command in two_arg:
                argv = [command, "x", "y"]
            else:
                argv = [command]
            assert parser.parse_args(argv).command == command


class TestCommands:
    def test_engines(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "ChaCha8" in out and "Atom N280" in out

    def test_retention(self, capsys):
        assert main(["retention"]) == 0
        assert "DDR4_A" in capsys.readouterr().out

    def test_figure3(self, tmp_path, capsys):
        assert main(["figure3", "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "figure3_a_original.pgm").exists()
        assert len(list(tmp_path.glob("*.pgm"))) == 5

    def test_mine(self, scrambled_dump_file, capsys):
        path, _ = scrambled_dump_file
        assert main(["mine", path, "--top", "3", "--no-limit"]) == 0
        out = capsys.readouterr().out
        assert "candidate scrambler keys" in out

    def test_attack(self, scrambled_dump_file, capsys):
        path, master = scrambled_dump_file
        assert main(["attack", path]) == 0
        assert master.hex() in capsys.readouterr().out

    def test_keyfind_on_plaintext(self, tmp_path, capsys):
        master = b"\x5e" * 32
        blob = bytearray(SplitMix64(2).next_bytes(64 * 512))
        blob[3000 : 3000 + 240] = expand_key(master)
        path = tmp_path / "plain.bin"
        path.write_bytes(bytes(blob))
        assert main(["keyfind", str(path)]) == 0
        assert master.hex() in capsys.readouterr().out

    def test_keyfind_failure_exit_code(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(SplitMix64(3).next_bytes(64 * 64))
        assert main(["keyfind", str(path)]) == 1


    def test_analyze(self, tmp_path, capsys):
        from repro.scrambler.ddr4 import Ddr4Scrambler

        a, b = tmp_path / "b1.bin", tmp_path / "b2.bin"
        MemoryImage(Ddr4Scrambler(boot_seed=1).scramble_range(0, bytes(8192 * 64))).save(a)
        MemoryImage(Ddr4Scrambler(boot_seed=2).scramble_range(0, bytes(8192 * 64))).save(b)
        assert main(["analyze", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "4096" in out and "DDR4/Skylake-class" in out

    def test_figures(self, tmp_path):
        assert main(["figures", "--output-dir", str(tmp_path)]) == 0
        assert list(tmp_path.glob("*.svg"))


class TestResilientAttackCli:
    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            ["attack", "dump.bin", "--workers", "4", "--shards", "16",
             "--checkpoint", "scan.jsonl", "--resume"]
        )
        assert (args.workers, args.shards) == (4, 16)
        assert args.checkpoint == "scan.jsonl"
        assert args.resume

    def test_missing_dump_is_one_line_error(self, capsys):
        assert main(["attack", "/no/such/dump.bin"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_sub_block_dump_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"x" * 10)
        assert main(["attack", str(path)]) == 2
        assert "not even one" in capsys.readouterr().err

    def test_stale_checkpoint_is_one_line_error(self, tmp_path, capsys):
        # A journal pinned to a different dump must refuse to resume.
        dump = tmp_path / "dump.bin"
        dump.write_bytes(bytes(4 * 64))
        journal = tmp_path / "scan.jsonl"
        journal.write_text(
            '{"dump_len": 1, "dump_sha256": "ff", "key_bits": 256, '
            '"n_shards": 1, "overlap_bytes": 304, "version": 1, "type": "header"}\n'
        )
        assert main(["attack", str(dump), "--checkpoint", str(journal)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sharded_attack_with_resume(self, scrambled_dump_file, capsys, tmp_path):
        dump_path, master = scrambled_dump_file
        journal = str(tmp_path / "scan.jsonl")
        assert main(["attack", dump_path, "--workers", "2", "--shards", "4",
                     "--checkpoint", journal]) == 0
        first = capsys.readouterr().out
        assert master.hex() in first
        assert "shards=4" in first
        # Second run resumes everything from the journal.
        assert main(["attack", dump_path, "--checkpoint", journal]) == 0
        second = capsys.readouterr().out
        assert "resumed: 4/4" in second
        assert master.hex() in second


class TestDecodedStageCli:
    def test_parser_accepts_decode_flags(self):
        args = build_parser().parse_args(
            ["attack", "dump.bin", "--adaptive", "--max-stage", "decoded",
             "--decode-iters", "96", "--checkpoint", "scan.jsonl"]
        )
        assert args.adaptive
        assert args.max_stage == "decoded"
        assert args.decode_iters == 96
        assert args.checkpoint == "scan.jsonl"

    def test_parser_rejects_unknown_stage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["attack", "dump.bin", "--adaptive", "--max-stage", "turbo"]
            )

    def test_non_positive_decode_iters_is_a_usage_error(self, tmp_path, capsys):
        dump = tmp_path / "dump.bin"
        dump.write_bytes(bytes(4 * 64))
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as exit_info:
                main(["attack", str(dump), "--adaptive", "--decode-iters", value])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --decode-iters: must be at least 1, got {value}" in err
            assert "Traceback" not in err

    def test_adaptive_still_refuses_sharding_flags(self, tmp_path, capsys):
        dump = tmp_path / "dump.bin"
        dump.write_bytes(bytes(4 * 64))
        assert main(["attack", str(dump), "--adaptive", "--workers", "4"]) == 2
        assert "--adaptive runs monolithically" in capsys.readouterr().err

    def test_adaptive_accepts_a_checkpoint_sidecar(self, scrambled_dump_file,
                                                   capsys, tmp_path):
        """--checkpoint with --adaptive is the decode-state sidecar, not
        an error (the --resume path for deadline-interrupted decodes)."""
        dump_path, master = scrambled_dump_file
        journal = str(tmp_path / "scan.jsonl")
        assert main(["attack", dump_path, "--adaptive",
                     "--checkpoint", journal]) == 0
        assert master.hex() in capsys.readouterr().out


class TestResumePreflight:
    """--resume against a bad journal is one readable line, not a trace."""

    def test_missing_journal_is_one_line_error(self, tmp_path, capsys):
        dump = tmp_path / "dump.bin"
        dump.write_bytes(bytes(4 * 64))
        missing = str(tmp_path / "nowhere.jsonl")
        assert main(["attack", str(dump), "--resume",
                     "--checkpoint", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no such checkpoint journal" in err
        assert "drop --resume" in err

    def test_missing_default_journal_is_one_line_error(self, tmp_path, capsys):
        dump = tmp_path / "dump.bin"
        dump.write_bytes(bytes(4 * 64))
        assert main(["attack", str(dump), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "no such checkpoint journal" in err
        assert f"{dump}.checkpoint.jsonl" in err

    def test_corrupt_journal_names_the_offending_line(
            self, scrambled_dump_file, capsys, tmp_path):
        dump_path, _ = scrambled_dump_file
        journal = str(tmp_path / "scan.jsonl")
        assert main(["attack", dump_path, "--workers", "2", "--shards", "4",
                     "--checkpoint", journal]) == 0
        capsys.readouterr()
        lines = open(journal, encoding="utf-8").readlines()
        lines[1] = lines[1].rstrip()[:-12] + "<<CORRUPT>>\n"
        open(journal, "w", encoding="utf-8").writelines(lines)
        assert main(["attack", dump_path, "--resume",
                     "--checkpoint", journal]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err

    def test_torn_tail_still_resumes(self, scrambled_dump_file, capsys, tmp_path):
        """Truncating the final record (a crash mid-append) is repairable,
        so preflight lets the resume proceed."""
        dump_path, master = scrambled_dump_file
        journal = str(tmp_path / "scan.jsonl")
        assert main(["attack", dump_path, "--workers", "2", "--shards", "4",
                     "--checkpoint", journal]) == 0
        capsys.readouterr()
        raw = open(journal, "rb").read()
        open(journal, "wb").write(raw[:-7])  # tear the last record
        assert main(["attack", dump_path, "--resume",
                     "--checkpoint", journal]) == 0
        assert master.hex() in capsys.readouterr().out


class TestServiceCommandsParser:
    def test_service_commands_registered(self):
        parser = build_parser()
        for argv in (["serve", "svc"],
                     ["submit", "svc", "dump.bin"],
                     ["status", "svc"],
                     ["status", "svc", "job-1", "--wait"],
                     ["cancel", "svc", "job-1"],
                     ["watch", "svc", "job-1"]):
            assert parser.parse_args(argv).command == argv[0]

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "svc", "--workers", "4", "--max-queued", "8",
             "--max-attempts", "2", "--idle-exit", "5"])
        assert args.workers == 4
        assert args.max_queued == 8
        assert args.max_attempts == 2
        assert args.idle_exit == 5.0

    def test_submit_flags(self):
        args = build_parser().parse_args(
            ["submit", "svc", "dump.bin", "--scan-workers", "2",
             "--shards", "4", "--deadline", "30", "--priority", "0",
             "--submitter", "alice", "--no-wait"])
        assert args.scan_workers == 2
        assert args.shards == 4
        assert args.deadline == 30.0
        assert args.priority == 0
        assert args.submitter == "alice"
        assert args.no_wait


class TestServiceCommandsOffline:
    """Client commands against a directory with no server running."""

    def test_submit_no_wait_spools_durably(self, tmp_path, capsys):
        dump = tmp_path / "dump.bin"
        dump.write_bytes(bytes(4 * 64))
        svc = tmp_path / "svc"
        assert main(["submit", str(svc), str(dump), "--job-id", "job-s",
                     "--no-wait"]) == 0
        assert "submitted job-s" in capsys.readouterr().out
        assert (svc / "spool" / "job-s.submit.json").exists()

    def test_status_reports_spooled_submission(self, tmp_path, capsys):
        dump = tmp_path / "dump.bin"
        dump.write_bytes(bytes(4 * 64))
        svc = tmp_path / "svc"
        main(["submit", str(svc), str(dump), "--job-id", "job-s", "--no-wait"])
        capsys.readouterr()
        assert main(["status", str(svc), "job-s"]) == 0
        assert '"SPOOLED"' in capsys.readouterr().out

    def test_unknown_job_is_one_line_error(self, tmp_path, capsys):
        svc = tmp_path / "svc"
        svc.mkdir()
        assert main(["status", str(svc), "job-nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "job-nope" in err

    def test_cancel_unknown_job_is_one_line_error(self, tmp_path, capsys):
        svc = tmp_path / "svc"
        svc.mkdir()
        assert main(["cancel", str(svc), "job-nope"]) == 2
        assert "job-nope" in capsys.readouterr().err
