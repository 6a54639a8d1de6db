import csv
import errno
import io
import json
import marshal
import mmap
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import nullcontext
from functools import lru_cache
from typing import NamedTuple

import pytest

from isodescent.arith import IS_PRIME_LIMIT, is_prime
from isodescent.cli import (
    RunConfig,
    _SCHEMAS,
    _map_primes,
    _report_record,
    _write_chunks,
    execute,
    main,
    parse_args,
    write_records,
)
from isodescent.workers import forked_map
from conftest import deadline
from records_csv import parse_records_csv


def emitted(records, fmt: str, capsysbinary, columns=None) -> bytes:
    """What write_records puts on stdout for records."""
    capsysbinary.readouterr()
    size = write_records(records, fmt, columns=columns)
    out = capsysbinary.readouterr().out
    assert size == len(out)
    return out


def run_cli(args: list[str], timeout: float = 600) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "isodescent.cli", *args],
        capture_output=True,
        timeout=timeout,
    )


class TestParseArgs:
    def test_rank_defaults(self):
        config = parse_args(["rank", "--p", "19249"])
        assert config.command == "rank"
        assert config.p == 19249
        assert config.height_bound == 2000
        assert config.output_format == "text"

    def test_scan_csv(self):
        config = parse_args(["scan", "--max", "2000", "--format", "csv"])
        assert config.command == "scan"
        assert config.range_max == 2000
        assert config.output_format == "csv"

    def test_non_prime_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["rank", "--p", "15"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["rank", "--p", "7", "--bogus"])
        assert exc.value.code == 2

    def test_descent_args(self):
        config = parse_args(["descent", "--a", "0", "--b", "-4", "--height-bound", "10"])
        assert (config.a, config.b, config.height_bound) == (0, -4, 10)

    def test_max_just_below_the_primality_range(self):
        # parsed only: a scan this large would never end
        assert parse_args(["scan", "--max", str(IS_PRIME_LIMIT - 1)]).range_max == IS_PRIME_LIMIT - 1

    @pytest.mark.parametrize(
        "flags", [["--height-bound=60"], ["--height", "60"]], ids=["equals-form", "unique-prefix"]
    )
    def test_flag_forms(self, flags):
        assert parse_args(["rank", "--p", "7", *flags]).height_bound == 60

    def test_repeated_flag_last_wins(self):
        assert parse_args(["rank", "--p", "11", "--format", "csv", "--p", "7"]).p == 7

    def test_negative_value(self):
        config = parse_args(["descent", "--a", "-3", "--b", "5"])
        assert (config.a, config.b) == (-3, 5)

    def test_jobs_defaults_to_one_outside_scan(self):
        assert parse_args(["rank", "--p", "7"]).parallelism == 1


class TestExecute:
    def test_rank_seven(self):
        records = list(execute(RunConfig(command="rank", p=7, height_bound=10)))
        rec = records[0]
        assert rec["upper"] == 0 and rec["lower"] == 0
        assert rec["theorem_bound"] == "exact 0"
        assert rec["consistent"] is True

    def test_rank_without_a_proposition(self, capsys):
        # p = 1 mod 24 with a 3p witness and no p = a^4 + 18b^4
        assert main(["rank", "--p", "6481", "--format", "json"]) == 0
        (rec,) = json.loads(capsys.readouterr().out)
        assert rec["proposition"] == ""
        assert rec["consistent"] is True

    def test_rank_record_schema(self):
        records = list(execute(RunConfig(command="rank", p=7, height_bound=5)))
        keys = set(records[0])
        assert {
            "p",
            "mod24",
            "quartic2",
            "dim_selmer_psibar",
            "dim_selmer_psi",
            "dim_im_alpha",
            "dim_im_alphabar",
            "lower",
            "upper",
            "theorem_bound",
            "consistent",
        } <= keys
        assert records[0]["spec_version"] == 1

    def test_repr_1601(self):
        records = list(execute(RunConfig(command="repr", p=1601)))
        rec = records[0]
        assert (rec["repr_3p_a"], rec["repr_3p_b"]) == (1, 7)
        assert rec["repr_p_a"] is None

    def test_scan_hundred(self):
        records = list(
            execute(RunConfig(command="scan", range_max=100, height_bound=60, parallelism=1))
        )
        assert len(records) == 25
        assert all(rec["consistent"] for rec in records)
        assert [rec["p"] for rec in records] == sorted(rec["p"] for rec in records)

    def test_selmer_symbolic(self):
        records = list(execute(RunConfig(command="selmer", p=19249)))
        rec = records[0]
        assert rec["psibar_symbolic"] == "1 2 3 6 p 2p 3p 6p"
        assert rec["consistent"] is True

    def test_classify(self):
        records = list(execute(RunConfig(command="classify", p=1217)))
        assert records[0]["quartic2"] == 1
        assert records[0]["theorem_bound"] == "<=1"

    def test_descent_arbitrary_curve(self):
        records = list(execute(RunConfig(command="descent", a=0, b=4, height_bound=20)))
        assert records[0]["upper"] == 0


class TestEmit:
    def test_empty_csv_is_header_only(self, capsysbinary):
        data = emitted([], "csv", capsysbinary, columns=_SCHEMAS["scan"])
        assert data.decode().strip() == ",".join(_SCHEMAS["scan"])

    def test_json_round_trip(self, capsysbinary):
        records = list(execute(RunConfig(command="rank", p=7, height_bound=5)))
        parsed = json.loads(emitted(records, "json", capsysbinary))
        assert parsed == records

    def test_csv_round_trip(self, capsysbinary):
        records = list(
            execute(RunConfig(command="scan", range_max=30, height_bound=30, parallelism=1))
        )
        parsed = parse_records_csv(emitted(records, "csv", capsysbinary))
        assert parsed == records

    def test_csv_quartic2_none_round_trips(self, capsysbinary):
        records = list(execute(RunConfig(command="classify", p=7)))
        parsed = parse_records_csv(emitted(records, "csv", capsysbinary))
        assert parsed[0]["quartic2"] is None

    def test_deterministic_bytes(self, capsysbinary):
        records = list(execute(RunConfig(command="rank", p=11, height_bound=10)))
        for fmt in ("json", "csv", "text"):
            assert emitted(records, fmt, capsysbinary) == emitted(records, fmt, capsysbinary)

    def test_write_then_rename(self, tmp_path, capsysbinary):
        target = tmp_path / "out.csv"
        records = list(execute(RunConfig(command="classify", p=7)))
        size = write_records(records, "csv", path=str(target))
        assert target.read_bytes() == emitted(records, "csv", capsysbinary)
        assert size == target.stat().st_size
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".isodescent-")]
        assert leftovers == []

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_a_failed_record_leaves_no_file(self, tmp_path, fmt):
        # the record fails while the temp file exists: neither a partial
        # target nor the temp file is left
        target = tmp_path / "out"

        def records():
            yield {"p": 2}
            assert [f.name[:12] for f in tmp_path.iterdir()] == [".isodescent-"]
            raise RuntimeError("no record for 3")

        with pytest.raises(RuntimeError, match="no record for 3"):
            write_records(records(), fmt, path=str(target))
        assert list(tmp_path.iterdir()) == []

    def test_empty_text_without_columns(self, capsysbinary):
        assert emitted([], "text", capsysbinary) == b"(no records)\n"

    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o027, 0o640)], ids=["umask022", "umask077", "umask027"]
    )
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        target = tmp_path / "out.json"
        records = list(execute(RunConfig(command="classify", p=7)))
        previous = os.umask(umask)
        try:
            # a new file, then the same file overwritten
            for _ in range(2):
                write_records(records, "json", path=str(target))
                assert stat.S_IMODE(target.stat().st_mode) == mode
        finally:
            os.umask(previous)

    def test_file_mode_needs_neither_umask_nor_chmod(self, monkeypatch, tmp_path):
        # the kernel applies the umask to the temp file as it creates it:
        # neither reading the umask nor a chmod is needed
        target = tmp_path / "out.json"
        umask = os.umask
        previous = umask(0o027)

        def refuse(*args):
            raise AssertionError("write_records changed a mode or the umask")

        monkeypatch.setattr(os, "umask", refuse)
        monkeypatch.setattr(os, "chmod", refuse)
        try:
            write_records([{"p": 7}], "json", path=str(target))
        finally:
            monkeypatch.undo()
            umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


class TestMainExitCodes:
    def test_ok(self, capsys):
        assert main(["classify", "--p", "7", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)[0]["p"] == 7

    def test_io_error(self, capsys):
        code = main(
            ["classify", "--p", "7", "--format", "csv", "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 3
        # the path given, not the hidden temp file beside it
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith(": '/nonexistent-dir/x.csv'") and ".isodescent-" not in line, line

    @pytest.mark.parametrize(
        "argv,engine,target",
        [
            (["scan", "--max", "3000", "--height-bound", "20", "--jobs", "1"], "verify_prime", "outdir"),
            (["descent", "--a", "0", "--b", "2"], "rank_bounds", "outdir"),
            (["scan", "--max", "3000", "--height-bound", "20", "--jobs", "1"], "verify_prime", "out.pipe"),
            (["scan", "--max", "3000", "--height-bound", "20", "--jobs", "1"], "verify_prime", "link"),
            (["scan", "--max", "3000", "--height-bound", "20", "--jobs", "1"], "verify_prime", "nodir/"),
            (["scan", "--max", "3000", "--height-bound", "20", "--jobs", "1"], "verify_prime", "afile/"),
        ],
        ids=["scan", "descent", "fifo", "link-to-directory", "missing-directory", "file-as-directory"],
    )
    def test_out_names_a_directory(self, monkeypatch, tmp_path, capsys, argv, engine, target):
        # no regular file once links are followed: refused before the first
        # record is computed, not by a rename that fails once every record
        # is written (a directory) or replaces the target (a FIFO, a link);
        # a trailing slash names a directory that the temp file cannot be
        # opened in (none, or a regular file)
        import isodescent.cli as cli_mod

        calls = []
        compute = getattr(cli_mod, engine)
        monkeypatch.setattr(cli_mod, engine, lambda *args: calls.append(args) or compute(*args))
        (tmp_path / "outdir").mkdir()
        os.mkfifo(tmp_path / "out.pipe")
        (tmp_path / "link").symlink_to("outdir")
        (tmp_path / "afile").write_bytes(b"kept\n")
        # a string: tmp_path / "nodir/" would drop the slash
        out = f"{tmp_path}/{target}"
        assert main([*argv, "--out", out]) == 3
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output:"), err
        assert err[0].endswith(f": {out!r}"), err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["afile", "link", "out.pipe", "outdir"]
        assert list((tmp_path / "outdir").iterdir()) == []
        assert (tmp_path / "afile").read_bytes() == b"kept\n"
        assert stat.S_ISFIFO(os.lstat(tmp_path / "out.pipe").st_mode)
        assert os.readlink(tmp_path / "link") == "outdir"

    def test_empty_out_is_refused_before_any_record(self, monkeypatch, tmp_path, capsys):
        # '' names the working directory: refused before the first record
        # is computed and before a temp file exists
        import isodescent.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "verify_prime", lambda *args: calls.append(args))
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert main(["scan", "--max", "3000", "--height-bound", "20", "--jobs", "1", "--out", ""]) == 3
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output:"), err
        assert [f.name for f in tmp_path.iterdir()] == ["work"]
        assert list((tmp_path / "work").iterdir()) == []

    def test_a_dead_scan_worker_is_not_an_output_error(self, monkeypatch, capsys):
        import isodescent.cli as cli_mod

        def row(p, height_bound=None, columns=None):
            if p == 13:
                os.kill(os.getpid(), signal.SIGKILL)
            return pid_record(p)

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 2, raising=False)
        monkeypatch.setattr(cli_mod, "_report_record", row)
        with deadline(30):
            code = main(["scan", "--max", "30", "--jobs", "2", "--format", "csv"])
        assert code == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"error: scan worker \d+ ended before its record for p = 13", line), line

    def test_a_failed_fork_is_not_an_output_error(self, monkeypatch, capsys):
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 2, raising=False)
        monkeypatch.setattr(cli_mod, "_report_record", pid_record)
        forked = failing_fork(monkeypatch, 2)
        with deadline(30):
            code = main(["scan", "--max", "30", "--jobs", "2", "--format", "csv"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot fork scan worker 2 of 2: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"]
        assert len(forked) == 1
        assert_reaped(forked[0])

    def test_usage_error_subprocess(self):
        proc = run_cli(["rank", "--p", "15"])
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (["rank", "--p", "3317044064679887385961983"], b"past the range of the primality test"),
            # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to
            # every prime base up to 37
            (["rank", "--p", "318665857834031151167461"], b"argument --p: 318665857834031151167461 is not prime\n"),
            (["rank", "--p", "x"], b"'x' is not an integer"),
            (["scan", "--max", "x"], b"'x' is not an integer"),
            (["scan", "--max", "10", "--jobs", "x"], b"'x' is not an integer"),
            (["scan", "--max", "10", "--height-bound", "x"], b"'x' is not an integer"),
            (["descent", "--a", "x", "--b", "1"], b"'x' is not an integer"),
            (["scan", "--max", "0"], b"expected a positive integer, got 0"),
            (["scan", "--max", str(IS_PRIME_LIMIT)], b"past the range of the primality test (--max <"),
        ],
        ids=[
            "p-past-primality-range", "p-strong-pseudoprime", "p", "max", "jobs", "height-bound", "a", "max-zero",
            "max-past-primality-range",
        ],
    )
    def test_bad_argument_message(self, args, message, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err.encode()
        assert message in err and b"_arg" not in err, err

    @pytest.mark.parametrize(
        "args",
        [
            ["rank", "--p", "7", "--format", "xml"],
            ["rank", "--format", "json"],
            ["rank", "--p", "7", "extra"],
            ["rank", "--p", "7", "--bogus"],
            ["rnak", "--p", "7"],
            [],
            ["rank", "--p", "318665857834031151167461"],
        ],
        ids=[
            "format", "missing-p", "stray-positional", "unknown-flag", "unknown-command", "no-command",
            "p-strong-pseudoprime",
        ],
    )
    def test_usage_error_is_one_line(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 2, err
        assert err[0].startswith("usage: isodescent") and err[1].startswith("isodescent: error: "), err

    def test_format_usage_and_error_bytes(self, capsys):
        # both the metavar and the choices are built from the writers' table
        with pytest.raises(SystemExit):
            parse_args(["rank", "--p", "7", "--format", "xml"])
        assert capsys.readouterr().err.splitlines() == [
            "usage: isodescent rank [-h] --p P [--format {json,csv,text}] [--out PATH] [--height-bound N]",
            "isodescent: error: argument --format: invalid choice: 'xml' (choose from json, csv, text)",
        ]

    @pytest.mark.parametrize("args", [["--help"], ["-h"], ["rank", "--help"], ["scan", "--max", "7", "-h"]])
    def test_help(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(args)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: isodescent") and captured.err == ""
        if args[0] == "rank":
            assert "--p P" in captured.out and "--height-bound" in captured.out
        elif len(args) == 1:
            commands = ("classify", "selmer", "rank", "repr", "scan", "descent")
            assert all(f"\n  {name} " in captured.out for name in commands), captured.out

    @pytest.mark.parametrize(
        "a,b",
        [(0, 0), (2, 1), (0, 1000036000099)],
        ids=["b-zero", "singular", "b-outside-factoring-range"],
    )
    def test_bad_curve_is_usage_error(self, a, b):
        proc = run_cli(["descent", "--a", str(a), "--b", str(b)])
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"error:" in proc.stderr

    @pytest.mark.parametrize(
        "b",
        [10**27 + 7, 10**400 + 1, 318665857834031151167461],
        ids=["cofactor-not-a-prime-power", "past-float-range", "strong-pseudoprime"],
    )
    def test_unfactorable_b_exits_two_quickly(self, b):
        proc = run_cli(["descent", "--a", "0", "--b", str(b)], timeout=60)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        errors = [ln for ln in proc.stderr.splitlines() if b"error:" in ln]
        assert len(errors) == 1 and b"out of supported factoring range" in errors[0]

    @pytest.mark.parametrize(
        "b",
        [10238844796821566353, 10**30 + 7],
        ids=["prime", "three-prime-factors"],
    )
    def test_giant_bad_place_finishes(self, b):
        # the largest prime factor of both is 10238844796821566353
        proc = run_cli(
            ["descent", "--a", "0", "--b", str(b), "--height-bound", "60", "--format", "json"],
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        (record,) = json.loads(proc.stdout)
        assert record["b"] == b and record["lower"] <= record["upper"]

    def test_ok_subprocess(self):
        proc = run_cli(["rank", "--p", "7", "--height-bound", "5", "--format", "json"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["upper"] == 0


class TestInconsistencyExitCode:
    def test_exit_one_and_record_still_emitted(self, monkeypatch, capsysbinary):
        # forge a disagreement by swapping in the wrong closed form
        import isodescent.cli as cli_mod
        from isodescent.family import closed_form_selmer_psibar

        monkeypatch.setattr(
            cli_mod, "closed_form_selmer_psibar", lambda p: closed_form_selmer_psibar(5)
        )
        assert main(["selmer", "--p", "7", "--format", "json"]) == 1
        records = json.loads(capsysbinary.readouterr().out)
        assert records and records[0]["consistent"] is False


def _primes_to(m: int) -> list[int]:
    """The primes <= m by is_prime: a reference that is not the sieve a
    scan walks."""
    return [n for n in range(2, m + 1) if is_prime(n)]


def pid_record(p, height_bound=None, columns=None) -> dict:
    """A record that names the process which computed it."""
    return {"p": p, "pid": os.getpid()}


def process_count(records) -> int:
    """J, the processes the records came from: this one alone, or J forked
    workers, none of them this one, with record i from worker i mod J."""
    pids = [r["pid"] for r in records]
    jobs = len(set(pids))
    assert set(pids) == {os.getpid()} or os.getpid() not in pids
    assert pids == [pids[i % jobs] for i in range(len(pids))]
    return jobs


def refuse_fork():
    raise AssertionError("a one-process run forked")


def failing_fork(monkeypatch, n: int) -> list[int]:
    """Make fork number n fail with EAGAIN, as at a process limit; returns
    the list that the pids of the forks before it are added to."""
    fork, forked = os.fork, []

    def fork_until_n():
        if len(forked) == n - 1:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork_until_n)
    return forked


def assert_reaped(pid: int) -> None:
    with pytest.raises(ProcessLookupError):  # neither running nor a zombie
        os.kill(pid, 0)


class TestPoolClamp:
    """How many children this process forks for a scan: J = min(--jobs,
    usable CPUs, primes), none when J is 1."""

    @pytest.mark.parametrize(
        "cpus,range_max,expected",
        [(4, 30, [4]), (64, 10, [4]), (None, 30, []), (1, 30, []), (4, 2, [])],
    )
    def test_processes_capped_by_cores_and_primes(self, monkeypatch, cpus, range_max, expected):
        # expected: the forked workers, or [] when this process runs alone
        import isodescent.cli as cli_mod

        # the first source of the count (Python 3.13+; None when unknown)
        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: cpus, raising=False)
        monkeypatch.setattr(cli_mod, "_report_record", pid_record)
        config = RunConfig(command="scan", range_max=range_max, height_bound=5, parallelism=64)
        jobs = process_count(execute(config))
        assert ([jobs] if jobs > 1 else []) == expected

    @pytest.mark.parametrize("source", ["process_cpu_count", "sched_getaffinity", "cpu_count"])
    def test_affinity_smaller_than_cpu_count(self, monkeypatch, source):
        # one usable CPU of two: the default --jobs and the clamp both give
        # one, so nothing is forked; without an affinity API cpu_count is all
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_report_record", pid_record)
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
        if source == "process_cpu_count":
            monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 1, raising=False)
        else:
            monkeypatch.delattr(cli_mod.os, "process_cpu_count", raising=False)
        if source == "sched_getaffinity":
            monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        elif source == "cpu_count":
            monkeypatch.delattr(cli_mod.os, "sched_getaffinity", raising=False)
        usable = 2 if source == "cpu_count" else 1
        assert parse_args(["scan", "--max", "30"]).parallelism == usable
        records = execute(RunConfig(command="scan", range_max=30, height_bound=5, parallelism=2))
        assert process_count(records) == usable

    @pytest.mark.parametrize("range_max,jobs", [(30, 2), (200, 4), (3000, 3), (5000, 2)])
    def test_record_i_comes_from_process_i_mod_jobs(self, monkeypatch, range_max, jobs):
        # the same whether the primes come as a list or as an iterator of
        # unknown length
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: jobs, raising=False)
        monkeypatch.setattr(cli_mod, "_report_record", pid_record)
        primes = _primes_to(range_max)
        runs = [
            execute(RunConfig(command="scan", range_max=range_max, parallelism=jobs)),
            _map_primes(pid_record, primes, jobs),
            _map_primes(pid_record, iter(primes), jobs),
        ]
        for records in runs:
            records = list(records)
            assert [r["p"] for r in records] == primes
            assert process_count(records) == jobs

    @pytest.mark.parametrize("n,jobs", [(1, 2), (3, 4), (10**6, 2), (10**6, 4)])
    def test_k_records_read_at_most_jobs_plus_k_primes(self, monkeypatch, n, jobs):
        # J primes to choose J, then one per record: each child walks
        # its own copy of the primes, so none are read here on its behalf
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: jobs, raising=False)
        pulled = 0

        def source():
            nonlocal pulled
            for p in range(n):
                pulled += 1
                yield p

        records = _map_primes(lambda p: {"p": p}, source(), jobs)
        try:
            for k in range(1, min(n, 3 * jobs) + 1):
                assert next(records)["p"] == k - 1
                assert pulled <= jobs + k
        finally:
            records.close()

    @pytest.mark.parametrize("n,chunksize", [(503, 63), (504, 63), (505, 64), (512, 64), (513, 64), (10**6, 64)])
    def test_chunk_size_around_the_read_ahead(self, monkeypatch, n, chunksize):
        # a pool once read 4 * 64 * 2 + 1 = 513 primes ahead to choose its
        # chunk size (chunksize here) for n primes on two jobs; around that
        # n, the chunksize records of one such chunk now pull at most
        # J + chunksize primes
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 2, raising=False)
        pulled = 0

        def source():
            nonlocal pulled
            for p in range(n):
                pulled += 1
                yield p

        records = _map_primes(lambda p: {"p": p}, source(), 2)
        try:
            assert [next(records)["p"] for _ in range(chunksize)] == list(range(chunksize))
            assert pulled <= 2 + chunksize < min(513, n)
        finally:
            records.close()

    def test_a_child_takes_primes_only_as_its_pipe_has_room(self, monkeypatch):
        # a child blocks once its pipe to this process is full, so with the
        # reader stopped it stays a pipe's worth of records (some 4 000 of
        # these) ahead; its count of primes taken is kept in a shared mapping
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 2, raising=False)
        parent = os.getpid()
        taken = mmap.mmap(-1, 8)

        def source():
            for p in range(10**6):
                if os.getpid() != parent:
                    taken[:] = (int.from_bytes(taken, "little") + 1).to_bytes(8, "little")
                yield p

        records = _map_primes(lambda p: p, source(), 2)
        try:
            assert [next(records) for _ in range(2)] == [0, 1]
            time.sleep(0.5)
            assert 0 < int.from_bytes(taken, "little") < 10**5
        finally:
            records.close()
            taken.close()

    def test_a_two_job_scan_builds_no_record_here(self, monkeypatch):
        # calls made in the workers land in their own copies of calls
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 2, raising=False)
        calls = []

        def row(p, height_bound=None, columns=None):
            calls.append(p)
            return pid_record(p)

        monkeypatch.setattr(cli_mod, "_report_record", row)
        records = list(execute(RunConfig(command="scan", range_max=30, parallelism=2)))
        assert [r["p"] for r in records] == _primes_to(30)
        assert calls == []
        assert process_count(records) == 2

    def test_rank_runs_in_process(self, monkeypatch):
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "fork", refuse_fork)
        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 4, raising=False)
        monkeypatch.setattr(cli_mod, "_report_record", pid_record)
        records = list(execute(RunConfig(command="rank", p=7, height_bound=5, parallelism=64)))
        assert records == [{"p": 7, "pid": os.getpid()}]


def mask(p=None) -> list[int]:
    return sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
class TestCpuBinding:
    """With one child per CPU of this process's mask, child k is bound to
    the k-th CPU; with any other count the children are left unbound.
    This process keeps its own mask."""

    @pytest.fixture
    def cpus(self):
        cpus = mask()
        if len(cpus) < 2:
            pytest.skip("fewer than 2 usable CPUs")
        return cpus

    def test_child_k_runs_on_the_kth_cpu(self, cpus):
        jobs = len(cpus)
        records = list(forked_map(mask, range(4 * jobs), jobs))
        assert records == [[cpus[i % jobs]] for i in range(4 * jobs)]

    @pytest.mark.parametrize("spare", [-1, 1], ids=["fewer", "more"])
    def test_other_job_counts_run_unbound(self, cpus, spare):
        jobs = len(cpus) + spare
        assert list(forked_map(mask, range(2 * jobs), jobs)) == [cpus] * (2 * jobs)

    def test_this_process_keeps_its_mask(self, cpus):
        assert len(list(forked_map(mask, range(8), len(cpus)))) == 8
        assert mask() == cpus

    def test_a_child_that_cannot_be_bound_runs_unbound(self, monkeypatch, cpus):
        def refuse(pid, cpus):
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert list(forked_map(mask, range(4), len(cpus))) == [cpus] * 4
        scan = [RunConfig(command="scan", range_max=300, height_bound=20, parallelism=j) for j in (1, len(cpus))]
        assert list(execute(scan[1])) == list(execute(scan[0]))


class TestWorkerFailure:
    # at J = 2, 13 is record 5, worker 1's
    PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]

    def scan(self, monkeypatch, fn, error) -> tuple[list, pytest.ExceptionInfo]:
        """The records _map_primes yields at J = 2 before it raises error."""
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 2, raising=False)
        seen = []
        with deadline(30), pytest.raises(error) as raised:
            for record in _map_primes(fn, self.PRIMES, 2):
                seen.append(record)
        return seen, raised

    def test_a_child_that_dies_ends_the_scan(self, monkeypatch):
        # a child killed outright, as by the OOM killer, sends nothing more:
        # the scan fails at once, naming it, and leaves no process behind
        def fn(p):
            if p == 13:
                os.kill(os.getpid(), signal.SIGKILL)
            return pid_record(p)

        start = time.monotonic()
        seen, raised = self.scan(monkeypatch, fn, ChildProcessError)
        assert time.monotonic() - start < 10
        assert [r["p"] for r in seen] == [2, 3, 5, 7, 11]
        child = seen[1]["pid"]
        assert str(raised.value) == f"scan worker {child} ended before its record for p = 13"
        assert_reaped(child)

    def test_a_childs_exception_reaches_this_process(self, monkeypatch):
        def fn(p):
            if p == 13:
                raise ValueError(f"no record for {p}")
            return pid_record(p)

        seen, raised = self.scan(monkeypatch, fn, ValueError)
        assert raised.type is ValueError and str(raised.value) == "no record for 13"
        assert [r["p"] for r in seen] == [2, 3, 5, 7, 11]
        assert seen[1]["pid"] != os.getpid()
        assert_reaped(seen[1]["pid"])

    def test_a_failed_fork_leaves_no_pipe_open(self, monkeypatch):
        pipe, pipes = os.pipe, []

        def recording_pipe():
            pipes.append(pipe())
            return pipes[-1]

        monkeypatch.setattr(os, "pipe", recording_pipe)
        forked = failing_fork(monkeypatch, 2)
        seen, raised = self.scan(monkeypatch, pid_record, ChildProcessError)
        assert seen == []
        assert isinstance(raised.value.__cause__, BlockingIOError)
        assert len(pipes) == 2 and len(forked) == 1
        assert_reaped(forked[0])
        for fd in (fd for pair in pipes for fd in pair):
            with pytest.raises(OSError):
                os.fstat(fd)


class TestFrames:
    """What crosses a child's pipe: one marshal frame per record."""

    PRIMES = TestWorkerFailure.PRIMES

    def scan(self, monkeypatch, fn, error=None) -> tuple[list, pytest.ExceptionInfo]:
        """The records _map_primes yields at J = 2, before it raises error
        if one is given; both children it forked must be reaped by then."""
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 2, raising=False)
        fork, forked = os.fork, []

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        seen = []
        with deadline(30), pytest.raises(error) if error else nullcontext() as raised:
            for record in _map_primes(fn, self.PRIMES, 2):
                seen.append(record)
        assert len(forked) == 2
        for pid in forked:
            assert_reaped(pid)
        return seen, raised

    def test_a_record_larger_than_a_pipe_arrives_whole(self, monkeypatch):
        # 200 000 characters, some 400 000 bytes of UTF-8: the child blocks
        # mid-frame until this process reads the rest
        def fn(p):
            return {**pid_record(p), "text": chr(0x100 + p) * 200_000}

        seen, _ = self.scan(monkeypatch, fn)
        assert [r["p"] for r in seen] == self.PRIMES
        assert [r["text"] for r in seen] == [chr(0x100 + p) * 200_000 for p in self.PRIMES]
        assert process_count(seen) == 2

    def test_a_record_marshal_cannot_carry_raises_here(self, monkeypatch):
        # every record crosses a pipe, so the scan fails at record 0
        class Pair(NamedTuple):
            p: int
            pid: int

        seen, raised = self.scan(monkeypatch, lambda p: Pair(p, os.getpid()), ValueError)
        assert raised.type is ValueError
        assert seen == []

    @pytest.mark.parametrize("cut", [3, -3], ids=["header", "body"])
    def test_a_child_that_writes_half_a_frame_ends_the_scan(self, monkeypatch, cut):
        from isodescent.workers import _frame

        pipe, pipes = os.pipe, []

        def recording_pipe():
            pipes.append(pipe())
            return pipes[-1]

        monkeypatch.setattr(os, "pipe", recording_pipe)

        def fn(p):
            if p == 13:  # record 5, on the pipe of worker 5 mod 2
                os.write(pipes[1][1], _frame(b"r", marshal.dumps(pid_record(p)))[:cut])
                os._exit(0)
            return pid_record(p)

        seen, raised = self.scan(monkeypatch, fn, ChildProcessError)
        assert [r["p"] for r in seen] == [2, 3, 5, 7, 11]
        assert str(raised.value) == f"scan worker {seen[1]['pid']} ended before its record for p = 13"


class TestOnePath:
    def test_unknown_command_names_itself(self):
        with pytest.raises(ValueError, match="'bogus'"):
            execute(RunConfig(command="bogus"))

    @pytest.mark.parametrize("command", ["classify", "selmer", "repr"])
    def test_one_prime_runs_in_process(self, monkeypatch, command):
        import isodescent.cli as cli_mod

        monkeypatch.setattr(cli_mod.os, "fork", refuse_fork)
        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 4, raising=False)
        monkeypatch.setattr(cli_mod, f"_{command}_record", pid_record)
        records = list(execute(RunConfig(command=command, p=1217, parallelism=4)))
        assert records == [{"p": 1217, "pid": os.getpid()}]

    def test_a_platform_without_fork_runs_in_one_process(self, monkeypatch):
        import isodescent.cli as cli_mod

        monkeypatch.delattr(cli_mod.os, "fork")
        monkeypatch.setattr(cli_mod.os, "process_cpu_count", lambda: 4, raising=False)
        records = list(_map_primes(pid_record, _primes_to(30), 4))
        assert [r["p"] for r in records] == _primes_to(30)
        assert process_count(records) == 1

    @pytest.mark.parametrize("command", ["classify", "selmer"])
    def test_one_primality_test_of_p(self, monkeypatch, command):
        import isodescent.family as family_mod

        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(family_mod, "is_prime", counting_is_prime)
        family_mod.classify.cache_clear()
        records = list(execute(RunConfig(command=command, p=1217)))
        assert [r["p"] for r in records] == [1217]
        assert calls == [1217]


class TestImports:
    @staticmethod
    def loaded(argv: list[str], modules: tuple[str, ...]) -> tuple[bytes, list[str], list[str]]:
        """The output of argv run in a fresh interpreter, and which of modules
        were loaded by importing the CLI and then by the run."""
        script = (
            "import sys\n"
            f"unused = set({modules!r})\n"
            "import isodescent.cli as cli\n"
            "print(*sorted(unused & set(sys.modules)), file=sys.stderr)\n"
            f"cli.main({argv!r})\n"
            "print(*sorted(unused & set(sys.modules)), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        imported, ran = proc.stderr.decode().split("\n")[:2]
        return proc.stdout, imported.split(), ran.split()

    def test_cli_loads_no_dataclasses_or_multiprocessing(self):
        # no CLI process needs either module; both cost start-up time
        out, imported, ran = self.loaded(
            ["rank", "--p", "7", "--height-bound", "5", "--format", "json"], ("dataclasses", "multiprocessing")
        )
        assert json.loads(out)[0]["p"] == 7
        assert imported == ran == []

    def test_a_two_job_scan_loads_no_dataclasses_or_multiprocessing(self):
        # the scan's workers are forked directly, with no multiprocessing.Pool,
        # and send their records as marshal frames; the parser is getopt
        out, _, ran = self.loaded(
            ["scan", "--max", "60", "--height-bound", "20", "--jobs", "2", "--format", "csv"],
            ("dataclasses", "multiprocessing", "pickle", "argparse", "locale"),
        )
        assert len(parse_records_csv(out)) == 17
        assert ran == []

    def test_a_json_rank_loads_no_fractions_or_csv(self):
        # no rank record builds a point (isodescent.points, which imports
        # fractions), csv serves only --format csv, and getopt parses the
        # command line without argparse or locale
        out, _, ran = self.loaded(
            ["rank", "--p", "7", "--format", "json"],
            ("isodescent.points", "fractions", "decimal", "csv", "argparse", "locale"),
        )
        assert json.loads(out)[0]["p"] == 7
        assert ran == []

    def test_a_csv_scan_loads_no_fractions_or_json(self):
        out, _, ran = self.loaded(
            ["scan", "--max", "60", "--height-bound", "20", "--jobs", "2", "--format", "csv"],
            ("isodescent.points", "fractions", "decimal", "json", "pickle"),
        )
        assert len(parse_records_csv(out)) == 17
        assert ran == []

    def test_a_one_job_scan_loads_no_points(self):
        # here the CLI process computes every record itself
        out, _, ran = self.loaded(
            ["scan", "--max", "60", "--height-bound", "20", "--jobs", "1", "--format", "json"],
            ("isodescent.points", "fractions", "decimal"),
        )
        assert len(json.loads(out)) == 17
        assert ran == []

    def test_the_package_loads_no_module(self):
        # the package re-exports nothing: every name is imported from its module
        script = "import sys, isodescent\nprint(*sorted(m for m in sys.modules if m.startswith('isodescent.')))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


class TestScanDeterminism:
    def test_jobs_equivalence(self):
        seq = list(execute(RunConfig(command="scan", range_max=60, height_bound=40, parallelism=1)))
        par = list(execute(RunConfig(command="scan", range_max=60, height_bound=40, parallelism=4)))
        assert all(r["consistent"] for r in seq)
        assert seq == par


# --max giving no scan record, one, and many (17)
SCAN_MAX = {"empty": 1, "one": 2, "many": 60}


@lru_cache(maxsize=None)
def scan_records(size: str) -> tuple:
    config = RunConfig(command="scan", range_max=SCAN_MAX[size], height_bound=20, parallelism=1)
    return tuple(execute(config))


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def reference_bytes(records: list, fmt: str) -> bytes:
    """The whole output built from the whole record list."""
    if fmt == "json":
        return (json.dumps(records, indent=2) + "\n").encode()
    header = tuple(records[0]) if records else _SCHEMAS["scan"]
    rows = [[reference_cell(rec[k]) for k in header] for rec in records]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows([header, *rows])
        return buf.getvalue().encode()
    widths = [max(len(cell) for cell in column) for column in zip(header, *rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in [header, *rows]]
    return ("\n".join(lines) + "\n").encode()


class TestStreaming:
    @pytest.mark.parametrize("sink", ["stdout", "out"])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("size", list(SCAN_MAX))
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_same_bytes_as_the_whole_list(self, fmt, size, jobs, sink, tmp_path, capsysbinary):
        target = tmp_path / "scan.out"
        argv = ["scan", "--max", str(SCAN_MAX[size]), "--height-bound", "20", "--jobs", str(jobs), "--format", fmt]
        assert main([*argv, "--out", str(target)] if sink == "out" else argv) == 0
        out = capsysbinary.readouterr().out
        if sink == "out":
            assert out == b""
            out = target.read_bytes()
        assert out == reference_bytes(list(scan_records(size)), fmt)

    def test_json_of_any_flat_record(self, capsysbinary):
        # the json writer lays out each record's items itself: every kind
        # of scalar a record can hold comes out as json.dumps writes it
        records = [
            {"p": 7, "s": 'a "quoted"\nline \\ é', "none": None, "yes": True, "no": False, "x": -1.5, "big": 3**80},
            {},
            {"only": ""},
        ]
        assert emitted(records, "json", capsysbinary) == reference_bytes(records, "json")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_memory_flat(self, fmt, tmp_path):
        # 20 000 scan records, made one at a time: the writer holds none of
        # them (the whole-output writer this replaced peaked at 67.7 MiB
        # for json and 3.8 MiB for csv, not counting the record list)
        template = _report_record(1217, 60, _SCHEMAS["scan"])
        records = (dict(template, p=p) for p in range(20_000))
        target = tmp_path / "scan.out"
        tracemalloc.start()
        try:
            size = write_records(records, fmt, path=str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert size == target.stat().st_size
        data = target.read_bytes()
        count = len(json.loads(data)) if fmt == "json" else data.count(b"\r\n") - 1
        assert count == 20_000


class TestNonBlockingOutput:
    def test_waits_for_a_late_reader(self):
        # a non-blocking pipe that fills before its reader starts: the raw
        # FileIO returns None from each write that would block, and the
        # writer must wait for the pipe, not call write again at once
        chunks = [bytes([65 + k % 26]) * 10_000 + b"\n" for k in range(40)]
        r, w = os.pipe()
        os.set_blocking(w, False)
        received = []

        def read_late():
            time.sleep(0.3)
            with open(r, "rb") as reader:
                received.append(reader.read())

        class Counted:
            def __init__(self, raw):
                self.raw, self.calls = raw, 0

            def write(self, data):
                self.calls += 1
                return self.raw.write(data)

            def fileno(self):
                return self.raw.fileno()

        reader = threading.Thread(target=read_late)
        reader.start()
        try:
            with open(w, "wb", buffering=0) as raw:
                out = Counted(raw)
                size = _write_chunks(out, (c.decode() for c in chunks))
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [b"".join(chunks)]
        assert size == len(received[0])
        # each wait ends with at least a page free: a few writes a chunk
        assert out.calls <= 10 * len(chunks), out.calls

    def test_a_buffered_stdout_waits_for_a_late_reader(self):
        # without python -u, stdout is a BufferedWriter, whose write raises
        # BlockingIOError once a non-blocking pipe is full
        argv = [sys.executable, "-m", "isodescent.cli", "scan", "--max", "30000", "--height-bound", "20", "--format", "csv"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        blocking = subprocess.run(argv, capture_output=True, env=env, timeout=300)
        assert blocking.returncode == 0, blocking.stderr
        r, w = os.pipe()
        os.set_blocking(w, False)
        with open(r, "rb") as reader:
            try:
                proc = subprocess.Popen(argv, stdout=w, stderr=subprocess.PIPE, env=env)
            finally:
                os.close(w)
            try:
                time.sleep(1.5)
                out = reader.read()
                _, err = proc.communicate(timeout=300)
            finally:
                proc.kill()
        assert (proc.returncode, err) == (0, b"")
        assert out == blocking.stdout


class TestTerminatedOut:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sigterm_leaves_no_temp_file(self, jobs, tmp_path):
        # a scan that runs far longer than the test waits; SIGTERM while its
        # records stream into the temp file must remove that file and still
        # end the process by the signal, forked workers included
        argv = ["scan", "--max", "200000", "--height-bound", "20", "--format", "csv", "--jobs", str(jobs)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "isodescent.cli", *argv, "--out", "F.csv"],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            start = time.monotonic()
            while not any(f.stat().st_size for f in tmp_path.glob(".isodescent-*")):
                assert proc.poll() is None and time.monotonic() - start < 60
                time.sleep(0.05)
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == -signal.SIGTERM
        assert err == b""
        assert sorted(f.name for f in tmp_path.iterdir()) == []


class TestClosedPipe:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reader_closes_the_pipe(self, jobs):
        # a reader that stops after the header, as `| head -n 1` does: the
        # scan must end with exit 3 and one error line, forked workers included
        argv = ["scan", "--max", "20000", "--height-bound", "20", "--format", "csv", "--jobs", str(jobs)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "isodescent.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            assert proc.stdout.readline().startswith(b"spec_version,p,")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 3
        lines = err.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write output"), err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reader_closes_the_pipe_stderr_shares(self, jobs):
        # as `2>&1 | head -c 16`: the error line cannot be written either,
        # and the exit code must still be 3, not 1 (an inconsistent record)
        argv = ["scan", "--max", "20000", "--height-bound", "20", "--format", "csv", "--jobs", str(jobs)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "isodescent.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.STDOUT
        )
        try:
            assert proc.stdout.read(16) == b"spec_version,p,m"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 3
        finally:
            proc.kill()
