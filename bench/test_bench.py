"""Tests of the benchmark's own code: checker, seeded inputs, metric names."""

from __future__ import annotations

import gzip
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import checker
import run
from workloads import (
    DEFAULT_SEED,
    RANK_CLASSES,
    RANK_RANGE,
    Invocation,
    invocations,
    primes_between,
    rank_class,
    rank_primes,
)

sys.path.insert(0, str(run.ROOT / "src"))  # the program, for the class checks below

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# a cheap invocation that goes through every layer
TINY = Invocation("rank-p7", ("rank", "--p", "7", "--height-bound", "10", "--format", "json"), "json", (7,))


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path, time.monotonic() + 120)


def test_expected_output_stored_for_every_default_invocation():
    for workload in WORKLOADS:
        for inv in invocations(workload, DEFAULT_SEED, run.MAX_JOBS):
            assert checker.expected_path(inv).is_file(), inv.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_flags_a_one_byte_change_in_the_expected_output(workload):
    inv = invocations(workload, DEFAULT_SEED, run.MAX_JOBS)[0]
    good = checker.load_expected(inv)
    assert checker.check(inv, 0, good, good) == []
    for offset in (0, len(good) // 2, len(good) - 1):
        corrupted = bytearray(good)
        corrupted[offset] ^= 1
        assert checker.check(inv, 0, good, bytes(corrupted)), offset


def test_checker_record_checks_without_expected_output():
    inv = invocations("scan-search", DEFAULT_SEED, run.MAX_JOBS)[0]
    good = checker.load_expected(inv)
    assert checker.check(inv, 0, good, None) == []
    assert checker.check(inv, 1, good, None) == ["exit code 1"]
    assert checker.check(inv, None, b"", None) == ["timed out"]
    assert checker.check(inv, 0, good.replace(b",true\r\n", b",false\r\n", 1), None)
    # p = 5: S[psibar] = {1, 2, 3, 6}; drop a class
    assert checker.check(inv, 0, good.replace(b",1 2 3 6,", b",1 2 3,", 1), None)
    assert checker.check(inv, 0, good[: len(good) // 2], None)
    assert checker.check(inv, 0, b"\xff", None)


def test_corrupted_expected_output_makes_failed_ratio_nonzero(runner, tmp_path, monkeypatch):
    assert runner.run_cli(TINY).problems == []
    reference = runner.outcomes[0].stdout
    monkeypatch.setattr(checker, "EXPECTED_DIR", tmp_path)
    corrupted = reference.replace(b'"lower": 0', b'"lower": 1')
    checker.expected_path(TINY).write_bytes(gzip.compress(corrupted))
    assert runner.run_cli(TINY).problems
    failed = sum(bool(o.problems) for o in runner.outcomes)
    assert failed / len(runner.outcomes) == 0.5


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 987654321])
def test_rank_primes_are_deterministic_and_one_per_class(seed):
    from isodescent.arith import is_prime
    from isodescent.family import classify

    primes = rank_primes(seed)
    assert primes == rank_primes(seed)
    assert [rank_class(p) for p in primes] == list(range(len(RANK_CLASSES)))
    assert all(RANK_RANGE[0] <= p < RANK_RANGE[1] and is_prime(p) for p in primes)
    classes = [(classify(p).residue_mod_24, classify(p).quartic2) for p in primes]
    assert classes == [(1, 1), (7, None), (17, 1), (23, None)]
    assert [inv.primes[0] for inv in invocations("rank-large-p", seed, 1)] == list(primes)


def test_seed_changes_only_rank_large_p():
    assert rank_primes(1) != rank_primes(2)
    for workload in ("scan-search", "scan-many"):
        assert invocations(workload, 1, 2) == invocations(workload, 2, 2)


def _assert_metrics_match_spec(metrics: dict, section: str) -> None:
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert sorted(metrics) == sorted(spec)
    for name, (value, unit) in metrics.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert unit == spec[name], name
        assert isinstance(value, (int, float)), name


def test_end_to_end_metric_names_match_benchmark_json(runner):
    metrics, _ = run.timed_run(runner, [TINY], seconds=0)
    _assert_metrics_match_spec(metrics, "end_to_end")
    assert all(not o.problems for o in runner.outcomes)
    assert metrics["setup_s"][0] > 0 and metrics["peak_rss_mib"][0] > 0


def test_per_layer_metric_names_match_benchmark_json(runner):
    metrics, detail = run.traced_run(runner, [TINY], [TINY])
    _assert_metrics_match_spec(metrics, "per_layer")
    assert all(not o.problems for o in runner.outcomes)  # includes traced == untraced output
    assert metrics["descent.selmer.candidates"][0] > 0
    assert metrics["local.solvable_padic.calls"][0] > 0
    layers_s = sum(metrics[f"{layer}.self_s"][0] for layer in run.LAYERS)
    assert layers_s == pytest.approx(metrics["trace.total_s"][0])


def test_tracer_counts_agree_with_the_records(runner, tmp_path):
    argv = ("scan", "--max", "60", "--height-bound", "30", "--jobs", "1", "--format", "json")
    inv = Invocation("scan-small", argv, "json", tuple(primes_between(2, 61)))
    outcome = runner.run_cli(inv, tmp_path / "spans.json")
    assert outcome.problems == []
    counts = json.loads((tmp_path / "spans.json").read_text())["counts"]
    records = json.loads(outcome.stdout)
    selmer = sum(2 ** r["dim_selmer_psibar"] + 2 ** r["dim_selmer_psi"] for r in records)
    image = sum(2 ** r["dim_im_alpha"] + 2 ** r["dim_im_alphabar"] for r in records)
    assert counts["descent.selmer.accepted"] == selmer
    assert counts["descent.alpha_image.unproven_classes"] == selmer - image


def test_every_workload_in_benchmark_json_has_invocations():
    for workload in WORKLOADS:
        assert invocations(workload, DEFAULT_SEED, 1)
    with pytest.raises(ValueError):
        invocations("no-such-workload", DEFAULT_SEED, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work-*"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
