"""The isodescent benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from its src/.
Every CLI invocation is a fresh process, launched one at a time, because
the program's caches (descent.selmer, the 10^6 sieve behind
arith.factorize, local._square_residues) are cold for every user who
starts it.  --trace 0 times the workload and prints the end-to-end
metrics; --trace 1 runs it once untraced and once traced (tracer.py) and
prints the per-layer metrics.  Each invocation's output is checked
(checker.py).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

A full record of the run, stamped with the environment, is written to
bench/results/<workload>-seed<N>-trace<0|1>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checker
from tracer import LAYERS
from workloads import DEFAULT_SEED, Invocation, invocations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS_DIR = BENCH / "results"

MAX_JOBS = 2  # scan-search's --jobs, capped at the CPUs this process may use
SETUP_SAMPLES = 9
RUN_BUDGET_S = 170  # a run must end within 180 s
KILL_WAIT_S = 5


class RunTimeout(Exception):
    """An invocation was still running when the run's time budget ran out."""


@dataclass
class Outcome:
    name: str
    code: int | None  # None: killed at the time limit
    stdout: bytes
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    problems: list[str] = field(default_factory=list)
    errors: bytes = b""  # the end of stderr


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Runner:
    """Launches Python processes one at a time through launch.py, which
    measures each; checks each result and keeps every outcome."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        self.outcomes: list[Outcome] = []

    def _launch(self, name: str, python_args: list[str]) -> Outcome:
        stem = self.work / str(len(self.outcomes))
        out, err, report = (stem.with_suffix(ext) for ext in (".out", ".err", ".json"))
        command = [sys.executable, str(BENCH / "launch.py"), str(report), "--", sys.executable, *python_args]
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            proc = subprocess.Popen(
                command, stdout=stdout, stderr=stderr, cwd=ROOT, env=self.env, start_new_session=True
            )
            try:
                code = proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self._kill_group(proc)
                raise RunTimeout(f"{name} did not finish within the run's {RUN_BUDGET_S} s")
            except BaseException:  # interrupted or terminated: leave no process behind
                self._kill_group(proc)
                raise
        usage = json.loads(report.read_text()) if report.is_file() else {}
        outcome = Outcome(
            name,
            code,
            out.read_bytes(),
            usage.get("wall_s", 0.0),
            usage.get("cpu_s", 0.0),
            usage.get("maxrss_kib", 0),
            errors=err.read_bytes()[-2000:],
        )
        if not usage:
            outcome.problems.append("launch.py wrote no measurement")
        self.outcomes.append(outcome)
        return outcome

    @staticmethod
    def _kill_group(proc: subprocess.Popen) -> None:
        """Kill the launcher, the CLI and its pool workers; wait until all are gone."""
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        give_up = time.monotonic() + KILL_WAIT_S
        while time.monotonic() < give_up:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)

    def run_import(self) -> Outcome:
        """A fresh interpreter that imports the CLI module and exits."""
        outcome = self._launch("import", ["-c", "import isodescent.cli"])
        if outcome.code != 0 or outcome.stdout:
            outcome.problems.append(f"import isodescent.cli: exit code {outcome.code}")
        return self._report(outcome)

    def run_cli(self, inv: Invocation, span_summary: Path | None = None) -> Outcome:
        """inv as `python -m isodescent.cli`, or under tracer.py if span_summary is given."""
        if span_summary is None:
            args = ["-m", "isodescent.cli", *inv.argv]
        else:
            args = [str(BENCH / "tracer.py"), str(span_summary), "--", *inv.argv]
        outcome = self._launch(inv.name, args)
        outcome.problems += checker.check(inv, outcome.code, outcome.stdout, checker.load_expected(inv))
        return self._report(outcome)

    @staticmethod
    def _report(outcome: Outcome) -> Outcome:
        if outcome.problems:
            print(f"FAILED {outcome.name}: " + "; ".join(outcome.problems[:5]))
            if outcome.errors:
                print(outcome.errors.decode(errors="replace"))
        return outcome


# ---------------------------------------------------------------------------
# measurement


def timed_run(runner: Runner, invs: list[Invocation], seconds: int) -> tuple[dict, dict]:
    """Setup samples, then the invocations of invs round-robin for about `seconds`.

    The first pass always runs whole.  After it, the next invocation starts
    only if, at its mean time so far, it ends within `seconds`.  wall_s and
    cpu_s add up the median of each invocation, i.e. the time of one pass.
    """
    runner.run_import()  # compiles the bytecode cache once; not a sample
    setup = [runner.run_import().wall_s for _ in range(SETUP_SAMPLES)]
    runs: dict[str, list[Outcome]] = {inv.name: [] for inv in invs}
    start = time.monotonic()
    for inv in invs:
        runs[inv.name].append(runner.run_cli(inv))
    for inv in itertools.cycle(invs):
        expected_s = statistics.fmean(o.wall_s for o in runs[inv.name])
        if time.monotonic() - start + expected_s > seconds:
            break
        runs[inv.name].append(runner.run_cli(inv))
    failed = sum(bool(o.problems) for o in runner.outcomes)
    metrics = {
        "wall_s": (sum(statistics.median(o.wall_s for o in rs) for rs in runs.values()), "s"),
        "cpu_s": (sum(statistics.median(o.cpu_s for o in rs) for rs in runs.values()), "s"),
        "peak_rss_mib": (max(o.maxrss_kib for rs in runs.values() for o in rs) / 1024, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_ratio": (1 - failed / len(runner.outcomes), "ratio"),
    }
    samples = {
        "setup_s": setup,
        "invocations": {name: [_measurement(o) for o in rs] for name, rs in runs.items()},
    }
    return metrics, samples


def _measurement(outcome: Outcome) -> dict:
    return {
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "maxrss_kib": outcome.maxrss_kib,
    }


def _ratio(num: float, den: float) -> float:
    # 0 when a function is never called, e.g. after the program renames it
    return num / den if den else 0.0


def per_layer_metrics(summaries: list[dict], untraced: list[Outcome], traced: list[Outcome], invs) -> dict:
    """Per-layer metrics from the traced run's span summaries.

    cli.pool_busy_ratio and trace.overhead_ratio come from the process
    measurements of the untraced and the traced pass.
    """
    calls, total_ns, self_ns, counts = Counter(), Counter(), Counter(), Counter()
    max_l = 0
    for summary in summaries:
        for name, fn in summary.get("functions", {}).items():
            calls[name] += fn["calls"]
            total_ns[name] += fn["total_ns"]
            self_ns[name] += fn["self_ns"]
        counts.update(summary.get("counts", {}))
        max_l = max(max_l, summary.get("max_l", 0))
    layer_self_ns = Counter()
    for name, ns in self_ns.items():
        layer_self_ns[name.split(".", 1)[0]] += ns
    padic = calls["local.solvable_padic"]
    candidates = counts["descent.selmer.candidates"]
    untraced_cpu = sum(o.cpu_s for o in untraced)
    return {
        **{f"{layer}.self_s": (layer_self_ns[layer] / 1e9, "s") for layer in LAYERS},
        "local.solvable_padic.calls": (padic, "count"),
        "local.solvable_padic.s": (total_ns["local.solvable_padic"] / 1e9, "s"),
        "local.solvable_padic.max_l": (max_l, "prime"),
        "local.solvable_padic.solvable_ratio": (
            _ratio(counts["local.solvable_padic.solvable"], padic),
            "ratio",
        ),
        "local.solvable_real.calls": (calls["local.solvable_real"], "count"),
        "descent.alpha_image.s": (total_ns["descent.alpha_image"] / 1e9, "s"),
        "descent.alpha_image.unproven_classes": (counts["descent.alpha_image.unproven_classes"], "count"),
        "descent.selmer.s": (total_ns["descent.selmer"] / 1e9, "s"),
        "descent.selmer.candidates": (candidates, "count"),
        "descent.selmer.accept_ratio": (_ratio(counts["descent.selmer.accepted"], candidates), "ratio"),
        "arith.factorize.calls": (calls["arith.factorize"], "count"),
        "arith.factorize.s": (total_ns["arith.factorize"] / 1e9, "s"),
        "arith.is_prime.calls": (calls["arith.is_prime"], "count"),
        "family.find_repr.calls": (calls["family.find_repr"], "count"),
        "family.find_repr.s": (total_ns["family.find_repr"] / 1e9, "s"),
        "cli.emit.s": (total_ns["cli.emit"] / 1e9, "s"),
        "cli.emit.bytes": (counts["cli.emit.bytes"], "bytes"),
        "cli.pool_busy_ratio": (
            _ratio(untraced_cpu, sum(inv.jobs * o.wall_s for inv, o in zip(invs, untraced))),
            "ratio",
        ),
        "trace.total_s": (total_ns["cli.main"] / 1e9, "s"),
        "trace.overhead_ratio": (_ratio(sum(o.cpu_s for o in traced), untraced_cpu) - 1, "ratio"),
    }


def traced_run(runner: Runner, invs: list[Invocation], serial: list[Invocation]) -> tuple[dict, dict]:
    """One untraced pass over invs, then one traced pass over serial.

    serial is invs with --jobs 1, so every span stays in the traced process.
    """
    untraced = [runner.run_cli(inv) for inv in invs]
    traced, summaries = [], []
    for inv, reference in zip(serial, untraced):
        span_summary = runner.work / f"spans-{len(summaries)}.json"
        outcome = runner.run_cli(inv, span_summary)
        if outcome.stdout != reference.stdout:
            outcome.problems.append("traced output differs from the untraced output")
            Runner._report(outcome)
        traced.append(outcome)
        summaries.append(json.loads(span_summary.read_text()) if span_summary.is_file() else {})
    metrics = per_layer_metrics(summaries, untraced, traced, invs)
    return metrics, {
        "untraced": {o.name: _measurement(o) for o in untraced},
        "traced": {o.name: _measurement(o) for o in traced},
        "span_summaries": summaries,
    }


# ---------------------------------------------------------------------------
# reporting


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        return {"sha": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"sha": sha, "dirty": bool(status.strip())}


def environment_stamp() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    return {
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": nproc(),
        "git": _git_state(),
        "loadavg": loadavg,
    }


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="isodescent benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "isodescent" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'isodescent'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    stamp = environment_stamp()
    jobs = min(MAX_JOBS, nproc())
    invs = invocations(args.workload, args.seed, jobs)
    seeded = args.workload == "rank-large-p"
    print(f"workload {args.workload}, seed {args.seed}" + ("" if seeded else " (unused: scan takes only --max)"))
    for inv in invs:
        print("  isodescent " + " ".join(inv.argv))

    deadline = time.monotonic() + RUN_BUDGET_S
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work:
        runner = Runner(Path(work), deadline)
        try:
            if args.trace:
                serial = invocations(args.workload, args.seed, 1)
                print("traced pass runs with --jobs 1, so that every span is in one process")
                metrics, detail = traced_run(runner, invs, serial)
            else:
                metrics, detail = timed_run(runner, invs, args.seconds)
        except RunTimeout as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    attempted = len(runner.outcomes)
    failed = sum(bool(o.problems) for o in runner.outcomes)

    result = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seeded_input": seeded,
        "seed_note": None if seeded else "scan takes only --max; this workload's input does not depend on the seed",
        "rank_primes": [inv.primes[0] for inv in invs] if seeded else None,
        "argv": [list(inv.argv) for inv in invs],
        "traced_argv": [list(inv.argv) for inv in serial] if args.trace else None,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": stamp,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": [{"invocation": o.name, "problems": o.problems} for o in runner.outcomes if o.problems],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        **detail,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"failed {failed} of {attempted} invocations; results in {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
