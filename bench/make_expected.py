"""Write the expected outputs that checker.py compares against.

    python3 bench/make_expected.py

Run it at the commit whose answers are the reference, never to make a
failing check pass.  It runs every invocation of every workload at
DEFAULT_SEED, refuses any output that fails the record checks, and writes
expected/<invocation name>.<format>.gz.
"""

from __future__ import annotations

import gzip
import os
import subprocess
import sys

import checker
import run
from workloads import DEFAULT_SEED, invocations


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(run.ROOT / "src")}
    checker.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in (w["name"] for w in run.load_spec()["workloads"]):
        for inv in invocations(workload, DEFAULT_SEED, min(run.MAX_JOBS, run.nproc())):
            argv = [sys.executable, "-m", "isodescent.cli", *inv.argv]
            done = subprocess.run(argv, cwd=run.ROOT, env=env, capture_output=True, timeout=600)
            problems = checker.check(inv, done.returncode, done.stdout, None)
            if problems:
                print(f"{inv.name}: not written: {'; '.join(problems[:5])}", file=sys.stderr)
                return 1
            path = checker.expected_path(inv)
            path.write_bytes(gzip.compress(done.stdout, mtime=0))
            print(f"{path.relative_to(run.ROOT)}: {len(done.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
