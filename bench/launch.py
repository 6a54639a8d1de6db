"""Run one command and report its wall time, CPU time and peak RSS.

Usage: python launch.py REPORT.json -- COMMAND [ARG ...]

The command inherits stdin, stdout and stderr; this process exits with the
command's exit code (128 + signal number if a signal ended it) and writes

    {"wall_s": ..., "cpu_s": ..., "maxrss_kib": ...}

to REPORT.json.  CPU time and peak RSS come from wait4, so they include
every child the command reaped (the scan pool workers).

This runs as a separate small process because a child's peak RSS starts
from its parent's RSS at exec: measured straight from the benchmark
process, every command would look at least as large as the benchmark.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    report, command = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w") as handle:
        json.dump(
            {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kib": usage.ru_maxrss,
            },
            handle,
        )
    return proc.returncode if proc.returncode >= 0 else 128 - proc.returncode


if __name__ == "__main__":
    sys.exit(main())
