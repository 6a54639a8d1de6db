"""Byte-identity of CLI output against stored golden files.

Each file in tests/golden/ is the gzip'd stdout of one invocation in one
format.  To rewrite them after a deliberate change to the records, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

import gzip
import subprocess
import sys
from pathlib import Path

import pytest

from isodescent.cli import main

GOLDEN = Path(__file__).parent / "golden"

INVOCATIONS = {
    "scan-max500": ["scan", "--max", "500", "--height-bound", "60", "--jobs", "2"],
    "scan-max1": ["scan", "--max", "1"],
    "rank-19249": ["rank", "--p", "19249", "--height-bound", "60"],
    "selmer-19249": ["selmer", "--p", "19249"],
    "classify-7": ["classify", "--p", "7"],
    "repr-1601": ["repr", "--p", "1601"],
    "descent-3-m10": ["descent", "--a", "3", "--b", "-10", "--height-bound", "50"],
}
CASES = [(name, fmt) for name in INVOCATIONS for fmt in ("json", "csv", "text")]


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}.{f}" for n, f in CASES])
def test_output_matches_golden(name, fmt, capsysbinary):
    assert main([*INVOCATIONS[name], "--format", fmt]) == 0
    expected = gzip.decompress((GOLDEN / f"{name}.{fmt}.gz").read_bytes())
    assert capsysbinary.readouterr().out == expected


if __name__ == "__main__":
    for name, fmt in CASES:
        argv = [sys.executable, "-m", "isodescent.cli", *INVOCATIONS[name], "--format", fmt]
        out = subprocess.run(argv, check=True, capture_output=True).stdout
        (GOLDEN / f"{name}.{fmt}.gz").write_bytes(gzip.compress(out, mtime=0))
