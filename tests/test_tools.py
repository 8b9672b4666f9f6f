"""The repository's tools run as documented."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"


def test_outputs_prints_one_digest_per_section(tmp_path):
    # six corpus systems with two expressions each, then two generated
    # systems with three ground terms each, in three modes
    expected = [("trees", 8), ("listings", 24), ("runs", 54), ("traces", 54),
                ("verdicts", 54), ("oracle", 18), ("cli", 174)]
    runs = [subprocess.run([sys.executable, str(OUTPUTS), "--seeds", "0:2"],
                           cwd=tmp_path, capture_output=True, text=True,
                           check=True).stdout for _ in range(2)]
    lines = [re.fullmatch(r"(\w+) (\d+) ([0-9a-f]{64})", line)
             for line in runs[0].splitlines()]
    assert all(lines), runs[0]
    assert [(m[1], int(m[2])) for m in lines] == expected
    assert len({m[3] for m in lines}) == len(expected)
    assert runs[1] == runs[0]  # no timings: one checkout always agrees
