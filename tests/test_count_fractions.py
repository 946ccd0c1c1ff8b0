"""`tools/count_fractions.py` counts the Fractions of one profiled pass."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_fractions.py"


def test_reports_fraction_constructions_and_top_callers_per_pass():
    run = subprocess.run(
        [sys.executable, str(_TOOL), "redundant-linear-q"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "workload: redundant-linear-q  seed: 1  instances: 7"
    headers = [i for i, line in enumerate(lines) if not line.startswith(" ")][1:]
    assert [lines[i].split(":")[0] for i in headers] == ["decide", "verify"]
    for start, end in zip(headers, headers[1:] + [len(lines)]):
        count = re.fullmatch(r"\w+: (\d+) Fraction constructions per pass", lines[start])
        assert count and int(count.group(1)) > 0
        callers = [
            re.fullmatch(r" +(\d+)  \S+:\d+\(\S+\)", line) for line in lines[start + 1 : end]
        ]
        assert len(callers) == 5 and all(callers)
        made = [int(c.group(1)) for c in callers]
        assert made == sorted(made, reverse=True) and sum(made) <= int(count.group(1))
