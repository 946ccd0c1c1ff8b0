"""The benchmark's instances give the recorded outputs, byte for byte.

For every workload in ``perfbench/workloads.py`` at seeds 1 and 7919, each
instance's ``decide`` stdout, stderr and certificate bytes are hashed with
SHA-256, and ``decide``'s and ``verify``'s exit codes are kept, all through
``cli.run_command`` as the benchmark calls it.  A change that should leave the
outputs alone (a speed-up, a refactor) must keep them equal to
``golden_benchmark_outputs.json``.  After a change that is meant to alter
them, re-record the file from the repository root with

    PYTHONPATH=src python3 tests/test_benchmark_outputs.py

and say why in the change's notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from ciforge import cli  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_benchmark_outputs.json")
SEEDS = (1, 7919)


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def outputs(workload: str, seed: int, work_dir: Path) -> dict[str, dict]:
    """Per instance: the digests of decide's outputs and both exit codes."""
    record = {}
    for inst in workloads.FAMILIES[workload](seed):
        ideal = work_dir / f"{inst.name}.ideal"
        cert = work_dir / f"{inst.name}.cert.json"
        ideal.write_text(inst.text(), encoding="utf-8")
        code, out, err = _run(["decide", str(ideal), "--out", str(cert)])
        verify_code, _, _ = _run(["verify", str(ideal), "--cert", str(cert)])
        record[inst.name] = {
            "decide_exit": code,
            "decide_stdout": _sha(out),
            "decide_stderr": _sha(err),
            "certificate": _sha(cert.read_bytes()),
            "verify_exit": verify_code,
        }
    return record


CASES = [(w, s) for w in sorted(workloads.FAMILIES) for s in SEEDS]


@pytest.mark.parametrize("workload, seed", CASES)
def test_outputs_match_the_recorded_digests(workload, seed, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outputs(workload, seed, tmp_path) == golden[workload][str(seed)]


if __name__ == "__main__":
    table: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in CASES:
            table.setdefault(workload, {})[str(seed)] = outputs(workload, seed, Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
