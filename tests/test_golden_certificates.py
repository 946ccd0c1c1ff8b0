"""Certificates and `decide` reports are pinned byte for byte.

`golden_certificates.json` holds the exact bytes `ciforge decide --out` wrote
for each case below, recorded before the basis cache was introduced
(``planted-p5-ci-q`` before Buchberger's eager cofactor transcript gave
way to the derivation record) and re-recorded when format version 2 dropped
the trace.  A change that reorders or re-derives any part of a certificate
shows up here, over Q and over F_p, for complete intersections and non-CIs
alike.  `golden_decide_stdout.json` holds each case's `decide` standard
output and exit code, recorded while the trace was still part of the
certificate, so the `trace:` line is pinned too.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ciforge.cli import run_command

from corpus import (
    CUBIC_IN_HYPERPLANE,
    LINE_QUADRIC_REDUNDANT,
    PLANTED_IN_P5,
    PLANTED_QUADRICS,
    RATIONAL_NORMAL_QUARTIC,
    TWISTED_CUBIC,
)

GOLDEN = Path(__file__).with_name("golden_certificates.json")
GOLDEN_STDOUT = Path(__file__).with_name("golden_decide_stdout.json")

# name -> (corpus entry, field override or None)
CASES = {
    "ci-q": (LINE_QUADRIC_REDUNDANT, None),
    "nonci-q": (RATIONAL_NORMAL_QUARTIC, None),
    "ci-fp": (LINE_QUADRIC_REDUNDANT, "fp:32003"),
    "nonci-fp": (TWISTED_CUBIC, "fp:32003"),
    "nonci-truncated-q": (CUBIC_IN_HYPERPLANE, None),
    "planted-ci-q": (PLANTED_QUADRICS, None),
    "planted-p5-ci-q": (PLANTED_IN_P5, None),
}


def ideal_text(entry) -> str:
    """The input file of a corpus entry, over Q; ``--field`` overrides it."""
    return (
        "field: q\n"
        f"vars: {' '.join(entry.ring.var_names)}\n"
        f"point: {' '.join(str(c) for c in entry.point_coords)}\n"
        "gens:\n" + "\n".join(entry.gen_exprs) + "\n"
    )


def decide_bytes(tmp_path: Path, name: str) -> str:
    """The certificate file `decide` writes for case ``name``."""
    entry, field = CASES[name]
    ideal = tmp_path / f"{name}.ideal"
    ideal.write_text(ideal_text(entry), encoding="utf-8")
    cert = tmp_path / f"{name}.cert.json"
    argv = ["decide", str(ideal), "--out", str(cert)]
    if field is not None:
        argv += ["--field", field]
    assert run_command(argv) in (0, 3)
    return cert.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_bytes_unchanged(tmp_path, capsys, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert decide_bytes(tmp_path, name) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_decide_stdout_unchanged(tmp_path, capsys, name):
    golden = json.loads(GOLDEN_STDOUT.read_text(encoding="utf-8"))[name]
    entry, field = CASES[name]
    ideal = tmp_path / f"{name}.ideal"
    ideal.write_text(ideal_text(entry), encoding="utf-8")
    argv = ["decide", str(ideal)] + ([] if field is None else ["--field", field])
    code = run_command(argv)
    assert (code, capsys.readouterr().out) == (golden["exit"], golden["stdout"])
