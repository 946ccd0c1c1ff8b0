"""The summary `tools/perf_pairs.py` prints for alternating benchmark pairs,
and the runs it refuses."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)


def test_summary_gives_quartiles_median_change_and_wins():
    parent = [{"decide_s": v, "rate": v} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"decide_s": v, "rate": v} for v in (0.5, 2.0, 2.5, 4.5, 1.0)]
    lines = perf_pairs.summarize(parent, change, [("decide_s", "lower"), ("rate", "higher")])
    # Change: 0.5, 1.0, 2.0, 2.5, 4.5.  Pair 2 is a tie; the change is lower
    # in pairs 1, 3 and 5 and higher in pair 4.
    assert lines == [
        "decide_s: parent 3.000000 [2.000000, 4.000000]"
        "  change 2.000000 [1.000000, 2.500000]"
        "  median -33.3%  change won 3/5 (lower is better)",
        "rate: parent 3.000000 [2.000000, 4.000000]"
        "  change 2.000000 [1.000000, 2.500000]"
        "  median -33.3%  change won 1/5 (higher is better)",
    ]


def test_summary_of_one_pair_and_of_a_zero_median():
    lines = perf_pairs.summarize([{"m": 0.0}], [{"m": 0.0}], [("m", "lower")])
    assert lines == [
        "m: parent 0.000000 [0.000000, 0.000000]"
        "  change 0.000000 [0.000000, 0.000000]"
        "  median n/a  change won 0/1 (lower is better)"
    ]


def test_each_workload_gets_a_header_and_its_own_summary():
    parent = [{"decide_s": v} for v in (1.0, 3.0, 2.0)]
    change = [{"decide_s": v} for v in (0.5, 3.5, 1.0)]
    lines = perf_pairs.workload_summary(
        "ci-descent-q", 1, "cert_digest: abc", parent, change, [("decide_s", "lower")]
    )
    assert lines == [
        "workload: ci-descent-q  seed: 1  pairs: 3  cert_digest: abc",
        "decide_s: parent 2.000000 [1.500000, 2.500000]"
        "  change 1.000000 [0.750000, 2.250000]"
        "  median -50.0%  change won 2/3 (lower is better)",
    ]


def test_a_negative_pair_count_is_refused_before_any_run(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    args = [str(parent), str(change), "--pairs", "-1", "--seconds", "1", "--seed", "1"]
    assert perf_pairs.main(args) == 2
    assert capsys.readouterr().err == "error: --pairs must not be negative\n"


def test_verdicts_apply_the_bound_to_the_parent_median():
    # Parent quartiles 1.0 [0.95, 1.05], 10% apart; the change's median is 1.3.
    parent = [0.9, 0.95, 1.0, 1.05, 1.1]
    change = [1.25, 1.3, 1.3, 1.35, 1.4]
    assert perf_pairs.verdict(parent, change, "lower", 0.25) == "worse"
    assert perf_pairs.verdict(parent, change, "lower", 0.35) == "within bound"
    assert perf_pairs.verdict(parent, change, "higher", 0.25) == "within bound"
    assert perf_pairs.verdict(change, parent, "higher", 0.2) == "worse"


def test_a_wide_parent_spread_is_unresolved_unless_every_change_run_wins():
    # Parent quartiles 1.0 [0.8, 1.2], 40% apart.
    parent = [0.5, 0.8, 1.0, 1.2, 1.5]
    assert perf_pairs.verdict(parent, [1.1, 1.1, 0.9, 1.0, 1.0], "lower", 0.25) == "unresolved"
    assert perf_pairs.verdict(parent, [0.4] * 5, "lower", 0.25) == "within bound"
    assert perf_pairs.verdict(parent, [0.4] * 4 + [0.6], "lower", 0.25) == "unresolved"


def test_a_gain_is_claimable_at_nine_tenths_of_the_pairs_and_a_gap_above_the_iqr():
    # Parent quartiles 1.0 [0.9825, 1.0175]: an IQR of 0.035.
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.04, 0.96]
    change = [p - 0.1 for p in parent]
    assert perf_pairs.claimable(parent, change, "lower") == (
        "claimable (change won 10/10, median gap 0.100000, parent IQR 0.035000)"
    )
    assert perf_pairs.claimable(parent, change[:9] + [1.2], "lower") == (
        "claimable (change won 9/10, median gap 0.095000, parent IQR 0.035000)"
    )
    assert perf_pairs.claimable(parent, change[:8] + [1.2, 1.2], "lower") == (
        "not claimable (change won 8/10, median gap 0.095000, parent IQR 0.035000)"
    )
    # Higher is better: the same runs read the other way round.
    assert perf_pairs.claimable(change, parent, "higher") == (
        "claimable (change won 10/10, median gap 0.100000, parent IQR 0.035000)"
    )
    assert perf_pairs.claimable(parent, change, "higher") == (
        "not claimable (change won 0/10, median gap -0.100000, parent IQR 0.035000)"
    )


def test_winning_every_pair_is_not_claimable_within_the_parent_spread():
    # Parent quartiles 3 [2, 4]; the change's median 1 is exactly the IQR away.
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert perf_pairs.claimable(parent, [0.5, 1.5, 1.0, 3.5, 0.75], "lower") == (
        "not claimable (change won 5/5, median gap 2.000000, parent IQR 2.000000)"
    )
    assert perf_pairs.claimable(parent, [0.5, 1.5, 0.875, 3.5, 0.75], "lower") == (
        "claimable (change won 5/5, median gap 2.125000, parent IQR 2.000000)"
    )
    # Ties count for neither side.
    assert perf_pairs.claimable(parent, [0.5, 2.0, 0.875, 3.5, 0.75], "lower") == (
        "not claimable (change won 4/5, median gap 2.125000, parent IQR 2.000000)"
    )


def test_a_worse_verdict_fails_the_run(tmp_path, capsys, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "decide_s", "better": "lower", "bound": 0.25}]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    times = {parent: 1.0, change: 1.5}
    monkeypatch.setattr(
        perf_pairs, "run_once",
        lambda checkout, workload, seed, seconds: ({"decide_s": times[checkout]}, "d"),
    )
    args = [str(parent), str(change), "--pairs", "2", "--seconds", "1", "--seed", "1"]
    assert perf_pairs.main(args) == 1
    assert capsys.readouterr().out.endswith("verdict decide_s: worse\n")
    times[change] = 0.5
    assert perf_pairs.main(args) == 0
    assert capsys.readouterr().out.endswith(
        "claim decide_s: claimable"
        " (change won 2/2, median gap 0.500000, parent IQR 0.000000)\n"
        "verdict decide_s: within bound\n"
    )
    times[change] = 1.1
    assert perf_pairs.main(args) == 0
    assert capsys.readouterr().out.endswith("verdict decide_s: within bound\n")
