"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/perf_pairs.py PARENT CHANGE [--workload W ...] --pairs N \
        --seconds S --seed K

PARENT and CHANGE are two checkouts of the repository.  ``--workload`` may
be given several times; without it every workload in the change's
``BENCHMARK.json`` runs, one after the other.  For each workload, each pair
runs ``perfbench/run.py`` (as it is in each checkout, with ``--trace 0``)
once in each, the parent first in even pairs and the change first in odd
ones.  Both checkouts must sit in the same
directory: a run writes its instance files under its own checkout, so
``setup_s`` times that directory's file system too, and checkouts in
different places read differently for the same code.

Before a workload's pairs, it makes one short run (``--seconds 0``) at each
of `DIGEST_SEEDS` in each checkout and compares their ``cert_digest`` lines,
so ``--pairs 0`` compares the digests alone.  A negative ``--pairs`` is
refused (exit 2).

It fails (exit 1) if a run fails, reports ``correct: false``, or prints a
``cert_digest`` line that differs from the other checkout's at the same
seed.  Otherwise it prints, per workload, each end-to-end metric in the
change's ``BENCHMARK.json`` with each side's median and quartiles, the
change of the median, and the number of pairs the change won; a tie counts
for neither side.  Then it prints each metric's verdict against its
``bound`` there (`verdict`), and fails if any reads ``worse``.  Before the
verdicts it prints, per metric, whether the change may claim a gain on it
(`claimable`): it won at least nine tenths of the pairs, and the medians
differ in its favour by more than the distance between the parent's
quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: The seeds at which the two checkouts' certificate digests must agree.
DIGEST_SEEDS = [*range(1, 11), 7919]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), interpolated inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def wins(before: list[float], after: list[float], better: str) -> int:
    """The pairs in which the change's run ``after[k]`` beats the parent's
    ``before[k]``; a tie counts for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (b - a) > 0 for b, a in zip(before, after))


def summarize(
    parent: list[dict[str, float]],
    change: list[dict[str, float]],
    metrics: list[tuple[str, str]],
) -> list[str]:
    """One line per (metric name, "lower" or "higher" is better) in
    ``metrics``, from the runs of each side; ``parent[k]`` and ``change[k]``
    are the two runs of pair k."""
    lines = []
    for name, better in metrics:
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        won = wins(before, after, better)
        p_low, p_mid, p_high = quartiles(before)
        c_low, c_mid, c_high = quartiles(after)
        delta = f"{(c_mid - p_mid) / p_mid:+.1%}" if p_mid else "n/a"
        lines.append(
            f"{name}: parent {p_mid:.6f} [{p_low:.6f}, {p_high:.6f}]"
            f"  change {c_mid:.6f} [{c_low:.6f}, {c_high:.6f}]"
            f"  median {delta}  change won {won}/{len(before)} ({better} is better)"
        )
    return lines


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """One metric's verdict from the parent's runs ``before`` and the
    change's ``after``, ``bound`` a share of the parent's median: ``worse``
    if the change's median is worse by more than the bound, ``unresolved``
    if the parent's quartiles lie further apart than the bound and not every
    change run beats every parent run, and ``within bound`` otherwise."""
    sign = 1 if better == "lower" else -1
    p_low, p_mid, p_high = quartiles(before)
    if sign * (statistics.median(after) - p_mid) > bound * p_mid:
        return "worse"
    if p_high - p_low > bound * p_mid and not all(
        sign * (b - a) > 0 for b in before for a in after
    ):
        return "unresolved"
    return "within bound"


def claimable(before: list[float], after: list[float], better: str) -> str:
    """Whether the change may claim a gain on one metric, from the parent's
    runs ``before`` and the change's ``after`` (pair k is ``before[k]``,
    ``after[k]``): ``claimable`` if it won at least nine tenths of the pairs
    and its median beats the parent's by more than the parent's
    interquartile range, ``not claimable`` otherwise; then the figures."""
    sign = 1 if better == "lower" else -1
    won = wins(before, after, better)
    p_low, p_mid, p_high = quartiles(before)
    gap = sign * (p_mid - statistics.median(after))
    iqr = p_high - p_low
    met = 10 * won >= 9 * len(before) and gap > iqr
    return (
        f"{'claimable' if met else 'not claimable'} (change won {won}/{len(before)},"
        f" median gap {gap:.6f}, parent IQR {iqr:.6f})"
    )


def workload_summary(
    workload: str,
    seed: int,
    digest: str,
    parent: list[dict[str, float]],
    change: list[dict[str, float]],
    metrics: list[tuple[str, str]],
) -> list[str]:
    """A workload's header line, then `summarize`'s lines for its pairs."""
    header = f"workload: {workload}  seed: {seed}  pairs: {len(parent)}  {digest}"
    return [header, *summarize(parent, change, metrics)]


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float
) -> tuple[dict[str, float], str]:
    """The end-to-end metrics and the certificate digest of one benchmark run."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: correct: false\n{proc.stderr}")
    [digest] = [line for line in lines if line.startswith("cert_digest:")]
    return {name: entry["value"] for name, entry in result["metrics"].items()}, digest


def compare_digests(parent: Path, change: Path, workload: str) -> None:
    """One short run per digest seed in each checkout; raises RuntimeError
    at the first seed whose two digests differ."""
    for seed in DIGEST_SEEDS:
        digests = [run_once(checkout, workload, seed, 0)[1] for checkout in (parent, change)]
        if digests[0] != digests[1]:
            raise RuntimeError(
                f"{workload} seed {seed}: the certificate digests differ: "
                f"parent {digests[0]}, change {digests[1]}"
            )
    print(f"{workload}: cert_digest equal at {len(DIGEST_SEEDS)} seeds", flush=True)


def run_pairs(
    parent: Path, change: Path, workload: str, args: argparse.Namespace,
    metrics: list[tuple[str, str, float]],
) -> tuple[list[str], bool]:
    """Run a workload's pairs; its `workload_summary`, each metric's
    `claimable` line and then each one's `verdict`, and whether a verdict
    reads ``worse``."""
    runs: dict[Path, list[dict[str, float]]] = {parent: [], change: []}
    digests = set()
    for k in range(args.pairs):
        for checkout in (parent, change) if k % 2 == 0 else (change, parent):
            values, digest = run_once(checkout, workload, args.seed, args.seconds)
            runs[checkout].append(values)
            digests.add(digest)
            print(f"{workload} pair {k + 1}/{args.pairs} {checkout.name}: "
                  + " ".join(f"{name}={values[name]:.6f}" for name, _, _ in metrics),
                  flush=True)
        if len(digests) > 1:
            raise RuntimeError(f"the certificate digests differ: {sorted(digests)}")
    before, after = runs[parent], runs[change]
    judged = [
        (name, verdict([r[name] for r in before], [r[name] for r in after], better, bound))
        for name, better, bound in metrics
    ]
    summary = workload_summary(
        workload, args.seed, digests.pop(), before, after,
        [(name, better) for name, better, _ in metrics],
    )
    claims = [
        f"claim {name}: "
        + claimable([r[name] for r in before], [r[name] for r in after], better)
        for name, better, _ in metrics
    ]
    lines = summary + claims + [f"verdict {name}: {v}" for name, v in judged]
    return lines, any(v == "worse" for _, v in judged)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if parent.parent != change.parent or parent == change:
        print("error: the two checkouts must be different directories side by side",
              file=sys.stderr)
        return 2
    if args.pairs < 0:
        print("error: --pairs must not be negative", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    summaries = []
    for workload in workloads:
        try:
            compare_digests(parent, change, workload)
            if args.pairs > 0:
                summaries.append(run_pairs(parent, change, workload, args, metrics))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for lines, _ in summaries:
        print("\n".join(lines))
    return 1 if any(worse for _, worse in summaries) else 0


if __name__ == "__main__":
    sys.exit(main())
