"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/perf_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
``perfbench/run.py`` (as it is in each checkout, with ``--trace 0``) once in
each, the parent first in even pairs and the change first in odd ones.  Both
checkouts must sit in the same directory: a run writes its instance files
under its own checkout, so ``setup_s`` times that directory's file system
too, and checkouts in different places read differently for the same code.

It fails (exit 1) if a run fails, reports ``correct: false``, or prints a
``cert_digest`` line that differs from the others.  Otherwise it prints, for
each end-to-end metric in the change's ``BENCHMARK.json``, each side's median
and quartiles, the change of the median, and the number of pairs the change
won; a tie counts for neither side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), interpolated inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


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
        sign = 1 if better == "lower" else -1
        won = sum(sign * (b - a) > 0 for b, a in zip(before, after))
        p_low, p_mid, p_high = quartiles(before)
        c_low, c_mid, c_high = quartiles(after)
        delta = f"{(c_mid - p_mid) / p_mid:+.1%}" if p_mid else "n/a"
        lines.append(
            f"{name}: parent {p_mid:.6f} [{p_low:.6f}, {p_high:.6f}]"
            f"  change {c_mid:.6f} [{c_low:.6f}, {c_high:.6f}]"
            f"  median {delta}  change won {won}/{len(before)} ({better} is better)"
        )
    return lines


def run_once(checkout: Path, args: argparse.Namespace) -> tuple[dict[str, float], str]:
    """The end-to-end metrics and the certificate digest of one benchmark run."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if parent.parent != change.parent or parent == change:
        print("error: the two checkouts must be different directories side by side",
              file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    runs: dict[Path, list[dict[str, float]]] = {parent: [], change: []}
    digests = set()
    for k in range(args.pairs):
        for checkout in (parent, change) if k % 2 == 0 else (change, parent):
            try:
                values, digest = run_once(checkout, args)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            runs[checkout].append(values)
            digests.add(digest)
            print(f"pair {k + 1}/{args.pairs} {checkout.name}: "
                  + " ".join(f"{name}={values[name]:.6f}" for name, _ in metrics),
                  flush=True)
        if len(digests) > 1:
            print(f"error: the certificate digests differ: {sorted(digests)}", file=sys.stderr)
            return 1
    print(f"workload: {args.workload}  seed: {args.seed}  pairs: {args.pairs}  {digests.pop()}")
    print("\n".join(summarize(runs[parent], runs[change], metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
