"""Count the `Fraction`s one benchmark pass builds, and where.

    python3 tools/count_fractions.py WORKLOAD [--seed K]

It generates WORKLOAD's instances at seed K (default 1) with
``perfbench/workloads.py`` and writes them to a temporary directory.  Then,
in this process and through ``ciforge.cli.run_command`` as the benchmark
calls it, it runs one unprofiled pass (`decide` on every instance, then
`verify`) to fill the caches, and one profiled `decide` pass and one
profiled `verify` pass under the standard library's `cProfile`.  For each of
the two it prints the number of `Fraction` constructions (calls of
``Fraction.__new__``, which every construction goes through) and the five
functions that called it most.  It exits 1 if a call does not end as the
instance's construction says it must.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pstats
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ciforge import cli  # noqa: E402
from workloads import FAMILIES  # noqa: E402

TOP_CALLERS = 5


def run_pass(command: str, instances, files) -> list[str]:
    """``command`` on every instance; a line for each call that ends wrongly."""
    problems = []
    for inst, (ideal, cert) in zip(instances, files):
        if command == "decide":
            argv = ["decide", str(ideal), "--out", str(cert)]
            expected = 0 if inst.expect_ci else 3
        else:
            argv, expected = ["verify", str(ideal), "--cert", str(cert)], 0
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            code = cli.run_command(argv)
        if code != expected:
            problems.append(f"{inst.name} {command}: exit {code}, expected {expected}")
    return problems


def fraction_constructions(profile: cProfile.Profile) -> tuple[int, list[tuple[int, str]]]:
    """The profiled calls of ``Fraction.__new__`` and, most first, the
    callers that made the most of them."""
    code = Fraction.__new__.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    entry = pstats.Stats(profile).stats.get(key)
    if entry is None:
        return 0, []
    calls, callers = entry[1], entry[4]
    ranked = sorted(
        (
            (counts[0], f"{Path(file).name}:{line}({name})")
            for (file, line, name), counts in callers.items()
        ),
        key=lambda item: (-item[0], item[1]),
    )
    return calls, ranked[:TOP_CALLERS]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    instances = FAMILIES[args.workload](args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for inst in instances:
            ideal = Path(tmp) / f"{inst.name}.ideal"
            ideal.write_text(inst.text(), encoding="utf-8")
            files.append((ideal, Path(tmp) / f"{inst.name}.cert.json"))
        problems = run_pass("decide", instances, files) + run_pass("verify", instances, files)
        print(f"workload: {args.workload}  seed: {args.seed}  instances: {len(instances)}")
        for command in ("decide", "verify"):
            profile = cProfile.Profile()
            profile.enable()
            problems += run_pass(command, instances, files)
            profile.disable()
            calls, callers = fraction_constructions(profile)
            print(f"{command}: {calls} Fraction constructions per pass")
            for count, caller in callers:
                print(f"  {count:8d}  {caller}")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
