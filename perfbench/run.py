"""The ciforge benchmark: seeded workloads through `decide` then `verify`.

Run from the repository root:

    python3 perfbench/run.py --workload ci-descent-q --seed 1 --seconds 30 --trace 0

Each run generates the workload's `.ideal` files from the seed, then repeats
passes until ``--seconds`` have elapsed.  A pass runs `ciforge decide` on every
instance, writing its certificate to disk, then `ciforge verify` on every
instance, reading the certificate back.  Both go in-process through
``ciforge.cli.run_command``, one call at a time (a closed loop with one
client, no threads).  Every call is checked against what the instance's
construction guarantees.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import typing
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, layer_metrics, reduce_spans, write_spans
from workloads import FAMILIES, PRIME, Instance, monomials, mul

# name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "decide_s": "s",
    "verify_s": "s",
    "decide_call_p50_s": "s",
    "verify_call_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "groebner.bases": "count",
    "groebner.repeat_basis_ratio": "ratio",
    "groebner.basis_self_s": "s",
    "groebner.basis_elements": "count",
    "groebner.normal_forms": "count",
    "groebner.normal_form_s": "s",
    "groebner.nf_useful_ratio": "ratio",
    "groebner.member_s": "s",
    "groebner.dimension_s": "s",
    "linalg.kernel_calls": "count",
    "linalg.kernel_s": "s",
    "linalg.rank_s": "s",
    "linalg.relation_s": "s",
    "linalg.cells": "count",
    "poly.eval_calls": "count",
    "poly.eval_s": "s",
    "decide.rewrite_steps": "count",
    "decide.removed": "count",
    "decide.replaced": "count",
    "decide.subst_step_s": "s",
    "decide.containment_calls": "count",
    "decide.trivial_ratio": "ratio",
    "decide.smoothness_s": "s",
    "decide.reduce_s": "s",
    "decide.verify_s": "s",
    "ideal_file.parse_s": "s",
    "parse.polys": "count",
    "certificates.serialize_s": "s",
    "certificates.parse_s": "s",
    "certificates.fingerprint_s": "s",
    "certificates.bytes": "bytes",
    "cli.glue_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_REPEATS = 21
# A call that runs longer than this ends with exit code 1 and counts as failed.
CALL_TIMEOUT_SECS = 60
OUT_DIR = ".perfbench"

# On a shared machine the same call runs up to about 1.6x slower while a
# neighbour keeps the core busy, and that changes from one second to the next.
# So right before every timed call (and set-up) the run times a fixed probe,
# one product of two dense polynomials in the benchmark's own arithmetic, and
# reports the call in reference seconds: elapsed * PROBE_REFERENCE_S / probe.
# The probe runs with garbage collection off, so the program's heap does not
# change its time.  PROBE_REFERENCE_S is a round value near the probe's median
# time on a shared 2.1 GHz Xeon under CPython 3.11.
PROBE_REFERENCE_S = 0.002
_PROBE_RNG = random.Random(0)
_PROBE_FACTORS = tuple(
    {e: _PROBE_RNG.randrange(1, PRIME) for e in monomials(5, 3)} for _ in range(2)
)


def probe_scale() -> float:
    """PROBE_REFERENCE_S over the time the probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    mul(*_PROBE_FACTORS, PRIME)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return PROBE_REFERENCE_S / elapsed


@dataclass
class Pass:
    """One pass's call times in reference seconds, and its uncorrected wall time."""

    decide_calls: list[float] = field(default_factory=list)
    verify_calls: list[float] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def decide_s(self) -> float:
        return sum(self.decide_calls)

    @property
    def verify_s(self) -> float:
        return sum(self.verify_calls)


@dataclass
class Checker:
    """Holds every failed call's reason and each instance's first certificate."""

    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    certificates: dict[str, bytes] = field(default_factory=dict)

    def fail(self, inst: Instance, command: str, reason: str) -> None:
        self.failures.append(f"{inst.name} {command}: {reason}")

    def check_decide(self, inst: Instance, code, out: str, err: str, cert_path: Path) -> None:
        self.attempted += 1
        reason = _decide_problem(inst, code, out, err)
        if reason is None:
            data = cert_path.read_bytes()
            first = self.certificates.setdefault(inst.name, data)
            if data != first:
                reason = "certificate bytes differ from the first pass"
        if reason is not None:
            self.fail(inst, "decide", reason)

    def check_verify(self, inst: Instance, code, out: str, err: str) -> None:
        self.attempted += 1
        if code != 0 or out != "verified: yes\n" or "Traceback" in err:
            self.fail(inst, "verify", f"exit {code}, stdout {out!r}, stderr {err[-300:]!r}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.certificates):
            h.update(name.encode("utf-8") + b"\0" + self.certificates[name] + b"\0")
        return h.hexdigest()


def _decide_problem(inst: Instance, code, out: str, err: str) -> str | None:
    """Why a decide call is wrong, judged from the construction alone."""
    expected_code = 0 if inst.expect_ci else 3
    if code != expected_code or "Traceback" in err:
        return f"exit {code} (expected {expected_code}), stderr {err[-300:]!r}"
    lines = out.splitlines()
    if not lines or lines[0] != f"codimension: {inst.codim}":
        return f"first line {lines[:1]!r}, expected codimension {inst.codim}"
    decision = [line for line in lines if line.startswith("decision: ")]
    wanted = "complete intersection" if inst.expect_ci else "not a complete intersection"
    if decision != [f"decision: {wanted}"]:
        return f"decision lines {decision!r}"
    if inst.expect_ci:
        count = sum(line.startswith("generator: ") for line in lines)
        if count != inst.codim:
            return f"{count} final generators for codimension {inst.codim}"
    elif not any(line.startswith("witness: ") and line != "witness: 0" for line in lines):
        return "no nonzero witness"
    return None


def _call(cli, argv: list[str]) -> tuple[object, str, str, float, float]:
    """Exit code, stdout, stderr, wall time and the probe's scale for it."""
    out, err = io.StringIO(), io.StringIO()
    scale = probe_scale()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(argv)
    except Exception:  # a traceback is a failed call, not a crashed benchmark
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed, scale


def run_pass(cli, instances, files, checker: Checker, tracer: Tracer | None) -> Pass:
    result = Pass()
    request = tracer.request if tracer is not None else contextlib.nullcontext
    for inst, (ideal, cert) in zip(instances, files):
        with request():
            code, out, err, elapsed, scale = _call(cli, ["decide", str(ideal), "--out", str(cert)])
        result.decide_calls.append(elapsed * scale)
        result.wall_s += elapsed
        checker.check_decide(inst, code, out, err, cert)
    for inst, (ideal, cert) in zip(instances, files):
        with request():
            code, out, err, elapsed, scale = _call(cli, ["verify", str(ideal), "--cert", str(cert)])
        result.verify_calls.append(elapsed * scale)
        result.wall_s += elapsed
        checker.check_verify(inst, code, out, err)
    return result


def forget_ciforge() -> None:
    """Drop and free every ciforge module, so that the next set-up imports
    afresh and the old copies do not count towards peak memory."""
    for name in [n for n in sys.modules if n == "ciforge" or n.startswith("ciforge.")]:
        del sys.modules[name]
    # typing caches the generic aliases built from ciforge's annotations, and
    # they would keep every old copy of its classes alive.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


def set_up(workload: str, seed: int, work_dir: Path):
    """Import ciforge, generate the inputs and write them to disk."""
    importlib.import_module("ciforge")
    cli = importlib.import_module("ciforge.cli")
    instances = FAMILIES[workload](seed)
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    files = []
    for inst in instances:
        ideal = work_dir / f"{inst.name}.ideal"
        ideal.write_text(inst.text(), encoding="utf-8")
        files.append((ideal, work_dir / f"{inst.name}.cert.json"))
    return cli, instances, files


def tail_percentile(samples: list[float]) -> str:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = n - math.ceil(n * p / 100)
        if beyond >= 10:
            index = max(0, math.ceil(n * p / 100) - 1)
            return f"p{p:g}={ordered[index]:.6f} s"
    return "no percentile has ten samples beyond it"


def run_workload(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "ciforge" / "__init__.py").is_file():
        print(f"error: no ciforge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["CIFORGE_TIMEOUT_SECS"] = str(CALL_TIMEOUT_SECS)
    work_dir = root / OUT_DIR / args.workload / f"seed-{args.seed}"

    setup_times = []
    for _ in range(SETUP_REPEATS):
        cli = instances = files = None  # so that the last set-up's modules can be freed
        forget_ciforge()
        scale = probe_scale()
        start = time.perf_counter()
        cli, instances, files = set_up(args.workload, args.seed, work_dir)
        setup_times.append((time.perf_counter() - start) * scale)
    module_file = Path(sys.modules["ciforge"].__file__).resolve()
    if src.resolve() not in module_file.parents:
        print(f"error: imported ciforge from {module_file}, not {src}", file=sys.stderr)
        return 2

    checker = Checker()
    tracer = Tracer() if args.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    last_spans: list[list] = []
    start = time.perf_counter()
    # One untimed pass first, inside the run's time: it fills the
    # interpreter's caches and checks every call like any other pass.
    run_pass(cli, instances, files, checker, None)
    while True:
        plain.append(run_pass(cli, instances, files, checker, None))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, instances, files, checker, tracer))
            finally:
                tracer.uninstall()
            last_spans = tracer.take()
            layers.append(layer_metrics(last_spans))
        if time.perf_counter() - start >= args.seconds:
            break

    failed = len(checker.failures)
    for line in checker.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload: {args.workload}  seed: {args.seed}  instances: {len(instances)}")
    print(f"passes: {len(plain)} untraced" + (f", {len(traced)} traced" if traced else ""))
    print(f"attempted: {checker.attempted}  failed: {failed}  fail_ratio: {failed / checker.attempted:.6f}")
    print(f"cert_digest: {checker.digest()}")

    if tracer is None:
        metrics = end_to_end_metrics(setup_times, plain)
    else:
        metrics = per_layer_metrics(plain, traced, layers, last_spans)
        write_spans(last_spans, work_dir / "spans.jsonl")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(setup_times: list[float], passes: list[Pass]) -> dict:
    decide_calls = [t for p in passes for t in p.decide_calls]
    verify_calls = [t for p in passes for t in p.verify_calls]
    samples = {
        "setup_s": setup_times,
        "decide_s": [p.decide_s for p in passes],
        "verify_s": [p.verify_s for p in passes],
        "decide_call_p50_s": decide_calls,
        "verify_call_p50_s": verify_calls,
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    # ru_maxrss is in KiB on Linux.
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name, unit in END_TO_END.items():
        note = ""
        if name in samples:
            xs = samples[name]
            note = f"  (median of n={len(xs)}; {tail_percentile(xs)})"
        print(f"{name}: {values[name]:.6f} {unit}{note}")
    wall = statistics.median(p.wall_s for p in passes)
    corrected = statistics.median(p.decide_s + p.verify_s for p in passes)
    print(f"decide+verify per pass: {wall:.6f} s wall clock, {corrected:.6f} reference s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(plain: list[Pass], traced: list[Pass], layers, last_spans) -> dict:
    values = {}
    for name in layers[0]:
        column = [m[name] for m in layers]
        if PER_LAYER[name] != "s" and len(set(column)) > 1:
            print(f"warning: {name} differs between traced passes: {column}")
        values[name] = statistics.median(column)
    untraced = statistics.median(p.decide_s + p.verify_s for p in plain)
    with_trace = statistics.median(p.decide_s + p.verify_s for p in traced)
    values["trace.overhead_ratio"] = with_trace / untraced
    print(
        f"untraced decide+verify per pass: {untraced:.6f} reference s;"
        f" traced: {with_trace:.6f} reference s"
    )

    # Self time per traced function in the last traced pass, as a share of it.
    by_name = reduce_spans(last_spans)
    total = by_name["run_command"]["total"]
    print(f"self time by function (last traced pass, {total:.6f} s traced):")
    for name, entry in sorted(by_name.items(), key=lambda kv: -kv[1]["self"]):
        share = entry["self"] / total
        print(f"  {name:24s} calls {entry['calls']:7d}  self {entry['self']:.6f} s  {share:6.1%}")
    for name, unit in PER_LAYER.items():
        print(f"{name}: {values[name]:.6f} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_all(args) -> int:
    """Every workload in its own process, so each gets its own peak memory."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in FAMILIES:
        argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*FAMILIES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
