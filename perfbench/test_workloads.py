"""Checks on the benchmark's generators and tracer.

Run from the repository root: ``python3 -m pytest perfbench -q``.  The expected
decisions are checked against the independent oracle in ``tests/oracles.py``,
not against ciforge's own decision procedure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ciforge import PolynomialRing, field_from_tag, parse_polynomial  # noqa: E402
from oracles import minimal_generator_total  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

FAMILIES = sorted(workloads.FAMILIES)


def _value_at(p: workloads.Poly, inst: workloads.Instance) -> int:
    total = 0
    for exps, c in p.items():
        term = c
        for x, e in zip(inst.point, exps):
            term *= x**e
        total += term
    return total % int(inst.field[3:]) if inst.field.startswith("fp:") else total


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_planted_point_is_a_common_zero(family, seed):
    for inst in workloads.FAMILIES[family](seed):
        assert any(inst.point)
        for g in inst.gens:
            assert g, inst.name
            assert _value_at(g, inst) == 0, inst.name


@pytest.mark.parametrize("family", FAMILIES)
def test_same_seed_same_inputs(family):
    make = workloads.FAMILIES[family]
    assert [i.text() for i in make(5)] == [i.text() for i in make(5)]
    assert [i.text() for i in make(5)] != [i.text() for i in make(6)]


@pytest.mark.parametrize("family", FAMILIES)
def test_expected_decisions_match_the_oracle(family):
    for inst in workloads.FAMILIES[family](1):
        ring = PolynomialRing(field_from_tag(inst.field), workloads.var_names(inst.num_vars))
        gens = [parse_polynomial(workloads.format_poly(g, ring.var_names), ring) for g in inst.gens]
        minimal = minimal_generator_total(gens, inst.num_vars)
        assert (minimal == inst.codim) == inst.expect_ci, (inst.name, minimal, inst.codim)


def test_tracer_rebinds_and_restores_every_namespace():
    import ciforge.decide
    import ciforge.groebner

    original = ciforge.groebner.reduced_groebner
    tracer = Tracer()
    tracer.install()
    try:
        assert ciforge.decide.reduced_groebner is ciforge.groebner.reduced_groebner
        assert ciforge.decide.reduced_groebner is not original
    finally:
        tracer.uninstall()
    assert ciforge.decide.reduced_groebner is original
    assert ciforge.groebner.reduced_groebner is original


def test_traced_decide_counts_removed_steps(tmp_path):
    from ciforge.cli import run_command

    inst = workloads.redundant_linear_q(0)[0]
    path = tmp_path / "x.ideal"
    path.write_text(inst.text())
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.request():
            assert run_command(["decide", str(path)]) == 0
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.take())
    extra = len(inst.gens) - inst.codim
    assert metrics["decide.removed"] == metrics["decide.rewrite_steps"] == extra
    assert metrics["decide.replaced"] == 0
    assert metrics["groebner.bases"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.FAMILIES)
