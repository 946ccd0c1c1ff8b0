"""Outside-in tracing of ciforge's public functions.

The tracer rebinds each traced function, in every ``ciforge.*`` namespace that
holds it, to a wrapper that records a span: name, start, end, parent span and
request id.  Nothing in the package changes; `uninstall` restores the
original bindings.  Spans stay in memory and are reduced to per-name counts,
inclusive times and self times (duration minus the direct children).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# Function name -> module that defines it.
TRACED = {
    "reduced_groebner": "ciforge.groebner",
    "normal_form": "ciforge.groebner",
    "ideal_member": "ciforge.groebner",
    "ideal_equal": "ciforge.groebner",
    "truncated_generators": "ciforge.groebner",
    "projective_dimension": "ciforge.groebner",
    "kernel_basis": "ciforge.linalg",
    "rank": "ciforge.linalg",
    "linear_relation_polys": "ciforge.linalg",
    "smoothness_check": "ciforge.decide",
    "subst_step": "ciforge.decide",
    "trivially_contains": "ciforge.decide",
    "reduce_to_ci": "ciforge.decide",
    "verify_certificate": "ciforge.decide",
    "serialize_certificate": "ciforge.certificates",
    "parse_certificate": "ciforge.certificates",
    "input_fingerprint": "ciforge.certificates",
    "parse_ideal_file": "ciforge.ideal_file",
    "parse_polynomial": "ciforge.parse",
    "evaluate": "ciforge.poly",
    "differential_at": "ciforge.poly",
}

ROOT = "run_command"


def _cells(args, result):
    matrix = args[0]
    return matrix.num_rows * matrix.cols


# What a span keeps of its call, taken after its end time so that the
# function's own span excludes it.  Each is a cheap attribute read.
CAPTURE: dict[str, Callable] = {
    "reduced_groebner": lambda args, result: result.elements,
    "normal_form": lambda args, result: not result.remainder.is_zero(),
    "kernel_basis": _cells,
    "rank": _cells,
    "subst_step": lambda args, result: type(result).__name__,
    "trivially_contains": lambda args, result: result.trivial,
    "serialize_certificate": lambda args, result: len(result.encode("utf-8")),
}

# Span fields: [name, start, end, parent index, request id, captured info].
NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = 0
        self._saved: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        """Wrap every traced function wherever a ciforge module binds it."""
        originals = {
            name: getattr(importlib.import_module(module), name)
            for name, module in TRACED.items()
        }
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        modules = [
            m for n, m in list(sys.modules.items()) if n == "ciforge" or n.startswith("ciforge.")
        ]
        for module in modules:
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    self._saved.append((module, name, fn))
                    setattr(module, name, wrappers[name])

    def uninstall(self) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved.clear()

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn: Callable) -> Callable:
        capture = CAPTURE.get(name)
        stack = self._stack
        clock = time.perf_counter
        open_span = self._open

        def traced(*args, **kwargs):
            span = open_span(name)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if capture is not None:
                span[INFO] = capture(args, result)
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def request(self):
        """Root span for one ``run_command`` call; its spans share a request id."""
        self._request += 1
        span = self._open(ROOT)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON object per span; ``info`` is left out (it may hold polynomials)."""
    with path.open("w", encoding="utf-8") as out:
        for index, s in enumerate(spans):
            out.write(
                json.dumps(
                    {
                        "id": index,
                        "name": s[NAME],
                        "start": s[START],
                        "end": s[END],
                        "parent": s[PARENT],
                        "request": s[REQUEST],
                    }
                )
                + "\n"
            )


def reduce_spans(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: ``calls``, ``total`` (inclusive seconds) and ``self`` seconds."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict[str, float]] = {}
    for s, children in zip(spans, child_time):
        entry = out.setdefault(s[NAME], {"calls": 0, "total": 0.0, "self": 0.0})
        duration = s[END] - s[START]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - children
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The benchmark's per-layer metrics for one traced pass."""
    by_name = reduce_spans(spans)

    def calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    def self_s(*names: str) -> float:
        return sum(by_name.get(n, {}).get("self", 0.0) for n in names)

    def total_s(name: str) -> float:
        return by_name.get(name, {}).get("total", 0.0)

    def infos(name: str) -> list:
        # A call that raised captured nothing.
        return [s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None]

    # Bases equal to one already computed in the same request.
    seen: dict[int, set] = {}
    repeats = 0
    elements = 0
    for s in spans:
        if s[NAME] != "reduced_groebner" or s[INFO] is None:
            continue
        key = tuple(str(p) for p in s[INFO])
        elements += len(s[INFO])
        earlier = seen.setdefault(s[REQUEST], set())
        repeats += key in earlier
        earlier.add(key)

    inner_nf = [
        s[INFO]
        for s in spans
        if s[NAME] == "normal_form"
        and s[INFO] is not None
        and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "reduced_groebner"
    ]
    steps = infos("subst_step")
    containment = infos("trivially_contains")
    bases = calls("reduced_groebner")
    return {
        "groebner.bases": bases,
        "groebner.repeat_basis_ratio": repeats / bases if bases else 0.0,
        "groebner.basis_self_s": self_s("reduced_groebner"),
        "groebner.basis_elements": elements,
        "groebner.normal_forms": calls("normal_form"),
        "groebner.normal_form_s": self_s("normal_form"),
        "groebner.nf_useful_ratio": sum(inner_nf) / len(inner_nf) if inner_nf else 0.0,
        "groebner.member_s": self_s("ideal_member", "ideal_equal", "truncated_generators"),
        "groebner.dimension_s": self_s("projective_dimension"),
        "linalg.kernel_calls": calls("kernel_basis"),
        "linalg.kernel_s": self_s("kernel_basis"),
        "linalg.rank_s": self_s("rank"),
        "linalg.relation_s": self_s("linear_relation_polys"),
        "linalg.cells": sum(infos("kernel_basis")) + sum(infos("rank")),
        "poly.eval_calls": calls("evaluate") + calls("differential_at"),
        "poly.eval_s": self_s("evaluate", "differential_at"),
        "decide.rewrite_steps": len(steps),
        "decide.removed": steps.count("Removed"),
        "decide.replaced": steps.count("Replaced"),
        "decide.subst_step_s": self_s("subst_step"),
        "decide.containment_calls": len(containment),
        "decide.trivial_ratio": sum(containment) / len(containment) if containment else 0.0,
        "decide.smoothness_s": self_s("smoothness_check"),
        "decide.reduce_s": self_s("reduce_to_ci"),
        "decide.verify_s": self_s("verify_certificate"),
        "ideal_file.parse_s": total_s("parse_ideal_file"),
        "parse.polys": calls("parse_polynomial"),
        "certificates.serialize_s": total_s("serialize_certificate"),
        "certificates.parse_s": total_s("parse_certificate"),
        "certificates.fingerprint_s": total_s("input_fingerprint"),
        "certificates.bytes": sum(infos("serialize_certificate")),
        "cli.glue_s": self_s(ROOT),
    }
