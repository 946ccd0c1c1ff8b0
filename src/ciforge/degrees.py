"""Degree sequences of generator systems and the top-dominant strict order.

A degree sequence counts generators per degree (degree 1 first).  Sequences
are compared from the top degree down: delta beats eta when the topmost
differing entry is larger in delta.  This order is well founded, which is what
makes the reduction loop terminate.

Counts are trimmed of trailing zeros, so the longer of two sequences has a
nonzero count where the shorter reads zero, and beats it: the order is the
tuple comparison of (length, reversed counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class DegreeSequence:
    """Trailing-zero-trimmed counts; ``counts[i]`` is the count for degree i+1."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("degree counts must be non-negative")
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeSequence":
        degrees = list(degrees)
        for d in degrees:
            if d < 1:
                raise ValueError(f"generator degree must be at least 1, got {d}")
        counts = [0] * (max(degrees) if degrees else 0)
        for d in degrees:
            counts[d - 1] += 1
        return cls(tuple(counts))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.counts) + ")"


def seq_succ(delta: DegreeSequence, eta: DegreeSequence) -> bool:
    """True iff delta strictly dominates eta from the top.

    That is: some degree i has delta_i > eta_i while every degree above i
    agrees (missing entries read as zero).  Irreflexive; a strict total order
    on distinct sequences.
    """
    a, b = delta.counts, eta.counts
    return (len(a), a[::-1]) > (len(b), b[::-1])
