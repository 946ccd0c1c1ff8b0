"""Degree sequences and the top-dominant order."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ciforge import DegreeSequence, seq_succ

from oracles import reference_seq_succ


class TestSequence:
    def test_counting(self):
        assert DegreeSequence.from_degrees([1, 2, 2]).counts == (1, 2)
        assert DegreeSequence.from_degrees([2, 2, 2]).counts == (0, 3)
        assert DegreeSequence.from_degrees([3]).counts == (0, 0, 1)

    def test_trailing_zeros_trimmed(self):
        assert DegreeSequence((1, 0, 0)).counts == (1,)
        assert DegreeSequence((0, 0)).counts == ()

    def test_negatives_rejected(self):
        with pytest.raises(ValueError):
            DegreeSequence((1, -1))
        with pytest.raises(ValueError):
            DegreeSequence.from_degrees([0])

    def test_str(self):
        assert str(DegreeSequence((0, 3))) == "(0,3)"


def seq(*counts):
    return DegreeSequence(counts)


class TestOrder:
    def test_top_entry_dominates(self):
        assert seq_succ(seq(0, 3), seq(5, 2))

    def test_irreflexive(self):
        assert not seq_succ(seq(1, 1), seq(1, 1))

    def test_compare_below_equal_top(self):
        assert not seq_succ(seq(2, 0, 1), seq(0, 1, 1))
        assert seq_succ(seq(0, 1, 1), seq(2, 0, 1))

    def test_padding_with_zeros(self):
        assert seq_succ(seq(0, 0, 1), seq(9, 9))
        assert not seq_succ(seq(9, 9), seq(0, 0, 1))
        assert not seq_succ(seq(1), seq(1, 0))  # equal after trimming


counts = st.lists(st.integers(0, 10), max_size=6).map(tuple)
sequences = counts.map(DegreeSequence)


@given(sequences, sequences)
def test_trichotomy(a, b):
    outcomes = [a == b, seq_succ(a, b), seq_succ(b, a)]
    assert outcomes.count(True) == 1


@given(sequences, sequences, sequences)
def test_transitivity(a, b, c):
    if seq_succ(a, b) and seq_succ(b, c):
        assert seq_succ(a, c)


@given(counts, counts)
def test_matches_the_top_down_walk(a, b):
    # The reference reads the counts as given, trailing zeros included.
    assert seq_succ(DegreeSequence(a), DegreeSequence(b)) == reference_seq_succ(a, b)
