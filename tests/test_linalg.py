"""Exact rank / kernel / relation computations."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ciforge import groebner
from ciforge.linalg import ColumnElimination
from ciforge import (
    BuchbergerTimeout,
    ExactMatrix,
    NotHomogeneousError,
    PolynomialRing,
    PrimeField,
    QQ,
    RingMismatchError,
    basis_time_limit,
    kernel_basis,
    linear_relation_polys,
    parse_polynomial,
    rank,
)

from helpers import multiply_vector
from oracles import reference_kernel_basis, row_reduce_rank


def qmat(rows, cols=None):
    return ExactMatrix.from_rows(QQ, rows, cols=cols)


def first_kernel_vector(matrix):
    """The first relation among the matrix's columns, read the way the
    rewrite loop and `linear_relation_polys` read it."""
    columns = [tuple(row[j] for row in matrix.rows) for j in range(matrix.cols)]
    return ColumnElimination(matrix.field).first_relation(columns)


class TestRank:
    def test_identity(self):
        assert rank(qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_dependent_rows(self):
        m = qmat([[1, -2, 1, 0], [0, 1, -2, 1], [1, -1, -1, 1]])
        assert rank(m) == 2

    def test_zero_matrix(self):
        assert rank(qmat([[0, 0], [0, 0]])) == 0

    def test_no_rows(self):
        assert rank(ExactMatrix(QQ, (), 4)) == 0

    def test_prime_field(self):
        field = PrimeField(5)
        m = ExactMatrix.from_rows(field, [[1, 2], [3, 6]])
        assert rank(m) == 1  # second row is 3x the first mod 5


class TestKernel:
    def test_single_relation(self):
        assert kernel_basis(qmat([[1, 1]])) == [(Fraction(-1), Fraction(1))]

    def test_invertible_has_trivial_kernel(self):
        assert kernel_basis(qmat([[2, 1], [1, 1]])) == []

    def test_twisted_cubic_differentials(self):
        columns = [[1, -2, 1, 0], [0, 1, -2, 1], [1, -1, -1, 1]]
        m = qmat(list(zip(*columns)))
        assert kernel_basis(m) == [(Fraction(-1), Fraction(-1), Fraction(1))]

    def test_empty_row_matrix_kernel_is_standard_basis(self):
        basis = kernel_basis(ExactMatrix(QQ, (), 3))
        assert len(basis) == 3
        assert basis[0] == (Fraction(1), Fraction(0), Fraction(0))

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_kernel_properties(self, nrows, ncols, data):
        rows = [
            [
                Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4)))
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        m = qmat(rows)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == ncols
        for v in basis:
            assert multiply_vector(m, v) == (Fraction(0),) * nrows
            last_nonzero = max(i for i, c in enumerate(v) if c)
            assert v[last_nonzero] == 1


FIELDS = [QQ, PrimeField(7), PrimeField(32003)]


def small_fractions(field):
    """n/d in ``field`` for n in [-6, 6] and d in [1, 4]."""
    return st.builds(
        lambda n, d: field.div(field.scalar(n), field.scalar(d)),
        st.integers(-6, 6),
        st.integers(1, 4),
    )


@st.composite
def field_matrices(draw):
    """A matrix over Q, F_7 or F_32003 with up to 4 rows and 5 columns; about
    half the entries are zero, the others are small fractions."""
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 5))
    entry = st.one_of(
        st.just(field.zero),
        small_fractions(field),
    )
    rows = draw(
        st.lists(
            st.tuples(*[entry] * ncols), min_size=nrows, max_size=nrows
        )
    )
    return ExactMatrix(field, tuple(rows), ncols)


class TestAgainstReference:
    @given(field_matrices())
    def test_kernel_and_rank_match_the_oracle(self, m):
        assert kernel_basis(m) == reference_kernel_basis(m)
        assert rank(m) == row_reduce_rank(m.rows, m.field)

    @pytest.mark.parametrize("reader", [rank, kernel_basis, first_kernel_vector])
    def test_elimination_honours_the_time_limit(self, reader, monkeypatch):
        field = PrimeField(32003)
        m = ExactMatrix.from_rows(
            field, [[(7 * i + 3 * j * j) % 101 for j in range(60)] for i in range(60)]
        )
        with basis_time_limit(3600.0):
            monkeypatch.setattr(groebner.time, "monotonic", lambda: math.inf)
            with pytest.raises(BuchbergerTimeout, match="row reduction"):
                reader(m)

    def test_relation_search_honours_the_time_limit(self, monkeypatch):
        ring = PolynomialRing(QQ, ("x", "y"))
        polys = [ring.variable(0) * i + ring.variable(1) for i in range(1, 4)]
        with basis_time_limit(3600.0):
            monkeypatch.setattr(groebner.time, "monotonic", lambda: math.inf)
            with pytest.raises(BuchbergerTimeout, match="row reduction"):
                linear_relation_polys(polys)


class TestFirstKernelVector:
    @given(field_matrices())
    def test_equals_first_kernel_basis_vector(self, m):
        assert first_kernel_vector(m) == (reference_kernel_basis(m) or [None])[0]

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize(
        "rows, cols, expected",
        [
            ((), 3, (1, 0, 0)),  # no rows: every column is zero
            (((), ()), 0, None),  # no columns: no kernel
            (((0, 1, 2), (0, 3, 4)), 3, (1, 0, 0)),  # zero first column
            (((1, 0), (0, 1), (1, 1)), 2, None),  # full column rank
            (((1, 2, 0, 1), (1, 2, 1, 0)), 4, (-2, 1, 0, 0)),  # stops at column 1
            (((1, 0, 1, 5), (0, 1, 1, 7)), 4, (-1, -1, 1, 0)),
        ],
        ids=["no-rows", "no-columns", "zero-first-column", "full-rank", "early", "later"],
    )
    def test_edge_cases(self, field, rows, cols, expected):
        m = ExactMatrix(
            field, tuple(tuple(field.scalar(v) for v in row) for row in rows), cols
        )
        got = first_kernel_vector(m)
        assert got == (reference_kernel_basis(m) or [None])[0]
        if expected is None:
            assert got is None
        else:
            assert got == tuple(field.scalar(v) for v in expected)


@st.composite
def column_edits(draw):
    """Columns of height 0-4 over Q, F_7 or F_32003, and a list of edits:
    delete or replace the column at a drawn position."""
    field = draw(st.sampled_from(FIELDS))
    height = draw(st.integers(0, 4))
    entry = st.one_of(
        st.just(field.zero),
        small_fractions(field),
    )
    column = st.tuples(*[entry] * height)
    columns = draw(st.lists(column, max_size=7))
    edits = draw(
        st.lists(
            st.tuples(st.sampled_from(["delete", "replace"]), st.integers(0, 99), column),
            max_size=6,
        )
    )
    return field, columns, edits


class TestResumedElimination:
    """The rewrite loop carries one elimination from step to step: it keeps
    the columns before the first changed position and feeds the rest."""

    @staticmethod
    def fresh(field, columns):
        m = ExactMatrix(field, tuple(zip(*columns)), len(columns))
        return (reference_kernel_basis(m) or [None])[0]

    @given(column_edits())
    def test_resumed_equals_fresh(self, case):
        field, columns, edits = case
        elimination = ColumnElimination(field)
        relation = elimination.first_relation(columns)
        assert relation == self.fresh(field, columns)
        for kind, where, column in edits:
            if not columns:
                break
            # As in the loop, a step changes a position no later than the
            # first dependent column, whose relation ends with a 1.
            end = len(columns) if relation is None else max(
                i for i, c in enumerate(relation) if c
            ) + 1
            i = where % end
            if kind == "delete":
                del columns[i]
            else:
                columns[i] = column
            elimination.truncate(i)
            relation = elimination.first_relation(columns)
            assert relation == self.fresh(field, columns)

    def test_truncate_keeps_only_the_prefix(self):
        elimination = ColumnElimination(QQ)
        columns = [(QQ.one, QQ.zero), (QQ.zero, QQ.one), (QQ.one, QQ.one)]
        assert elimination.first_relation(columns) == (-1, -1, 1)
        elimination.truncate(1)
        assert (elimination.width, len(elimination.reduced)) == (1, 1)
        assert elimination.first_relation([columns[0], columns[2]]) is None
        assert elimination.width == 2


class TestRelations:
    @pytest.fixture
    def ring(self):
        return PolynomialRing(QQ, ("T0", "T1", "T2", "T3"))

    def test_proportional_pair(self, ring):
        f = parse_polynomial("T0*T3 - T1*T2", ring)
        assert linear_relation_polys([f, f * 2]) == (Fraction(-2), Fraction(1))

    def test_independent_quadrics(self, ring, twisted_cubic):
        assert linear_relation_polys(list(twisted_cubic)) is None

    def test_sum_relation(self, ring):
        polys = [
            parse_polynomial("T0^2", ring),
            parse_polynomial("T1^2", ring),
            parse_polynomial("T0^2 + T1^2", ring),
        ]
        relation = linear_relation_polys(polys)
        assert relation == (Fraction(-1), Fraction(-1), Fraction(1))
        total = polys[0].ring.zero()
        for c, p in zip(relation, polys):
            total = total + p * c
        assert total.is_zero()

    def test_mixed_degrees_rejected(self, ring):
        with pytest.raises(NotHomogeneousError):
            linear_relation_polys(
                [parse_polynomial("T0", ring), parse_polynomial("T1^2", ring)]
            )

    def test_mixed_rings_rejected(self, ring):
        other = PolynomialRing(QQ, ("x", "y"))
        with pytest.raises(RingMismatchError):
            linear_relation_polys([ring.variable(0), other.variable(0)])

    def test_empty_list(self):
        assert linear_relation_polys([]) is None


class TestMatrixValidation:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix(QQ, ((QQ.scalar(1),), (QQ.scalar(1), QQ.scalar(2))), 1)
