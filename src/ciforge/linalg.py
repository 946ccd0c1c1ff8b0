"""Exact dense linear algebra over the coefficient field.

Rank, kernel bases and the first kernel vector all read one column-by-column
elimination.  The relation it finds for each dependent column is unique, so
every answer is deterministic and equals the one read off the reduced
row-echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotHomogeneousError, RingMismatchError
from .fields import Field, Scalar
from .groebner import check_deadline
from .poly import (
    NOT_HOMOGENEOUS,
    Polynomial,
    grevlex_key,
    homogeneous_degree,
)

Vector = tuple[Scalar, ...]


@dataclass(frozen=True)
class ExactMatrix:
    """A dense matrix of exact scalars, row-major."""

    field: Field
    rows: tuple[Vector, ...]
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != self.cols:
                raise ValueError(f"row of length {len(row)}, expected {self.cols}")

    @classmethod
    def from_rows(
        cls, field: Field, rows: Sequence[Sequence[Scalar | int]], cols: int | None = None
    ) -> "ExactMatrix":
        converted = tuple(
            tuple(field.scalar(v) if isinstance(v, int) else v for v in row) for row in rows
        )
        if cols is None:
            if not converted:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(converted[0])
        return cls(field, converted, cols)

    @classmethod
    def from_columns(
        cls, field: Field, columns: Sequence[Sequence[Scalar | int]]
    ) -> "ExactMatrix":
        if not columns:
            raise ValueError("need at least one column")
        height = len(columns[0])
        rows = [[columns[j][i] for j in range(len(columns))] for i in range(height)]
        return cls.from_rows(field, rows, cols=len(columns))

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def _column_relations(matrix: ExactMatrix) -> Iterator[Vector | None]:
    """For each column in turn, None if it is independent of the columns
    before it, else the relation that makes it dependent.

    That relation is the vector with 1 in the column, zeros after it and at
    every earlier dependent column, that the matrix sends to zero.  The
    independent columns before it are a basis of their span, so it is unique:
    it is the canonical kernel vector of the reduced row-echelon form.  Each
    column is reduced against the independent columns before it, and its
    combination is tracked over columns ``0..j`` only.
    """
    field = matrix.field
    zero, one = field.zero, field.one
    # Reduced independent columns: (pivot row, column scaled to 1 there,
    # combination of the original columns 0..j that gives it).
    reduced: list[tuple[int, list[Scalar], list[Scalar]]] = []
    for j in range(matrix.cols):
        check_deadline("row reduction")
        column = [row[j] for row in matrix.rows]
        combination = [zero] * j + [one]
        for pivot, basis_column, basis_combination in reduced:
            factor = column[pivot]
            if not factor:
                continue
            column = [a - factor * b if b else a for a, b in zip(column, basis_column)]
            for k, c in enumerate(basis_combination):
                if c:
                    combination[k] -= factor * c
        pivot = next((i for i, v in enumerate(column) if v), None)
        if pivot is None:
            yield tuple(combination) + (zero,) * (matrix.cols - j - 1)
            continue
        inv = one / column[pivot]
        reduced.append(
            (pivot, [v * inv for v in column], [c * inv for c in combination])
        )
        yield None


def rank(matrix: ExactMatrix) -> int:
    return sum(relation is None for relation in _column_relations(matrix))


def kernel_basis(matrix: ExactMatrix) -> list[Vector]:
    """Canonical basis of the right null space.

    One vector per dependent column, ordered by that column index ascending.
    Each vector has 1 in its column and zeros in every later coordinate, so
    the last nonzero coordinate is always 1.
    """
    return [v for v in _column_relations(matrix) if v is not None]


def first_kernel_vector(matrix: ExactMatrix) -> Vector | None:
    """``kernel_basis(matrix)[0]``, or None when the kernel is trivial.

    Elimination stops at the first dependent column.
    """
    return next((v for v in _column_relations(matrix) if v is not None), None)


def linear_relation_polys(polys: Sequence[Polynomial]) -> Vector | None:
    """A nonzero vector c with sum(c_i * polys_i) = 0, or None if independent.

    Requires all inputs homogeneous of one common degree in one ring.  The
    choice is deterministic: the first canonical kernel vector of the
    coefficient matrix, monomial rows in descending grevlex order.
    """
    if not polys:
        return None
    ring = polys[0].ring
    degrees: set[int] = set()
    for p in polys:
        if p.ring != ring:
            raise RingMismatchError("relation search requires a single ring")
        d = homogeneous_degree(p)
        if d is NOT_HOMOGENEOUS:
            raise NotHomogeneousError("relation search requires homogeneous polynomials")
        if isinstance(d, int):
            degrees.add(d)
    if len(degrees) > 1:
        raise NotHomogeneousError("relation search requires one common degree")
    monomials = sorted({e for p in polys for e in p.terms}, key=grevlex_key, reverse=True)
    field = ring.field
    rows = tuple(
        tuple(p.terms.get(mono, field.zero) for p in polys) for mono in monomials
    )
    return first_kernel_vector(ExactMatrix(field, rows, len(polys)))
