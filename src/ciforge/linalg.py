"""Exact dense linear algebra over the coefficient field.

Rank and kernel bases go through one reduced-row-echelon routine.  The
echelon form of a matrix is unique, so they come out deterministic no matter
which pivot happened to be selected along the way.  `first_kernel_vector`
eliminates column by column instead and stops at the first dependent column;
the vector it returns is unique too, and equals the first kernel basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotHomogeneousError, RingMismatchError
from .fields import Field, Fraction, Scalar
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

    def multiply_vector(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        zero = self.field.zero
        return tuple(sum((a * b for a, b in zip(row, v)), zero) for row in self.rows)


def _select_pivot(rows: list[list[Scalar]], start: int, col: int, field: Field) -> int | None:
    """Row index of the chosen pivot in ``col`` at or below ``start``, or None.

    Over the rationals the candidate with the largest numerator magnitude is
    taken (ties to the earliest row) to damp coefficient growth; over a prime
    field the first nonzero entry wins.
    """
    best: int | None = None
    best_size = -1
    for r in range(start, len(rows)):
        entry = rows[r][col]
        if not entry:
            continue
        if not isinstance(entry, Fraction):
            return r
        size = abs(entry.numerator)
        if size > best_size:
            best, best_size = r, size
    return best


def _rref(matrix: ExactMatrix) -> tuple[list[list[Scalar]], list[int]]:
    rows = [list(r) for r in matrix.rows]
    field = matrix.field
    pivots: list[int] = []
    row = 0
    for col in range(matrix.cols):
        if row >= len(rows):
            break
        pivot_row = _select_pivot(rows, row, col, field)
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        inv = field.one / rows[row][col]
        rows[row] = [v * inv for v in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
    return rows, pivots


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns."""
    rows, pivots = _rref(matrix)
    reduced = ExactMatrix(matrix.field, tuple(tuple(r) for r in rows), matrix.cols)
    return reduced, tuple(pivots)


def rank(matrix: ExactMatrix) -> int:
    return len(_rref(matrix)[1])


def kernel_basis(matrix: ExactMatrix) -> list[Vector]:
    """Canonical basis of the right null space.

    One vector per free column, ordered by that column index ascending.  Each
    vector has 1 in its free column and zeros in every later coordinate, so
    the last nonzero coordinate is always 1.
    """
    rows, pivots = _rref(matrix)
    field = matrix.field
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        v = [field.zero] * matrix.cols
        v[free] = field.one
        for i, p in enumerate(pivots):
            entry = rows[i][free]
            if entry:
                v[p] = -entry
        basis.append(tuple(v))
    return basis


def first_kernel_vector(matrix: ExactMatrix) -> Vector | None:
    """``kernel_basis(matrix)[0]``, or None when the kernel is trivial.

    That vector belongs to the first column that depends on the columns
    before it.  Those earlier columns are independent, so its coefficients
    are unique and elimination can stop there.  Each column is reduced
    against the independent columns before it, and its combination is
    tracked over columns ``0..j`` only.
    """
    field = matrix.field
    zero, one = field.zero, field.one
    # Reduced independent columns: (pivot row, column scaled to 1 there,
    # combination of the original columns 0..j that gives it).
    reduced: list[tuple[int, list[Scalar], list[Scalar]]] = []
    for j in range(matrix.cols):
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
            return tuple(combination) + (zero,) * (matrix.cols - j - 1)
        inv = one / column[pivot]
        reduced.append(
            (pivot, [v * inv for v in column], [c * inv for c in combination])
        )
    return None


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
