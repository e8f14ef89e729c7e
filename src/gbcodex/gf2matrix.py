"""Dense GF(2) matrices stored as bit-packed integer rows.

Bit j of a row integer is the entry in column j.  All operations are pure and
work on copies; matrices are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2poly import BinaryPolynomial


@dataclass(frozen=True)
class BitMatrix:
    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("cols must be nonnegative")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits outside the column range")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> BitMatrix:
        cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            packed.append(sum((1 << j) for j, v in enumerate(row) if v & 1))
        return cls(tuple(packed), cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls((0,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(tuple(1 << i for i in range(n)), n)


def circulant(p: BinaryPolynomial, n: int) -> BitMatrix:
    """n x n circulant with first column equal to the coefficient vector of p.

    Entry (i, j) is the coefficient of x^((i - j) mod n), so column j is the
    cyclic downward shift of column 0 by j.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not p.is_zero and p.degree >= n:
        raise ValueError("polynomial too wide for circulant size")
    support = p.support()
    rows = []
    for i in range(n):
        r = 0
        for e in support:
            r |= 1 << ((i - e) % n)
        rows.append(r)
    return BitMatrix(tuple(rows), n)


def rref(m: BitMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = list(m.rows)
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if (work[i] >> c) & 1), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
    return tuple(work[:r]), tuple(pivots)


def rank(m: BitMatrix) -> int:
    """GF(2) rank via Gaussian elimination on a copy."""
    return len(rref(m)[0])


def kernel_basis(m: BitMatrix) -> list[int]:
    """Basis of the right kernel {v : m v = 0}, as bit-packed vectors.

    One basis vector per free column; size equals cols - rank.
    """
    return rref_kernel(*rref(m), m.cols)


def rref_kernel(rows: tuple[int, ...], pivots: tuple[int, ...], cols: int) -> list[int]:
    """``kernel_basis`` of a cols-column matrix whose ``rref`` is (rows, pivots)."""
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, p in zip(rows, pivots):
            if (row >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def row_space_contains(m: BitMatrix, v: int) -> bool:
    """True iff v is a GF(2) combination of the rows of m."""
    if v < 0 or v >> m.cols:
        raise ValueError("vector does not match the matrix width")
    rows, pivots = rref(m)
    for row, p in zip(rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v == 0


def hstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.num_rows != b.num_rows:
        raise ValueError("row count mismatch in hstack")
    rows = tuple(ra | (rb << a.cols) for ra, rb in zip(a.rows, b.rows))
    return BitMatrix(rows, a.cols + b.cols)


def transpose(m: BitMatrix) -> BitMatrix:
    rows = []
    for j in range(m.cols):
        r = 0
        for i, row in enumerate(m.rows):
            r |= ((row >> j) & 1) << i
        rows.append(r)
    return BitMatrix(tuple(rows), m.num_rows)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product a @ b."""
    if a.cols != b.num_rows:
        raise ValueError("inner dimension mismatch in mat_mul")
    rows = []
    for ra in a.rows:
        acc = 0
        r = ra
        while r:
            j = (r & -r).bit_length() - 1
            acc ^= b.rows[j]
            r &= r - 1
        rows.append(acc)
    return BitMatrix(tuple(rows), b.cols)


def mat_vec(m: BitMatrix, v: int) -> int:
    """Product m v with v a bit-packed column vector; bit i of the result is row i."""
    if v < 0 or v >> m.cols:
        raise ValueError("vector does not match the matrix width")
    out = 0
    for i, row in enumerate(m.rows):
        out |= ((row & v).bit_count() & 1) << i
    return out


def is_zero(m: BitMatrix) -> bool:
    return all(r == 0 for r in m.rows)
