"""Dense GF(2) matrices stored as bit-packed integer rows.

Bit j of a row integer is the entry in column j.  All operations are pure and
work on copies; matrices are safe to share between threads.  One Gaussian
elimination, ``echelon``, serves rank, kernel and row space here and the
logical split and exhaustive search in ``css``.

Costs are counted in big-int steps, each one bitwise operation on a row or
column integer: ``echelon`` reduces a row v in O(|v & pivots|) steps, one
per pivot that v holds, plus O(rank) to clear a new pivot from the other
rows only when one of them holds it, which one AND decides.  That
back-substitution keeps ``rref`` of an r-row matrix at O(r * rank) steps in
the worst case, cubic in n for an n x 2n face matrix, however sparse the
rows.  ``transpose``, ``mat_mul`` and ``rref_kernel`` peel set bits and
take O(nnz + cols), nnz being the set entries they read.  Every set-bit
loop here, ``echelon``'s included, takes the top bit, by ``bit_length``
and one shift, which builds one int per bit where x & -x builds two.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class BitMatrix:
    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("cols must be nonnegative")
        if self.rows and (min(self.rows) < 0 or max(self.rows) >> self.cols):
            raise ValueError("row has bits outside the column range")

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def circulant(p, n: int) -> BitMatrix:
    """n x n circulant with first column equal to the coefficient vector of p.

    p is a ``gf2poly.BinaryPolynomial``; only its ``is_zero``, ``degree`` and
    ``support()`` are read, so this module imports no polynomial code.

    Entry (i, j) is the coefficient of x^((i - j) mod n), so column j is the
    cyclic downward shift of column 0 by j, and row i is row 0, with bit
    -e mod n for each e in the support, rotated up by i.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not p.is_zero and p.degree >= n:
        raise ValueError("polynomial too wide for circulant size")
    first = 0
    for e in p.support():
        first |= 1 << (-e % n)
    twice, full = first << n | first, (1 << n) - 1  # bits n - i .. 2n - i - 1 of twice: row 0 rotated by i
    return BitMatrix(tuple([twice >> (n - i) & full for i in range(n)]), n)


def echelon(rows: Iterable[int], columns: int) -> tuple[list[int], int, list[int]]:
    """Reduced echelon form of rows on pivots among the ``columns`` bits.

    Returns (pivot rows, their pivot bits OR-ed, rest): each pivot row has
    its own pivot bit, the lowest of its ``columns`` bits, which no other
    returned row has; the rest are zero on ``columns``.  Together they span
    what ``rows`` spans.  The pivot rows come in the order their rows were
    met.  Each pivot bit lives in one returned row only, so adding that
    row clears it from v and sets no other pivot bit: v is reduced by the
    rows of the pivots in v & held alone, O(|v & pivots|) steps.  Every
    returned row is an XOR of rows taken as pivot rows, so a new pivot bit
    outside ``seen``, their OR, is in no other returned row; only a pivot
    in ``seen`` takes O(rank) steps to clear it from the others.
    """
    out: list[int] = []
    at: dict[int, int] = {}  # at[p] is the position in out of the row with pivot bit p
    held = 0  # the OR of the pivot bits
    seen = 0  # the OR of the rows taken as pivot rows
    rest = []
    for v in rows:
        hit = v & held
        while hit:
            top = 1 << hit.bit_length() - 1
            v ^= out[at[top]]
            hit ^= top
        if v & columns:
            p = v & columns & -(v & columns)
            if seen & p:
                out = [r ^ v if r & p else r for r in out]
            seen |= v
            at[p] = len(out)
            out.append(v)
            held |= p
        else:
            rest.append(v)
    return out, held, rest


def rref(m: BitMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    ``echelon`` on every column, with the rows put in the order of the set
    bits of its ``held``; the form of a row space is unique, so any
    elimination order gives these rows.
    """
    out, held, _ = echelon(m.rows, (1 << m.cols) - 1)
    by_pivot = {(r & -r).bit_length() - 1: r for r in out}
    digits = bin(held)[:1:-1]  # held's binary digits, lowest first
    pivots = tuple([j for j, bit in enumerate(digits) if bit == "1"])
    return tuple(map(by_pivot.__getitem__, pivots)), pivots


def rref_reduce(rows: tuple[int, ...], pivots: tuple[int, ...], v: int) -> int:
    """v with every pivot of an ``rref`` (rows, pivots) cleared by adding that row."""
    for row, p in zip(rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v


def kernel_basis(m: BitMatrix) -> list[int]:
    """Basis of the right kernel {v : m v = 0}, as bit-packed vectors.

    One basis vector per free column; size equals cols - rank.
    """
    return rref_kernel(*rref(m), m.cols)


def rref_kernel(rows: tuple[int, ...], pivots: tuple[int, ...], cols: int) -> list[int]:
    """``kernel_basis`` of a cols-column matrix whose ``rref`` is (rows, pivots).

    The vector of free column j has bit j and the pivot bit of every row
    with bit j, in order of j.  Each row's free bits, all its bits but its
    pivot, are peeled once, so the cost is O(nnz + cols) big-int steps.
    """
    basis: list[int | None] = [1 << j for j in range(cols)]  # basis[j] is the vector of free column j, once every row is peeled
    for row, p in zip(rows, pivots):
        r, add = row ^ 1 << p, 1 << p
        basis[p] = None  # a pivot column has no vector
        while r:
            j = r.bit_length() - 1
            basis[j] ^= add
            r ^= 1 << j
    return [v for v in basis if v is not None]


def row_space_contains(m: BitMatrix, v: int) -> bool:
    """True iff v is a GF(2) combination of the rows of m."""
    if v < 0 or v >> m.cols:
        raise ValueError("vector does not match the matrix width")
    return rref_reduce(*rref(m), v) == 0


def hstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.num_rows != b.num_rows:
        raise ValueError("row count mismatch in hstack")
    rows = tuple(ra | (rb << a.cols) for ra, rb in zip(a.rows, b.rows))
    return BitMatrix(rows, a.cols + b.cols)


def transpose(m: BitMatrix) -> BitMatrix:
    """Peels each row's set bits into the columns, O(nnz + cols) big-int steps."""
    cols = [0] * m.cols
    for i, row in enumerate(m.rows):
        while row:
            j = row.bit_length() - 1
            cols[j] |= 1 << i
            row ^= 1 << j
    return BitMatrix(tuple(cols), m.num_rows)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product a @ b."""
    if a.cols != b.num_rows:
        raise ValueError("inner dimension mismatch in mat_mul")
    b_rows, rows = b.rows, []
    for r in a.rows:
        acc = 0
        while r:
            j = r.bit_length() - 1
            acc ^= b_rows[j]
            r ^= 1 << j
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
