"""Dense GF(2) matrices stored as bit-packed integer rows.

Bit j of a row integer is the entry in column j.  All operations are pure and
work on copies; matrices are safe to share between threads.  One Gaussian
elimination, ``echelon``, answers rank, kernel and row-space membership here
in one pass each, and serves the logical split and the search in ``css``.

Costs are counted in big-int steps, each one bitwise operation on a row or
column integer: ``echelon`` reduces a row v in O(|v & pivots|) steps, one
per pivot that v holds, plus O(rank) to clear a new pivot from the other
rows only when one of them holds it, which one AND decides.  That
back-substitution keeps ``echelon`` of r rows at O(r * rank) steps in the
worst case, cubic in n for an n x 2n face matrix, however sparse the rows.
``transpose``, ``mat_mul`` and ``kernel_basis`` past its ``rref`` peel set
bits and take O(nnz + cols), nnz being the set entries they read.  Every
set-bit loop here, ``echelon``'s included, takes the top bit, by
``bit_length`` and one shift, which builds one int per bit where x & -x
builds two.
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

    ``echelon`` on every column, its rows sorted by their lowest bit, which
    the reduced form makes each row's pivot; the form of a row space is
    unique, so any elimination order gives these rows.
    """
    rows = sorted(echelon(m.rows, (1 << m.cols) - 1)[0], key=lambda r: r & -r)
    return tuple(rows), tuple([(r & -r).bit_length() - 1 for r in rows])


def rref_reduce(rows: tuple[int, ...], pivots: tuple[int, ...], v: int) -> int:
    """v with every pivot of an ``rref`` (rows, pivots) cleared by adding that row."""
    for row, p in zip(rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v


def kernel_basis(m: BitMatrix) -> list[int]:
    """Basis of the right kernel {v : m v = 0}, as bit-packed vectors.

    One vector per free column j of ``rref(m)``, in order of j: bit j and the
    pivot bit of every row with bit j.  Each row's bits but its pivot are
    peeled once, O(nnz + cols) big-int steps past the ``rref``.
    """
    basis: list[int | None] = [1 << j for j in range(m.cols)]  # basis[j] is the vector of free column j, once every row is peeled
    for row, p in zip(*rref(m)):
        r, add = row ^ 1 << p, 1 << p
        basis[p] = None  # a pivot column has no vector
        while r:
            j = r.bit_length() - 1
            basis[j] ^= add
            r ^= 1 << j
    return [v for v in basis if v is not None]


def row_space_contains(m: BitMatrix, v: int) -> bool:
    """True iff v is a GF(2) combination of the rows of m, that is, iff one
    ``echelon`` of them and v tagged with bit ``m.cols`` leaves the bare tag in the rest."""
    if v < 0 or v >> m.cols:
        raise ValueError("vector does not match the matrix width")
    tag = 1 << m.cols
    return tag in echelon([*m.rows, v | tag], tag - 1)[2]


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
