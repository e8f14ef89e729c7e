"""CSS code container and exhaustive logical-weight search.

A CSS code is a pair of GF(2) parity-check matrices with orthogonal row
spaces.  The exhaustive distance oracle searches an entire kernel,
decomposed as stabilizer span plus logical generators, by the
Brouwer-Zimmermann method with two information sets (A. E. Brouwer,
Handbook of Coding Theory, 1998; M. Grassl, 2006): it walks sums of ever
more generators and stops once no unseen sum can beat the best logical.
It is pure Python and stores no level of the walk: one side of the 2^26
kernel of (1 + x, 1 + x^7) at n = 25, distance 7, takes about 5 ms
(2-vCPU Xeon 2.0 GHz VM, Python 3.11).  The first information set comes
from the other side's cached ``rref``, the stabilizers, and k logical
representatives taken from the free columns of the side's own, each
tagged with a bit of its own above the columns; no elimination builds it.
The second is the search's one elimination, by ``gf2matrix.echelon``,
made only once a level of it can raise the bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import gf2matrix
from .gf2matrix import BitMatrix

KERNEL_CAP = 26


@dataclass(frozen=True)
class CssCode:
    h_x: BitMatrix
    h_z: BitMatrix

    @property
    def length(self) -> int:
        return self.h_x.cols

    @functools.cached_property
    def _rref(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """``rref`` of h_x and h_z, keyed "X" and "Z", computed once per code."""
        return {"X": gf2matrix.rref(self.h_x), "Z": gf2matrix.rref(self.h_z)}


def new_css(h_x: BitMatrix, h_z: BitMatrix) -> CssCode:
    """Validate and wrap a parity-check pair."""
    if h_x.cols != h_z.cols:
        raise ValueError("shape mismatch: h_x and h_z must have equal column counts")
    if not gf2matrix.is_zero(gf2matrix.mat_mul(h_x, gf2matrix.transpose(h_z))):
        raise ValueError("not orthogonal: h_x @ h_z^T != 0")
    return CssCode(h_x, h_z)


def dimension(code: CssCode) -> int:
    """Number of logical qubits: cols - rank(h_x) - rank(h_z)."""
    return code.length - sum(len(rows) for rows, _ in code._rref.values())


def _side_reductions(code: CssCode, side: str) -> tuple[tuple, tuple]:
    """The ``rref`` of the side's own check matrix and of the other one."""
    s = side.upper()
    if s not in ("X", "Z"):
        raise ValueError(f"side must be 'X' or 'Z', got {side!r}")
    return code._rref[s], code._rref["Z" if s == "X" else "X"]


def is_logical_x(code: CssCode, v: int) -> bool:
    """True iff v is in ker(h_x) but not in the row space of h_z, read off the cached ``rref`` of h_z."""
    return gf2matrix.mat_vec(code.h_x, v) == 0 and gf2matrix.rref_reduce(*code._rref["Z"], v) != 0


def logical_space(code: CssCode, side: str = "X") -> tuple[list[int], list[int]]:
    """Split ker(side matrix) into a stabilizer basis and logical generators.

    Returns (stabilizers, logicals): the stabilizers span the other matrix's
    row space, and together the two lists form a basis of the kernel.  The
    logicals are the kernel basis reduced mod the stabilizers, in echelon form.
    """
    own, (stab_rows, stab_pivots) = _side_reductions(code, side)
    kernel = gf2matrix.rref_kernel(*own, code.length)
    reduced = [gf2matrix.rref_reduce(stab_rows, stab_pivots, v) for v in kernel]
    return list(stab_rows), gf2matrix.echelon(reduced, (1 << code.length) - 1)[0]


def _min_logical_weight(stabilizers: list[int], logicals: list[int], ncols: int) -> tuple[int, int]:
    """Minimum weight over span(stabilizers) + nonzero-span(logicals): (weight, witness).

    Logical i carries the tag bit ncols + i; ``_search`` walks the tagged basis reduced by ``echelon``.
    """
    mask = (1 << ncols) - 1
    basis = stabilizers + [v | 1 << (ncols + i) for i, v in enumerate(logicals)]
    g1, pivots, _ = gf2matrix.echelon(basis, mask)
    return _search(g1, mask & ~pivots, ncols)


def _search(g1: list[int], others: int, ncols: int) -> tuple[int, int]:
    """Brouwer-Zimmermann search with two information sets: (weight, witness).

    g1 is a basis in reduced echelon form on K pivot columns, tagged so a sum
    of rows is a logical iff it is above the column mask.  G2 is g1 reduced
    on ``others``, with rank r2; its other K - r2 rows, the defect, are zero there.

    A vector that is a sum of more than w rows of G1 has more than w of G1's
    pivots set.  One that is a sum of more than w rows of G2 has at least
    w + 1 - defect of G2's pivots set, and the two pivot sets are disjoint.
    So once every sum of at most w rows of G1 and of at most w' rows of G2
    has been seen, no unseen vector weighs less than
    (w + 1) + max(0, w' + 1 - defect).  Levels w = 1, 2, ... are walked depth
    first, G1's then G2's, each with a running XOR and nothing stored, until
    that bound reaches the best logical weight seen.

    As r2 <= |others|, the defect is at least K - |others|, and no G2 level
    w with w + 1 <= K - |others| can raise the bound: until the first level
    past that, only G1 is walked, against the bound w + 1.  There G2 is
    built, its one ``echelon``, and its levels 1 .. w - 1 are walked before
    the bound is checked and its level w walked.  A search that stops
    earlier eliminates nothing for G2.
    """
    mask = (1 << ncols) - 1
    least_defect = len(g1) - others.bit_count()  # known before G2 is built
    g2 = None
    best, witness = ncols + 1, 0

    def walk(rows: list[int], start: int, depth: int, acc: int) -> None:
        """Every sum of acc and ``depth`` rows of rows[start:].

        The last two levels are one call: each head row is XORed into acc
        once, then the rows after it are scanned.
        """
        nonlocal best, witness
        if depth > 2:
            for i in range(start, len(rows) - depth + 1):
                walk(rows, i + 1, depth - 1, acc ^ rows[i])
            return
        heads = [(start, acc)] if depth == 1 else [(i + 1, acc ^ rows[i]) for i in range(start, len(rows) - 1)]
        for after, head in heads:
            for r in rows[after:]:
                x = head ^ r
                if x > mask and (x & mask).bit_count() < best:
                    best, witness = (x & mask).bit_count(), x & mask

    for w in range(1, len(g1) + 1):
        walk(g1, 0, w, 0)
        if g2 is None:
            if best <= w + 1:
                break
            if w + 1 <= least_defect:
                continue
            g2, _, rest = gf2matrix.echelon(g1, others)
            g2 += rest
            defect = len(rest)
            for caught_up in range(1, w):
                walk(g2, 0, caught_up, 0)
        if best <= w + 1 + max(0, w - defect):
            break
        walk(g2, 0, w, 0)
        if best <= w + 1 + max(0, w + 1 - defect):
            break
    return best, witness


def min_weight_logical(code: CssCode, side: str = "X") -> tuple[int, int] | None:
    """Minimum-weight logical operator on one side: (weight, witness), or None if k = 0.

    Searches the whole kernel of the side matrix, at worst every vector of
    it, so the kernel dimension, read off the side's cached ``rref`` before
    anything is built, must not exceed ``KERNEL_CAP``.  G1 is the other
    side's cached ``rref`` rows and k tagged logical representatives, read
    off the free columns of this side's (``_first_information_set``).
    Only the weight and the witness's logicality are specified: which of
    several minimum-weight logicals is returned may change.
    """
    (own_rows, _), (stab_rows, _) = _side_reductions(code, side)
    kernel_dimension = code.length - len(own_rows)
    if kernel_dimension > KERNEL_CAP:
        raise ValueError(f"kernel too large: dimension {kernel_dimension} exceeds cap {KERNEL_CAP}")
    if kernel_dimension == len(stab_rows):  # k = 0: the stabilizers span the kernel
        return None
    return _search(*_first_information_set(code, side), code.length)


def _first_information_set(code: CssCode, side: str) -> tuple[list[int], int]:
    """G1 for ``_search``, in reduced echelon form, and its others, the columns that hold no pivot.

    G1 is the other side's cached ``rref`` rows, the stabilizers, then k
    logical representatives, k = dim ker - rank(other), each tagged with
    bit length + i.  For the own ``rref``'s free columns j in order, the
    kernel vector e_j + the pivot of every row holding j is reduced on the
    rows taken so far; a remainder is tagged, added to every earlier row
    that holds its lowest bit, its pivot, and taken.  The tags stay
    independent mod the stabilizers, so a sum of rows is a logical iff it
    is above the column mask.  Only orthogonality is assumed: the
    stabilizers lie in the own kernel.
    """
    (own_rows, own_pivots), (stab_rows, stab_pivots) = _side_reductions(code, side)
    n = code.length
    mask = (1 << n) - 1
    size = n - len(own_rows)  # dim ker: the stabilizers, then k representatives
    g1 = list(stab_rows)
    at = {1 << p: i for i, p in enumerate(stab_pivots)}  # at[b] is the position in g1 of the row with pivot bit b
    held = sum(at)  # the OR of the pivot bits
    for j in sorted(set(range(n)).difference(own_pivots)):  # the free columns
        if len(g1) == size:
            break
        v = 1 << j
        for row, p in zip(own_rows, own_pivots):
            if row >> j & 1:
                v |= 1 << p
        hit = v & held
        while hit:
            top = 1 << hit.bit_length() - 1
            v ^= g1[at[top]]
            hit ^= top
        if not v & mask:  # in the span of the rows taken
            continue
        low = v & -v
        v |= 1 << (n + len(g1) - len(stab_rows))
        g1 = [r ^ v if r & low else r for r in g1]
        at[low] = len(g1)
        g1.append(v)
        held |= low
    return g1, mask & ~held


def exhaustive_distance(code: CssCode, side: str = "X") -> int | None:
    """Exact one-sided distance by exhaustive kernel search; None means infinite (k = 0)."""
    found = min_weight_logical(code, side)
    return None if found is None else found[0]
