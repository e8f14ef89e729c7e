"""CSS code container and exhaustive logical-weight search.

A CSS code is a pair of GF(2) parity-check matrices with orthogonal row
spaces.  The exhaustive distance oracle enumerates an entire kernel,
decomposed as stabilizer span plus logical generators, so the row-space
membership test reduces to "is the logical coefficient part nonzero".
Blocks of up to 2^16 stabilizer combinations are swept with vectorized XOR
and popcounts, and a pivot-weight lower bound skips the rows of a block
that cannot beat the best weight so far: a 2^26 kernel of distance 7,
(1 + x, 1 + x^7) at n = 25, takes about 22 ms (2-vCPU Xeon 2.0 GHz VM,
Python 3.11, numpy 2.4), against about 140 ms with every row swept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import gf2matrix
from .gf2matrix import BitMatrix

DEFAULT_KERNEL_CAP = 26

_LOW_BLOCK_BITS = 16


@dataclass(frozen=True)
class CssCode:
    h_x: BitMatrix
    h_z: BitMatrix

    @property
    def length(self) -> int:
        return self.h_x.cols


def new_css(h_x: BitMatrix, h_z: BitMatrix) -> CssCode:
    """Validate and wrap a parity-check pair."""
    if h_x.cols != h_z.cols:
        raise ValueError("shape mismatch: h_x and h_z must have equal column counts")
    if not gf2matrix.is_zero(gf2matrix.mat_mul(h_x, gf2matrix.transpose(h_z))):
        raise ValueError("not orthogonal: h_x @ h_z^T != 0")
    return CssCode(h_x, h_z)


def dimension(code: CssCode) -> int:
    """Number of logical qubits: cols - rank(h_x) - rank(h_z)."""
    return code.length - gf2matrix.rank(code.h_x) - gf2matrix.rank(code.h_z)


def _side_matrices(code: CssCode, side: str) -> tuple[BitMatrix, BitMatrix]:
    s = side.upper()
    if s == "X":
        return code.h_x, code.h_z
    if s == "Z":
        return code.h_z, code.h_x
    raise ValueError(f"side must be 'X' or 'Z', got {side!r}")


def is_logical_x(code: CssCode, v: int) -> bool:
    """True iff v is in ker(h_x) but not in the row space of h_z."""
    return gf2matrix.mat_vec(code.h_x, v) == 0 and not gf2matrix.row_space_contains(code.h_z, v)


def logical_space(code: CssCode, side: str = "X") -> tuple[list[int], list[int]]:
    """Split ker(side matrix) into a stabilizer basis and logical generators.

    Returns (stabilizers, logicals): the stabilizers span the other matrix's
    row space, and together the two lists form a basis of the kernel.
    """
    own, other = _side_matrices(code, side)
    stab_rows, stab_pivots = gf2matrix.rref(other)
    pairs = list(zip(stab_rows, stab_pivots))
    logicals = []
    for v in gf2matrix.kernel_basis(own):
        w = v
        for row, p in pairs:
            if (w >> p) & 1:
                w ^= row
        if w:
            pairs.append((w, (w & -w).bit_length() - 1))
            pairs.sort(key=lambda t: t[1])
            logicals.append(v)
    return list(stab_rows), logicals


@functools.cache
def _popcount_order(low_bits: int):
    """Table row indices ordered by popcount, and where each popcount level starts.

    Returns (order, starts): ``order`` lists 0 .. 2^low_bits - 1 by popcount,
    stably, as a read-only int32 array, and ``starts[w]`` is the number of
    indices with popcount below w, for w = 0 .. low_bits + 1.  Both depend on
    low_bits alone, so each is built once per process.
    """
    import numpy as np

    counts = np.bitwise_count(np.arange(1 << low_bits, dtype=np.uint32))
    order = np.argsort(counts, kind="stable").astype(np.int32)
    order.flags.writeable = False
    starts = (0, *np.cumsum(np.bincount(counts, minlength=low_bits + 1)).tolist())
    return order, starts


def _min_logical_weight(stabilizers: list[int], logicals: list[int], ncols: int) -> tuple[int, int]:
    """Minimum weight over span(stabilizers) + nonzero-span(logicals).

    Returns (weight, witness vector).  The first l <= 16 stabilizers (the
    lows) are tabulated once, all 2^l combinations; the remaining generators
    (the highs) are walked in Gray-code order, and each block of the sweep
    XORs one high combination into the table.

    Most rows are skipped by a pivot-weight bound, the lower-bound pruning of
    the Brouwer-Zimmermann minimum-distance algorithm.  The lows are brought
    to reduced echelon form, so low k alone has its pivot bit p_k, and every
    high is reduced against them, so every high combination is zero on all
    pivots.  Row j of the table then has bit p_k set exactly when bit k of j
    is set, in every block, so its weight is at least popcount(j).  With the
    table ordered by popcount(j), a block only has to scan the prefix of rows
    with popcount(j) below the best weight found so far; no row past it can
    win.  Neither reduction changes the set of vectors swept, so the minimum
    is exact.
    """
    # Imported here, not at module level: only this sweep uses numpy, and
    # loading it costs import time, memory and a BLAS thread.
    import numpy as np

    words = max(1, (ncols + 63) // 64)

    def pack(v: int):
        return np.array([(v >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(words)], dtype=np.uint64)

    low_bits = min(len(stabilizers), _LOW_BLOCK_BITS)
    lows: list[int] = []  # reduced echelon form, each pivot the lowest set bit

    def reduce(v: int) -> int:
        """v plus the lows that clear it on every pivot."""
        for w in lows:
            if v & w & -w:
                v ^= w
        return v

    for v in stabilizers[:low_bits]:
        v = reduce(v)
        lows = [w ^ v if w & v & -v else w for w in lows]
        lows.append(v)
    highs = [reduce(v) for v in stabilizers[low_bits:] + logicals]

    order, starts = _popcount_order(low_bits)
    table = np.zeros((1 << low_bits, words), dtype=np.uint64)
    for j, v in enumerate(lows):
        size = 1 << j
        table[size : 2 * size] = table[:size] ^ pack(v)
    table = table[order]  # row i is the combination order[i] of the lows
    xor = np.empty_like(table)
    pop = np.empty(table.shape, dtype=np.uint8)

    n_high = len(highs)
    logical_mask = ((1 << len(logicals)) - 1) << (n_high - len(logicals))
    packed_highs = [pack(v) for v in highs]

    best_weight = None
    best_combo = 0
    best_index = 0
    # the rows that can still beat best_weight (all of them until one is found),
    # with their slices of the output buffers
    rows, xor_rows, pop_rows = table, xor, pop
    acc = np.zeros(words, dtype=np.uint64)
    combo = 0
    for t in range(1, 1 << n_high):
        flip = (t & -t).bit_length() - 1
        acc ^= packed_highs[flip]
        combo ^= 1 << flip
        if not combo & logical_mask:
            continue
        np.bitwise_xor(rows, acc, out=xor_rows)
        np.bitwise_count(xor_rows, out=pop_rows)
        weights = pop_rows[:, 0] if words == 1 else pop_rows.sum(axis=1)
        w = int(weights.min())
        if best_weight is None or w < best_weight:
            best_weight, best_combo, best_index = w, combo, int(order[weights.argmin()])
            limit = starts[min(w, low_bits + 1)]
            rows, xor_rows, pop_rows = table[:limit], xor[:limit], pop[:limit]

    witness = 0
    for j in range(n_high):
        if (best_combo >> j) & 1:
            witness ^= highs[j]
    for j in range(low_bits):
        if (best_index >> j) & 1:
            witness ^= lows[j]
    return best_weight, witness


def min_weight_logical(code: CssCode, side: str = "X", cap: int = DEFAULT_KERNEL_CAP) -> tuple[int, int] | None:
    """Minimum-weight logical operator on one side: (weight, witness), or None if k = 0.

    Enumerates the full kernel of the side matrix, so the kernel dimension
    must not exceed ``cap``.  Only the weight and the witness's logicality
    are specified: when several logicals share the minimum weight, which
    one is returned is an implementation detail and may change.
    """
    stabilizers, logicals = logical_space(code, side)
    kernel_dim = len(stabilizers) + len(logicals)
    if kernel_dim > cap:
        raise ValueError(f"kernel too large: dimension {kernel_dim} exceeds cap {cap}")
    if not logicals:
        return None
    return _min_logical_weight(stabilizers, logicals, code.length)


def exhaustive_distance(code: CssCode, side: str = "X", cap: int = DEFAULT_KERNEL_CAP) -> int | None:
    """Exact one-sided distance by exhaustive kernel sweep; None means infinite (k = 0)."""
    found = min_weight_logical(code, side, cap)
    return None if found is None else found[0]
