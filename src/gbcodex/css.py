"""CSS code container and exhaustive logical-weight search.

A CSS code is a pair of GF(2) parity-check matrices with orthogonal row
spaces.  The exhaustive distance oracle enumerates an entire kernel,
decomposed as stabilizer span plus logical generators, so the row-space
membership test reduces to "is the logical coefficient part nonzero".
Blocks of 2^16 stabilizer combinations are swept with vectorized XOR and
popcounts, which keeps a 2^26 kernel under a second.
"""

from __future__ import annotations

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


def _min_logical_weight(stabilizers: list[int], logicals: list[int], ncols: int) -> tuple[int, int]:
    """Minimum weight over span(stabilizers) + nonzero-span(logicals).

    Returns (weight, witness vector).  The low 2^l stabilizer combinations are
    tabulated once; the remaining generators are walked in Gray-code order so
    each block costs one XOR of the whole table.
    """
    # Imported here, not at module level: only this sweep uses numpy, and
    # loading it costs import time, memory and a BLAS thread.
    import numpy as np

    words = max(1, (ncols + 63) // 64)

    def pack(v: int):
        return np.array([(v >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(words)], dtype=np.uint64)

    if hasattr(np, "bitwise_count"):
        popcount = np.bitwise_count
    else:  # numpy < 2: a byte table
        pop8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

        def popcount(buf):
            return pop8[buf.view(np.uint8)]

    low_bits = min(len(stabilizers), _LOW_BLOCK_BITS)
    lows = stabilizers[:low_bits]
    highs = stabilizers[low_bits:] + logicals

    table = np.zeros((1 << low_bits, words), dtype=np.uint64)
    for j, v in enumerate(lows):
        size = 1 << j
        table[size : 2 * size] = table[:size] ^ pack(v)

    n_high = len(highs)
    logical_mask = ((1 << len(logicals)) - 1) << (n_high - len(logicals))
    packed_highs = [pack(v) for v in highs]

    best_weight = None
    best_combo = 0
    best_index = 0
    acc = np.zeros(words, dtype=np.uint64)
    buf = np.empty_like(table)
    combo = 0
    for t in range(1, 1 << n_high):
        flip = (t & -t).bit_length() - 1
        acc ^= packed_highs[flip]
        combo ^= 1 << flip
        if not combo & logical_mask:
            continue
        np.bitwise_xor(table, acc, out=buf)
        weights = popcount(buf).sum(axis=1, dtype=np.int64)
        i = int(weights.argmin())
        w = int(weights[i])
        if best_weight is None or w < best_weight:
            best_weight, best_combo, best_index = w, combo, i

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
    must not exceed ``cap``.
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
