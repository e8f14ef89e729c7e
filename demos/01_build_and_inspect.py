"""Build weight-4 generalized bicycle codes and inspect their parameters.

A code is defined by two generator polynomials over GF(2) and a circulant
size n.  The two parity-check matrices are h_x = [A | B] and h_z = [B^T | A^T]
where A, B are the n x n circulants of the generators; circulants commute, so
the pair is automatically a valid CSS pair.
"""

from gbcodex.css import dimension, exhaustive_distance
from gbcodex.gbcode import GbSpec, build, dimension_formula
from gbcodex.gf2poly import parse_poly


def show(a_text, b_text, n):
    spec = GbSpec(parse_poly(a_text, n), parse_poly(b_text, n), n)
    code = build(spec)
    k_rank = dimension(code)
    k_gcd = dimension_formula(spec)
    print(f"GB({a_text}, {b_text}, {n}):")
    print(f"  length        = {code.length}")
    print(f"  k (rank)      = {k_rank}")
    print(f"  k (gcd form)  = {k_gcd}")
    d = exhaustive_distance(code, "X") if code.length <= 52 else None
    if d is not None:
        dz = exhaustive_distance(code, "Z")
        print(f"  d (exhaustive) = {d}   d_Z = {dz}")
    else:
        print("  d: kernel too large for the exhaustive sweep here; see demo 02")
    print()


def main():
    # the smallest member: two physical qubit pairs, distance 2
    show("1+x", "1+x", 2)

    # a [[10, 2, 3]] code: the generator exponents (1, 2) satisfy 2^2 = -1 mod 5
    show("1+x", "1+x^2", 5)

    # a square-grid member: [[18, 2, 3]]
    show("1+x", "1+x^3", 9)

    # trivial generators leave no logical qubits; distance is infinite
    show("1", "1", 3)

    # generators of weight three work through the same machinery
    show("1+x+x^3", "1+x^2", 7)


if __name__ == "__main__":
    main()
