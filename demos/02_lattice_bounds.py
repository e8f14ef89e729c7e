"""Distance bounds from the 2D lattice attached to a canonical code.

The canonical pair (1 + x, 1 + x^alpha) over x^n - 1 determines the integer
lattice {(x, y) : x + alpha*y = 0 mod n}.  The code's minimum distance is at
least the Euclidean length of the shortest nonzero lattice vector, and a
staircase walk realizing a minimal-L1 lattice vector gives an explicit
logical operator.  The code is the toric code on Z^2 modulo the lattice, so
that operator is a minimum: the distance is exactly the minimal L1 norm.
When alpha^2 = -1 mod n the lattice is square and its squared minimum equals
n, so the distance scales like sqrt(n) at length 2n.
"""

import math

from gbcodex import (
    determine,
    enumerate_short,
    gauss_reduce,
    gb_lattice,
    min_l1,
    sqrt_minus_one_all,
)
from gbcodex.lattice import shortest_norm2


def main():
    for n in (13, 29, 74):
        alpha = sqrt_minus_one_all(n)[0]
        lat = gb_lattice(alpha, n)
        red = gauss_reduce(lat)
        lam2 = shortest_norm2(lat)
        l1 = min_l1(lat)
        print(f"n={n} alpha={alpha}")
        print(f"  reduced basis   : {red.b1}, {red.b2}")
        print(f"  lambda^2        = {lam2}  (lambda = {math.sqrt(lam2):.3f}, multiple of n: {lam2 % n == 0})")
        print(f"  min L1          = {l1.value}  witness {l1.witness}")
        print(f"  short vectors   : {enumerate_short(lat, l1.value)}")

        report = determine(alpha, n)
        print(f"  distance report : lower={report.lower_bound} exact={report.exact} "
              f"method={report.method}")
        print(f"  certificate     : edges {list(report.certificate)}")
        print()


if __name__ == "__main__":
    main()
