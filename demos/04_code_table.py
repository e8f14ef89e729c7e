"""Catalog every admissible length up to 200 and print the resulting table.

An admissible circulant size factors as 2^e times primes congruent to 1 mod
4 (e at most 1); exactly these n admit alpha with alpha^2 = -1 mod n, which
makes the lattice bound scale as sqrt(n).  Each mirror pair of roots is one
representation n = a^2 + b^2 and has exact distance a + b, so for each n the
sweep keeps the representation with the largest a + b; the family column
names the grid families it recovers.
"""

from gbcodex import sweep_catalog


def main():
    records = sweep_catalog(200)
    print(f"{'code':>14} {'n':>4} {'alpha':>5} {'bounds':>9} {'status':<18} {'family':<17}")
    for r in records:
        bounds = f"{r['lower']} <= {r['d']}"
        code = f"[[{r['length']}, {r['k']}, {r['d']}]]"
        print(f"{code:>14} {r['n']:>4} {r['alpha']:>5} {bounds:>9} {r['method']:<18} {r['tag']:<17}")
    print()
    print(f"{len(records)} codes; every d is the weight of an explicitly verified logical operator")
    print("and equals the minimal L1 norm of the lattice, so every d is exact")


if __name__ == "__main__":
    main()
