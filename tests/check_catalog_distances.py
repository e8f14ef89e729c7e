"""Check every row's d in a gbcodex catalog JSON with the graph-like oracle, on both sides.

Usage: python tests/check_catalog_distances.py CATALOG.json

Each row (n, alpha, d) names the code of (1 + x, 1 + x^alpha) over x^n - 1.
Its check matrices come from ``oracle_utils.gb_check_rows`` and its X and Z
distances from ``oracle_utils.graphlike_min_logical``, which share no code
with gbcodex, so this script needs the standard library alone.  It prints
one line per row whose d differs from either side's oracle distance and
exits 1 if there is any, else 0.  Pytest does not collect it.
"""

from __future__ import annotations

import json
import sys

from oracle_utils import gb_check_rows, graphlike_min_logical


def row_mismatch(row: dict) -> str | None:
    """None when the oracle gives the row's d on both sides, else a line naming the row."""
    n, alpha, d = row["n"], row["alpha"], row["d"]
    h_x, h_z = gb_check_rows([0, 1], [0, alpha], n)
    d_x, d_z = graphlike_min_logical(h_x, h_z), graphlike_min_logical(h_z, h_x)
    if d_x == d == d_z:
        return None
    return f"n = {n}, alpha = {alpha}: catalog d = {d}, oracle d_X = {d_x}, d_Z = {d_z}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} CATALOG.json", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        rows = [json.loads(line) for line in f.read().splitlines()[1:]]  # line 1 is the header
    mismatches = [line for line in map(row_mismatch, rows) if line is not None]
    for line in mismatches:
        print(line)
    print(f"{len(rows)} rows checked, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
