"""Command-line interface: construct, distance, bound, sweep, verify.

Exit codes: 0 success, 1 invariant/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog
from .distance import determine, pair_fields


def cmd_construct(args: argparse.Namespace) -> int:
    from . import css, gbcode
    from .gf2poly import parse_poly

    spec = gbcode.GbSpec(parse_poly(args.a, args.n), parse_poly(args.b, args.n), args.n)
    code = gbcode.build(spec)
    k_rank = css.dimension(code)
    k_gcd = gbcode.dimension_formula(spec)
    summary = f"[[{spec.length}, {k_rank}]]"
    exponents = gbcode.weight2_exponents(spec)
    if exponents is not None:
        fields = pair_fields(*exponents, spec.n)
        summary += f" lambda2={fields['lambda2']} minL1={fields['min_l1']}"
    print(summary)
    agree = "ok" if k_rank == k_gcd else "MISMATCH"
    print(f"k-check: rank-based={k_rank} gcd-formula={k_gcd} {agree}")
    if k_rank == 0:
        print("distance: infinite")
    return 0 if agree == "ok" else 1


def cmd_distance(args: argparse.Namespace) -> int:
    report = determine(args.alpha, args.n)
    print(f"alpha={report.alpha} n={report.n} length={report.length} k={report.k}")
    print(f"lower={report.lower_bound}")
    print(f"upper={report.upper_bound} exact={report.exact} method={report.method}")
    print(f"certificate={list(report.certificate)} (weight {len(report.certificate)})")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    fields = pair_fields(args.u, args.v, args.n)
    print(f"k={fields['k']} lower-bound={fields['lower']} lambda2={fields['lambda2']}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_length < 0:
        raise ValueError(f"--max-length must be nonnegative, got {args.max_length}")
    records = catalog.sweep_catalog(args.max_length)
    path = args.output or f"catalog.{args.format}"
    catalog.write_catalog(path, records, args.max_length, args.seed, fmt=args.format)
    print(f"{len(records)} entries -> {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    count, problems = catalog.verify_catalog(args.catalog)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"FAILED: {len(problems)} problem(s) in {count} record(s)", file=sys.stderr)
        return 1
    if count == 0:
        print("warning: 0 records")
    else:
        print(f"OK: {count} record(s) verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbcodex",
        description="Construct weight-4 generalized bicycle CSS codes and certify their distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code from generator polynomials")
    p.add_argument("--a", required=True, help="first generator, e.g. 1+x")
    p.add_argument("--b", required=True, help="second generator, e.g. 1+x^5")
    p.add_argument("--n", required=True, type=int, help="circulant size")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("distance", help="exact distance report for (alpha, n)")
    p.add_argument("--alpha", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("bound", help="lattice lower bound for (1+x^u, 1+x^v, n)")
    p.add_argument("--u", required=True, type=int)
    p.add_argument("--v", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="catalog all admissible lengths up to a bound")
    p.add_argument("--max-length", required=True, type=int)
    p.add_argument("--output", default=None, help="output path (default catalog.<format>)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=1,
                   help="label recorded in the JSON header; it does not change any entry")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="recheck every record of a written catalog")
    p.add_argument("catalog", help="path to a catalog file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1  # a RuntimeError is a broken invariant
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
