"""The benchmark's workloads: seeded inputs, one operation each, and its check.

A workload has ``ops()`` (its generated inputs, in run order), ``run(op)``
(one call sequence into gbcodex, timed by the caller), ``check(op, out)``
(problems with the result, empty when correct), ``key(out)`` (what a rerun
of the same op must reproduce exactly) and ``summary(ops, outs)`` (a record
of the input mix).  ``trace_ops`` is the fixed number of ops a traced run
makes, so that its counts repeat exactly; ``min_ops`` is the fewest ops a
timed run makes.

gbcodex is reached through module attributes at call time (``cli.main``,
``distance.determine``...), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from time import perf_counter
from typing import NamedTuple

import reference as ref
from gbcodex import cli, css, distance, gbcode, gf2poly


class CatalogOp(NamedTuple):
    max_length: int
    seed: int


class Catalog:
    """``gbcodex sweep --max-length L`` then ``gbcodex verify`` on the file it wrote."""

    name = "catalog"
    trace_ops = 1
    min_ops = 2  # one op takes 14-20 s on a 2-vCPU 2.0 GHz Xeon VM; two make a median

    def __init__(self, seed: int, path: str, max_length: int = 1000) -> None:
        self.seed = seed
        self.max_length = max_length
        self.path = path
        self.lengths = ref.catalog_lengths(max_length)
        self.phases: list[tuple[float, float, float]] = []  # (start, sweep done, verify done) per op

    def ops(self) -> list[CatalogOp]:
        return [CatalogOp(self.max_length, self.seed)]

    def run(self, op: CatalogOp) -> dict:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            sweep_rc = cli.main(["sweep", "--max-length", str(op.max_length),
                                 "--seed", str(op.seed), "--output", self.path])
            mid = perf_counter()
            verify_rc = cli.main(["verify", self.path])
            end = perf_counter()
        self.phases.append((start, mid, end))
        with open(self.path, "rb") as f:
            data = f.read()
        return {"sweep_rc": sweep_rc, "verify_rc": verify_rc, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(), "bytes": data}

    def check(self, op: CatalogOp, out: dict) -> list[str]:
        problems = []
        if out["sweep_rc"] != 0:
            problems.append(f"sweep exited {out['sweep_rc']}")
        if out["verify_rc"] != 0 or out["stderr"]:
            problems.append(f"verify exited {out['verify_rc']}: {out['stderr'].strip()[:200]}")
        try:
            lines = out["bytes"].decode("utf-8").splitlines()
            header, records = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        except (UnicodeDecodeError, ValueError, IndexError) as exc:
            return problems + [f"catalog does not parse: {exc}"]
        if header.get("max_length") != op.max_length or header.get("seed") != op.seed:
            problems.append("catalog header does not match the sweep arguments")
        if f"OK: {len(records)} record(s) verified" not in out["stdout"]:
            problems.append(f"verify did not confirm {len(records)} records")
        if sorted(r.get("n") for r in records) != self.lengths:
            problems.append("catalog lengths differ from the admissible lengths")
        for r in records:
            try:
                n, alpha, d, cert = r["n"], r["alpha"], r["d"], r["certificate"]
                l1, _ = ref.lattice_minima(alpha, n)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"malformed record: {exc}")
                continue
            if r["k"] != 2:
                problems.append(f"n={n}: k={r['k']}, expected 2")
            if d != l1 or r["min_l1"] != l1:
                problems.append(f"n={n}: d={d} min_l1={r['min_l1']}, reference min L1 {l1}")
            if len(cert) != d or not ref.is_cycle(n, alpha, cert):
                problems.append(f"n={n}: certificate is not a cycle of weight d={d}")
        return problems

    def key(self, out: dict) -> bytes:
        return out["bytes"]

    def summary(self, ops: list, outs: list) -> dict:
        methods = Counter()
        if outs and outs[0] is not None:
            for line in outs[0]["bytes"].decode("utf-8", "replace").splitlines()[1:]:
                with contextlib.suppress(ValueError, KeyError):
                    methods[json.loads(line)["method"]] += 1
        return {"ops": len(ops), "max_length": self.max_length, "sweep_seed": self.seed,
                "n_range": [self.lengths[0], self.lengths[-1]], "entries": len(self.lengths),
                "methods": dict(sorted(methods.items()))}


def _van_der_corput(i: int) -> float:
    """Base-2 radical inverse: any prefix of i = 0, 1, 2, ... spreads evenly over [0, 1)."""
    x, scale = 0.0, 0.5
    while i:
        if i & 1:
            x += scale
        i >>= 1
        scale /= 2
    return x


class DetermineOp(NamedTuple):
    alpha: int
    n: int
    closed: bool  # lattice lower bounds alone reach the minimum L1 norm


class Determine:
    """``determine(alpha, n)`` with n in [256, 1024] and alpha in [2, n - 2].

    Latency grows about as n^2 and the pairs whose lattice bounds already
    meet the certificate skip the GF(2) work, so a plain uniform draw makes
    the median swing by a quarter between seeds.  The draw is stratified
    instead: in every 8 ops, 2 pairs whose bounds meet (about the share a
    uniform draw gives) and 6 whose bounds do not, with n for each kind
    running through a shifted van der Corput sequence so any prefix covers
    the range evenly.  alpha is uniform among the values of that kind.
    """

    name = "determine"
    trace_ops = 32
    min_ops = 1
    pattern = (True, True, False, False, False, False, False, False)

    def __init__(self, seed: int, count: int = 512, n_range: tuple[int, int] = (256, 1024)) -> None:
        self.seed = seed
        self.count = count
        self.n_range = n_range

    def ops(self) -> list[DetermineOp]:
        rng = random.Random(self.seed)
        lo, hi = self.n_range
        shift = {kind: rng.random() for kind in (True, False)}
        drawn = Counter()
        out = []
        for i in range(self.count):
            kind = self.pattern[i % len(self.pattern)]
            u = (_van_der_corput(drawn[kind]) + shift[kind]) % 1.0
            drawn[kind] += 1
            n = lo + int(u * (hi - lo + 1))
            alpha = rng.randint(2, n - 2)
            while ref.lattice_bounds_meet(alpha, n) != kind:  # both kinds occur for every n >= 256
                alpha = rng.randint(2, n - 2)
            out.append(DetermineOp(alpha, n, kind))
        return out

    def run(self, op: DetermineOp):
        return distance.determine(op.alpha, op.n)

    def check(self, op: DetermineOp, report) -> list[str]:
        problems = []
        tag = f"alpha={op.alpha} n={op.n}"
        if (report.alpha, report.n) != (op.alpha, op.n):
            problems.append(f"{tag}: report is for alpha={report.alpha} n={report.n}")
        if report.k != 2:
            problems.append(f"{tag}: k={report.k}, expected 2")
        if report.lower_bound > report.upper_bound:
            problems.append(f"{tag}: lower {report.lower_bound} > upper {report.upper_bound}")
        l1, _ = ref.lattice_minima(op.alpha, op.n)
        if not report.upper_bound == l1 == len(report.certificate):
            problems.append(f"{tag}: upper {report.upper_bound}, certificate weight "
                            f"{len(report.certificate)}, reference min L1 {l1}")
        if not ref.is_cycle(op.n, op.alpha, report.certificate):
            problems.append(f"{tag}: certificate is not a cycle")
        return problems

    def key(self, report):
        return report

    def summary(self, ops: list, outs: list) -> dict:
        return {"ops": len(ops), "distinct_pairs": len(set(ops)),
                "n_range": [min(op.n for op in ops), max(op.n for op in ops)],
                "bounds_meet": sum(op.closed for op in ops),
                "methods": dict(sorted(Counter(r.method for r in outs if r is not None).items()))}


class OracleOp(NamedTuple):
    u: int
    v: int
    n: int
    kernel_dim: int


class Oracle:
    """Exact distance of (1 + x^u, 1 + x^v, n), n in [18, 25], by exhaustive sweep.

    One op builds the code and sweeps the kernels of h_x and h_z.  Its cost
    is about 2^kernel_dim and, within a dimension, depends on n and
    g = gcd(u, v, n) (kernel_dim = n + g, k = 2g).  So ops cycle through
    kernel dimensions 20..26 in equal shares, each dimension's ops cycle
    through its (n, g) classes, and only the pair u < v is drawn at random
    within the class; the median and tail then stay put when the seed
    changes the codes.
    """

    name = "oracle"
    trace_ops = 140
    min_ops = 1

    def __init__(self, seed: int, count: int = 448, n_range: tuple[int, int] = (18, 25),
                 dims: tuple[int, ...] = tuple(range(20, 27))) -> None:
        self.seed = seed
        self.count = count
        self.dims = dims
        self.classes = {d: {} for d in dims}  # dim -> (n, g) -> ops
        for n in range(n_range[0], n_range[1] + 1):
            for u in range(1, n):
                for v in range(u + 1, n):
                    dim = ref.kernel_dimension(u, v, n)
                    if dim in self.classes:
                        self.classes[dim].setdefault((n, dim - n), []).append(OracleOp(u, v, n, dim))

    def ops(self) -> list[OracleOp]:
        rng = random.Random(self.seed)
        out = []
        for i in range(self.count):
            by_class = self.classes[self.dims[i % len(self.dims)]]
            keys = sorted(by_class)
            out.append(rng.choice(by_class[keys[i // len(self.dims) % len(keys)]]))
        return out

    def run(self, op: OracleOp) -> tuple:
        one = gf2poly.BinaryPolynomial.from_support
        code = gbcode.build(gbcode.GbSpec(one([0, op.u]), one([0, op.v]), op.n))
        return css.exhaustive_distance(code, "X"), css.exhaustive_distance(code, "Z")

    def check(self, op: OracleOp, out: tuple) -> list[str]:
        d_x, d_z = out
        tag = f"u={op.u} v={op.v} n={op.n}"
        if d_x is None or d_x != d_z:
            return [f"{tag}: d_X={d_x} d_Z={d_z}"]
        alpha = ref.canonical_alpha(op.u, op.v, op.n)
        if alpha is not None:
            l1, norm2 = ref.lattice_minima(alpha, op.n)
            if not ref.ceil_sqrt(norm2) <= d_x <= l1:
                return [f"{tag}: d={d_x} outside lattice bounds [{ref.ceil_sqrt(norm2)}, {l1}]"]
        return []

    def key(self, out: tuple) -> tuple:
        return out

    def summary(self, ops: list, outs: list) -> dict:
        return {"ops": len(ops), "distinct_codes": len(set(ops)),
                "n_range": [min(op.n for op in ops), max(op.n for op in ops)],
                "kernel_dim_histogram": dict(sorted(Counter(op.kernel_dim for op in ops).items())),
                "k_histogram": dict(sorted(Counter(2 * (op.kernel_dim - op.n) for op in ops).items())),
                "canonicalizable": sum(ref.canonical_alpha(op.u, op.v, op.n) is not None for op in ops)}


WORKLOADS = {"catalog": Catalog, "determine": Determine, "oracle": Oracle}
