"""Self-test of the benchmark: tiny workloads pass, corrupted results are caught.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and requires no
failures, identical outputs with tracing on and off, and counts that repeat
exactly.  Then it feeds each workload's check a deliberately corrupted
result (a distance off by one, a certificate edge dropped, one catalog byte
flipped...) and requires each to be counted as a failed op, as must every
traced op when a traced function is missing from gbcodex.  Exits 1 on the
first unmet expectation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
import time

import run
import speed

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs gbcodex on the path)
from gbcodex import cli  # noqa: E402

CHECKED = 0


def expect(condition: bool, message: str) -> None:
    global CHECKED
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)
    CHECKED += 1


def tiny_workloads(seed: int, workdir: str) -> list:
    return [
        workloads.Catalog(seed, os.path.join(workdir, "catalog.ndjson"), max_length=60),
        workloads.Determine(seed, count=8, n_range=(64, 127)),
        workloads.Oracle(seed, count=3, n_range=(10, 12), dims=(11, 12, 13)),
    ]


class CorruptSecond:
    """The wrapped workload, except that the second run of an op returns corrupt(output)."""

    def __init__(self, workload, corrupt) -> None:
        self.workload, self.corrupt, self.calls = workload, corrupt, 0

    def run(self, op):
        self.calls += 1
        out = self.workload.run(op)
        return self.corrupt(out) if self.calls == 2 else out

    def __getattr__(self, name):
        return getattr(self.workload, name)


def caught(workload, corrupt) -> bool:
    """True when an honest run passes and a corrupted rerun of the same op fails."""
    op = workload.ops()[0]
    with speed.SpeedSampler() as sampler:
        trial = run.Run(CorruptSecond(workload, corrupt), sampler)
        trial.step(0, op)
        honest_failed = trial.failed
        trial.step(0, op)
    return honest_failed == 0 and trial.failed == 1


def edit_catalog(out: dict, edit) -> dict:
    """The catalog output with edit(record) applied to its last record."""
    lines = out["bytes"].decode().splitlines()
    record = json.loads(lines[-1])
    edit(record)
    lines[-1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return {**out, "bytes": ("\n".join(lines) + "\n").encode()}


def flip_byte(out: dict) -> dict:
    data = bytearray(out["bytes"])
    i = data.rindex(b'"tag":"') + len(b'"tag":"')  # a byte no field check reads
    data[i] ^= 0x01
    return {**out, "bytes": bytes(data)}


def test_tiny_runs(workdir: str) -> None:
    for workload in tiny_workloads(7, workdir):
        timed = run.run_timed(workload, 0.5)
        expect(timed.attempted >= 1 and timed.failed == 0,
               f"{workload.name}: untraced tiny run failed: {timed.problems[:3]}")
        counts = []
        for _ in range(2):
            tracer = run.tracing.Tracer()
            traced = run.run_traced(workload, tracer)
            expect(traced.failed == 0, f"{workload.name}: traced tiny run differs or fails: {traced.problems[:3]}")
            expect(not tracer.missing, f"{workload.name}: targets not wrapped: {tracer.missing}")
            values = run.per_layer_metrics(tracer, 0.0, 1.0)
            expect(set(values) == set(run.PER_LAYER), f"{workload.name}: per-layer metric names")
            counts.append({k: v for k, v in values.items() if run.PER_LAYER[k] == "count"})
        expect(counts[0] == counts[1], f"{workload.name}: per-layer counts do not repeat")
        expect(cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__"),
               "tracer left a wrapper installed")
        spans = {"catalog": "catalog.analyze_length.calls", "determine": "distance.determine.calls",
                 "oracle": "css.min_weight_logical.calls"}
        expect(counts[0][spans[workload.name]] > 0, f"{workload.name}: {spans[workload.name]} is 0 when traced")


def test_missing_target(workdir: str) -> None:
    workload = tiny_workloads(7, workdir)[1]
    run.tracing.TARGETS["css"].append(("no_such_function", None))
    try:
        traced = run.run_traced(workload, run.tracing.Tracer())
    finally:
        run.tracing.TARGETS["css"].pop()
    expect(traced.failed == traced.attempted // 2 > 0, "traced ops pass although a target is not wrapped")


def test_corruptions(workdir: str) -> None:
    catalog, determine, oracle = tiny_workloads(7, workdir)

    def d_off_by_one(record):
        record["d"] += 1

    def drop_certificate_edge(record):
        record["certificate"] = record["certificate"][1:]

    expect(caught(catalog, lambda out: edit_catalog(out, d_off_by_one)), "catalog: d off by one")
    expect(caught(catalog, lambda out: edit_catalog(out, drop_certificate_edge)), "catalog: certificate edge dropped")
    expect(caught(catalog, flip_byte), "catalog: one byte flipped")
    expect(caught(catalog, lambda out: {**out, "verify_rc": 1, "stderr": "line 2: d mismatch"}),
           "catalog: verify reporting a problem")

    path = catalog.path
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[data.rindex(b'"d":') + 4] ^= 0x01  # the stored distance of the last record
    with open(path, "wb") as f:
        f.write(data)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["verify", path])
    expect(rc == 1, "verify accepts a catalog with one byte flipped in d")

    replace = dataclasses.replace
    expect(caught(determine, lambda r: replace(r, upper_bound=r.upper_bound + 1)), "determine: upper off by one")
    expect(caught(determine, lambda r: replace(r, certificate=r.certificate[1:])), "determine: certificate edge dropped")
    expect(caught(determine, lambda r: replace(r, k=4)), "determine: wrong k")
    expect(caught(determine, lambda r: replace(r, lower_bound=r.upper_bound + 1)), "determine: lower above upper")

    expect(caught(oracle, lambda out: (out[0], out[1] + 1)), "oracle: d_Z off by one")
    expect(caught(oracle, lambda out: (out[0] + 1, out[1] + 1)), "oracle: both sides off by one")
    expect(caught(oracle, lambda out: (None, None)), "oracle: infinite distance")


def test_helpers() -> None:
    expect(run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0), "tail of 100 samples")
    expect(run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0), "tail of 3 samples is the maximum")
    with speed.SpeedSampler() as sampler:
        time.sleep(3 * speed.INTERVAL_S)
    expect(len(sampler.ends) >= 2 and sampler.ends == sorted(sampler.ends)
           and all(d > 0 for d in sampler.durations), "speed sampler process returns its samples")
    m, ref = speed.MARGIN_S, speed.REFERENCE_S
    sampler.ends, sampler.durations = [m, 5 * m, 5.5 * m, 6 * m, 10 * m], [0.5, 1.0, 1.5, 5.0, 4.0]
    expect(sampler.scale(4.5 * m, 5.5 * m) == ref / 1.5, "speed scale takes the median of the samples within the margin")
    expect(sampler.scale(7.5 * m, 8.5 * m) == ref / 5.0, "speed scale with no sample in reach uses the one before")
    expect(sampler.scale(12 * m, 13 * m) == ref / 4.0, "speed scale falls back to the last sample")
    expect(sampler.scale(-5 * m, -4 * m) == ref / 0.5, "speed scale before any sample uses the first")
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS), "workload names")


def main() -> int:
    workdir = run.ROOT / ".perfbench_run" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        test_helpers()
        test_tiny_runs(str(workdir))
        test_missing_target(str(workdir))
        test_corruptions(str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print(f"selftest: {CHECKED} expectations met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
