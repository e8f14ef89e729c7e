"""gbcodex benchmark: one workload, one process, one call at a time.

    python3 perfbench/run.py --workload catalog|determine|oracle \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gbcodex from ./src.
Inputs come from the seed alone.  Every result is checked, and an op that
raises or fails its check counts as failed.

With --trace 0 the workload repeats for about S seconds and the end-to-end
metrics are printed.  With --trace 1 a fixed number of ops runs once
untraced and once with the layer wrappers of tracer.py, the two sets of
outputs must be identical, and the per-layer metrics are printed.

The last line of stdout is the result, one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it records
the environment and the input mix.  GBCODEX_THREADS is removed from the
environment so sweeps stay in this process, and the process pins itself to
one CPU, which the speed sampler of speed.py shares.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The metric names and units are those BENCHMARK.json declares; the values
# come from main (end to end) and per_layer_metrics.
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def per_layer_metrics(tracer: tracing.Tracer, overhead_s: float, scale: float) -> dict:
    """Every PER_LAYER value from the tracer's aggregates; 0 for layers not reached.

    Times are multiplied by ``scale``, the traced ops' speed factor.
    """
    values = {"trace.overhead_s": overhead_s}
    for name in PER_LAYER:
        if name in values:
            continue
        head, _, stat = name.rpartition(".")
        if stat == "self_s" and head in tracing.LAYERS:
            values[name] = scale * tracer.layer_self(head)
        elif stat == "self_s":
            values[name] = scale * tracer.self_time(head)
        elif stat == "busy_s":
            values[name] = scale * tracer.busy(head)
        elif stat == "calls":
            values[name] = tracer.calls(head)
        else:
            values[name] = tracer.counters.get(name, 0)
    vectors_busy = values["css.min_weight_logical.busy_s"]
    values["css.kernel_vectors_per_s"] = values["css.kernel_vectors"] / vectors_busy if vectors_busy else 0.0
    tried = tracer.calls("torus_graph.is_sum_of_faces")
    logical = tracer.counters.get("torus_graph.is_sum_of_faces.logical", 0)
    values["torus_graph.certificate_yield"] = logical / tried if tried else 0.0
    return values


def measure_setup(repeats: int = 11) -> tuple[float, float]:
    """Median time from starting a fresh interpreter until ``import gbcodex`` returns.

    Returns (scaled to the reference speed, raw wall seconds).
    """
    env = {k: v for k, v in os.environ.items() if k != "GBCODEX_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    code = "import gbcodex, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    raw, spans = [], []
    with speed.SpeedSampler() as sampler:
        for _ in range(repeats):
            start = perf_counter()
            with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, text=True) as child:
                ready = child.stdout.readline()
                end = perf_counter()
                child.communicate(timeout=120)
            if ready != "ready\n" or child.returncode != 0:
                raise RuntimeError(f"importing gbcodex in a fresh interpreter failed (exit {child.returncode})")
            raw.append(end - start)
            spans.append((start, end))
    scaled = [r * sampler.scale(*span) for r, span in zip(raw, spans)]
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer no such percentile exists and the maximum is used.
    """
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


class Run:
    """Ops attempted so far, with failures, outputs and times.

    ``raw`` holds each op's wall seconds; ``latencies()`` scales them to the
    reference machine speed.
    """

    def __init__(self, workload, sampler: speed.SpeedSampler) -> None:
        self.workload = workload
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops: list = []
        self.outs: list = []
        self.raw: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.first_key: dict = {}

    def step(self, index: int, op, tracer=None) -> None:
        """Run one op, time it, check it, and compare it with earlier runs of the same op."""
        self.attempted += 1
        self.ops.append(op)
        out, problems = None, []
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            out = self.workload.run(op)
        except Exception as exc:  # a failed op is recorded and the run goes on
            problems.append(f"{op}: raised {type(exc).__name__}: {exc}")
        finally:
            end = perf_counter()
            if tracer is not None:
                tracer.active = False
        self.raw.append(end - start)
        self.spans.append((start, end))
        self.outs.append(out)
        if tracer is not None and tracer.missing:
            # a per-layer metric of a function that is gone would read 0, as if it were free
            problems.append(f"{op}: gbcodex functions not wrapped: {', '.join(tracer.missing)}")
        if not problems:
            problems = self.workload.check(op, out)
            key = self.workload.key(out)
            if self.first_key.setdefault(index, key) != key:
                problems.append(f"{op}: output differs from an earlier run of the same op")
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def latencies(self) -> list[float]:
        """Each op's raw seconds at the reference speed; call once sampling has ended."""
        return [raw * self.sampler.scale(*span) for raw, span in zip(self.raw, self.spans)]


def run_timed(workload, seconds: float) -> Run:
    """Repeat the op list for about ``seconds``: after ``workload.min_ops`` ops,
    stop when another op of average length would overrun."""
    ops = workload.ops()
    with speed.SpeedSampler() as sampler:
        run = Run(workload, sampler)
        start = perf_counter()
        i = 0
        while True:
            run.step(i % len(ops), ops[i % len(ops)])
            i += 1
            elapsed = perf_counter() - start
            if i >= workload.min_ops and elapsed + elapsed / i > seconds:
                return run


def run_traced(workload, tracer: tracing.Tracer) -> Run:
    """The first ``trace_ops`` ops untraced, then the same ops traced (the second half of the run)."""
    ops = workload.ops()[: workload.trace_ops]
    with speed.SpeedSampler() as sampler:
        run = Run(workload, sampler)
        for i, op in enumerate(ops):
            run.step(i, op)
        with tracer.installed():
            for i, op in enumerate(ops):
                run.step(i, op, tracer)
    return run


def environment(threads: str | None) -> dict:
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        commit = ref
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "GBCODEX_THREADS": threads,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "catalog":
        return workloads.Catalog(seed, str(workdir / "catalog.ndjson"))
    return workloads.WORKLOADS[name](seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "determine", "oracle"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gbcodex" / "__init__.py").is_file():
        print(f"error: no gbcodex sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    threads = os.environ.pop("GBCODEX_THREADS", None)
    # The speed sampler must share the CPU it measures, and a process's threads
    # cannot leave it, so one CPU runs the benchmark, its children and the sampler.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import gbcodex

    if Path(gbcodex.__file__).resolve().parent != SRC / "gbcodex":
        print(f"error: imported gbcodex from {gbcodex.__file__}, not {SRC}", file=sys.stderr)
        return 2

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        if args.trace:
            tracer = tracing.Tracer()
            run = run_traced(workload, tracer)
            latencies = run.latencies()
            half = len(latencies) // 2
            untraced_s, traced_s = sum(latencies[:half]), sum(latencies[half:])
            scale = traced_s / sum(run.raw[half:])
            values = per_layer_metrics(tracer, traced_s - untraced_s, scale)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
            core = sum(tracer.layer_self(layer) for layer in ("gbcode", "gf2matrix", "css"))
            info["gbcode_gf2matrix_css_self_share"] = core / sum(map(tracer.layer_self, tracing.LAYERS))
        else:
            setup_s, raw_setup_s = measure_setup()
            run = run_timed(workload, args.seconds)
            latencies = run.latencies()
            tail_value, tail_pct = tail(latencies)
            values = {
                "setup_s": setup_s,
                "op_p50_ms": 1000 * statistics.median(latencies),
                "op_tail_ms": 1000 * tail_value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": (run.attempted - run.failed) / run.attempted,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            info["tail_percentile"] = tail_pct
            info["raw_wall"] = {"setup_s": raw_setup_s, "op_p50_ms": 1000 * statistics.median(run.raw),
                                "op_tail_ms": 1000 * tail(run.raw)[0]}
        info["speed_scale_p50"] = statistics.median(s / r for s, r in zip(latencies, run.raw))
        if args.workload == "catalog":
            info["sweep_s"] = [(mid - a) * run.sampler.scale(a, mid) for a, mid, _ in workload.phases]
            info["verify_s"] = [(b - mid) * run.sampler.scale(mid, b) for _, mid, b in workload.phases]
            if args.trace:
                info["sweep_trace_overhead_s"] = info["sweep_s"][1] - info["sweep_s"][0]
        info["inputs"] = workload.summary(run.ops, run.outs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    info["environment"] = environment(threads)
    info["problems"] = run.problems[:20]

    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
