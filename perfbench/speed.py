"""The machine's speed during a run, for scaling wall times to a fixed speed.

On a shared virtual machine the same call can take 40% longer from one
minute to the next, with nothing in the program changed.  A fixed
pure-Python loop (big-integer shifts and XORs, like gbcodex's GF(2) rows)
slows down by the same factor, so it is timed every INTERVAL_S seconds, and
an op's wall time is multiplied by REFERENCE_S / (median loop time around
the op).  The median, because about 1% of samples take 1.5x to 10x the usual
time (the sampler was preempted mid-loop) and a mean over a window follows
them.

The loop runs in a separate interpreter that imports nothing of gbcodex, so
nothing the measured program does to its own process (tracing hooks, threads
holding the GIL, its memory) slows the divisor with it.  It shares the one
CPU the benchmark is pinned to: the speed that drifts is the CPU's, and a
loop on the other vCPU tracked it worse than no scaling at all.  The sampler
sleeps between samples, so the scheduler runs each 1 ms sample as soon as it
wakes, also while the measured program keeps that CPU busy.

    python3 perfbench/speed.py    # samples until stdin closes, then prints them as JSON
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import subprocess
import sys
from time import perf_counter

LOOP_STEPS = 3000
# About the loop's median time on the machine the benchmark was defined on
# (0.9 to 1.05 ms on a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11.7), so
# scaled times read close to wall times there; it only sets the scale.
REFERENCE_S = 0.001
INTERVAL_S = 0.1
# One 1 ms sample jitters by tens of percent while the machine's speed holds
# for seconds, so an op's window is widened by this much on each side to
# average about 20 samples even for a short op.
MARGIN_S = 1.0


def loop_time() -> float:
    start = perf_counter()
    x, mask = 1, (1 << 1024) - 1
    for i in range(LOOP_STEPS):
        x = (x << 1 ^ mask >> (i & 63)) & mask
    return perf_counter() - start


def sample_until_eof() -> None:
    """Time the loop every INTERVAL_S seconds until stdin closes; print {ends, durations}.

    Prints "ready" once the first sample is taken.  perf_counter is the
    system-wide monotonic clock on Linux, so the end times compare with the
    parent's.
    """
    ends, durations = [], []
    while True:
        durations.append(loop_time())
        ends.append(perf_counter())
        if len(ends) == 1:
            print("ready", flush=True)
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break
    json.dump({"ends": ends, "durations": durations}, sys.stdout)


class SpeedSampler:
    """Loop timings from a sampler process that runs while this is entered.

    The sampler measures the CPUs it may run on, so the measured process is
    pinned to one CPU (run.py does it); the sampler inherits the pinning.
    Its samples take about 1% of that CPU, which ops are not credited for.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter when each sample finished
        self.durations: list[float] = []
        self._child = None

    def __enter__(self) -> SpeedSampler:
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        if self._child.stdout.readline() != "ready\n":  # it starts before any op is timed
            self._child.communicate(timeout=60)
            raise RuntimeError(f"speed sampler did not start (exit {self._child.returncode})")
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._child.communicate(timeout=60)
        if self._child.returncode != 0:
            raise RuntimeError(f"speed sampler exited {self._child.returncode}")
        samples = json.loads(out)
        self.ends, self.durations = samples["ends"], samples["durations"]

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S / median loop time from MARGIN_S before start to MARGIN_S after end.

        Call it once sampling has ended.
        """
        lo = bisect.bisect_left(self.ends, start - MARGIN_S)
        hi = bisect.bisect_right(self.ends, end + MARGIN_S)
        window = self.durations[lo:hi] or self.durations[max(hi - 1, 0): hi or 1]
        return REFERENCE_S / statistics.median(window)


if __name__ == "__main__":
    sample_until_eof()
