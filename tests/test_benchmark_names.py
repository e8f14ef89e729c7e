"""The library names that the benchmark in perfbench/ reaches must stay.

perfbench/tracer.py wraps every (module, function) pair in its TARGETS, and a
target missing from gbcodex fails every traced benchmark op.  The benchmark's
checks also read DistanceReport fields and rebuild reports with
``dataclasses.replace``.  The tracer is imported here read-only.
"""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

from gbcodex.distance import DistanceReport, determine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def load_targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer").TARGETS
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_resolves():
    missing = []
    for layer, targets in load_targets().items():
        module = importlib.import_module(f"gbcodex.{layer}")
        for qualname, _ in targets:
            # resolved as the tracer does: the attribute must live on its owner itself
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{layer}.{qualname}")
    assert missing == []


def test_distance_report_fields_read_by_the_benchmark():
    assert dataclasses.is_dataclass(DistanceReport)
    assert {"k", "lower_bound", "upper_bound", "certificate"} <= {f.name for f in dataclasses.fields(DistanceReport)}
    assert determine(2, 5).method == "sandwich-closed"


def test_package_shows_the_tracer_wrapper_only_while_installed():
    # a fresh interpreter, so that gbcodex.determine is first read inside the traced window
    script = f"""
import sys
sys.path.insert(0, {str(PERFBENCH)!r})
import gbcodex
from gbcodex import distance
from tracer import Tracer
original = distance.determine
with Tracer().installed():
    assert gbcodex.determine is distance.determine, "the package and distance differ while traced"
    assert gbcodex.determine is not original and gbcodex.determine.__wrapped__ is original
assert distance.determine is original
assert gbcodex.determine is original, "the package kept the tracer's wrapper"
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
