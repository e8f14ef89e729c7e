"""The library names that the benchmark in perfbench/ reaches must stay.

perfbench/tracer.py wraps every (module, function) pair in its TARGETS, and a
target missing from gbcodex fails every traced benchmark op.  The benchmark's
checks also read DistanceReport fields and rebuild reports with
``dataclasses.replace``.  The tracer is imported here read-only.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

from gbcodex.distance import DistanceReport, determine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
