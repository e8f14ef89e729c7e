"""Per-layer timing by wrapping gbcodex's public functions from outside.

Each wrapped function is one span.  A span's busy time is its wall time; its
self time is that minus the time covered by wrapped calls made inside it.
Spans are aggregated in memory per name (calls, busy, self) and read out when
the run ends.  Counters that need a call's arguments or result (matrix cells,
kernel vectors, candidates, methods) are taken by the same wrapper.

A function reached through a ``from ... import`` binding, for example
``catalog.determine``, is a different attribute from ``distance.determine``,
so every gbcodex module attribute bound to a wrapped function is replaced.
Targets missing from the library are skipped and listed in ``missing``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter


def _rref_cells(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return {"gf2matrix.rref.cells": m.num_rows * m.cols}


def _kernel_vectors(args, kwargs, result):
    stabilizers, logicals = args[0], args[1]
    return {"css.kernel_vectors": 2 ** (len(stabilizers) + len(logicals))}


def _faces_logical(args, kwargs, result):
    return {"torus_graph.is_sum_of_faces.logical": 0 if result else 1}


def _candidates(args, kwargs, result):
    return {"lattice.enumerate_short.candidates": len(result)}


def _method(args, kwargs, result):
    return {f"distance.method.{result.method}": 1}


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"catalog.bytes_written": os.path.getsize(path)}


# module -> [(attribute, counter)]; "Class.method" wraps a method in place.
TARGETS = {
    "gf2matrix": [
        ("circulant", None), ("hstack", None), ("transpose", None), ("mat_mul", None),
        ("mat_vec", None), ("rref", _rref_cells), ("kernel_basis", None),
    ],
    "gbcode": [("build", None), ("canonical_spec", None), ("dimension_formula", None)],
    "css": [
        ("new_css", None), ("dimension", None), ("is_logical_x", None),
        ("exhaustive_distance", None), ("min_weight_logical", None),
        ("logical_space", None), ("_min_logical_weight", _kernel_vectors),
    ],
    "lattice": [
        ("gauss_reduce", None), ("shortest_norm2", None),
        ("enumerate_short", _candidates), ("min_l1", None),
    ],
    "torus_graph": [
        ("TorusGraph.staircase", None), ("TorusGraph.is_sum_of_faces", _faces_logical),
    ],
    "distance": [
        ("determine", _method), ("lattice_lower_bound", None),
        ("upper_bound_certificate", None), ("parity_refined_lower", None),
    ],
    "arithmetic": [("is_admissible", None), ("sqrt_minus_one_all", None)],
    "catalog": [
        ("sweep_catalog", None), ("analyze_length", None),
        ("write_catalog", _bytes_written), ("verify_catalog", None),
    ],
    "cli": [("main", None), ("cmd_sweep", None), ("cmd_verify", None)],
}

LAYERS = tuple(TARGETS)


class Tracer:
    """Span and counter aggregates; records only while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, busy_s, self_s]
        self.counters = defaultdict(int)
        self.missing: list[str] = []
        self._child_time: list[float] = []

    def wrap(self, name: str, fn, counter=None):
        spans, counters, child_time = self.spans, self.counters, self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                span = spans[name]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - inner
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters[key] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in the imported gbcodex package; undo on exit."""
        undo = []
        try:
            for layer, targets in TARGETS.items():
                module = importlib.import_module(f"gbcodex.{layer}")
                for qualname, counter in targets:
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    original = owner.__dict__.get(attr) if owner is not None else None
                    if original is None:
                        self.missing.append(f"{layer}.{qualname}")
                        continue
                    wrapped = self.wrap(f"{layer}.{attr}", original, counter)
                    owners = [owner]
                    if not owner_name:
                        owners = [m for name, m in list(sys.modules.items())
                                  if name == "gbcodex" or name.startswith("gbcodex.")]
                    for holder in owners:
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, key, wrapped)
                                undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def busy(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def layer_self(self, layer: str) -> float:
        return sum((s[2] for name, s in self.spans.items() if name.startswith(layer + ".")), 0.0)
