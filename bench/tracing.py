"""Outside-in tracer for the benchmark's traced run.

The program is not edited.  Each traced function is replaced, in the module
namespace where its caller looks the name up, by a wrapper that records a
span ``(name, start, end, parent, counts)``.  ``counts`` are work counts
computed from argument and result shapes (labelled computed: they ignore
cache misses and temporaries other than the one named).  Spans stay in
memory while cells run and are written out at the end; self times are
derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# Module whose namespace binds the name -> names looked up there.
TRACED = {
    "poissonpolymer.cli": (
        "quenched_free_energy", "annealed_free_energy", "dp_dbeta", "dp_dnu",
        "dp_dnu_fd", "localization_scan"),
    "poissonpolymer.estimators": (
        "sample_paths", "sample_poisson", "build_ensemble", "occupancy_field",
        "assert_two_to_one", "replica_overlap", "favourite_path",
        "favourite_overlap", "delta_sets", "substream", "count_in_tube",
        "superpose"),
    "poissonpolymer.polymer": ("batch_tube_counts",),
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if index < len(args) else default


def _path_bytes(paths) -> int:
    if hasattr(paths, "nbytes"):
        return int(paths.nbytes)
    return sum(int(p.positions.nbytes) for p in paths)


def _tube_counts(args, kwargs, result):
    cloud = _arg(args, kwargs, 0, "cloud")
    positions = _arg(args, kwargs, 1, "positions")
    t = _arg(args, kwargs, 2, "t")
    live = int((cloud.times <= t).sum())
    return {"ball_tests": positions.shape[0] * live, "hits": int(result.sum())}


def _field_counts(args, kwargs, result):
    ens = _arg(args, kwargs, 0, "ensemble")
    h = _arg(args, kwargs, 1, "h")
    n, bins = result.values.shape
    m, d = ens.positions.shape[0], ens.positions.shape[2]
    return {"ball_tests": n * m * bins,
            "useful_ratio": 1.0 / (h ** d * bins),
            "field_bytes": int(result.values.nbytes),
            # the dense kernel's float64 (M, d, B) difference array of one slab
            "slab_bytes": m * d * bins * 8}


def _substream_counts(args, kwargs, result):
    return {"tag": _arg(args, kwargs, 1, "tag"),
            "replicate": [_arg(args, kwargs, 0, "master_seed"),
                          _arg(args, kwargs, 2, "index", 0)]}


COUNTERS = {
    "polymer.sample_paths": lambda a, k, r: {"bytes": _path_bytes(r)},
    "environment.sample_poisson": lambda a, k, r: {"points": int(r.n_points)},
    "environment.batch_tube_counts": _tube_counts,
    "polymer.occupancy_field": _field_counts,
    "polymer.assert_two_to_one": lambda a, k, r: {"min_slack": float(r.min_slack())},
    "polymer.build_ensemble": lambda a, k, r: {"ess": float(r.ess)},
    "streams.substream": _substream_counts,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._originals: list = []
        self.missing: list[str] = []  # traced names the program no longer has

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if counter is not None:
                spans[idx] = (name, start, end, parent, counter(args, kwargs, result))
            return result

        return traced

    def __enter__(self):
        self.missing = []
        for mod_name, attrs in TRACED.items():
            module = importlib.import_module(mod_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name(fn), fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")


def layer_totals(spans) -> dict:
    """Per span name: calls, self seconds and the lists of computed counts.

    A span's self time is its duration minus the time its child spans
    cover; children never overlap because the program is synchronous.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "counts": []})
    for (name, start, end, _, counts), covered in zip(spans, child):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered
        if counts is not None:
            entry["counts"].append(counts)
    return totals
