"""Spans and counters around the public functions of ``rfree``'s modules.

Loaded only by the traced run.  ``Tracer.install`` replaces every public
function of the layers below, wherever the package has bound it, with a
wrapper that records a span (name, start, end, parent) and the counters of
that call; ``uninstall`` puts the originals back.  A generator function
gets one span per item it produces, so the consumer's time between items
is not charged to it.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from oracles import int_root

LAYERS = ("sieve", "harness", "progressions", "multiplicative", "residues", "cli")

# Functions whose arguments or results feed a counter.
_BOUND_ARGS = {"sieve.build_sieve", "harness.class_counts", "progressions.decompose"}


def _table_bytes(table) -> int:
    arrays = (table.mu, table.spf, table.omega, table.phi, *table.mu_r.values())
    return sum(a.nbytes for a in arrays)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, args, result) -> None:
        c = self.counters
        if name in ("sieve.build_sieve", "sieve.load_cache"):
            c["sieve.table_bytes"] = max(c["sieve.table_bytes"], _table_bytes(result))
            if name == "sieve.build_sieve":
                c["sieve.build_n"] += args["limit"]
        elif name == "harness.class_counts":
            c["harness.flag_bytes_scanned"] += args["x"]  # one uint8 flag per n
        elif name == "progressions.decompose":
            g = math.gcd(args["l"], args["k"])
            c["progressions.d_terms"] += int_root(args["x"] // g, args["r"])
        elif name == "multiplicative.tau_table":
            c["multiplicative.tau_table_bytes"] += result.tau.nbytes
        elif name == "residues.per_modulus_maxima":
            c["residues.moduli_swept"] += 1

    def _wrap(self, name: str, fn):
        calls = f"{name}:calls"
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.counters[calls] += 1
                items = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self._count(name, None, item)
                    yield item

            return gen_wrapper

        sig = inspect.signature(fn) if name in _BOUND_ARGS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[calls] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            self._count(name, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"rfree.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (sys.modules["rfree"], *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i]}) + "\n")

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, per traced pass."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0

        def child_time(mask):
            sel = has_parent & mask
            return np.bincount(parents[sel], weights=dur[sel], minlength=len(dur))

        self_time = dur - child_time(np.ones(len(dur), dtype=bool))
        layer = np.array([n.split(".")[0] for n in self.names], dtype=object)

        def total(name):
            return float(dur[names == name].sum()) / passes

        def calls(name):
            return self.counters[f"{name}:calls"] / passes

        c = self.counters
        modulus = names == "harness.max_error_for_modulus"
        modulus_ms = sorted(dur[modulus] * 1e3)
        if len(modulus_ms) >= 2:
            cut = statistics.quantiles(modulus_ms, n=10)
        else:
            cut = (modulus_ms or [0.0]) * 9
        main_terms = dur - child_time(names == "harness.class_counts")
        build_s = total("sieve.build_sieve")
        build_n = c["sieve.build_n"] / passes
        out = {
            "sieve.build_s": (build_s, "s"),
            "sieve.build_ns_per_n": (build_s / build_n * 1e9 if build_n else 0.0, "ns"),
            "sieve.table_bytes": (c["sieve.table_bytes"], "bytes"),
            "sieve.cache_save_s": (total("sieve.save_cache"), "s"),
            "sieve.cache_load_s": (total("sieve.load_cache"), "s"),
            "harness.class_counts_s": (total("harness.class_counts"), "s"),
            "harness.class_counts_calls": (calls("harness.class_counts"), "count"),
            "harness.flag_bytes_scanned": (c["harness.flag_bytes_scanned"] / passes, "bytes"),
            "harness.modulus_p50_ms": (cut[4], "ms"),
            "harness.modulus_p90_ms": (cut[8], "ms"),
            "harness.main_terms_s": (float(main_terms[modulus].sum()) / passes, "s"),
            "progressions.decompose_s": (total("progressions.decompose"), "s"),
            "progressions.decompose_calls": (calls("progressions.decompose"), "count"),
            "progressions.d_terms": (c["progressions.d_terms"] / passes, "count"),
            "progressions.lemma_probe_s": (total("progressions.lemma_bound_probe"), "s"),
            "progressions.count_scan_s": (total("progressions.count_r_free_in_progression"), "s"),
            "multiplicative.tau_table_s": (total("multiplicative.tau_table"), "s"),
            "multiplicative.tau_table_bytes": (c["multiplicative.tau_table_bytes"] / passes, "bytes"),
            "multiplicative.f_value_calls": (calls("multiplicative.f_value"), "count"),
            "multiplicative.f_value_s": (total("multiplicative.f_value"), "s"),
            "residues.maxima_s": (total("residues.per_modulus_maxima"), "s"),
            "residues.bound_sweep_s": (total("residues.bound_sweep"), "s"),
            "residues.moduli_swept": (c["residues.moduli_swept"] / passes, "count"),
            "cli.overhead_s": (float(self_time[layer == "cli"].sum()) / passes, "s"),
        }
        for name in LAYERS[:-1]:
            out[f"{name}.self_s"] = (float(self_time[layer == name].sum()) / passes, "s")
        return out
