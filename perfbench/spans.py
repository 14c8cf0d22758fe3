"""Spans recorded from the benchmark's own files, around calls into each
layer of the msetsim package.

A span is (name, start, end, parent, request id).  Spans are kept in flat
arrays while the run lasts and turned into per-layer metrics, or written
out, when it ends.  A span name is ``<layer>.<what>``; the layer is the
package module the call enters.

Names are wrapped where they are looked up: ``msetsim.indices`` looks up
``aggregate``/``kernel``/``abs_mass`` in its own globals, ``sliding`` keeps
its scorers in the ``_SCORERS`` dict, ``cli`` reaches ``fields`` and ``io``
through module attributes.  Per-cell callables in ``fields`` are left alone:
a span per grid cell would cost more than the cell.
"""

import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

MATCH, PAIR, SURFACE = "match_scan", "pair_batch", "surface_export"

# The per-layer metrics (names and units are in BENCHMARK.json) and, for
# each, the workloads on which it is predicted to read 0 because they never
# enter its layer.  Time spent in msetops.kernel inside fields is not
# wrapped, so it counts in fields time and msetops.self_ms reads 0 on
# surface_export.
_ONLY_MATCH = (PAIR, SURFACE)
_ONLY_PAIR = (MATCH, SURFACE)
_ONLY_SURFACE = (MATCH, PAIR)
_NOT_SURFACE = (SURFACE,)
IDLE_ON = {
    "sliding.calls": _ONLY_MATCH,
    "sliding.windows": _ONLY_MATCH,
    "sliding.degenerate_windows": _ONLY_MATCH,
    "sliding.self_ms": _ONLY_MATCH,
    "indices.calls": _NOT_SURFACE,
    "indices.busy_ms": _NOT_SURFACE,
    "indices.self_ms": _NOT_SURFACE,
    "stats.calls": _NOT_SURFACE,
    "stats.busy_ms": _NOT_SURFACE,
    "stats.self_ms": _NOT_SURFACE,
    "msetops.aggregate_calls": _NOT_SURFACE,
    "msetops.kernel_evals": (),
    "msetops.self_ms": _NOT_SURFACE,
    "msetops.signals_built": _NOT_SURFACE,
    "msetops.signal_build_ms": _NOT_SURFACE,
    "fields.calls": _ONLY_SURFACE,
    "fields.cells": _ONLY_SURFACE,
    "fields.busy_ms_threads1": _ONLY_SURFACE,
    "fields.busy_ms_threads2": _ONLY_SURFACE,
    "io.rows_read": _ONLY_PAIR,
    "io.bytes_read": _ONLY_PAIR,
    "io.read_ms": _ONLY_PAIR,
    "io.bytes_written": _ONLY_SURFACE,
    "io.write_ms": _ONLY_SURFACE,
    "cli.self_ms": _ONLY_SURFACE,
    "trace.overhead_frac": (),
}


class Tracer:
    """In-memory span store plus the exact work counters of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.rid = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request = -1
        self.counts = {"kernel_evals": 0, "windows": 0, "degenerate_windows": 0,
                       "cells": 0, "rows_read": 0, "bytes_read": 0, "bytes_written": 0}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span that may hold child spans."""
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.rid.append(self.request)
        self.end.append(0.0)
        self.stack.append(i)
        t0 = perf_counter()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; ``after(args, result)`` updates the counters."""
        def wrapped(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapped

    def leaf(self, name: str, fn, after=None):
        """A cheaper span for callables that enter no other wrapped name,
        used for the per-window and per-pair msetops calls."""
        nid = self._id(name)
        names, parents, rids, starts, ends, stack = (
            self.name, self.parent, self.rid, self.start, self.end, self.stack)

        def wrapped(*args):
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
            names.append(nid)
            parents.append(stack[-1])
            rids.append(self.request)
            starts.append(t0)
            ends.append(t1)
            if after is not None:
                after(args, result)
            return result
        return wrapped

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, and times in ms, over every span recorded."""
        n = len(self.start)
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        by_name_n = defaultdict(int)
        by_name_s = defaultdict(float)
        for i in range(n):
            nm = self.names[self.name[i]]
            layer = layer_of[self.name[i]]
            dur = self.end[i] - self.start[i]
            self_s[layer] += dur - child[i]
            p = self.parent[i]
            if p < 0 or layer_of[self.name[p]] != layer:
                calls[layer] += 1
                busy[layer] += dur
            by_name_n[nm] += 1
            by_name_s[nm] += dur

        def ms(seconds):
            return 1000.0 * seconds

        c = self.counts
        kernel_spans = by_name_n["msetops.kernel"]
        return {
            "sliding.calls": calls["sliding"],
            "sliding.windows": c["windows"],
            "sliding.degenerate_windows": c["degenerate_windows"],
            "sliding.self_ms": ms(self_s["sliding"]),
            "indices.calls": calls["indices"],
            "indices.busy_ms": ms(busy["indices"]),
            "indices.self_ms": ms(self_s["indices"]),
            "stats.calls": calls["stats"],
            "stats.busy_ms": ms(busy["stats"]),
            "stats.self_ms": ms(self_s["stats"]),
            "msetops.aggregate_calls": by_name_n["msetops.aggregate"],
            "msetops.kernel_evals": c["kernel_evals"] + kernel_spans,
            "msetops.self_ms": ms(self_s["msetops"]),
            "msetops.signals_built": by_name_n["msetops.Signal"],
            "msetops.signal_build_ms": ms(by_name_s["msetops.Signal"]),
            "fields.calls": calls["fields"],
            "fields.cells": c["cells"],
            "fields.busy_ms_threads1": ms(by_name_s["fields.field.t1"]),
            "fields.busy_ms_threads2": ms(by_name_s["fields.field.t2"]),
            "io.rows_read": c["rows_read"],
            "io.bytes_read": c["bytes_read"],
            "io.read_ms": ms(by_name_s["io.read_csv"]),
            "io.bytes_written": c["bytes_written"],
            "io.write_ms": ms(by_name_s["io.write_field_csv"]
                              + by_name_s["io.write_pgm"]),
            "cli.self_ms": ms(self_s["cli"]),
        }

    def write(self, path) -> None:
        """Write every span as a tab-separated line:
        name, start_s, end_s, parent index (-1 at a root), request id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                         f"\t{self.parent[i]}\t{self.rid[i]}\n")


class _Proxy:
    """Stands in for a module that ``cli`` reaches by attribute: the names
    given are replaced, every other attribute is the module's own."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Installed:
    """Wrappers put into the package's namespaces; ``remove`` restores the
    originals so untraced requests run the unmodified code."""

    def __init__(self, tracer: Tracer):
        self._saved: list[tuple[object, str, object]] = []
        t = tracer
        c = t.counts
        mods = {name: sys.modules[f"msetsim.{name}"]
                for name in ("msetops", "indices", "stats", "sliding", "fields", "io", "cli")}
        indices, stats, sliding, io, cli = (
            mods["indices"], mods["stats"], mods["sliding"], mods["io"], mods["cli"])

        def count_aggregate(args, result):
            c["kernel_evals"] += len(args[1].values)

        signal = t.leaf("msetops.Signal", mods["msetops"].Signal)
        self._set(indices, "aggregate", t.leaf("msetops.aggregate", indices.aggregate,
                                               count_aggregate))
        self._set(indices, "kernel", t.leaf("msetops.kernel", indices.kernel))
        self._set(indices, "abs_mass", t.leaf("msetops.abs_mass", indices.abs_mass))
        self._set(stats, "Signal", signal)
        self._set(io, "Signal", signal)
        self._set(sliding, "Signal", signal)
        self._set(sliding, "norm", t.wrap("indices.norm", sliding.norm))
        self._set(sliding, "sample_stats", t.wrap("stats.sample_stats", sliding.sample_stats))
        self._sliding = sliding
        self._scorers = dict(sliding._SCORERS)
        for key, fn in self._scorers.items():
            layer = fn.__module__.rsplit(".", 1)[-1]
            sliding._SCORERS[key] = t.wrap(f"{layer}.{fn.__name__}", fn)

        fields = mods["fields"]

        def traced_field(expr, spec, d=None, threads=1):
            c["cells"] += spec.nx * spec.ny
            c["kernel_evals"] += kernel_cells(fields, expr, spec)
            return t.call(f"fields.field.t{min(threads, 2)}", fields.field,
                          expr, spec, d=d, threads=threads)

        def count_written(args, result):
            c["bytes_written"] += os.path.getsize(args[-1])

        self._set(cli, "fields", _Proxy(fields, field=traced_field))
        self._set(cli, "io", _Proxy(
            io,
            write_field_csv=t.wrap("io.write_field_csv", io.write_field_csv, count_written),
            write_pgm=t.wrap("io.write_pgm", io.write_pgm, count_written)))

    def _set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def remove(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        self._sliding._SCORERS.update(self._scorers)


def kernel_cells(fields, expr, spec) -> int:
    """Calls of msetops.kernel one field evaluation makes: one per cell for
    the min/max surfaces, none for the product and the Kronecker delta, and
    none at the origin cell of the Jaccard surfaces."""
    fe = fields.FieldExpr
    cells = spec.nx * spec.ny
    if expr in (fe.A3, fe.KRON):
        return 0
    if expr in (fe.JR, fe.JR_POW):
        return cells - spec.xs().count(0.0) * spec.ys().count(0.0)
    return cells


def call_site(tracer: Tracer, lib):
    """The public entry points the benchmark calls, each inside a span and
    with its work counters."""
    c = tracer.counts
    cli = sys.modules["msetsim.cli"]

    def count_slide(args, profile):
        c["windows"] += len(profile.lags)
        c["degenerate_windows"] += len(profile.degenerate_lags)

    def count_read(args, signals):
        c["rows_read"] += len(signals[0].values)
        c["bytes_read"] += os.path.getsize(args[0])

    return {
        "slide": tracer.wrap("sliding.slide", lib.slide, count_slide),
        "read_csv": tracer.wrap("io.read_csv", lib.read_csv, count_read),
        "report": tracer.wrap("indices.report", lib.report),
        "split_intersection": tracer.wrap("indices.split_intersection",
                                          lib.split_intersection),
        "jaccard_power": tracer.wrap("indices.jaccard_power", lib.jaccard_power),
        "double_pearson": tracer.wrap("stats.double_pearson", lib.double_pearson),
        "cli_main": tracer.wrap("cli.main", cli.main),
    }
