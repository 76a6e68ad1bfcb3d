"""Spans and counters recorded from outside the lacsum package.

The tracer wraps public functions at each layer boundary, patching every
name where its caller looks it up (the lacsum modules import names
directly, so ``lacsum.suites.sweep_space`` and ``lacsum.maximal.sweep_space``
are two lookups of one function). Spans are kept in memory as parallel
lists (name, start, end, parent id) and written out once the workload call
has returned; per-layer metrics are derived from them afterwards.

A span's self time is its duration minus the time its direct children
cover. Counters marked "computed" are derived from array shapes and call
arguments, not measured traffic.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import defaultdict
from time import perf_counter

# per-layer metric -> the span it is derived from; see Tracer.layer_metrics
SPAN_TOTALS = {
    "spectral.synthesize_s": "spectral.synthesize",
    "spectral.cut_stage_s": "spectral.cut_stage",
    "spectral.slab_stream_s": "spectral.slab_stream",
    "spectral.shell_build_s": "spectral.shell_build",
    "spectral.shell_lookup_s": "spectral.shell_lookup",
    "spectral.partial_sum_s": "spectral.partial_sum",
    "maximal.sweep_s": "maximal.sweep",
    "maximal.level_set_s": "maximal.level_set",
    "maximal.weak_type_s": "maximal.weak_type",
    "suites.gen_s": "suites.gen",
    "suites.sup_error_s": "suites.sup_error",
    "weyl.scan_s": "weyl.scan",
    "weyl.eval_s": "weyl.eval",
    "weyl.energy_s": "weyl.energy",
    "decomp.decompose_s": "decomp.decompose",
    "seqcalc.abel_s": "seqcalc.abel",
    "seqcalc.telescope_s": "seqcalc.telescope",
    "serialize.write_s": "serialize.write",
    "serialize.load_s": "serialize.load",
}
SPAN_SELF = {
    "maximal.sweep_self_s": "maximal.sweep",
    "suites.sup_error_self_s": "suites.sup_error",
    "suites.self_s": "suites.run",
    "weyl.scan_self_s": "weyl.scan",
    "cli.self_s": "cli.main",
}
SPAN_CALLS = {
    "spectral.synthesize_calls": "spectral.synthesize",
    "spectral.partial_sum_calls": "spectral.partial_sum",
    "maximal.sweep_calls": "maximal.sweep",
    "maximal.level_set_calls": "maximal.level_set",
    "suites.gen_calls": "suites.gen",
    "decomp.decompose_calls": "decomp.decompose",
    "seqcalc.abel_calls": "seqcalc.abel",
}
# counters the wrappers accumulate (Tracer.add)
SUM_COUNTERS = (
    "spectral.slab_stream_rows",
    "spectral.slab_stream_slabs",
    "spectral.shell_builds",
    "spectral.shell_lookups",
    "maximal.sweep_points",
    "weyl.eval_points",
    "weyl.scan_points",
    "decomp.fft_fallbacks",
    "serialize.bytes",
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.sums: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: int) -> None:
        self.sums[key] += int(amount)

    def peak(self, key: str, value: int) -> None:
        self.maxes[key] = max(self.maxes[key], int(value))

    def wrap(self, func, name: str, count=None):
        """Time every call of ``func`` as span ``name``; ``count`` sees the
        arguments and result after the span closes."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def wrap_stream(self, genfunc, name: str, count):
        """Time each ``next()`` of the generator ``genfunc`` returns, so the
        producer's time is split from the consumer's reduction between items;
        ``count`` sees each item."""

        @functools.wraps(genfunc)
        def traced(*args, **kwargs):
            inner = genfunc(*args, **kwargs)

            def stream():
                while True:
                    sid = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(sid)
                    count(self, item)
                    yield item

            return stream()

        return traced

    # -- derived metrics ---------------------------------------------------

    def _outermost(self, sid: int) -> bool:
        name = self.names[sid]
        p = self.parents[sid]
        while p >= 0:
            if self.names[p] == name:
                return False
            p = self.parents[p]
        return True

    def layer_metrics(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            calls[name] += 1
            if self.parents[sid] >= 0:
                child_time[self.parents[sid]] += dur
        self_time: dict[str, float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            self_time[name] += dur - child_time.get(sid, 0.0)
            if self._outermost(sid):
                total[name] += dur
        out: dict[str, float] = {}
        for metric, name in SPAN_TOTALS.items():
            out[metric] = total.get(name, 0.0)
        for metric, name in SPAN_SELF.items():
            out[metric] = self_time.get(name, 0.0)
        for metric, name in SPAN_CALLS.items():
            out[metric] = calls.get(name, 0)
        for key in SUM_COUNTERS:
            out[key] = self.sums.get(key, 0)
        out["spectral.shell_bytes"] = self.maxes.get("spectral.shell_bytes", 0)
        slab = self.maxes.get("slab_bytes", 0)
        out["spectral.slab_stream_bytes"] = (
            self.maxes.get("cut_stage_bytes", 0) + slab if slab else 0
        )
        return out

    def write(self, path: str) -> None:
        """Spans as ``[name, start, end, parent]`` rows, starts relative to the
        first span."""
        t0 = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        rows = [
            [code[n], round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"names": table, "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# counters attached to wrappers


def _count_cut_stage(tr, args, kwargs, result):
    tr.peak("cut_stage_bytes", result.nbytes)


def _count_slab(tr, item):
    _row, mb, slab = item
    tr.sums["spectral.slab_stream_slabs"] += 1
    if not mb:  # mb is None (one free axis) or 0 (the first slab of a row)
        tr.sums["spectral.slab_stream_rows"] += 1
    if slab.nbytes > tr.maxes["slab_bytes"]:
        tr.maxes["slab_bytes"] = slab.nbytes


def _count_shell_build(tr, args, kwargs, result):
    # args: (cls, spectrum, grid, ...) -- computed prefix buffer size
    spectrum, grid = args[1], args[2]
    shells = math.prod(b + 1 for b in spectrum.bandwidth)
    tr.add("spectral.shell_builds", 1)
    tr.peak("spectral.shell_bytes", shells * math.prod(grid.resolution) * 16)


def _count_query(tr, args, kwargs, result):
    tr.add("spectral.shell_lookups", 1)


def _count_partial_sums(tr, args, kwargs, result):
    tr.add("spectral.shell_lookups", len(args[1]))


def _count_sweep(tr, args, kwargs, result):
    """Index points x grid points x weights the sweep reduces (computed from
    the space it was given, independent of how the sweep walks it)."""
    spectrum, grid, space, weights = args[:4]
    cap_schedule = args[4] if len(args) > 4 else kwargs.get("cap_schedule")
    top_caps = space.free_caps if cap_schedule is None else cap_schedule[-1]
    sample = space.sample
    combos = 1
    for fam, p in zip(space.families, sample.lacunary_positions):
        combos *= len({min(t, spectrum.bandwidth[p]) for t in fam.terms})
    free = 1
    for cap, p in zip(top_caps, sample.free_positions):
        free *= min(int(cap), spectrum.bandwidth[p]) + 1
    tr.add("maximal.sweep_points", combos * free * math.prod(grid.resolution) * len(weights))


def _count_sum_engine(tr, args, kwargs, result):
    from lacsum.spectral import ShellTensor

    if not isinstance(getattr(result[0], "__self__", None), ShellTensor):
        tr.add("decomp.fft_fallbacks", 1)


def _count_written(tr, args, kwargs, result):
    tr.add("serialize.bytes", os.path.getsize(result))


def _count_loaded(tr, args, kwargs, result):
    tr.add("serialize.bytes", os.path.getsize(args[0]))


def timed_weight(tracer: Tracer, weight):
    """Copy of ``weight`` whose ``fn`` is a ``weyl.eval`` span counting the
    frequency vectors it is evaluated on."""
    import dataclasses

    def count(tr, args, kwargs, result):
        tr.add("weyl.eval_points", math.prod(args[0].shape[:-1]))

    return dataclasses.replace(weight, fn=tracer.wrap(weight.fn, "weyl.eval", count))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary of the lacsum package for this process."""
    import lacsum.cli
    import lacsum.decomp
    import lacsum.maximal
    import lacsum.serialize
    import lacsum.spectral
    import lacsum.suites
    from lacsum.spectral import ShellTensor

    def patch(modules, attr, name, count=None):
        for mod in modules:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, count))

    spectral, suites, maximal = lacsum.spectral, lacsum.suites, lacsum.maximal
    decomp, cli, serialize = lacsum.decomp, lacsum.cli, lacsum.serialize

    patch([spectral, suites], "synthesize", "spectral.synthesize")
    patch([spectral], "_cut_stage", "spectral.cut_stage", _count_cut_stage)
    for mod in (maximal, suites):
        mod.iter_prefix_slabs = tracer.wrap_stream(
            mod.iter_prefix_slabs, "spectral.slab_stream", _count_slab
        )
    build = ShellTensor.__dict__["from_grid"].__func__
    ShellTensor.from_grid = classmethod(
        tracer.wrap(build, "spectral.shell_build", _count_shell_build)
    )
    ShellTensor.query = tracer.wrap(ShellTensor.query, "spectral.shell_lookup", _count_query)
    ShellTensor.partial_sums = tracer.wrap(
        ShellTensor.partial_sums, "spectral.shell_lookup", _count_partial_sums
    )
    patch([spectral, decomp, cli], "partial_sum", "spectral.partial_sum")

    patch([suites, maximal], "sweep_space", "maximal.sweep", _count_sweep)
    patch([suites, maximal], "level_set_measure", "maximal.level_set")
    patch([cli], "weak_type_table", "maximal.weak_type")

    patch([suites], "gen_test_function", "suites.gen")
    patch([suites], "sup_error_table", "suites.sup_error")
    patch([suites, maximal], "weighted_energy", "weyl.energy")

    patch([suites], "decompose_free_pair", "decomp.decompose")
    patch([decomp], "_sum_engine", "decomp.sum_engine", _count_sum_engine)
    patch([suites], "abel_identity_check", "seqcalc.abel")
    patch([suites], "telescope_split", "seqcalc.telescope")

    # emit_report imports save_json from lacsum.serialize at call time
    patch([serialize, cli], "save_json", "serialize.write", _count_written)
    patch([cli], "save_csv", "serialize.write", _count_written)
    patch([cli], "load_json", "serialize.load", _count_loaded)
    patch([cli], "spectrum_from_dict", "serialize.load")
