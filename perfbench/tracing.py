"""Per-layer tracing from outside the library.

Wrappers are installed on the public functions and methods of each
``timefreq`` module, in every ``timefreq.*`` namespace that binds them
(modules import with ``from .grid import dft``), and removed again with
:func:`uninstall`.  Each wrapped call records a span (name, start, end,
parent span, unit id) and adds to per-name aggregates: calls, total time,
self time (span time minus child spans) and optional counts taken at the
same boundary.  Spans stay in memory until :meth:`Tracer.save`.

A name that a later version of the library deletes or renames is listed in
``Tracer.absent`` and its metrics read zero; that is not an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MODULES = ("grid", "dyadic", "wavepackets", "norms", "trees", "multipliers",
           "exceptional", "ergodic", "cli")


def _size_of(index: int, name: str) -> Callable:
    """Count the elements of one positional-or-keyword argument."""
    def count(args, kwargs, result):
        arg = kwargs[name] if name in kwargs else args[index]
        return {"points": int(np.size(arg))}
    return count


def _len_result(stat: str, attr: Optional[str] = None) -> Callable:
    def count(args, kwargs, result):
        return {stat: len(getattr(result, attr) if attr else result)}
    return count


class _LatticeHits:
    """Miss the first time a (kernel, k) pair is seen, hit afterwards."""

    def __init__(self):
        self._seen: dict[int, tuple[weakref.ref, set]] = {}

    def __call__(self, args, kwargs, result):
        kernel = args[0]
        k = kwargs["k"] if "k" in kwargs else args[1]
        entry = self._seen.get(id(kernel))
        if entry is None or entry[0]() is not kernel:
            entry = (weakref.ref(kernel), set())
            self._seen[id(kernel)] = entry
        hit = k in entry[1]
        entry[1].add(k)
        return {"hits": int(hit)}


@dataclass(frozen=True)
class Target:
    """One traced name: ``attr`` is ``func`` or ``Class.method`` in ``module``."""

    module: str
    attr: str
    short: str
    count: Optional[Callable] = None
    span: bool = True

    @property
    def name(self) -> str:
        return f"{self.module}.{self.short}"


def targets() -> list[Target]:
    return [
        Target("grid", "dft", "dft"),
        Target("grid", "idft", "idft"),
        Target("grid", "SampledFunction.__post_init__", "sampled_function", span=False),
        Target("grid", "hl_maximal", "hl_maximal"),
        Target("grid", "lp_norm", "lp_norm"),
        Target("wavepackets", "gabor_expand", "gabor_expand"),
        Target("wavepackets", "gabor_reconstruct", "gabor_reconstruct"),
        Target("wavepackets", "smooth_step", "smooth_step", _size_of(0, "t")),
        Target("wavepackets", "Kernel.khat", "khat", _size_of(1, "xi")),
        Target("wavepackets", "Kernel.khat_lattice", "khat_lattice", _LatticeHits()),
        Target("wavepackets", "build_window", "build_window"),
        Target("wavepackets", "build_kernel", "build_kernel"),
        Target("wavepackets", "model_function", "model_function"),
        Target("wavepackets", "ModelFunction.x_slice", "x_slice"),
        Target("wavepackets", "ModelFunction.theta_slice", "theta_slice"),
        Target("norms", "per_tile_sizes", "per_tile_sizes", _len_result("tiles")),
        Target("norms", "maximal_multiplier_lower", "maximal_multiplier_lower"),
        Target("norms", "variational_norm_field", "variational_norm_field"),
        Target("norms", "AdaptedBump.__call__", "adapted_bump", _size_of(1, "xi")),
        Target("norms", "variational_norm", "variational_norm"),
        Target("norms", "tile_size", "tile_size"),
        Target("trees", "select_forests", "select_forests", _len_result("levels", "levels")),
        Target("trees", "tree_decompose", "tree_decompose"),
        Target("trees", "tree_coefficients", "tree_coefficients", _len_result("tiles")),
        Target("trees", "tree_variation_report", "tree_variation_report"),
        Target("multipliers", "growth_scan", "growth_scan"),
        Target("multipliers", "random_family", "random_family"),
        Target("multipliers", "sup_over_scales", "sup_over_scales"),
        Target("multipliers", "scale_variation", "scale_variation"),
        Target("multipliers", "MultiplierFamily.value_at", "value_at"),
        Target("multipliers", "MultiplierFamily.total_multiplier", "total_multiplier"),
        Target("exceptional", "run_pipeline", "run_pipeline"),
        Target("exceptional", "maximal_exceptional_set", "maximal_exceptional_set"),
        Target("exceptional", "split_tiles", "split_tiles"),
        Target("exceptional", "group_by_escape_level", "group_by_escape_level"),
        Target("exceptional", "overlap_exceptional_set", "overlap_exceptional_set"),
        Target("exceptional", "variation_exceptional_set", "variation_exceptional_set"),
        Target("exceptional", "check_pointwise_bound", "check_pointwise_bound"),
        Target("dyadic", "TileUniverse.all_tiles", "all_tiles"),
        Target("dyadic", "is_convex", "is_convex"),
        Target("dyadic", "saturation", "saturation"),
        Target("dyadic", "window_partition", "window_partition"),
        Target("dyadic", "tiles_from_text", "tiles_from_text"),
        Target("ergodic", "return_times_average", "return_times_average"),
        Target("ergodic", "convergence_diagnostic", "convergence_diagnostic"),
        Target("ergodic", "single_scale_blowup", "single_scale_blowup"),
        Target("ergodic", "heavy_tail_sweep", "heavy_tail_sweep"),
        Target("cli", "main", "main"),
    ]


class _Agg:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict[str, int] = {}


class Tracer:
    """In-memory span store with per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_unit = array("i")
        self._stack: list[list] = []
        self.unit = -1
        self.aggs: dict[str, _Agg] = {}
        self.absent: list[str] = []
        self.targets = targets()  # built once, so counters keep their state

    def _agg(self, name: str) -> _Agg:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
        return agg

    def add(self, name: str, stat: str, k: int) -> None:
        counts = self._agg(name).counts
        counts[stat] = counts.get(stat, 0) + k

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        agg = self._agg(name)
        count = target.count
        if not target.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                agg.calls += 1
                return fn(*args, **kwargs)
            return counted

        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_unit.append(self.unit)
            self.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.span_end[sid] = end
                if stack:
                    stack[-1][1] += dur
                agg.calls += 1
                agg.total += dur
                agg.self_time += dur - frame[1]
            if count is not None:
                for stat, k in count(args, kwargs, result).items():
                    agg.counts[stat] = agg.counts.get(stat, 0) + k
            return result
        return traced

    def save(self, path) -> None:
        """Write every span as compressed columns next to the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            unit=np.frombuffer(self.span_unit, dtype=np.int32),
        )


def install(tracer: Tracer) -> list[tuple]:
    """Install wrappers for every target; return the patches to undo."""
    mods = {}
    for short in MODULES:
        try:
            mods[short] = importlib.import_module(f"timefreq.{short}")
        except ImportError:
            continue
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "timefreq" or name.startswith("timefreq."))]
    patches = []
    tracer.absent = []
    for target in tracer.targets:
        mod = mods.get(target.module)
        cls_name, _, member = target.attr.rpartition(".")
        owner = getattr(mod, cls_name, None) if (mod is not None and cls_name) else mod
        orig = None if owner is None else (
            owner.__dict__.get(member) if cls_name else getattr(owner, member, None))
        if not callable(orig):
            tracer.absent.append(target.name)
            continue
        wrapper = tracer.wrap(target, orig)
        if cls_name:
            setattr(owner, member, wrapper)
            patches.append((owner, member, orig))
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapper)
                    patches.append((ns, key, orig))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, key, orig in reversed(patches):
        setattr(owner, key, orig)


# (metric, span name, statistic, unit).  Values are per traced unit, except
# the hit ratio.  ``grid.fft`` sums the self time of the two FFT wrappers.
LAYER_METRICS = [
    ("grid.dft.calls", "grid.dft", "calls", "count/unit"),
    ("grid.idft.calls", "grid.idft", "calls", "count/unit"),
    ("grid.fft.self_s", ("grid.dft", "grid.idft"), "self_s", "s/unit"),
    ("grid.sampled_function.count", "grid.sampled_function", "calls", "count/unit"),
    ("grid.hl_maximal.calls", "grid.hl_maximal", "calls", "count/unit"),
    ("grid.hl_maximal.self_s", "grid.hl_maximal", "self_s", "s/unit"),
    ("grid.lp_norm.self_s", "grid.lp_norm", "self_s", "s/unit"),
    ("wavepackets.gabor_expand.self_s", "wavepackets.gabor_expand", "self_s", "s/unit"),
    ("wavepackets.gabor_reconstruct.self_s", "wavepackets.gabor_reconstruct", "self_s", "s/unit"),
    ("wavepackets.smooth_step.calls", "wavepackets.smooth_step", "calls", "count/unit"),
    ("wavepackets.smooth_step.points", "wavepackets.smooth_step", "points", "count/unit"),
    ("wavepackets.smooth_step.self_s", "wavepackets.smooth_step", "self_s", "s/unit"),
    ("wavepackets.khat.points", "wavepackets.khat", "points", "count/unit"),
    ("wavepackets.khat.self_s", "wavepackets.khat", "self_s", "s/unit"),
    ("wavepackets.khat_lattice.calls", "wavepackets.khat_lattice", "calls", "count/unit"),
    ("wavepackets.khat_lattice.hit_ratio", "wavepackets.khat_lattice", "hit_ratio", "ratio"),
    ("wavepackets.build_window.total_s", "wavepackets.build_window", "total_s", "s/unit"),
    ("wavepackets.build_kernel.total_s", "wavepackets.build_kernel", "total_s", "s/unit"),
    ("wavepackets.model_function.calls", "wavepackets.model_function", "calls", "count/unit"),
    ("wavepackets.model_function.total_s", "wavepackets.model_function", "total_s", "s/unit"),
    ("wavepackets.x_slice.total_s", "wavepackets.x_slice", "total_s", "s/unit"),
    ("wavepackets.theta_slice.total_s", "wavepackets.theta_slice", "total_s", "s/unit"),
    ("norms.per_tile_sizes.tiles", "norms.per_tile_sizes", "tiles", "count/unit"),
    ("norms.per_tile_sizes.total_s", "norms.per_tile_sizes", "total_s", "s/unit"),
    ("norms.maximal_multiplier_lower.calls", "norms.maximal_multiplier_lower", "calls", "count/unit"),
    ("norms.maximal_multiplier_lower.total_s", "norms.maximal_multiplier_lower", "total_s", "s/unit"),
    ("norms.variational_norm_field.total_s", "norms.variational_norm_field", "total_s", "s/unit"),
    ("norms.adapted_bump.calls", "norms.adapted_bump", "calls", "count/unit"),
    ("norms.adapted_bump.points", "norms.adapted_bump", "points", "count/unit"),
    ("norms.adapted_bump.self_s", "norms.adapted_bump", "self_s", "s/unit"),
    ("norms.variational_norm.total_s", "norms.variational_norm", "total_s", "s/unit"),
    ("norms.tile_size.total_s", "norms.tile_size", "total_s", "s/unit"),
    ("trees.select_forests.total_s", "trees.select_forests", "total_s", "s/unit"),
    ("trees.select_forests.levels", "trees.select_forests", "levels", "count/unit"),
    ("trees.tree_decompose.calls", "trees.tree_decompose", "calls", "count/unit"),
    ("trees.tree_decompose.total_s", "trees.tree_decompose", "total_s", "s/unit"),
    ("trees.tree_coefficients.tiles", "trees.tree_coefficients", "tiles", "count/unit"),
    ("trees.tree_coefficients.total_s", "trees.tree_coefficients", "total_s", "s/unit"),
    ("trees.tree_variation_report.total_s", "trees.tree_variation_report", "total_s", "s/unit"),
    ("multipliers.growth_scan.total_s", "multipliers.growth_scan", "total_s", "s/unit"),
    ("multipliers.random_family.total_s", "multipliers.random_family", "total_s", "s/unit"),
    ("multipliers.sup_over_scales.total_s", "multipliers.sup_over_scales", "total_s", "s/unit"),
    ("multipliers.scale_variation.total_s", "multipliers.scale_variation", "total_s", "s/unit"),
    ("multipliers.value_at.calls", "multipliers.value_at", "calls", "count/unit"),
    ("multipliers.total_multiplier.self_s", "multipliers.total_multiplier", "self_s", "s/unit"),
    ("exceptional.run_pipeline.total_s", "exceptional.run_pipeline", "total_s", "s/unit"),
    ("exceptional.maximal_exceptional_set.total_s", "exceptional.maximal_exceptional_set", "total_s", "s/unit"),
    ("exceptional.split_tiles.total_s", "exceptional.split_tiles", "total_s", "s/unit"),
    ("exceptional.group_by_escape_level.total_s", "exceptional.group_by_escape_level", "total_s", "s/unit"),
    ("exceptional.overlap_exceptional_set.total_s", "exceptional.overlap_exceptional_set", "total_s", "s/unit"),
    ("exceptional.variation_exceptional_set.total_s", "exceptional.variation_exceptional_set", "total_s", "s/unit"),
    ("exceptional.check_pointwise_bound.total_s", "exceptional.check_pointwise_bound", "total_s", "s/unit"),
    ("exceptional.check_pointwise_bound.calls", "exceptional.check_pointwise_bound", "calls", "count/unit"),
    ("dyadic.all_tiles.total_s", "dyadic.all_tiles", "total_s", "s/unit"),
    ("dyadic.is_convex.total_s", "dyadic.is_convex", "total_s", "s/unit"),
    ("dyadic.saturation.total_s", "dyadic.saturation", "total_s", "s/unit"),
    ("dyadic.window_partition.total_s", "dyadic.window_partition", "total_s", "s/unit"),
    ("dyadic.tiles_from_text.total_s", "dyadic.tiles_from_text", "total_s", "s/unit"),
    ("ergodic.return_times_average.total_s", "ergodic.return_times_average", "total_s", "s/unit"),
    ("ergodic.convergence_diagnostic.total_s", "ergodic.convergence_diagnostic", "total_s", "s/unit"),
    ("ergodic.single_scale_blowup.total_s", "ergodic.single_scale_blowup", "total_s", "s/unit"),
    ("ergodic.heavy_tail_sweep.total_s", "ergodic.heavy_tail_sweep", "total_s", "s/unit"),
    ("cli.main.calls", "cli.main", "calls", "count/unit"),
    ("cli.main.self_s", "cli.main", "self_s", "s/unit"),
    ("cli.csv.bytes", "cli.csv", "bytes", "B/unit"),
]


def layer_values(tracer: Tracer, units: int) -> dict[str, dict]:
    """Per-layer metrics averaged over ``units`` traced units."""
    out = {}
    absent = set(tracer.absent)
    for metric, span, stat, unit in LAYER_METRICS:
        spans = span if isinstance(span, tuple) else (span,)
        aggs = [tracer.aggs.get(s, _Agg()) for s in spans]
        if stat == "hit_ratio":
            calls = sum(a.calls for a in aggs)
            hits = sum(a.counts.get("hits", 0) for a in aggs)
            value = hits / calls if calls else 0.0
        else:
            total = sum(
                a.calls if stat == "calls"
                else a.total if stat == "total_s"
                else a.self_time if stat == "self_s"
                else a.counts.get(stat, 0)
                for a in aggs
            )
            value = total / units if units else 0.0
        entry = {"value": value, "unit": unit}
        if all(s in absent for s in spans):
            entry["absent"] = True
        out[metric] = entry
    return out


def summed_self_time(tracer: Tracer) -> float:
    return sum(a.self_time for a in tracer.aggs.values())
