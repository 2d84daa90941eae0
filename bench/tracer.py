"""Spans and counters recorded from outside the package, plus memory peaks.

``instrument`` swaps wrappers in for ridgeflow's public functions, in every
ridgeflow module namespace that binds them (``from .image import
bilinear_many`` makes a second binding), and restores the originals on
exit. Nothing in ``src/`` changes. Spans are kept in memory; ``Tracer.dump``
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import ridgeflow as rf

MODULES = ("synth", "projection", "image", "flowfield", "gradient", "binarize", "enhance", "contour", "pipeline", "cli")

# Names the per-layer metrics are computed from. If a refactor moves one,
# its layer is reported as missing instead of the run failing.
REQUIRED = {
    "synth": ["generate"],
    "projection": ["compute_flow_field", "patch_variance_grid", "RotatedDeviationEvaluator.mean_deviation"],
    "image": ["rotate_raster", "bilinear_many", "load_pgm", "save_pgm"],
    "flowfield": ["angles_at", "save_flow_csv"],
    "gradient": ["compute_flow_field_gradient"],
    "binarize": ["binarize_image"],
    "enhance": ["enhance_image"],
    "contour": ["binarize_image_contour", "enhance_image_contour"],
    "pipeline": ["run_pipeline", "run_iteration"],
    "cli": ["run_cli"],
}

MIB = 2.0**20

# Every per-layer metric a traced run prints, with its unit. Times are
# summed over the traced pass; ``trace.images`` is the pass's image count.
UNITS = {
    "projection.flow_s": "s",
    "projection.patch_variance_s": "s",
    "projection.sites_evaluated": "count",
    "projection.foreground_frac": "frac",
    "projection.coarse_s": "s",
    "projection.coarse_evals": "count",
    "projection.fine_s": "s",
    "projection.fine_evals": "count",
    "projection.fine_calls": "count",
    "projection.span_lookups_computed": "count",
    "projection.peak_mib": "MiB",
    "image.rotations": "count",
    "image.rotate_s": "s",
    "image.rotated_mib_computed": "MiB",
    "image.bilinear_s": "s",
    "image.bilinear_samples": "count",
    "image.pgm_io_s": "s",
    "image.pgm_bytes": "bytes",
    "flowfield.angles_at_s": "s",
    "flowfield.angles_at_points": "count",
    "flowfield.csv_write_s": "s",
    "flowfield.csv_bytes": "bytes",
    "gradient.flow_s": "s",
    "binarize.s": "s",
    "binarize.pixels": "count",
    "binarize.ridge_frac": "frac",
    "enhance.s": "s",
    "enhance.pixels": "count",
    "enhance.peak_mib": "MiB",
    "contour.binarize_s": "s",
    "contour.enhance_s": "s",
    "pipeline.iteration_1_s": "s",
    "pipeline.iteration_2_s": "s",
    "pipeline.self_s": "s",
    "pipeline.flow_change_rad": "rad",
    "pipeline.binary_flip_frac": "frac",
    "cli.self_s": "s",
    "synth.generate_s": "s",
    "trace.untraced_mpx_s": "Mpx/s",
    "trace.traced_mpx_s": "Mpx/s",
    "trace.overhead_frac": "frac",
    "trace.images": "count",
    "trace.spans": "count",
    "trace.missing_layers": "count",
}
# Canvas-sized arrays kept per rotation: float64 values and bool mask from
# rotate_raster, plus the evaluator's three float64 prefix-sum arrays.
ROTATION_BYTES_PER_PX = 8 + 1 + 3 * 8


def _modules():
    return {m: sys.modules[f"ridgeflow.{m}"] for m in MODULES}


def _resolve(mod, dotted: str):
    obj = mod
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def missing_layers() -> dict[str, list[str]]:
    mods = _modules()
    out = {}
    for layer, names in REQUIRED.items():
        gone = [n for n in names if _resolve(mods[layer], n) is None]
        if gone:
            out[layer] = gone
    return out


def _targets():
    """(layer, name, function) for every public function of the layers, plus REQUIRED methods."""
    mods = _modules()
    found = []
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            found.append((layer, name, obj))
    for layer, names in REQUIRED.items():
        for dotted in names:
            if "." in dotted:
                fn = _resolve(mods[layer], dotted)
                if fn is not None:
                    found.append((layer, dotted, fn))
    return found


@contextmanager
def instrument(make_wrapper):
    """Replace each public function by ``make_wrapper(layer, name, fn)`` everywhere it is bound."""
    namespaces = [sys.modules["ridgeflow"], *_modules().values()]
    patched = []
    try:
        for layer, dotted, fn in _targets():
            wrapper = make_wrapper(layer, dotted, fn)
            if wrapper is None:
                continue
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                owner = getattr(sys.modules[f"ridgeflow.{layer}"], cls_name)
                patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        patched.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
        yield
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Spans


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    parent: int | None
    image: int
    start: float
    end: float = math.nan
    phase: str = ""


class Tracer:
    """Records spans while an image is active; counters come from call hooks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.image: int | None = None
        self._stack: list[int] = []
        self._flow_state: dict[int, dict] = {}

    @contextmanager
    def image_scope(self, image_id: int):
        self.image = image_id
        try:
            yield
        finally:
            self.image = None

    def wrapper(self, layer: str, name: str, fn):
        qualified = f"{layer}.{name}"
        before = _BEFORE.get(qualified)
        after = _AFTER.get(qualified)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.image is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = Span(qualified, layer, self._stack[-1] if self._stack else None, self.image, 0.0)
            self.spans.append(span)
            if before:
                before(self, idx, args, kwargs)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                after(self, idx, args, kwargs, result)
            return result

        return traced

    def ancestor(self, idx: int, name: str) -> int | None:
        p = self.spans[idx].parent
        while p is not None and self.spans[p].name != name:
            p = self.spans[p].parent
        return p

    def self_times(self) -> tuple[list[float], list[float]]:
        """Per span: self time, and layer self time (self plus same-layer descendants)."""
        n = len(self.spans)
        child = [0.0] * n
        same = [0.0] * n
        own = [0.0] * n
        layer_own = [0.0] * n
        for i in range(n - 1, -1, -1):
            s = self.spans[i]
            dur = s.end - s.start
            own[i] = dur - child[i]
            layer_own[i] = own[i] + same[i]
            if s.parent is not None:
                child[s.parent] += dur
                if self.spans[s.parent].layer == s.layer:
                    same[s.parent] += layer_own[i]
        return own, layer_own

    def dump(self, path, extra: dict) -> None:
        data = dict(extra)
        data["spans"] = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "image": s.image, "phase": s.phase}
            for s in self.spans
        ]
        data["counters"] = dict(sorted(self.counters.items()))
        with open(path, "w", encoding="ascii") as fh:
            json.dump(data, fh, indent=1)


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _size(x) -> int:
    return int(np.size(x))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _flow_before(tr: Tracer, idx, args, kwargs):
    cfg = _arg(args, kwargs, 1, "cfg") or rf.FlowConfig()
    tr._flow_state[idx] = {"calls": 0, "n_coarse": len(cfg.coarse_angles()), "t": cfg.tangent_half_length}


def _flow_after(tr: Tracer, idx, args, kwargs, flow):
    tr._flow_state.pop(idx, None)
    tr.counters["projection.grid_sites"] += _size(flow.angles)


def _mean_deviation_after(tr: Tracer, idx, args, kwargs, result):
    flow_idx = tr.ancestor(idx, "projection.compute_flow_field")
    if flow_idx is None:
        return
    st = tr._flow_state[flow_idx]
    n = _size(_arg(args, kwargs, 2, "xs"))
    if st["calls"] == 0:
        tr.counters["projection.sites_evaluated"] += n
    phase = "coarse" if st["calls"] < st["n_coarse"] else "fine"
    st["calls"] += 1
    tr.spans[idx].phase = phase
    tr.counters[f"projection.{phase}_evals"] += n
    tr.counters[f"projection.{phase}_calls"] += 1
    tr.counters["projection.span_lookups_computed"] += n * (2 * st["t"] + 1) * 3


def _rotate_after(tr: Tracer, idx, args, kwargs, rr):
    tr.counters["image.rotations"] += 1
    tr.counters["image.rotated_bytes_computed"] += _size(rr.values) * ROTATION_BYTES_PER_PX


def _bilinear_after(tr, idx, args, kwargs, result):
    tr.counters["image.bilinear_samples"] += _size(result)


def _load_pgm_after(tr, idx, args, kwargs, result):
    tr.counters["image.pgm_bytes"] += _file_size(_arg(args, kwargs, 0, "path"))


def _save_pgm_after(tr, idx, args, kwargs, result):
    tr.counters["image.pgm_bytes"] += _file_size(_arg(args, kwargs, 1, "path"))


def _save_csv_after(tr, idx, args, kwargs, result):
    tr.counters["flowfield.csv_bytes"] += _file_size(_arg(args, kwargs, 1, "path"))


def _angles_at_after(tr, idx, args, kwargs, result):
    tr.counters["flowfield.angles_at_points"] += _size(result[0])


def _binarize_after(tr, idx, args, kwargs, binary):
    tr.counters["binarize.pixels"] += _size(binary.bits)
    tr.counters["binarize.ridge_pixels"] += int(np.count_nonzero(binary.bits == 0))


def _enhance_after(tr, idx, args, kwargs, enhanced):
    tr.counters["enhance.pixels"] += _size(enhanced.pixels)


_BEFORE = {"projection.compute_flow_field": _flow_before}
_AFTER = {
    "projection.compute_flow_field": _flow_after,
    "projection.RotatedDeviationEvaluator.mean_deviation": _mean_deviation_after,
    "image.rotate_raster": _rotate_after,
    "image.bilinear_many": _bilinear_after,
    "image.load_pgm": _load_pgm_after,
    "image.save_pgm": _save_pgm_after,
    "flowfield.save_flow_csv": _save_csv_after,
    "flowfield.angles_at": _angles_at_after,
    "binarize.binarize_image": _binarize_after,
    "enhance.enhance_image": _enhance_after,
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer times (seconds, summed over the traced pass) and counters."""
    own, layer_own = tr.self_times()
    spans = tr.spans

    def total(values, pred) -> float:
        return float(sum(v for v, s in zip(values, spans) if pred(s)))

    def named(*names):
        return lambda s: s.name in names

    def layer_root(layer):
        return lambda s: s.layer == layer and (s.parent is None or spans[s.parent].layer != layer)

    c = tr.counters
    m = {
        "projection.flow_s": total(layer_own, named("projection.compute_flow_field")),
        "projection.patch_variance_s": total(own, named("projection.patch_variance_grid")),
        "projection.coarse_s": total(own, lambda s: s.phase == "coarse"),
        "projection.fine_s": total(own, lambda s: s.phase == "fine"),
        "image.rotate_s": total(own, named("image.rotate_raster")),
        "image.bilinear_s": total(own, named("image.bilinear_many")),
        "image.pgm_io_s": total(own, named("image.load_pgm", "image.save_pgm")),
        "flowfield.csv_write_s": total(own, named("flowfield.save_flow_csv")),
        "flowfield.angles_at_s": total(own, named("flowfield.angles_at")),
        "gradient.flow_s": total(layer_own, named("gradient.compute_flow_field_gradient")),
        "binarize.s": total(layer_own, layer_root("binarize")),
        "enhance.s": total(layer_own, layer_root("enhance")),
        "contour.binarize_s": total(layer_own, named("contour.binarize_image_contour")),
        "contour.enhance_s": total(layer_own, named("contour.enhance_image_contour")),
        "pipeline.self_s": total(layer_own, layer_root("pipeline")),
        "cli.self_s": total(layer_own, layer_root("cli")),
        "synth.generate_s": total(layer_own, layer_root("synth")),
    }
    for k in ("sites_evaluated", "coarse_evals", "fine_evals", "fine_calls", "span_lookups_computed"):
        m[f"projection.{k}"] = c[f"projection.{k}"]
    grid = c["projection.grid_sites"]
    m["projection.foreground_frac"] = c["projection.sites_evaluated"] / grid if grid else 0.0
    m["image.rotations"] = c["image.rotations"]
    m["image.rotated_mib_computed"] = c["image.rotated_bytes_computed"] / MIB
    for k in ("image.bilinear_samples", "image.pgm_bytes", "flowfield.csv_bytes", "flowfield.angles_at_points",
              "binarize.pixels", "enhance.pixels"):
        m[k] = c[k]
    pixels = c["binarize.pixels"]
    m["binarize.ridge_frac"] = c["binarize.ridge_pixels"] / pixels if pixels else 0.0
    for k in (1, 2):
        m[f"pipeline.iteration_{k}_s"] = 0.0
    for i, s in enumerate(spans):
        if s.name != "pipeline.run_iteration" or s.parent is None:
            continue
        k = 1 + sum(1 for t in spans[s.parent + 1 : i] if t.parent == s.parent and t.name == s.name)
        if k <= 2:
            m[f"pipeline.iteration_{k}_s"] += s.end - s.start
    m["trace.spans"] = len(spans)
    return m


# ---------------------------------------------------------------------------
# Memory


class PeakRecorder:
    """tracemalloc peaks of the whole image and of the flow and enhance stages.

    Stage wrappers reset the peak on entry, so the whole-image peak is kept
    as the running maximum of every peak read before a reset.
    """

    STAGES = {
        "projection.compute_flow_field": "projection.peak_mib",
        "enhance.enhance_image": "enhance.peak_mib",
        "contour.enhance_image_contour": "enhance.peak_mib",
    }

    def __init__(self):
        self.peaks = {v: 0.0 for v in self.STAGES.values()}
        self._overall = 0

    def wrapper(self, layer: str, name: str, fn):
        key = self.STAGES.get(f"{layer}.{name}")
        if key is None:
            return None

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base, peak = tracemalloc.get_traced_memory()
            self._overall = max(self._overall, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                self._overall = max(self._overall, peak)
                self.peaks[key] = max(self.peaks[key], (peak - base) / MIB)

        return measured

    def measure(self, call) -> tuple[float, object]:
        """Run ``call()`` under tracemalloc; returns (whole peak in MiB, result)."""
        self._overall = 0
        tracemalloc.start()
        try:
            with instrument(self.wrapper):
                result = call()
            self._overall = max(self._overall, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return self._overall / MIB, result
