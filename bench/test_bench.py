"""Tests of the benchmark itself, on shrunken workloads.

Run from the root of a checkout: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import run

run.use_checkout_sources()

import ridgeflow as rf  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCALE = 2  # 128x128 pipeline images, 256x256 CLI images
COUNTS = (
    "projection.coarse_evals",
    "projection.fine_evals",
    "projection.fine_calls",
    "image.rotations",
    "flowfield.angles_at_points",
)


def _small(name):
    return workloads.workloads(SCALE)[name]


def _one_output(tmp_path):
    wl = _small("pipeline-256")
    item = wl.make_inputs(7, tmp_path)[0]
    return item, wl.collect(item, wl.run(item))


def test_check_accepts_a_real_output(tmp_path):
    item, out = _one_output(tmp_path)
    problems, errors = workloads.check_output(item, out)
    assert problems == []
    assert errors.size > 0


def test_check_rejects_nan_angle(tmp_path):
    item, out = _one_output(tmp_path)
    flow = out.flows[-1]
    angles = flow.angles.copy()
    valid = flow.valid.copy()
    angles[3, 3], valid[3, 3] = math.nan, True
    out.flows[-1] = rf.FlowField(angles, valid, flow.stride)  # FlowField lets NaN through
    problems, _ = workloads.check_output(item, out)
    assert any("non-finite" in p for p in problems)


def test_check_rejects_wrong_grid(tmp_path):
    item, out = _one_output(tmp_path)
    flow = out.flows[-1]
    out.flows[-1] = rf.FlowField(flow.angles[:-1], flow.valid[:-1], flow.stride)
    problems, _ = workloads.check_output(item, out)
    assert any("grid" in p for p in problems)


def test_check_rejects_bit_outside_0_1(tmp_path):
    item, out = _one_output(tmp_path)
    out.bits = out.bits.astype(np.int64)
    out.bits[0, 0] = 2
    problems, _ = workloads.check_output(item, out)
    assert problems == ["binary bit outside {0, 1}"]


@pytest.mark.parametrize("name", ["pipeline-256", "cli-512"])
def test_counts_repeat_exactly(name):
    first = run.run_traced(_small(name), seed=3)
    second = run.run_traced(_small(name), seed=3)
    for tally, _ in (first, second):
        assert tally.failed == 0, tally.problems
    for key in COUNTS:
        assert first[1][key] == second[1][key], key
    assert first[1]["projection.coarse_evals"][0] > 0


def test_mae_repeats_exactly():
    wl = _small("contour-gradient-256")
    a = run.run_end_to_end(wl, seed=5, seconds=0, setup_s=1.0)
    b = run.run_end_to_end(wl, seed=5, seconds=0, setup_s=1.0)
    assert a[0].failed == b[0].failed == 0
    assert a[1]["mae_rad"] == b[1]["mae_rad"]
    assert 0 < a[1]["mae_rad"][0] < workloads.MAE_CEILING_RAD


@pytest.mark.parametrize("name", ["pipeline-256", "contour-gradient-256", "cli-512"])
def test_traced_and_untraced_outputs_match(name, tmp_path):
    wl = _small(name)
    items = wl.make_inputs(11, tmp_path)
    plain = [wl.collect(it, wl.run(it)).digest() for it in items]
    tr = tracer.Tracer()
    traced = []
    with tracer.instrument(tr.wrapper):
        for it in items:
            with tr.image_scope(it.index):
                raw = wl.run(it)
            traced.append(wl.collect(it, raw).digest())
    assert traced == plain
    assert tr.spans and all(s.end >= s.start for s in tr.spans)
    # the originals are back once the wrappers are removed
    assert rf.run_pipeline.__module__ == "ridgeflow.pipeline"
    assert not hasattr(rf.projection.compute_flow_field, "__wrapped__")


def test_missing_name_is_reported_not_fatal(monkeypatch, tmp_path):
    monkeypatch.delattr(rf.contour, "enhance_image_contour")
    assert tracer.missing_layers() == {"contour": ["enhance_image_contour"]}
    wl = _small("pipeline-256")
    item = wl.make_inputs(1, tmp_path)[0]
    tr = tracer.Tracer()
    with tracer.instrument(tr.wrapper), tr.image_scope(0):
        wl.run(item)
    metrics = tracer.layer_metrics(tr)
    assert metrics["contour.enhance_s"] == 0.0
    assert metrics["projection.flow_s"] > 0.0


def test_layer_self_time_excludes_other_layers():
    tr = tracer.Tracer()
    tr.spans = [
        tracer.Span("projection.compute_flow_field", "projection", None, 0, 0.0, 10.0),
        tracer.Span("projection.RotatedDeviationEvaluator.mean_deviation", "projection", 0, 0, 1.0, 6.0, "coarse"),
        tracer.Span("image.rotate_raster", "image", 1, 0, 2.0, 4.0),
        tracer.Span("image.bilinear_many", "image", 2, 0, 2.5, 3.5),
    ]
    m = tracer.layer_metrics(tr)
    assert m["projection.flow_s"] == pytest.approx(8.0)
    assert m["projection.coarse_s"] == pytest.approx(3.0)
    assert m["image.rotate_s"] == pytest.approx(1.0)
    assert m["image.bilinear_s"] == pytest.approx(1.0)
