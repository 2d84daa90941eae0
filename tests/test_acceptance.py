"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line with its measured numbers; run

    pytest tests/test_acceptance.py -v -s

to see them. The workload is the 16-orientation suite: 128x128 parallel
sinusoids, period 8, orientations k*pi/16, clean and with seeded noise of
standard deviation 40.
"""

import math
import time

import numpy as np
import pytest

import ridgeflow as rf
from ridgeflow.cli import run_cli

from oracles import (
    INTERIOR_MARGIN,
    DirectDeviationEvaluator,
    flow_mae,
    inner_pixel_mask,
    perpendicular_deviation,
    reference_flow_field,
    suite_specs,
)

PI_16 = math.pi / 16
PI_32 = math.pi / 32
PI_64 = math.pi / 64


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bilin_vec(arr: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Independent vectorized bilinear probe used by measurement oracles."""
    h, w = arr.shape
    x0 = np.clip(np.floor(X).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(Y).astype(int), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = X - x0
    fy = Y - y0
    return (
        arr[y0, x0] * (1 - fx) * (1 - fy)
        + arr[y0, x1] * fx * (1 - fy)
        + arr[y1, x0] * (1 - fx) * fy
        + arr[y1, x1] * fx * fy
    )


@pytest.fixture(scope="module")
def clean_suite():
    return [(spec, *rf.generate(spec)) for spec in suite_specs(noise=0.0)]


@pytest.fixture(scope="module")
def noisy_suite():
    return [(spec, *rf.generate(spec)) for spec in suite_specs(noise=40.0)]


@pytest.fixture(scope="module")
def clean_flows(clean_suite):
    flows = []
    t0 = time.perf_counter()
    for _, img, _ in clean_suite:
        flows.append(rf.compute_flow_field(img))
    return flows, time.perf_counter() - t0


def test_criterion_1_flow_accuracy_clean(clean_suite, clean_flows):
    flows, elapsed = clean_flows
    maes = [
        flow_mae(flow, truth, img.width, img.height)
        for (_, img, truth), flow in zip(clean_suite, flows)
    ]
    ok = max(maes) <= PI_32 and elapsed < 60.0
    _report(1, ok, f"clean suite max MAE {max(maes):.5f} <= pi/32 ({PI_32:.5f}); 16 flows in {elapsed:.1f}s < 60s")


def test_criterion_2_noisy_projection_beats_gradient(noisy_suite):
    worst_proj = 0.0
    beats = True
    for _, img, truth in noisy_suite:
        report = rf.compare_methods(img, truth=truth, interior_margin=INTERIOR_MARGIN)
        worst_proj = max(worst_proj, report.mae_projection)
        beats &= report.mae_projection <= report.mae_gradient
    ok = beats and worst_proj <= PI_16
    _report(2, ok, f"noise 40: projection <= gradient on all 16 images: {beats}; "
                   f"worst projection MAE {worst_proj:.5f} <= pi/16 ({PI_16:.5f})")


def test_criterion_3_binarization_oracle_and_affine_invariance(clean_suite, clean_flows):
    flows, _ = clean_flows
    worst = 1.0
    for (_, img, _), flow in zip(clean_suite, flows):
        binary = rf.binarize_image(img, flow)
        oracle_ridge = img.pixels.astype(np.float64) < 127.5
        inner = inner_pixel_mask(img.height, img.width)
        worst = min(worst, float(((binary.bits == 0) == oracle_ridge)[inner].mean()))

    spec = rf.SyntheticSpec(width=128, height=128, pattern="parallel",
                            orientation=5 * PI_16, period=8.0, amplitude=60.0, offset=63.5)
    img, _ = rf.generate(spec)
    flow = rf.compute_flow_field(img)
    base = rf.binarize_image(img, flow)
    exact = True
    for a, b in ((2, 0), (2, 3)):
        remapped = rf.GrayImage(img.pixels.astype(np.int64) * a + b)
        exact &= bool(np.array_equal(rf.binarize_image(remapped, flow).bits, base.bits))

    ok = worst >= 0.90 and exact
    _report(3, ok, f"midline-oracle agreement worst {worst:.4f} >= 0.90; affine remap exact: {exact}")


def test_criterion_4_enhancement_contract(noisy_suite):
    # convex combination bounds on random images with random flows and masks
    rng = np.random.RandomState(77)
    bounds_ok = True
    for _ in range(5):
        img = rf.GrayImage(rng.randint(10, 240, size=(48, 48)).astype(np.int64))
        valid = rng.rand(24, 24) > 0.2
        flow = rf.FlowField(np.where(valid, rng.uniform(0, math.pi, (24, 24)), 0.0), valid, 2)
        binary = rf.BinaryImage((rng.rand(48, 48) > 0.5).astype(np.int64))
        vals = rf.enhance_values(img, binary, flow)
        bounds_ok &= bool(vals.min() >= img.pixels.min() - 1e-9)
        bounds_ok &= bool(vals.max() <= img.pixels.max() + 1e-9)

    # along-ridge variance decreases on the noisy suite
    worst_frac = 1.0
    for spec, img, truth in noisy_suite:
        clean_img, _ = rf.generate(rf.SyntheticSpec(
            width=spec.width, height=spec.height, pattern="parallel",
            orientation=spec.orientation, period=spec.period))
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        enhanced = rf.enhance_image(img, binary, flow)
        inner = inner_pixel_mask(img.height, img.width)
        ys, xs = np.nonzero((clean_img.pixels < 64) & inner)
        xs = xs[::5].astype(np.float64)
        ys = ys[::5].astype(np.float64)
        ux, uy = math.cos(spec.orientation), math.sin(spec.orientation)
        offs = np.arange(-8, 9, dtype=np.float64)[:, None]
        X = xs[None, :] + offs * ux
        Y = ys[None, :] + offs * uy
        before = _bilin_vec(img.as_float(), X, Y).var(axis=0)
        after = _bilin_vec(enhanced.as_float(), X, Y).var(axis=0)
        worst_frac = min(worst_frac, float((after < before).mean()))
    ok = bounds_ok and worst_frac >= 0.90
    _report(4, ok, f"convex bounds never violated: {bounds_ok}; "
                   f"along-ridge variance decreased for >= {worst_frac:.4f} of ridge pixels (>= 0.90)")


def test_criterion_5_iteration_never_degrades(noisy_suite):
    ok = True
    worst_jump = -1.0
    for _, img, truth in noisy_suite:
        result = rf.run_pipeline(img, rf.PipelineConfig(iterations=2))
        mae1 = flow_mae(result.records[0].flow, truth, img.width, img.height)
        mae2 = flow_mae(result.records[1].flow, truth, img.width, img.height)
        worst_jump = max(worst_jump, mae2 - mae1)
        ok &= mae2 <= mae1 + PI_64
    _report(5, ok, f"iteration-2 MAE - iteration-1 MAE worst {worst_jump:+.5f} <= pi/64 ({PI_64:.5f}) on all images")


def test_criterion_6_fast_path_equivalence(clean_suite, clean_flows):
    flows, _ = clean_flows
    cfg = rf.FlowConfig()
    agree_num = agree_den = 0
    worst_mu = 0.0
    for (spec, img, truth), fast in zip(clean_suite, flows):
        slow = reference_flow_field(img, cfg, evaluator=DirectDeviationEvaluator)
        both = fast.valid & slow.valid
        agree_num += int((fast.angles[both] == slow.angles[both]).sum())
        agree_den += int(both.sum())

        inner = rf.interior_site_mask(fast, img.width, img.height, INTERIOR_MARGIN)
        ys, xs = np.nonzero(fast.valid & inner)
        px = xs.astype(np.float64) * cfg.stride
        py = ys.astype(np.float64) * cfg.stride
        alpha_star = (spec.orientation - math.pi / 2) % math.pi
        mu_fast = rf.RotatedDeviationEvaluator(img, cfg).mean_deviation(alpha_star, px, py)
        mu_slow = DirectDeviationEvaluator(img, cfg).mean_deviation(alpha_star, px, py)
        worst_mu = max(worst_mu, float(np.nanmax(np.abs(mu_fast - mu_slow))))
    frac = agree_num / agree_den
    ok = frac >= 0.95 and worst_mu <= 2.0
    _report(6, ok, f"identical argmin at {frac:.4f} of valid sites (>= 0.95); "
                   f"max |mu_fast - mu_direct| at the optimal angle {worst_mu:.3f} <= 2.0")


def test_criterion_7_half_line_rule():
    # exact property: the min rule never exceeds the full-segment deviation
    spec = rf.SyntheticSpec(width=96, height=96, pattern="parallel",
                            orientation=3 * PI_16, period=8.0, noise_sigma=40.0, rng_seed=5)
    img, _ = rf.generate(spec)
    cfg_min = rf.FlowConfig()
    cfg_full = rf.FlowConfig(use_half_line_rule=False)
    rng = np.random.RandomState(6)
    exact = True
    for _ in range(400):
        q = rf.Point(rng.uniform(0, 95), rng.uniform(0, 95))
        alpha = rng.uniform(0, math.pi)
        full = perpendicular_deviation(img, q, alpha, cfg_full)
        if full is None:
            continue
        exact &= perpendicular_deviation(img, q, alpha, cfg_min) <= full + 1e-12

    # near a stripe boundary the min rule recovers the flow more accurately
    spec = rf.SyntheticSpec(width=128, height=128, pattern="half_plane_stripe",
                            period=8.0, noise_sigma=40.0, rng_seed=7)
    img, truth = rf.generate(spec)
    f_min = rf.compute_flow_field(img, cfg_min)
    f_full = rf.compute_flow_field(img, cfg_full)
    boundary = spec.width / 2.0
    xs = np.tile(f_min.site_xs(), f_min.grid_height).reshape(f_min.grid_height, -1)
    band = (xs >= boundary - spec.period) & (xs < boundary)
    inner = rf.interior_site_mask(f_min, 128, 128, INTERIOR_MARGIN)
    sel_min = band & inner & truth.valid & f_min.valid
    sel_full = band & inner & truth.valid & f_full.valid
    mae_min = float(rf.angular_distance(f_min.angles[sel_min], truth.angles[sel_min]).mean())
    mae_full = float(rf.angular_distance(f_full.angles[sel_full], truth.angles[sel_full]).mean())

    ok = exact and mae_min < mae_full
    _report(7, ok, f"sigma(q) <= sigma(full segment) exact: {exact}; boundary-band MAE "
                   f"{mae_min:.5f} (min rule) < {mae_full:.5f} (full segment only)")


def test_criterion_8_coarse_to_fine_near_exhaustive(clean_suite, clean_flows):
    flows, _ = clean_flows
    cfg = rf.FlowConfig()
    grid = np.arange(32) * PI_32
    hit = total = 0
    for (_, img, _), flow in zip(clean_suite, flows):
        ev = rf.RotatedDeviationEvaluator(img, cfg)
        ys, xs = np.nonzero(flow.valid)
        px = xs.astype(np.float64) * cfg.stride
        py = ys.astype(np.float64) * cfg.stride
        mu = np.stack([
            np.where(np.isnan(m), np.inf, m)
            for m in (ev.mean_deviation(float(a), px, py) for a in grid)
        ])
        exhaustive = (grid[np.argmin(mu, axis=0)] + math.pi / 2) % math.pi
        d = rf.angular_distance(flow.angles[flow.valid], exhaustive)
        hit += int((d <= PI_32 + 1e-12).sum())
        total += d.size
    frac = hit / total
    _report(8, frac >= 0.90, f"refined angle within pi/32 of the exhaustive pi/32-grid optimum "
                             f"at {frac:.4f} of valid sites (>= 0.90)")


def test_criterion_9_contour_consistency(clean_suite, clean_flows):
    flows, _ = clean_flows
    worst_frac = 1.0
    for (_, img, _), flow in zip(clean_suite, flows):
        binary = rf.binarize_image(img, flow)
        lin = rf.enhance_values(img, binary, flow)
        con = rf.contour_enhance_values(img, binary, flow)
        inner = inner_pixel_mask(img.height, img.width)
        worst_frac = min(worst_frac, float((np.abs(lin - con) < 1.0)[inner].mean()))

    spec = rf.SyntheticSpec(width=128, height=128, pattern="concentric", period=8.0)
    _, truth = rf.generate(spec)
    center = (spec.width - 1) / 2.0
    worst_drift = 0.0
    for r0, phi in [(20, 0.3), (25, 1.4), (30, 2.5), (40, 3.6), (45, 5.0)]:
        p = rf.Point(center + r0 * math.cos(phi), center + r0 * math.sin(phi))
        path = rf.trace_contour(truth, p, 10, bounds=(spec.width, spec.height))
        seed_r = math.hypot(p.x - center, p.y - center)
        for q in path.points:
            worst_drift = max(worst_drift, abs(math.hypot(q.x - center, q.y - center) - seed_r))

    ok = worst_frac >= 0.95 and worst_drift <= 1.5
    _report(9, ok, f"contour vs linear enhancement differ < 1.0 at {worst_frac:.4f} of interior pixels "
                   f"(>= 0.95); worst circle drift over 10 steps {worst_drift:.3f}px <= 1.5px")


def test_criterion_10_determinism_and_io(tmp_path):
    spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                            orientation=3 * PI_16, period=8.0, noise_sigma=15.0, rng_seed=11)
    img, _ = rf.generate(spec)
    src = tmp_path / "in.pgm"
    rf.save_pgm(img, src)

    # every CLI invocation is byte-reproducible
    runs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert run_cli(["synth", "--out", str(d / "s.pgm"), "--truth-out", str(d / "s.csv"),
                        "--noise-sigma", "25", "--seed", "3", "--orientation-deg", "33.75"]) == 0
        assert run_cli(["flow", str(src), "--out", str(d / "f.csv")]) == 0
        assert run_cli(["viz", str(src), "--flow", str(d / "f.csv"), "--out", str(d / "o.svg")]) == 0
        assert run_cli(["pipeline", str(src), "--iterations", "2", "--out-prefix", str(d) + "/"]) == 0
        assert run_cli(["binarize", str(src), "--out", str(d / "b.pgm")]) == 0
        assert run_cli(["enhance", str(src), "--out", str(d / "e.pgm")]) == 0
        runs.append(d)
    names = ["s.pgm", "s.csv", "f.csv", "o.svg", "b.pgm", "e.pgm",
             "flow_1.csv", "bin_1.pgm", "enh_1.pgm", "flow_2.csv", "bin_2.pgm", "enh_2.pgm"]
    reproducible = all((runs[0] / n).read_bytes() == (runs[1] / n).read_bytes() for n in names)

    # PGM round trip is the identity
    rng = np.random.RandomState(123)
    pgm_ok = True
    for i in range(5):
        im = rf.GrayImage(rng.randint(0, 256, size=(32, 48)).astype(np.int64))
        p = tmp_path / f"rt{i}.pgm"
        rf.save_pgm(im, p)
        pgm_ok &= bool(np.array_equal(rf.load_pgm(p).pixels, im.pixels))

    # flow CSV parses back to the emitted field exactly
    flow = rf.compute_flow_field(img)
    fp = tmp_path / "flow.csv"
    rf.save_flow_csv(flow, fp)
    back = rf.load_flow_csv(fp)
    fp2 = tmp_path / "flow2.csv"
    rf.save_flow_csv(back, fp2)
    csv_ok = (
        bool(np.array_equal(back.valid, flow.valid))
        and bool(np.array_equal(back.angles, np.where(flow.valid, flow.angles.round(6), 0.0)))
        and fp.read_bytes() == fp2.read_bytes()
    )

    ok = reproducible and pgm_ok and csv_ok
    _report(10, ok, f"CLI byte-reproducible: {reproducible}; PGM round-trip identity: {pgm_ok}; "
                    f"flow CSV exact round-trip: {csv_ok}")
