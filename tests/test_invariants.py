"""The paper's invariants as properties: intensity inversion, 90-degree
rotation equivariance, pi-periodicity under a 180-degree turn and the flow
CSV round trip."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeflow as rf
from ridgeflow.flowfield import angular_distance

specs = st.builds(
    rf.SyntheticSpec,
    width=st.integers(40, 72),
    height=st.integers(40, 72),
    pattern=st.sampled_from(["parallel", "concentric"]),
    orientation=st.floats(0.0, math.pi, exclude_max=True),
    period=st.floats(5.0, 14.0),
    noise_sigma=st.floats(0.0, 80.0),
    rng_seed=st.integers(0, 2**31 - 1),
)


@settings(max_examples=25, deadline=None)
@given(spec=specs, stride=st.integers(1, 3), half_rule=st.booleans())
def test_intensity_inversion_leaves_flow_unchanged(spec, stride, half_rule):
    img, _ = rf.generate(spec)
    cfg = rf.FlowConfig(stride=stride, use_half_line_rule=half_rule)
    flow = rf.compute_flow_field(img, cfg)
    inverted = rf.compute_flow_field(rf.GrayImage(255 - img.pixels), cfg)
    assert flow.valid.tobytes() == inverted.valid.tobytes()
    if spec.noise_sigma >= 1.0:
        # exact: about 1000 seeded images with sigma 1-80 (strides 1-3, both
        # rules) all gave identical bytes
        assert flow.angles.tobytes() == inverted.angles.tobytes()
    else:
        # Nearly noise-free rings keep local mirror symmetries. There the
        # mirrored candidates of a site tie in exact arithmetic, and rounding
        # picks the winner differently for I and 255 - I. Over 700 images of
        # this strategy with sigma below 1 at most 3.2% of the sites differed.
        assert (flow.angles != inverted.angles).mean() <= 0.05


@settings(max_examples=25, deadline=None)
@given(
    half=st.integers(20, 36),
    orientation=st.floats(0.0, math.pi, exclude_max=True),
    period=st.floats(6.0, 12.0),
    noise=st.floats(0.0, 40.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_rot90_shifts_interior_angles_by_half_pi(half, orientation, period, noise, seed):
    # An odd side maps the stride-2 grid onto itself under np.rot90. The
    # discrete search is not exactly equivariant: the statistics offset and
    # the rotated lattices differ between the two images. Over 600 seeded
    # parallel images (sides 41-73, sigma 0-40, period 6-12) the interior
    # mean difference was at most 0.075 rad and no site moved by more than
    # 3 fine steps (3pi/32); the validity masks were always equal. Parallel
    # ridges only: near a concentric centre the orientation is undefined.
    n = 2 * half + 1
    img, _ = rf.generate(rf.SyntheticSpec(width=n, height=n, pattern="parallel", orientation=orientation,
                                          period=period, noise_sigma=noise, rng_seed=seed))
    flow = rf.compute_flow_field(img)
    turned = rf.compute_flow_field(rf.GrayImage(np.rot90(img.pixels).copy()))
    assert np.array_equal(np.rot90(flow.valid), turned.valid)

    margin = 16  # tangent + perpendicular half lengths
    ys, xs = np.mgrid[0 : turned.grid_height, 0 : turned.grid_width] * 2
    interior = (xs >= margin) & (xs < n - margin) & (ys >= margin) & (ys < n - margin) & turned.valid
    d = angular_distance(turned.angles[interior], np.mod(np.rot90(flow.angles)[interior] + math.pi / 2, math.pi))
    assert d.size > 0
    assert d.mean() <= 0.1
    assert d.max() <= math.pi / 8 + 1e-9


# Ceilings of the 180-degree property per (pattern, half-line rule): the interior
# mean and max angular distance and the share of sites moved beyond pi/8. Over
# 3400 seeded parallel and 3500 ring images per rule (sides 49-73, sigma 0-40,
# period 6-12, 30% of them at edge values such as sigma 0 and axis-aligned
# ridges), the worst were: parallel, rule on, mean 0.084 and max 3pi/32;
# parallel, rule off, mean 0.063 and max pi/32; rings, rule off, mean 0.100
# and 3.6% beyond pi/8; rings, rule on, mean 0.53 and 54% beyond pi/8. That
# last is ROADMAP item 4's tilt: on a ring each half span prefers a tilt of
# +-s/(2r), and which half wins flips with the turn. Gating or retiring the
# rule should bring its ceiling down to the rule-off one.
HALF_TURN_CEILINGS = {
    ("parallel", True): (0.12, 4 * math.pi / 32, 0.0),
    ("parallel", False): (0.09, 2 * math.pi / 32, 0.0),
    ("concentric", False): (0.14, math.pi / 2, 0.06),
    ("concentric", True): (0.7, math.pi / 2, 0.75),  # item 4
}


@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(24, 36),
    pattern=st.sampled_from(["parallel", "concentric"]),
    half_rule=st.booleans(),
    orientation=st.floats(0.0, math.pi, exclude_max=True),
    period=st.floats(6.0, 12.0),
    noise=st.floats(0.0, 40.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_half_turn_keeps_interior_angles(half, pattern, half_rule, orientation, period, noise, seed):
    # An odd side maps the stride-2 grid onto itself under [::-1, ::-1], and an
    # orientation is pi-periodic, so a half turn should leave every angle in
    # place. The search is not exactly symmetric: the statistics offset and the
    # rotated lattices change with the turn. The validity masks were always
    # equal. Rings are scored at r >= 6, away from the undefined centre.
    n = 2 * half + 1
    img, _ = rf.generate(rf.SyntheticSpec(width=n, height=n, pattern=pattern, orientation=orientation,
                                          period=period, noise_sigma=noise, rng_seed=seed))
    cfg = rf.FlowConfig(use_half_line_rule=half_rule)
    flow = rf.compute_flow_field(img, cfg)
    turned = rf.compute_flow_field(rf.GrayImage(img.pixels[::-1, ::-1].copy()), cfg)
    assert np.array_equal(flow.valid[::-1, ::-1], turned.valid)

    margin = 16  # tangent + perpendicular half lengths
    ys, xs = np.mgrid[0 : turned.grid_height, 0 : turned.grid_width] * 2
    interior = (xs >= margin) & (xs < n - margin) & (ys >= margin) & (ys < n - margin) & turned.valid
    if pattern == "concentric":
        interior &= np.hypot(xs - half, ys - half) >= 6
    d = angular_distance(turned.angles[interior], flow.angles[::-1, ::-1][interior])
    mean, most, beyond = HALF_TURN_CEILINGS[pattern, half_rule]
    assert d.size > 0
    assert d.mean() <= mean
    assert d.max() <= most + 1e-9
    assert (d > math.pi / 8 + 1e-9).mean() <= beyond


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    gh=st.integers(1, 12),
    gw=st.integers(1, 12),
    stride=st.integers(1, 4),
    with_coherence=st.booleans(),
)
def test_flow_csv_round_trip(tmp_path_factory, data, gh, gw, stride, with_coherence):
    cells = gh * gw
    angles = data.draw(st.lists(st.floats(0.0, math.pi, exclude_max=True), min_size=cells, max_size=cells))
    valid = data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    coherence = None
    if with_coherence:
        coherence = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells))).reshape(gh, gw)
    flow = rf.FlowField(np.array(angles).reshape(gh, gw), np.array(valid).reshape(gh, gw), stride, coherence=coherence)
    path = tmp_path_factory.mktemp("csv") / "flow.csv"

    rf.save_flow_csv(flow, path)
    text = path.read_text()
    back = rf.load_flow_csv(path)
    # the CSV has no stride field: a one-site grid cannot carry its stride and reads back as stride 1
    assert back.stride == (stride if cells > 1 else 1)
    assert back.valid.tobytes() == flow.valid.tobytes()
    # six decimals: each angle within 5e-7 rad as an orientation (an angle
    # a hair below pi is written as 0)
    assert angular_distance(back.angles, flow.angles).max() <= 5e-7 + 1e-12
    if with_coherence:
        assert np.abs(back.coherence - flow.coherence).max() <= 5e-7 + 1e-12
    else:
        assert back.coherence is None

    # the loaded flow is a fixed point: it writes the same bytes and reads back bit for bit
    rf.save_flow_csv(back, path)
    assert path.read_text() == text
    again = rf.load_flow_csv(path)
    assert again.angles.tobytes() == back.angles.tobytes()
    assert again.valid.tobytes() == back.valid.tobytes()
    if with_coherence:
        assert again.coherence.tobytes() == back.coherence.tobytes()
