import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ridgeflow as rf
from ridgeflow.image import _round_bytes, band_rows, rotate_raster

from oracles import LineSegment, line_points, manual_bilinear, rotate_image, sample_bilinear, squared_intensities


def _write(tmp_path, name, payload: bytes):
    p = tmp_path / name
    p.write_bytes(payload)
    return p


class TestPgm:
    def test_load_maps_bytes_directly(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = rf.load_pgm(p)
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.ravel().tolist() == [0, 255, 128, 64]

    def test_load_rejects_wide_maxval(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(rf.PgmFormatError, match="unsupported maxval"):
            rf.load_pgm(p)

    def test_load_rejects_wrong_magic(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(rf.PgmFormatError, match="byte"):
            rf.load_pgm(p)

    def test_load_reports_truncation_offset(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(rf.PgmFormatError, match="truncated.*byte"):
            rf.load_pgm(p)

    # every message of the reader, with the byte it names; the path leads each
    @pytest.mark.parametrize("payload, message", [
        (b"", "missing magic number at byte 0"),
        (b" \n# only a comment", "missing magic number at byte 18"),
        (b"P6\n2 2\n255\n" + bytes(12), "expected binary PGM magic 'P5' at byte 0, found b'P6'"),
        (b"\nP5#x 2 2 255\n" + bytes(4), "expected binary PGM magic 'P5' at byte 1, found b'P5#x'"),
        (b"P5\n", "missing width at byte 3"),
        (b"P5 2x 2 255\n", "malformed width b'2x' at byte 3"),
        (b"P5 0123456789abcdefghij 2 255\n", "malformed width b'0123456789abcdef' at byte 3"),
        (b"P5 2\n# h\n", "missing height at byte 9"),
        (b"P5 2 -2 255\n", "malformed height b'-2' at byte 5"),
        (b"P5 2 2", "missing maxval at byte 6"),
        (b"P5 2 2 +255\n", "malformed maxval b'+255' at byte 7"),
        (b"P5 0 2 255\n", "non-positive dimensions 0x2 at byte 3"),
        (b"P5 3 0 255\n", "non-positive dimensions 3x0 at byte 3"),
        (b"P5 2 2 65535\n" + bytes(8), "unsupported maxval 65535 at byte 7 (only 255 is supported)"),
        (b"P5 2 2 255", "missing whitespace after maxval at byte 10"),
        (b"P5\n4 4\n255\n" + bytes(7), "truncated pixel data at byte 18 (need 16 bytes from byte 11)"),
    ], ids=["empty", "comment-only", "wrong-magic", "magic-with-hash", "no-width", "malformed-width",
            "long-token-cut", "no-height", "negative-height", "no-maxval", "signed-maxval", "zero-width",
            "zero-height", "wide-maxval", "no-whitespace-after-maxval", "truncated"])
    def test_each_format_error_message(self, tmp_path, payload, message):
        p = _write(tmp_path, "a.pgm", payload)
        with pytest.raises(rf.PgmFormatError) as err:
            rf.load_pgm(p)
        assert str(err.value) == f"{p}: {message}"

    def test_load_skips_comments(self, tmp_path):
        p = _write(tmp_path, "a.pgm", b"P5\n# a comment\n1 1\n255\n\x2a")
        assert rf.load_pgm(p).pixels[0, 0] == 42

    def test_save_single_pixel_and_header(self, tmp_path):
        p = tmp_path / "one.pgm"
        rf.save_pgm(rf.GrayImage(np.array([[42]], dtype=np.int64)), p)
        assert p.read_bytes() == b"P5\n1 1\n255\n\x2a"
        p2 = tmp_path / "wide.pgm"
        rf.save_pgm(rf.GrayImage(np.zeros((5, 3), dtype=np.int64)), p2)
        assert p2.read_bytes().startswith(b"P5\n3 5\n255\n")

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.RandomState(7)
        for i in range(8):
            img = rf.GrayImage(rng.randint(0, 256, size=(64, 64)).astype(np.int64))
            p = tmp_path / f"r{i}.pgm"
            rf.save_pgm(img, p)
            back = rf.load_pgm(p)
            assert np.array_equal(back.pixels, img.pixels)
            p2 = tmp_path / f"r{i}b.pgm"
            rf.save_pgm(back, p2)
            assert p.read_bytes() == p2.read_bytes()


class TestGrayImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rf.GrayImage(np.array([[300]], dtype=np.int64))
        with pytest.raises(ValueError):
            rf.GrayImage(np.array([[-1]], dtype=np.int64))

    def test_images_the_package_makes_are_read_only_bytes_and_callers_arrays_are_copied(self, tmp_path):
        # the package keeps the uint8 arrays it makes, read-only; a caller's array is checked and copied
        img, flow = rf.generate(rf.SyntheticSpec(width=40, height=32, pattern="concentric", rng_seed=1))
        binary = rf.binarize_image(img, flow)
        rf.save_pgm(img, tmp_path / "in.pgm")
        made = [rf.load_pgm(tmp_path / "in.pgm"), rf.binary_as_gray(binary), rf.invert(img), img,
                rf.enhance_image(img, binary, flow), rf.enhance_image_contour(img, binary, flow),
                rf.run_iteration(img)[2]]
        for image in made:
            assert image.pixels.dtype == np.uint8 and image.pixels.shape == (32, 40)
            assert not image.pixels.flags.writeable
        assert made[0].pixels.tobytes() == img.pixels.tobytes()
        assert made[2].pixels.tobytes() == (255 - img.pixels.astype(np.int64)).astype(np.uint8).tobytes()
        mine = np.full((2, 3), 7, dtype=np.uint8)
        image = rf.GrayImage(mine)
        mine[0, 0] = 9
        assert image.pixels[0, 0] == 7 and mine.flags.writeable

    def test_from_float_rounds_half_up_and_clamps(self):
        img = rf.GrayImage.from_float(np.array([[0.5, 254.4, 300.0, -5.0]]))
        assert img.pixels.ravel().tolist() == [1, 254, 255, 0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_float_rejects_non_finite_values(self, bad):
        values = np.array([[12.0, 200.0], [bad, 7.5]])
        before = values.copy()
        with pytest.raises(ValueError, match="finite"):
            rf.GrayImage.from_float(values)
        assert np.array_equal(values, before, equal_nan=True)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        band_pixels=st.integers(1, 40),
        bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
    )
    @example(seed=0, width=1, height=7, band_pixels=1, bad=None)
    @example(seed=1, width=7, height=1, band_pixels=3, bad=math.nan)
    def test_rounding_band_by_band_gives_the_bytes_of_from_float(self, seed, width, height, band_pixels, bad):
        """The enhance sweep rounds each band as it is made; the bytes are those of rounding the whole image."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(-40.0, 300.0, (height, width))
        # half-integers, which round up, and values at and past the clamps at 0 and 255
        edges = [-1e300, -0.5, -1e-300, 0.0, 254.49999999999997, 254.5, 255.0, 255.5, 1e300]
        picks = rng.random((height, width)) < 0.5
        n = int(picks.sum())
        values[picks] = np.where(rng.random(n) < 0.5, rng.integers(-3, 258, n) + 0.5, rng.choice(edges, n))
        if bad is not None:
            values[rng.integers(height), rng.integers(width)] = bad
        banded = np.empty((height, width), np.uint8)
        if bad is None:
            for rows in band_rows(width, height, band_pixels):
                banded[rows] = _round_bytes(values[rows])
            want = rf.GrayImage.from_float(values).pixels
            assert want.tobytes() == banded.tobytes()
            assert want.tobytes() == np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8).tobytes()
            return
        with pytest.raises(ValueError, match="finite"):
            rf.GrayImage.from_float(values)
        with pytest.raises(ValueError, match="finite"):
            for rows in band_rows(width, height, band_pixels):
                banded[rows] = _round_bytes(values[rows])


class TestBinaryImage:
    @pytest.mark.parametrize("value", [256, -255, 257])
    def test_bits_are_checked_before_the_byte_cast(self, value):
        # cast first, 256 and -255 wrapped to 0 and 1 and 257 to 1, and passed the check
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            rf.BinaryImage(np.array([[value, 0]]))


class TestBilinear:
    def test_exact_at_lattice(self):
        rng = np.random.RandomState(3)
        img = rf.GrayImage(rng.randint(0, 256, size=(8, 9)).astype(np.int64))
        for x, y in [(0, 0), (3, 5), (8, 7)]:
            assert sample_bilinear(img, rf.Point(x, y)) == float(img.pixels[y, x])

    def test_midpoint(self):
        img = rf.GrayImage(np.array([[0, 100]], dtype=np.int64))
        assert sample_bilinear(img, rf.Point(0.5, 0.0)) == 50.0

    def test_out_of_bounds_is_nan(self):
        img = rf.GrayImage(np.zeros((4, 4), dtype=np.int64))
        assert math.isnan(sample_bilinear(img, rf.Point(-0.5, 0.0)))
        assert math.isnan(sample_bilinear(img, rf.Point(0.0, 3.4)))
        assert math.isnan(sample_bilinear(img, rf.Point(-5, 3)))
        # non-finite coordinates are outside too, whichever axis carries them
        for bad in (math.nan, math.inf, -math.inf):
            assert math.isnan(sample_bilinear(img, rf.Point(bad, 1.0)))
            assert math.isnan(sample_bilinear(img, rf.Point(1.0, bad)))

    def test_matches_manual_oracle(self):
        rng = np.random.RandomState(11)
        img = rf.GrayImage(rng.randint(0, 256, size=(16, 16)).astype(np.int64))
        f = img.as_float()
        for _ in range(200):
            x = rng.uniform(-1, 16)
            y = rng.uniform(-1, 16)
            got = sample_bilinear(img, rf.Point(x, y))
            want = manual_bilinear(f, x, y)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_continuity(self):
        rng = np.random.RandomState(5)
        img = rf.GrayImage(rng.randint(0, 256, size=(12, 12)).astype(np.int64))
        f = img.as_float()
        max_step = float(np.abs(np.diff(f, axis=0)).max() + np.abs(np.diff(f, axis=1)).max())
        for _ in range(300):
            x = rng.uniform(0, 10.9)
            y = rng.uniform(0, 10.9)
            a = sample_bilinear(img, rf.Point(x, y))
            b = sample_bilinear(img, rf.Point(x + 0.05, y + 0.05))
            assert abs(a - b) < max_step


class TestRotation:
    def test_identity(self):
        rng = np.random.RandomState(2)
        img = rf.GrayImage(rng.randint(0, 256, size=(10, 14)).astype(np.int64))
        rot, mask = rotate_image(img, 0.0)
        assert np.array_equal(rot.pixels, img.pixels)
        assert mask.all()

    def test_quarter_turn_permutes_losslessly(self):
        img = rf.GrayImage(np.arange(6, dtype=np.int64).reshape(3, 2))
        rot, mask = rotate_image(img, math.pi / 2)
        assert rot.pixels.shape == (2, 3)
        assert mask.all()
        # derived from the mapping convention: dest(x, y) samples src(1-y, x)
        expected = np.array([[img.pixels[x, 1 - y] for x in range(3)] for y in range(2)])
        assert np.array_equal(rot.pixels, expected)

    def test_rejects_angle_outside_range(self):
        img = rf.GrayImage(np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            rotate_image(img, math.pi)
        with pytest.raises(ValueError):
            rotate_image(img, -0.1)

    def test_round_trip_artifacts_are_small(self):
        # smooth ramp, rotate by pi/4 then by 3pi/4 (net 180 degrees), compare
        # against the analytically rotated ramp on interior pixels
        w = h = 64

        def ramp(x, y):
            return 1.5 * x + 1.0 * y

        img = rf.GrayImage.from_float(np.fromfunction(lambda y, x: ramp(x, y), (h, w)))
        r1, m1 = rotate_image(img, math.pi / 4)
        r2, m2 = rotate_image(r1, 3 * math.pi / 4)

        def inverse_map(x, y, src_w, src_h, alpha):
            c, s = math.cos(alpha), math.sin(alpha)
            out_w = math.ceil(src_w * abs(c) + src_h * abs(s) - 1e-9)
            out_h = math.ceil(src_w * abs(s) + src_h * abs(c) - 1e-9)
            dx = x - (out_w - 1) / 2.0
            dy = y - (out_h - 1) / 2.0
            return (
                (src_w - 1) / 2.0 + c * dx - s * dy,
                (src_h - 1) / 2.0 + s * dx + c * dy,
            )

        errs = []
        h2, w2 = r2.pixels.shape
        for y in range(h2 // 2 - 12, h2 // 2 + 12):
            for x in range(w2 // 2 - 12, w2 // 2 + 12):
                mx, my = inverse_map(x, y, *r1.pixels.shape[::-1], 3 * math.pi / 4)
                sx, sy = inverse_map(mx, my, w, h, math.pi / 4)
                errs.append(abs(float(r2.pixels[y, x]) - ramp(sx, sy)))
        assert np.mean(errs) < 2.0

    def test_rotated_raster_marks_outside_invalid(self):
        img = rf.GrayImage(np.full((8, 8), 9, dtype=np.int64))
        rr = rotate_raster(img.as_float(), math.pi / 4)
        outside = np.isnan(rr.values)
        assert outside.any()
        assert (~outside).any() and np.isfinite(rr.values[~outside]).all()


class TestSquares:
    def test_endpoints(self):
        img = rf.GrayImage(np.array([[0, 255]], dtype=np.int64))
        sq = squared_intensities(img)
        assert sq[0, 0] == 0.0
        assert sq[0, 1] == 65025.0

    def test_one_pass_variance_matches_two_pass(self):
        rng = np.random.RandomState(13)
        img = rf.GrayImage(rng.randint(0, 256, size=(6, 32)).astype(np.int64))
        sq = squared_intensities(img)
        f = img.as_float()
        for row in range(6):
            for start in range(0, 27):
                vals = f[row, start : start + 5]
                one_pass = sq[row, start : start + 5].mean() - vals.mean() ** 2
                two_pass = float(((vals - vals.mean()) ** 2).mean())
                assert one_pass == pytest.approx(two_pass, rel=1e-6, abs=1e-9)


class TestLinePoints:
    def test_horizontal(self):
        seg = LineSegment(rf.Point(5, 5), 0.0, 2, 1.0)
        pts = line_points(seg)
        assert [(round(p.x, 9), round(p.y, 9)) for p in pts] == [(3, 5), (4, 5), (5, 5), (6, 5), (7, 5)]
        assert pts[seg.half_length] == rf.Point(5, 5)

    def test_vertical(self):
        pts = line_points(LineSegment(rf.Point(2, 4), math.pi / 2, 2, 1.0))
        assert [round(p.y, 9) for p in pts] == [2, 3, 4, 5, 6]
        assert all(abs(p.x - 2) < 1e-12 for p in pts)

    def test_points_stay_within_reach(self):
        seg = LineSegment(rf.Point(0, 0), 1.1, 7, 0.75)
        reach = seg.half_length * seg.spacing + 1e-9
        assert all(math.hypot(p.x, p.y) <= reach for p in line_points(seg))

    def test_rejects_bad_segment(self):
        with pytest.raises(ValueError):
            LineSegment(rf.Point(0, 0), 0.0, 0, 1.0)
        with pytest.raises(ValueError):
            LineSegment(rf.Point(0, 0), 0.0, 2, 0.0)
