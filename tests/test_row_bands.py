"""Row-banded per-pixel stages: band-size independence, bounded memory and
the flow/image grid contract of binarize, enhance and their contour variants."""

import math
import tracemalloc

import numpy as np
import pytest

import ridgeflow as rf
import ridgeflow.image as rimage
import ridgeflow.pipeline as rpipeline
import ridgeflow.projection as rproj
from ridgeflow.binarize import _bands
from ridgeflow.flowfield import _grid_sites
from ridgeflow.viz import _flow_overlay_svg

from oracles import (binarize_pixel, binarize_pixel_contour, canvas, canvas_reader, check_band_reads,
                     enhance_pixel, enhance_pixel_contour, reference_mean_deviation_map, sample_bilinear)

W, H = 131, 97  # non-square; 7 rows per band does not divide H


def _stages(img, flow):
    """Outputs of the four image-level stages, each as raw bytes."""
    binary = rf.binarize_image(img, flow)
    contour_binary = rf.binarize_image_contour(img, flow)
    return [
        binary.bits.tobytes(),
        rf.enhance_values(img, binary, flow).tobytes(),
        contour_binary.bits.tobytes(),
        rf.contour_enhance_values(img, contour_binary, flow).tobytes(),
    ]


@pytest.fixture(scope="module")
def noisy():
    img, _ = rf.generate(rf.SyntheticSpec(width=W, height=H, pattern="concentric", period=9.0,
                                          noise_sigma=40.0, rng_seed=11))
    px = img.pixels.astype(np.int64)
    px[:, :40] = 128  # flat background: invalid sites and undefined pixels
    return rf.GrayImage(px)


class TestRowBands:
    @pytest.mark.parametrize("band_pixels, n_bands", [(1, H), (7 * W + 3, math.ceil(H / 7)), (H * W, 1)])
    def test_bands_cover_each_row_once_in_order(self, monkeypatch, band_pixels, n_bands):
        monkeypatch.setattr(rimage, "BAND_PIXELS", band_pixels)
        sx, sy = _grid_sites(W, H, 3)
        flow = rf.FlowField(np.zeros((sy.size, sx.size)), np.zeros((sy.size, sx.size), dtype=bool), 3)
        bands = list(_bands(rf.GrayImage(np.zeros((H, W), dtype=np.uint8)), flow, 4))
        assert len(bands) == n_bands
        rows = np.concatenate([np.arange(H)[r] for r, *_ in bands])
        assert rows.tolist() == list(range(H))
        for r, _, xs, ys, theta in bands:
            want_y, want_x = np.mgrid[r, 0:W]
            assert xs.dtype == ys.dtype == np.float64
            assert np.array_equal(xs, want_x) and np.array_equal(ys, want_y)
            assert theta.shape == xs.shape and np.isnan(theta).all()  # an all-invalid flow orients no pixel

    @pytest.mark.parametrize("method", ["projection", "gradient"])
    def test_outputs_byte_identical_across_band_sizes(self, noisy, monkeypatch, method):
        outs = []
        for band_pixels in (1, 7 * W + 3, H * W):
            monkeypatch.setattr(rimage, "BAND_PIXELS", band_pixels)
            # the gradient flow sums its tensor in bands of site rows too
            flow = rf.compute_flow_field(noisy) if method == "projection" else rf.compute_flow_field_gradient(noisy)
            assert flow.valid.any() and not flow.valid.all()
            sums = [flow.angles, flow.valid] + ([] if flow.coherence is None else [flow.coherence])
            outs.append([a.tobytes() for a in sums] + _stages(noisy, flow))
        assert outs[0] == outs[2]
        assert outs[1] == outs[2]


class TestBandedFlowStage:
    """Rotation and the per-angle deviation maps run in row bands too."""

    @pytest.mark.parametrize("sampling_offset", [(0.0, 0.0), (rproj._STAT_OFFSET, rproj._STAT_OFFSET)])
    def test_rotation_maps_and_flow_byte_identical_across_band_sizes(self, noisy, monkeypatch, sampling_offset):
        values = noisy.as_float()
        cfg = rf.FlowConfig()
        outs = []
        for band_pixels in (1, 7 * W + 3, 4 * H * W):
            monkeypatch.setattr(rimage, "BAND_PIXELS", band_pixels)
            monkeypatch.setattr(rproj, "_MAP_BAND_PIXELS", band_pixels)
            got = []
            for alpha in (0.0, 0.3, math.pi / 4, math.pi / 2, 2.9):
                rr = rimage.rotate_raster(values, alpha, sampling_offset)
                # every map site, in a shuffled order
                h, w = rr.values.shape
                row, col = np.mgrid[0 : h + 2 * cfg.perp_half_length, 0 : w + 2 * cfg.tangent_half_length]
                order = np.random.default_rng(7).permutation(row.size)
                row, col = row.ravel()[order], col.ravel()[order]
                reads = []
                mu = rproj._site_mean_deviations(canvas_reader(rr.values, reads), (h, w), cfg, row, col, {})
                assert mu.tobytes() == reference_mean_deviation_map(canvas(rr.values), cfg)[row, col].tobytes()
                # each band of map rows r0 .. r1 - 1 reads canvas rows r0 - 2s .. r1 - 1, the whole map width,
                # 2t columns past either edge of the canvas
                check_band_reads(reads, row, col, (h, w), cfg, band_pixels)
                t = cfg.tangent_half_length
                assert all((c.start, c.stop) == (-2 * t, w + 2 * t) for _, c in reads)
                got += [rr.values.tobytes(), mu.tobytes()]  # the values carry the NaN pattern
            flow = rf.compute_flow_field(noisy)
            got += [flow.angles.tobytes(), flow.valid.tobytes()]
            outs.append(got)
        assert outs[0] == outs[2]
        assert outs[1] == outs[2]


class TestBoundedMemory:
    # Traced peaks measured at 512x512 with 8192-pixel bands: about 20 MiB for
    # either pair (whole-image gathers took 507 MiB and 512 MiB). The ceiling
    # leaves headroom for the O(H*W) inputs and outputs; do not raise it.
    CEILING_MIB = 40.0

    @staticmethod
    def _peak_mib(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def large(self):
        return rf.generate(rf.SyntheticSpec(width=512, height=512, pattern="concentric", noise_sigma=40.0, rng_seed=3))

    def test_binarize_and_enhance_peak_is_bounded(self, large):
        img, flow = large
        peak = self._peak_mib(lambda: rf.enhance_image(img, rf.binarize_image(img, flow), flow))
        assert peak < self.CEILING_MIB

    def test_contour_binarize_and_enhance_peak_is_bounded(self, large):
        img, flow = large
        peak = self._peak_mib(lambda: rf.enhance_image_contour(img, rf.binarize_image_contour(img, flow), flow))
        assert peak < self.CEILING_MIB

    # At the default settings the kernels sum one tap at a time into
    # band-sized accumulators, and each standalone stage takes each tap as it
    # is sampled; the contour's taps before -k wait for their turn. The
    # stages sample the image's bytes, with no float64 copy of it, and look
    # orientations up in one table per band. Measured on the concentric
    # image with its truth flow: binarize_image 1.67 MiB and
    # binarize_image_contour 2.30 MiB at 512x512 (1.56 and 2.15 without the
    # band tables, where the flow kept a whole-grid table built beforehand;
    # 3.55 and 4.15 with a float64 copy), where a (2k+1)-row tap table per
    # band took 4.11 and 4.40 MiB and a whole (2k+1)-deep gather per band
    # 7.92 MiB; enhance_values 1.91 MiB and contour_enhance_values 3.42 MiB
    # at 256x256 (1.81 and 3.28 without the band tables; 2.31 and 3.78 with
    # the copy), where a tap table per band took 3.90 and 4.49 MiB and a
    # whole gather 12.46 and 12.61 MiB. Do not raise them.
    ENHANCE_256_CEILING_MIB = 2.3
    CONTOUR_ENHANCE_256_CEILING_MIB = 3.8
    BINARIZE_512_CEILING_MIB = 2.0
    CONTOUR_BINARIZE_512_CEILING_MIB = 2.6

    @pytest.fixture(scope="class")
    def medium(self):
        return rf.generate(rf.SyntheticSpec(width=256, height=256, pattern="concentric", noise_sigma=40.0, rng_seed=3))

    def test_enhance_peak_holds_no_tap_gather(self, medium):
        img, flow = medium
        binary = rf.binarize_image(img, flow)
        peak = self._peak_mib(lambda: rf.enhance_values(img, binary, flow))
        assert peak < self.ENHANCE_256_CEILING_MIB

    def test_contour_enhance_peak_holds_no_tap_gather(self, medium):
        img, flow = medium
        binary = rf.binarize_image_contour(img, flow)
        peak = self._peak_mib(lambda: rf.contour_enhance_values(img, binary, flow))
        assert peak < self.CONTOUR_ENHANCE_256_CEILING_MIB

    # One sweep binarizes and enhances along the contour, to max(4, 9) taps
    # each way: 4.14 MiB at 256x256 with the truth flow, sampling the image's
    # bytes, looking orientations up in one table per band, rounding each
    # band as it is enhanced and keeping the rows that wait for later bits
    # in its tap table; 4.23 with those rows carried over as copies and each
    # band's blend held while the next was sampled; 4.09 without the band
    # tables, where the flow kept a whole-grid table built beforehand; 5.03
    # with float64 copies of the input and the output, and 5.49 before
    # that, where binarize_image_contour then contour_enhance_values peaked
    # at 5.82 MiB.
    # Do not raise it.
    FUSED_CONTOUR_256_CEILING_MIB = 4.7

    def test_fused_contour_iteration_peak_holds_no_tap_gather(self, medium, monkeypatch):
        img, flow = medium
        monkeypatch.setattr(rpipeline, "_flow_for", lambda image, cfg: flow)
        peak = self._peak_mib(lambda: rf.run_iteration(img, rf.PipelineConfig(path_mode="contour")))
        assert peak < self.FUSED_CONTOUR_256_CEILING_MIB

    def test_binarize_peak_holds_no_tap_gather(self, large):
        img, flow = large
        peak = self._peak_mib(lambda: rf.binarize_image(img, flow))
        assert peak < self.BINARIZE_512_CEILING_MIB

    def test_contour_binarize_peak_holds_no_tap_table(self, large):
        img, flow = large
        peak = self._peak_mib(lambda: rf.binarize_image_contour(img, flow))
        assert peak < self.CONTOUR_BINARIZE_512_CEILING_MIB

    # A one-pixel call reads the image's bytes where it copied the whole
    # image as float64: 2.0 MiB at 512x512. Do not raise it.
    SINGLE_PIXEL_CEILING_MIB = 0.1

    def test_single_pixel_calls_copy_no_image(self, large):
        img, _ = large
        p = rf.Point(100.25, 200.75)
        assert self._peak_mib(lambda: sample_bilinear(img, p)) < self.SINGLE_PIXEL_CEILING_MIB
        assert self._peak_mib(lambda: binarize_pixel(img, p, 0.3)) < self.SINGLE_PIXEL_CEILING_MIB

    # GrayImage.from_float rounds and clamps in one float buffer and casts it
    # to bytes: 2.50 MiB at 512x512, where four image-sized temporaries took
    # 6.00 MiB (and enhance_image 8.01; it now rounds band by band, at 1.57).
    # Do not raise it.
    FROM_FLOAT_512_CEILING_MIB = 3.0

    def test_from_float_peak_holds_one_float_buffer(self):
        values = np.random.default_rng(2).uniform(-40.0, 300.0, (512, 512))
        values[0, :4] = [0.5, 254.5, -0.5, 255.5]  # halves round up, then clamp
        want = np.clip(np.floor(values + 0.5), 0.0, 255.0).astype(np.uint8)
        image = []
        peak = self._peak_mib(lambda: image.append(rf.GrayImage.from_float(values)))
        assert image[0].pixels.tobytes() == want.tobytes()
        assert image[0].pixels[0, :4].tolist() == [1, 255, 0, 255]
        assert peak < self.FROM_FLOAT_512_CEILING_MIB

    # compute_flow_field at 512x512 measured 5.67 MiB on this image and 5.98
    # on a parallel one: the image is rotated from its bytes, tangent means
    # are read at the sites, each band of rows is rotated in its own read,
    # the sites are uint16 and read in row order through their sort order,
    # and each site's optimum angle is a byte-sized index. With a sorted copy
    # of the site rows, 5.92 and 6.23 MiB; with a float64 copy of the image
    # too, 7.92 and 8.22 MiB. Before that,
    # 13.34 MiB (15.32 on the parallel image, whose fine calls copied nearly
    # every site as float64); an (angles x sites) table per phase and a
    # whole rotated window per angle took 21.94 MiB (25.48); whole-canvas
    # prefix sums and map 46.2 MiB, and keeping every angle's map 147 MiB.
    # Do not raise it.
    FLOW_CEILING_MIB = 6.2

    @pytest.fixture(scope="class")
    def large_parallel(self):
        return rf.generate(rf.SyntheticSpec(width=512, height=512, pattern="parallel", noise_sigma=40.0, rng_seed=3))

    def test_flow_peak_is_bounded(self, large):
        img, _ = large
        peak = self._peak_mib(lambda: rf.compute_flow_field(img))
        assert peak < self.FLOW_CEILING_MIB

    def test_parallel_flow_peak_copies_no_fine_sites(self, large_parallel):
        img, _ = large_parallel
        peak = self._peak_mib(lambda: rf.compute_flow_field(img))
        assert peak < self.FLOW_CEILING_MIB

    # The same at 256x256: 3.46 MiB on this image; 3.95 with a float64 copy
    # of the image, 6.66 with a whole map band of tangent sums and wider
    # site arrays, 8.49 with the tables and the whole window per angle. Do
    # not raise it.
    FLOW_256_CEILING_MIB = 4.0

    def test_flow_peak_holds_no_angle_table_or_window(self, medium):
        img, _ = medium
        peak = self._peak_mib(lambda: rf.compute_flow_field(img))
        assert peak < self.FLOW_256_CEILING_MIB

    # One pipeline iteration at 512x512 measured 5.67 MiB on this image, set
    # by the flow: the sweep looks orientations up in a table of each band's
    # site rows, and the search reads its sites in row order with no sorted
    # copy. With a whole-grid site table kept on the flow, 6.78 MiB; with
    # float64 copies of the input and of the enhanced image too, 10.51 MiB.
    # Do not raise it.
    PIPELINE_512_CEILING_MIB = 6.3

    def test_pipeline_iteration_holds_no_float_image(self, large):
        img, _ = large
        peak = self._peak_mib(lambda: rf.run_pipeline(img, rf.PipelineConfig(iterations=1)))
        assert peak < self.PIPELINE_512_CEILING_MIB

    # PGM load, binary rendering and inversion stay in uint8 and keep the
    # array they make: 0.25 MiB each at 512x512 (the file's bytes, or the
    # result). A checked copy of that array took 0.50 MiB, and an int64
    # detour 2.50, 2.25 and 4.00 MiB. Do not raise it.
    BYTE_IO_512_CEILING_MIB = 0.4

    def test_pgm_load_rendering_and_inversion_stay_bytes(self, large, tmp_path):
        img, flow = large
        binary = rf.binarize_image(img, flow)
        rf.save_pgm(img, tmp_path / "in.pgm")
        out = {}
        calls = {"load": lambda: rf.load_pgm(tmp_path / "in.pgm"), "gray": lambda: rf.binary_as_gray(binary),
                 "invert": lambda: rf.invert(img)}
        for name, call in calls.items():
            assert self._peak_mib(lambda: out.update({name: call()})) < self.BYTE_IO_512_CEILING_MIB
        assert out["load"].pixels.tobytes() == img.pixels.tobytes()
        assert out["gray"].pixels.tobytes() == (binary.bits.astype(np.int64) * 255).astype(np.uint8).tobytes()
        assert out["invert"].pixels.tobytes() == (255 - img.pixels.astype(np.int64)).astype(np.uint8).tobytes()

    # The CSV writers stream one grid row at a time: 0.12 MiB for the flow
    # CSV of a 256x256 grid, where the whole text took 7.60 MiB. Do not raise it.
    CSV_WRITER_CEILING_MIB = 0.5

    def test_csv_writers_stream_grid_rows(self, large, tmp_path):
        _, flow = large
        report = rf.ComparisonReport(flow, flow, flow, None, None, None, 0)
        peak = self._peak_mib(lambda: rf.save_flow_csv(flow, tmp_path / "flow.csv"))
        assert peak < self.CSV_WRITER_CEILING_MIB
        peak = self._peak_mib(lambda: rf.save_comparison_csv(report, tmp_path / "cmp.csv"))
        assert peak < self.CSV_WRITER_CEILING_MIB

    # compute_flow_field_gradient at 256x256 measured 2.40 MiB on this image
    # with whole-image Sobel gradients and window sums taken at the grid sites
    # only, one product at a time; with the tensor summed in bands of site
    # rows, whose band at this size outweighs that working set, 3.29 MiB.
    # Three full-resolution ndimage.convolve products took 6.02 MiB. Do not raise it.
    GRADIENT_FLOW_256_CEILING_MIB = 4.5

    def test_gradient_flow_peak_sums_only_the_grid_sites(self, medium):
        img, _ = medium
        peak = self._peak_mib(lambda: rf.compute_flow_field_gradient(img))
        assert peak < self.GRADIENT_FLOW_256_CEILING_MIB

    # The same at 512x512: 4.64 MiB, where the Sobel gradients, products and
    # window sums are taken per band of site rows (the patch variance before
    # them peaks at 4.15); 9.28 MiB with whole-image gradients and a padded
    # whole-image copy of each product. Do not raise it.
    GRADIENT_FLOW_512_CEILING_MIB = 6.0

    def test_gradient_flow_peak_holds_no_whole_image_gradient(self, large):
        img, _ = large
        peak = self._peak_mib(lambda: rf.compute_flow_field_gradient(img))
        assert peak < self.GRADIENT_FLOW_512_CEILING_MIB

    # At 1024x1024 the angle and coherence are taken in place in the site
    # sums' planes, and the patch variance sets the peak: 16.17 MiB. With six
    # whole-grid temporaries beside the sums the closing step peaked at 19.03.
    # Do not raise it.
    GRADIENT_FLOW_1024_CEILING_MIB = 17.5

    def test_gradient_flow_closing_step_holds_no_grid_temporaries(self):
        img, _ = rf.generate(rf.SyntheticSpec(width=1024, height=1024, pattern="concentric", noise_sigma=40.0,
                                              rng_seed=3))
        peak = self._peak_mib(lambda: rf.compute_flow_field_gradient(img))
        assert peak < self.GRADIENT_FLOW_1024_CEILING_MIB


class TestFlowGridContract:
    @pytest.fixture(scope="class")
    def mismatch(self):
        small, _ = rf.generate(rf.SyntheticSpec(width=64, height=64, pattern="parallel", rng_seed=1))
        big, _ = rf.generate(rf.SyntheticSpec(width=128, height=128, pattern="parallel", rng_seed=1))
        return big, rf.compute_flow_field(small)

    def test_binarize_rejects_flow_of_other_image(self, mismatch):
        big, flow = mismatch
        for binarize in (rf.binarize_image, rf.binarize_image_contour):
            with pytest.raises(ValueError, match=r"flow grid 32x32 .* image 128x128, which needs a 64x64 grid"):
                binarize(big, flow)

    def test_enhance_rejects_flow_of_other_image(self, mismatch):
        big, flow = mismatch
        binary = rf.BinaryImage(np.ones((128, 128), dtype=np.int64))
        for enhance in (rf.enhance_values, rf.enhance_image, rf.contour_enhance_values, rf.enhance_image_contour):
            with pytest.raises(ValueError, match=r"flow grid 32x32 .* image 128x128"):
                enhance(big, binary, flow)

    @pytest.mark.parametrize("entry", ["binarize_image", "binarize_image_contour", "enhance_image",
                                       "enhance_image_contour", "flow_overlay_svg", "compare_methods"])
    def test_every_entry_point_rejects_a_flow_on_another_grid(self, mismatch, entry):
        big, flow = mismatch
        binary = rf.BinaryImage(np.ones((128, 128), dtype=np.int64))
        calls = {
            "binarize_image": lambda: rf.binarize_image(big, flow),
            "binarize_image_contour": lambda: rf.binarize_image_contour(big, flow),
            "enhance_image": lambda: rf.enhance_image(big, binary, flow),
            "enhance_image_contour": lambda: rf.enhance_image_contour(big, binary, flow),
            "flow_overlay_svg": lambda: _flow_overlay_svg(big, flow),
            "compare_methods": lambda: rf.compare_methods(big, truth=flow),
        }
        with pytest.raises(ValueError, match="grid"):
            calls[entry]()

    def test_check_uses_ceiling_of_size_over_stride(self):
        flow = rf.FlowField(np.zeros((3, 4)), np.ones((3, 4), dtype=bool), 3)
        rf.binarize_image(rf.GrayImage(np.zeros((7, 10), dtype=np.int64)), flow)
        with pytest.raises(ValueError, match=r"which needs a 4x4 grid"):
            rf.binarize_image(rf.GrayImage(np.zeros((10, 10), dtype=np.int64)), flow)


class TestPixelEntryContract:
    """The single-pixel entry points check their inputs as the image stages do."""

    @staticmethod
    def _flow(size):
        """A uniform flow on the stride-2 grid of a size x size image."""
        g = (size + 1) // 2
        return rf.FlowField(np.full((g, g), 0.5), np.ones((g, g), dtype=bool), 2)

    @pytest.mark.parametrize("entry, binary_size, flow_size", [
        ("enhance_pixel", 16, 32),  # an IndexError before
        ("enhance_pixel_contour", 16, 32),  # an IndexError before
        ("enhance_pixel", 40, 32),  # a value before
        ("enhance_pixel_contour", 40, 32),  # a value before
        ("binarize_pixel_contour", 32, 16),  # a value before
        ("enhance_pixel_contour", 32, 16),  # a value before
    ])
    def test_mismatched_input_is_a_value_error(self, entry, binary_size, flow_size):
        if binary_size != 32:
            message = f"binary dimensions {binary_size}x{binary_size} do not match image 32x32"
        else:
            message = r"flow grid 8x8 .* image 32x32, which needs a 16x16 grid"
        image, _ = rf.generate(rf.SyntheticSpec(width=32, height=32, pattern="parallel", rng_seed=1))
        binary = rf.BinaryImage(np.ones((binary_size, binary_size), dtype=np.int64))
        flow = self._flow(flow_size)
        p = rf.Point(20.0, 20.0)
        calls = {
            "enhance_pixel": lambda: enhance_pixel(image, binary, p, 0.5),
            "enhance_pixel_contour": lambda: enhance_pixel_contour(image, binary, p, flow),
            "binarize_pixel_contour": lambda: binarize_pixel_contour(image, p, flow),
        }
        with pytest.raises(ValueError, match=message):
            calls[entry]()
