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

from oracles import reference_mean_deviation_map

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
        bands = list(rimage.row_bands(W, H))
        assert len(bands) == n_bands
        rows = np.concatenate([np.arange(H)[r] for r, _, _ in bands])
        assert rows.tolist() == list(range(H))
        for r, xs, ys in bands:
            want_y, want_x = np.mgrid[r, 0:W]
            assert xs.dtype == ys.dtype == np.float64
            assert np.array_equal(xs, want_x) and np.array_equal(ys, want_y)

    @pytest.mark.parametrize("method", ["projection", "gradient"])
    def test_outputs_byte_identical_across_band_sizes(self, noisy, monkeypatch, method):
        flow = rf.compute_flow_field(noisy) if method == "projection" else rf.compute_flow_field_gradient(noisy)
        assert flow.valid.any() and not flow.valid.all()
        outs = []
        for band_pixels in (1, 7 * W + 3, H * W):
            monkeypatch.setattr(rimage, "BAND_PIXELS", band_pixels)
            outs.append(_stages(noisy, flow))
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
                mu = rproj._site_mean_deviations(rr, cfg, row, col, {})
                assert mu.tobytes() == reference_mean_deviation_map(rr, cfg)[row, col].tobytes()
                got += [rr.values.tobytes(), rr.valid.tobytes(), mu.tobytes()]
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

    @staticmethod
    def _with_site_table(generated):
        # ``angles_at`` builds a flow's site table on its first call and keeps
        # it; build it here, so no peak depends on which test ran first
        img, flow = generated
        rf.angles_at(flow, 0.0, 0.0)
        return img, flow

    @pytest.fixture(scope="class")
    def large(self):
        return self._with_site_table(rf.generate(rf.SyntheticSpec(width=512, height=512, pattern="concentric",
                                                                  noise_sigma=40.0, rng_seed=3)))

    def test_binarize_and_enhance_peak_is_bounded(self, large):
        img, flow = large
        peak = self._peak_mib(lambda: rf.enhance_image(img, rf.binarize_image(img, flow), flow))
        assert peak < self.CEILING_MIB

    def test_contour_binarize_and_enhance_peak_is_bounded(self, large):
        img, flow = large
        peak = self._peak_mib(lambda: rf.enhance_image_contour(img, rf.binarize_image_contour(img, flow), flow))
        assert peak < self.CEILING_MIB

    # At the default settings the kernels sum one tap at a time into
    # band-sized accumulators. Measured on the concentric image with its
    # truth flow: enhance_values 2.49 MiB and contour_enhance_values 5.76 MiB
    # at 256x256, binarize_image 3.55 MiB at 512x512. A whole (2k+1)-deep
    # gather per band took 12.46, 12.61 and 7.92 MiB. Do not raise them.
    ENHANCE_256_CEILING_MIB = 8.0
    BINARIZE_512_CEILING_MIB = 5.0

    @pytest.fixture(scope="class")
    def medium(self):
        return self._with_site_table(rf.generate(rf.SyntheticSpec(width=256, height=256, pattern="concentric",
                                                                   noise_sigma=40.0, rng_seed=3)))

    def test_enhance_peak_holds_no_tap_gather(self, medium):
        img, flow = medium
        binary = rf.binarize_image(img, flow)
        peak = self._peak_mib(lambda: rf.enhance_values(img, binary, flow))
        assert peak < self.ENHANCE_256_CEILING_MIB

    def test_contour_enhance_peak_holds_no_tap_gather(self, medium):
        img, flow = medium
        binary = rf.binarize_image_contour(img, flow)
        peak = self._peak_mib(lambda: rf.contour_enhance_values(img, binary, flow))
        assert peak < self.ENHANCE_256_CEILING_MIB

    # One sweep binarizes and enhances along the contour, to max(4, 9) taps
    # each way: 5.49 MiB at 256x256 with the truth flow, where binarize_image_contour
    # then contour_enhance_values peaked at 5.82 MiB. Do not raise it.
    FUSED_CONTOUR_256_CEILING_MIB = 6.0

    def test_fused_contour_iteration_peak_holds_no_tap_gather(self, medium, monkeypatch):
        img, flow = medium
        monkeypatch.setattr(rpipeline, "_flow_for", lambda image, cfg: flow)
        peak = self._peak_mib(lambda: rf.run_iteration(img, rf.PipelineConfig(path_mode="contour")))
        assert peak < self.FUSED_CONTOUR_256_CEILING_MIB

    def test_binarize_peak_holds_no_tap_gather(self, large):
        img, flow = large
        peak = self._peak_mib(lambda: rf.binarize_image(img, flow))
        assert peak < self.BINARIZE_512_CEILING_MIB

    # compute_flow_field at 512x512 measured 22.4 MiB on this image (26.0 on
    # a parallel one): one rotated window at a time, with band-sized prefix
    # sums and no map. Whole-canvas prefix sums and map took 46.2 MiB, and
    # keeping every angle's map 147 MiB. Do not raise it.
    FLOW_CEILING_MIB = 27.0

    def test_flow_peak_is_bounded(self, large):
        img, _ = large
        peak = self._peak_mib(lambda: rf.compute_flow_field(img))
        assert peak < self.FLOW_CEILING_MIB


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
            "flow_overlay_svg": lambda: rf.flow_overlay_svg(big, flow),
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
            "enhance_pixel": lambda: rf.enhance_pixel(image, binary, p, 0.5),
            "enhance_pixel_contour": lambda: rf.enhance_pixel_contour(image, binary, p, flow),
            "binarize_pixel_contour": lambda: rf.binarize_pixel_contour(image, p, flow),
        }
        with pytest.raises(ValueError, match=message):
            calls[entry]()
