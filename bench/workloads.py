"""Benchmark workloads: seeded inputs, the timed chain, and the output check.

Every workload draws a fixed pool of synthetic images from ``generate()``.
The pool alternates ``parallel`` images (ridge orientation k*pi/16, k drawn
from the seed) with ``concentric`` ones; the seed also picks every noise
stream. The program under test only ever sees the generated images.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import ridgeflow as rf
import ridgeflow.cli

NOISE_SIGMA = 40.0
INTERIOR_MARGIN = 16
# A flow this far from the truth on a noise-40 synthetic image means the
# estimator broke, not that it got slightly worse; mae_rad tracks the latter.
MAE_CEILING_RAD = 0.35


@dataclass(eq=False)
class Item:
    """One pool image with its truth; ``path``/``out_prefix`` only for the CLI."""

    index: int
    pattern: str
    image: rf.GrayImage
    truth: rf.FlowField
    path: Path | None = None
    out_prefix: str | None = None

    @property
    def megapixels(self) -> float:
        return self.image.width * self.image.height / 1e6


@dataclass(eq=False)
class Output:
    """What one chain run produced, as plain arrays for checking and digests."""

    flows: list[rf.FlowField]
    bits: np.ndarray
    enhanced: np.ndarray
    file_bytes: list[bytes] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for f in self.flows:
            h.update(np.ascontiguousarray(f.angles).tobytes())
            h.update(np.ascontiguousarray(f.valid).tobytes())
        h.update(np.ascontiguousarray(self.bits).tobytes())
        h.update(np.ascontiguousarray(self.enhanced).tobytes())
        for b in self.file_bytes:
            h.update(b)
        return h.hexdigest()


@dataclass(eq=False)
class Workload:
    name: str
    size: int
    pool: int
    run: Callable[[Item], object]
    collect: Callable[[Item, object], Output]
    writes_files: bool = False

    def make_inputs(self, seed: int, work_dir: Path) -> list[Item]:
        """The seeded pool; for the CLI workload also writes the input PGMs."""
        rng = random.Random(seed)
        n_par = (self.pool + 1) // 2
        # Parallel orientations k*pi/16 from a seeded k0, stepped by 20/n_par
        # (5 for four images, 10 for two). The flow error depends on k mod 4,
        # so each pool spans those residues evenly and its pooled MAE does
        # not hinge on one lattice-relative angle.
        k0 = rng.randrange(16)
        ks = [(k0 + j * (20 // n_par)) % 16 for j in range(n_par)]
        items = []
        for i in range(self.pool):
            pattern = "parallel" if i % 2 == 0 else "concentric"
            orientation = ks[i // 2] * math.pi / 16 if pattern == "parallel" else 0.0
            spec = rf.SyntheticSpec(
                self.size,
                self.size,
                pattern=pattern,
                orientation=orientation,
                noise_sigma=NOISE_SIGMA,
                rng_seed=rng.getrandbits(63),
            )
            image, truth = rf.generate(spec)
            items.append(Item(i, pattern, image, truth))
        if self.writes_files:
            work_dir.mkdir(parents=True, exist_ok=True)
            for it in items:
                it.path = work_dir / f"in_{it.index}.pgm"
                it.out_prefix = str(work_dir / f"out_{it.index}" / "")
                rf.save_pgm(it.image, it.path)
        return items


def _pipeline_workload(name: str, size: int, pool: int, cfg: rf.PipelineConfig) -> Workload:
    def run(item: Item):
        return rf.run_pipeline(item.image, cfg)

    def collect(item: Item, result) -> Output:
        return Output(
            [r.flow for r in result.records],
            np.asarray(result.final_binary.bits),
            np.asarray(result.final_enhanced.pixels),
        )

    return Workload(name, size, pool, run, collect)


def _cli_workload(name: str, size: int, pool: int) -> Workload:
    iterations = 1

    def run(item: Item):
        # looked up per call so the tracer's wrapper is seen
        return ridgeflow.cli.run_cli(
            ["pipeline", str(item.path), "--iterations", str(iterations), "--out-prefix", item.out_prefix]
        )

    def collect(item: Item, status) -> Output:
        if status != 0:
            raise RuntimeError(f"ridgeflow pipeline exited with status {status}")
        flows, files = [], []
        for k in range(1, iterations + 1):
            csv = Path(f"{item.out_prefix}flow_{k}.csv")
            files.append(csv.read_bytes())
            flows.append(rf.load_flow_csv(csv))
        bin_path = Path(f"{item.out_prefix}bin_{iterations}.pgm")
        enh_path = Path(f"{item.out_prefix}enh_{iterations}.pgm")
        files += [bin_path.read_bytes(), enh_path.read_bytes()]
        gray_bits = np.asarray(rf.load_pgm(bin_path).pixels)
        # the CLI renders ridge 0 as black and valley 1 as white; anything
        # else is left out of {0, 1} so the check rejects it
        bits = np.where(gray_bits == 255, 1, np.where(gray_bits == 0, 0, 2))
        enhanced = np.asarray(rf.load_pgm(enh_path).pixels)
        return Output(flows, bits, enhanced, files)

    return Workload(name, size, pool, run, collect, writes_files=True)


def workloads(scale: int = 1) -> dict[str, Workload]:
    """All workloads; ``scale`` > 1 shrinks images and pools for quick tests."""
    s = scale
    return {
        "pipeline-256": _pipeline_workload("pipeline-256", 256 // s, max(8 // s, 2), rf.PipelineConfig()),
        "contour-gradient-256": _pipeline_workload(
            "contour-gradient-256",
            256 // s,
            max(8 // s, 2),
            rf.PipelineConfig(flow_method="gradient", path_mode="contour"),
        ),
        "cli-512": _cli_workload("cli-512", 512 // s, max(4 // s, 2)),
    }


def flow_errors(flow: rf.FlowField, truth: rf.FlowField, width: int, height: int) -> np.ndarray:
    """Angular errors at interior sites valid in both fields."""
    scored = flow.valid & truth.valid & rf.interior_site_mask(flow, width, height, INTERIOR_MARGIN)
    return rf.angular_distance(flow.angles[scored], truth.angles[scored])


def check_output(item: Item, out: Output) -> tuple[list[str], np.ndarray]:
    """Violations of the output contract, and the final flow's interior errors."""
    problems = []
    h, w = item.image.height, item.image.width
    for k, flow in enumerate(out.flows, start=1):
        grid = (math.ceil(h / flow.stride), math.ceil(w / flow.stride))
        if flow.angles.shape != grid or flow.valid.shape != grid:
            problems.append(f"flow {k}: grid {flow.angles.shape}, expected {grid}")
            continue
        a = flow.angles[flow.valid]
        # FlowField admits NaN angles, so test finiteness explicitly
        if not np.isfinite(a).all():
            problems.append(f"flow {k}: non-finite valid angle")
        elif a.size and (a.min() < 0.0 or a.max() >= math.pi):
            problems.append(f"flow {k}: valid angle outside [0, pi)")
    if out.bits.shape != (h, w):
        problems.append(f"binary shape {out.bits.shape}, expected {(h, w)}")
    elif not np.isin(out.bits, (0, 1)).all():
        problems.append("binary bit outside {0, 1}")
    if out.enhanced.shape != (h, w):
        problems.append(f"enhanced shape {out.enhanced.shape}, expected {(h, w)}")
    elif out.enhanced.min() < 0 or out.enhanced.max() > 255:
        problems.append("enhanced pixel outside 0..255")
    errors = np.zeros(0)
    if not problems and out.flows:
        errors = flow_errors(out.flows[-1], item.truth, w, h)
        mae = float(errors.mean()) if errors.size else math.inf
        if not mae < MAE_CEILING_RAD:
            problems.append(f"mae {mae:.4f} rad not under the {MAE_CEILING_RAD} rad ceiling")
    return problems, errors


def iteration_change(result) -> tuple[float, float] | None:
    """Mean flow change (rad) and flipped-bit fraction from iteration 1 to 2."""
    records = getattr(result, "records", None)
    if not records or len(records) < 2:
        return None
    a, b = records[0], records[1]
    both = a.flow.valid & b.flow.valid
    change = float(rf.angular_distance(a.flow.angles[both], b.flow.angles[both]).mean()) if both.any() else 0.0
    flips = float(np.count_nonzero(a.binary.bits != b.binary.bits)) / a.binary.bits.size
    return change, flips
