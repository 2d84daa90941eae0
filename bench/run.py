"""ridgeflow benchmark: seeded workloads through the package's public calls.

Run from the root of a checkout:

    python3 bench/run.py --workload pipeline-256 --seed 1 --seconds 15 --trace 0

One process, one thread, one image after another (a closed loop with a
single caller). ``--trace 0`` times one whole pass over the workload's
image pool, then further images round the pool until ``--seconds`` have
gone by, and prints the end-to-end metrics. ``--trace 1`` runs one
untraced and one traced pass over half the pool and prints the per-layer
metrics. Either way one untimed pass over a single image runs under
tracemalloc first, for the memory peaks.
``--workload all`` runs every workload in turn. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The input
PGMs of ``cli-512``, its outputs and the span dump of a traced run go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every setup probe.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("pipeline-256", "contour-gradient-256", "cli-512")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
MEMORY_ITEM = 1  # the first concentric image: its search reaches every angle


def use_checkout_sources() -> None:
    """Import ridgeflow from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "ridgeflow" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'ridgeflow'} not found; run from the root of a ridgeflow checkout")
    sys.path.insert(0, str(SRC))
    import ridgeflow

    if SRC.resolve() not in Path(ridgeflow.__file__).resolve().parents:
        sys.exit(f"bench: imported ridgeflow from {ridgeflow.__file__}, not from {SRC}")


def _setup_probe(name: str, seed: int) -> None:
    """Child-process body: import ridgeflow, build the inputs, print the time."""
    t0 = time.perf_counter()
    use_checkout_sources()
    import workloads

    workloads.workloads()[name].make_inputs(seed, OUT / f"inputs-{name}")
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with status {proc.returncode}: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                env[f"l{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return env


class Tally:
    """Attempts, failures and what the images that passed the check produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: list[float] = []  # chain wall time of every call that returned
        self.megapixels = 0.0
        self.errors = []  # interior angular errors of the first pass
        self.digests: dict[int, str] = {}
        self.results: list[object] = []

    def attempt(self, wl, item, keep_errors=False, scope=None, keep_result=False) -> None:
        """Run the chain once on ``item`` and time it; check the output untimed."""
        import workloads

        self.attempted += 1
        gc.collect()
        try:
            with scope(item.index) if scope else contextlib.nullcontext():
                t0 = time.perf_counter()
                raw = wl.run(item)
                dt = time.perf_counter() - t0
            self.times.append(dt)
            out = wl.collect(item, raw)
        except Exception as err:  # a failed image is counted, the run goes on
            self.fail(item, f"{type(err).__name__}: {err}")
            return
        problems, errors = workloads.check_output(item, out)
        if problems:
            self.fail(item, "; ".join(problems))
            return
        self.megapixels += item.megapixels
        self.digests.setdefault(item.index, out.digest())
        if keep_errors:
            self.errors.append(errors)
        if keep_result:
            self.results.append(raw)

    def fail(self, item, why: str) -> None:
        self.failed += 1
        self.problems.append(f"image {item.index} ({item.pattern}): {why}")

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def throughput(self) -> float:
        busy = sum(self.times)
        return self.megapixels / busy if busy > 0 else 0.0

    def mae(self) -> float:
        n = sum(e.size for e in self.errors)
        return float(sum(e.sum() for e in self.errors) / n) if n else 0.0


def memory_pass(wl, items, tally: Tally) -> tuple[float, dict]:
    """One untimed image under tracemalloc; its output is checked like any other."""
    import tracer
    import workloads

    item = items[MEMORY_ITEM]
    rec = tracer.PeakRecorder()
    tally.attempted += 1
    try:
        peak, raw = rec.measure(lambda: wl.run(item))
        out = wl.collect(item, raw)
    except Exception as err:  # counted like any other failed image
        tally.fail(item, f"memory pass: {type(err).__name__}: {err}")
        return 0.0, rec.peaks
    problems, _ = workloads.check_output(item, out)
    if problems:
        tally.fail(item, "memory pass: " + "; ".join(problems))
    return peak, rec.peaks


def run_end_to_end(wl, seed: int, seconds: float, setup_s: float) -> tuple[Tally, dict]:
    items = wl.make_inputs(seed, OUT / f"inputs-{wl.name}")
    tally = Tally()
    peak_mib, _ = memory_pass(wl, items, tally)
    # One whole pass first (its errors give mae_rad), then image after image
    # round the pool until ``seconds`` have gone by.
    start = time.perf_counter()
    for item in items:
        tally.attempt(wl, item, keep_errors=True)
    n = 0
    while time.perf_counter() - start < seconds:
        tally.attempt(wl, items[n % len(items)])
        n += 1
    metrics = {
        "throughput_mpx_s": (tally.throughput(), "Mpx/s"),
        "latency_p50_s": (statistics.median(tally.times) if tally.times else 0.0, "s"),
        "peak_mem_mib": (peak_mib, "MiB"),
        "mae_rad": (tally.mae(), "rad"),
        "setup_s": (setup_s, "s"),
    }
    print(f"{wl.name}: seed {seed}, pool of {len(items)} images, {len(tally.times)} timed calls")
    return tally, metrics


def run_traced(wl, seed: int) -> tuple[Tally, dict]:
    import tracer
    import workloads

    missing = tracer.missing_layers()
    setup_tr = tracer.Tracer()
    with tracer.instrument(setup_tr.wrapper), setup_tr.image_scope(-1):
        items = wl.make_inputs(seed, OUT / f"inputs-{wl.name}")
    tally = Tally()
    _, peaks = memory_pass(wl, items, tally)

    sample = items[: max(len(items) // 2, 2)]
    plain, traced, tr = Tally(), Tally(), tracer.Tracer()
    for item in sample:
        plain.attempt(wl, item)
    with tracer.instrument(tr.wrapper):
        for item in sample:
            traced.attempt(wl, item, scope=tr.image_scope, keep_result=True)
    tally.absorb(plain)
    tally.absorb(traced)
    for index, digest in plain.digests.items():
        if traced.digests.get(index, digest) != digest:
            tally.failed += 1
            tally.problems.append(f"image {index}: traced output differs from the untraced output")

    layer = tracer.layer_metrics(tr)
    layer["synth.generate_s"] = tracer.layer_metrics(setup_tr)["synth.generate_s"]
    layer.update(peaks)
    changes = [c for c in map(workloads.iteration_change, traced.results) if c is not None]
    layer["pipeline.flow_change_rad"] = statistics.fmean(c[0] for c in changes) if changes else 0.0
    layer["pipeline.binary_flip_frac"] = statistics.fmean(c[1] for c in changes) if changes else 0.0
    u, t = plain.throughput(), traced.throughput()
    layer["trace.untraced_mpx_s"] = u
    layer["trace.traced_mpx_s"] = t
    layer["trace.overhead_frac"] = (u - t) / u if u > 0 else 0.0
    layer["trace.images"] = len(sample)
    layer["trace.missing_layers"] = len(missing)
    if missing:
        print("missing layers: " + json.dumps(missing, sort_keys=True))

    OUT.mkdir(parents=True, exist_ok=True)
    dump = OUT / f"trace-{wl.name}-seed{seed}.json"
    tr.dump(dump, {"workload": wl.name, "seed": seed, "env": environment(), "metrics": layer, "missing": missing})
    print(f"{wl.name}: seed {seed}, {len(tr.spans)} spans over {len(sample)} images written to {dump}")
    return tally, {k: (layer[k], unit) for k, unit in tracer.UNITS.items()}


def _report(name: str, tally: Tally, metrics: dict, trace: bool) -> None:
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    rows = dict(metrics)
    if not trace:
        # 0 on a healthy commit, so it cannot be a bounded metric of the JSON
        # line; it rides there as attempted/failed instead
        rows["fail_frac"] = (tally.failed / tally.attempted if tally.attempted else 1.0, f"of {tally.attempted}")
    width = max(len(k) for k in rows)
    for key, (value, unit) in rows.items():
        print(f"  {name} {key:<{width}} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="minimum timed span; the first pool pass always completes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    use_checkout_sources()
    import workloads

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, out = 0, 0, {}
    for name in names:
        wl = workloads.workloads()[name]
        if args.trace:
            tally, metrics = run_traced(wl, args.seed)
        else:
            tally, metrics = run_end_to_end(wl, args.seed, args.seconds, measure_setup(name, args.seed))
        _report(name, tally, metrics, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        out.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
