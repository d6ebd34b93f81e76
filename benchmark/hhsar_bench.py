"""The hhsar benchmark: three imaging workloads, end to end and per layer.

Run from the repository root:

    python3 benchmark/hhsar_bench.py --workload handheld --seed 1 \
        --seconds 10 --trace 0

With ``--trace 0`` the run times reconstructions with no instrumentation
and reports the end-to-end metrics. With ``--trace 1`` it swaps the
public functions of each layer for timing wrappers (from this file; no
code under ``src/`` is touched), alternates traced and untraced
reconstructions, and reports per-layer self times and counts of the
median traced reconstruction. Every reconstruction is checked: finite,
on the requested grid, and above its workload's PSNR floor against a
direct frequency-domain backprojection at a seeded voxel sample.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, samples, errors, spans) goes to ``benchmark/results/``.
``benchmark/README.md`` defines the metrics and workloads.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy loads: the benchmark measures
# single-threaded work, and the setup probes inherit this environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hhsar  # noqa: E402
import hhsar._kernels  # noqa: E402
import hhsar.bpa  # noqa: E402
import hhsar.ffbp  # noqa: E402

SETUP_REPEATS = 3
SAMPLE_VOXELS = 400     # random voxels per scan in the correctness sample
MIN_GAIN_DB = 3.0       # sampled PSNR margin over an all-zero volume
REGION_CENTER = (0.0, 0.0, 0.4 / 3)
REGION_EXTENT = 0.5 / 3
SCENE_SPACING = 0.35 / 6    # scene lattice pitch [m], as in configs/desk.json
SCENE_JITTER = 0.003        # per-axis scatterer offset bound [m]
FREQS = (12.0e9, 15.0e9, 16)
JITTER = dict(depth_amplitude=0.08 / 3, lateral_sigma=5e-4)  # handheld scan


@dataclass(frozen=True)
class Geometry:
    """Scan, band, region and output grid of a run."""

    side: int                 # scan elements per axis
    dims: tuple               # output voxels (nx, ny, nz)
    # linear scale of the region and of the scene lattice
    scale: float = 1.0
    extent: float = 0.15      # scan side [m]

    @property
    def freqs(self):
        return hhsar.FrequencyGrid(*FREQS)

    @property
    def region(self):
        return hhsar.ImagingRegion.from_center(
            REGION_CENTER, (REGION_EXTENT * self.scale,) * 3)

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.dims))

    def aperture(self, seed: int | None):
        """A jittered handheld scan, or the exact raster when seed is None."""
        if seed is None:
            return hhsar.generate_handheld_aperture(self.side, self.side,
                                                    self.extent)
        return hhsar.generate_handheld_aperture(
            self.side, self.side, self.extent, hhsar.JitterSpec(**JITTER),
            seed)

    def scene(self, rng):
        """27 unit scatterers on a jittered 3x3x3 lattice."""
        base = (np.arange(3) - 1.0) * SCENE_SPACING * self.scale
        g = np.meshgrid(base, base, base, indexing="ij")
        pos = np.stack([a.ravel() for a in g], axis=-1) + REGION_CENTER
        pos += rng.uniform(-SCENE_JITTER, SCENE_JITTER, pos.shape) * self.scale
        return hhsar.Scene(positions=pos,
                           reflectivity=np.ones(len(pos), dtype=complex))


def point_scene():
    """One unit scatterer at the region center, which is a voxel center."""
    return hhsar.Scene(positions=np.array([REGION_CENTER]),
                       reflectivity=np.ones(1, dtype=complex))


DESK = Geometry(side=33, dims=(65, 65, 33))   # configs/desk.json
# Newton's per-plane cost keeps an M=4 reconstruction above a second at
# any size, so the warm-up runs the workload's own algorithm on a small
# region and a scan side that no timed geometry has.
WARMUP = Geometry(side=11, dims=(9, 9, 5), scale=0.2, extent=0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str            # 'hhffbpa' or 'bpa'
    params: dict              # FfbpParams fields for hhffbpa
    fresh_aperture: bool      # new jittered scan per reconstruction
    psnr_floor: float         # dB, checked on every volume


WORKLOADS = {
    "handheld": Workload("handheld", "hhffbpa",
                         {"levels": 4, "gamma": 1.4, "kernel": "linear"},
                         fresh_aperture=True, psnr_floor=16.0),
    "rail": Workload("rail", "hhffbpa",
                     {"levels": 4, "gamma": 2.0, "kernel": "cubic"},
                     fresh_aperture=False, psnr_floor=28.0),
    "reference": Workload("reference", "bpa", {},
                          fresh_aperture=True, psnr_floor=40.0),
}


@dataclass
class Scan:
    cube: object
    sample: np.ndarray        # flat voxel indices of the correctness sample
    exact: np.ndarray         # direct backprojection at those voxels


def direct_backprojection(cube, points: np.ndarray) -> np.ndarray:
    """sum_e sum_k s(e, k) exp(+2jk|p - e|), straight from the cube.

    Uses neither range compression nor the package's kernels, so it is
    an exact image to compare every reconstruction with.
    """
    el = cube.aperture.elements
    d = np.linalg.norm(points[:, None, :] - el[None, :, :], axis=2)
    out = np.zeros(len(points), dtype=complex)
    for j, k in enumerate(cube.freqs.k_samples):
        out += np.exp(2j * k * d) @ cube.values[:, j]
    return out


class ScanSource:
    """Seeded scans of one workload; simulation is load generation and
    is never timed. The program receives only the generated inputs."""

    def __init__(self, workload: Workload, geom: Geometry, seed: int):
        self.geom = geom
        self.rng = np.random.default_rng(seed)
        self.fixed = None if workload.fresh_aperture else geom.aperture(None)

    def next(self, scene=None) -> Scan:
        geom = self.geom
        aperture = self.fixed if self.fixed is not None \
            else geom.aperture(int(self.rng.integers(2 ** 31)))
        if scene is None:
            scene = geom.scene(self.rng)
        cube = hhsar.simulate_measurement(scene, aperture, geom.freqs)
        # the voxel nearest each scatterer plus a uniform draw
        origin, step = hhsar.region_grid(geom.region, geom.dims)
        near = np.clip(np.rint((scene.positions - origin) / step).astype(int),
                       0, np.array(geom.dims) - 1)
        sample = np.unique(np.concatenate([
            np.ravel_multi_index(tuple(near.T), geom.dims),
            self.rng.integers(0, geom.n_voxels, SAMPLE_VOXELS)]))
        points = origin + step * np.stack(
            np.unravel_index(sample, geom.dims), axis=-1)
        return Scan(cube=cube, sample=sample,
                    exact=direct_backprojection(cube, points))


def reconstruct(workload: Workload, geom: Geometry, scan: Scan):
    """The call under test."""
    if workload.algorithm == "bpa":
        return hhsar.bpa_reconstruct(scan.cube, geom.region, geom.dims)
    return hhsar.hhffbpa_reconstruct(scan.cube, geom.region, geom.dims,
                                     hhsar.FfbpParams(**workload.params))


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

class CheckFailure(Exception):
    """A reconstruction that returned but is not a correct image."""


def sampled_psnr(exact: np.ndarray, test: np.ndarray) -> float:
    """`hhsar.metrics.psnr` on a voxel sample: least-squares complex
    calibration of the test values, then peak over RMS error in dB."""
    denom = np.vdot(test, test)
    scale = np.vdot(test, exact) / denom if denom != 0 else 0.0
    rms = float(np.sqrt(np.mean(np.abs(test * scale - exact) ** 2)))
    if rms == 0.0:
        return hhsar.metrics.PSNR_SENTINEL_DB
    return float(min(20.0 * np.log10(np.abs(exact).max() / rms),
                     hhsar.metrics.PSNR_SENTINEL_DB))


def check_volume(workload: Workload, geom: Geometry, scan: Scan,
                 volume) -> float:
    """Return the sampled PSNR, or raise CheckFailure for a wrong image."""
    values = np.asarray(volume.values)
    if values.shape != tuple(geom.dims):
        raise CheckFailure(f"volume shape {values.shape} is not {geom.dims}")
    origin, step = hhsar.region_grid(geom.region, geom.dims)
    if not (np.allclose(volume.origin, origin, atol=1e-12)
            and np.allclose(volume.step, step, atol=1e-12)):
        raise CheckFailure("volume is not on the requested grid")
    if not np.all(np.isfinite(values)):
        raise CheckFailure("volume has non-finite values")
    score = sampled_psnr(scan.exact, values.ravel()[scan.sample])
    if not score >= workload.psnr_floor:
        raise CheckFailure(f"sampled PSNR {score:.2f} dB is below the "
                           f"{workload.psnr_floor} dB floor")
    # an all-zero volume scores the exact image's peak-to-RMS ratio
    null = sampled_psnr(scan.exact, np.zeros_like(scan.exact))
    if not score >= null + MIN_GAIN_DB:
        raise CheckFailure(f"sampled PSNR {score:.2f} dB is within "
                           f"{MIN_GAIN_DB} dB of an all-zero volume's")
    return score


@dataclass
class Outcome:
    seconds: float
    scan: Scan
    volume: object = None
    psnr: float | None = None
    error: str | None = None


def attempt(workload: Workload, geom: Geometry, scan: Scan,
            call=None) -> Outcome:
    """Time one reconstruction (only the call itself), then check it."""
    call = call or reconstruct
    t0 = time.perf_counter()
    try:
        volume = call(workload, geom, scan)
    except hhsar.HhsarError as exc:
        return Outcome(time.perf_counter() - t0, scan,
                       error=f"{type(exc).__name__}: {exc}")
    out = Outcome(time.perf_counter() - t0, scan, volume)
    try:
        out.psnr = check_volume(workload, geom, scan, volume)
    except CheckFailure as exc:
        out.error = str(exc)
    return out


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

# Runs in a fresh interpreter, so the import is cold every time. The
# warm-up's input simulation is excluded from the reported seconds.
_SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hhsar
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import hhsar_bench
warm = hhsar_bench.warm_up(sys.argv[3])
print(json.dumps({"import_s": t1 - t0, "warmup_s": warm}))
"""


def warm_up(name: str) -> float:
    """One reconstruction on the warm-up geometry, which no timed scan
    uses; returns the seconds of the reconstruction call."""
    workload = WORKLOADS[name]
    scan = ScanSource(workload, WARMUP, 0).next()
    t0 = time.perf_counter()
    reconstruct(workload, WARMUP, scan)
    return time.perf_counter() - t0


def measure_setup(name: str, repeats: int) -> list[float]:
    """Seconds to import hhsar and finish the warm-up, per fresh process."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR),
             name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["import_s"] + probe["warmup_s"])
    return times


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _invert_counts(args, kwargs, out):
    _, converged, iters = out
    max_iter = kwargs.get("max_iter", 50)
    return {"points": int(iters.size), "sweeps": int(iters.sum()),
            "converged": int(converged.sum()),
            "capped": int(np.sum(~converged & (iters >= max_iter)))}


def _grid_counts(args, kwargs, out):
    return {"points": out.n_points, "valid": out.n_valid}


def _subimage_counts(args, kwargs, out):
    sub = out[0] if isinstance(out, tuple) else out
    return {"points": sub.grid.n_valid}


def _gather_counts(args, kwargs, out):
    points, el_pos = args[0], args[1]
    return {"pairs": len(points) * len(el_pos), "oow": int(np.sum(out[1]))}


def _interp_counts(args, kwargs, out):
    kernel = args[2] if len(args) > 2 else kwargs.get("kernel", "linear")
    n = len(args[1])
    return {"points": n, "taps": n * (64 if kernel == "cubic" else 8),
            "missed": n - int(np.sum(out[1]))}


# (module, attribute, span name, counter): the layer boundaries
TRACED = [
    (hhsar.ffbp, "range_compress", "rangecomp", None),
    (hhsar.bpa, "range_compress", "rangecomp", None),
    (hhsar.ffbp, "build_subimage_grid", "ffbp.grid", _grid_counts),
    (hhsar.ffbp, "invert_lattice", "spectrum.invert", _invert_counts),
    (hhsar.ffbp, "level1_reconstruct", "ffbp.level1", _subimage_counts),
    (hhsar.ffbp, "merge_pair", "ffbp.merge", _subimage_counts),
    (hhsar.ffbp, "lattice_interpolate", "kernels.interp", _interp_counts),
    (hhsar.bpa, "backproject_gather", "kernels.gather", _gather_counts),
]


@dataclass
class Tracer:
    """In-memory spans: trace, name, start, end, parent and counts."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    trace_id: int = 0

    def _call(self, name, fn, counter, args, kwargs):
        span = {"trace": self.trace_id, "id": len(self.spans), "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self.stack.append(span["id"])
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
        if counter is not None:
            span["counts"] = counter(args, kwargs, out)
        return out

    def wrap(self, name, fn, counter=None):
        return lambda *args, **kwargs: self._call(name, fn, counter,
                                                  args, kwargs)

    def install(self):
        """Swap every traced attribute for its wrapper; returns an undo."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TRACED]
        for (mod, attr, name, counter), (_, _, fn) in zip(TRACED, saved):
            setattr(mod, attr, self.wrap(name, fn, counter))

        def undo():
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
        return undo


def self_times(spans: list) -> dict:
    """Self seconds per span id: duration minus its children's durations
    (calls are sequential, so children never overlap)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list, provenance: dict) -> dict:
    """Per-layer figures of one traced reconstruction."""
    own = self_times(spans)
    secs: dict = {}
    counts: dict = {}
    for s in spans:
        secs[s["name"]] = secs.get(s["name"], 0.0) + own[s["id"]]
        acc = counts.setdefault(s["name"], {})
        for key, val in s["counts"].items():
            acc[key] = acc.get(key, 0) + val

    def t(name):
        return secs.get(name, 0.0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    def frac(num, den):
        return num / den if den else 0.0

    newton = c("spectrum.invert", "points")
    conv = c("spectrum.invert", "converged")
    capped = c("spectrum.invert", "capped")
    return {
        "rangecomp.s": t("rangecomp"),
        "spectrum.invert_s": t("spectrum.invert"),
        "spectrum.newton_points": newton,
        "spectrum.newton_sweeps": c("spectrum.invert", "sweeps"),
        "spectrum.converged_frac": frac(conv, newton),
        "spectrum.capped_frac": frac(capped, newton),
        "spectrum.gaveup_frac": frac(newton - conv - capped, newton),
        "ffbp.grid_s": t("ffbp.grid"),
        "ffbp.grid_points": c("ffbp.grid", "points"),
        "ffbp.grid_valid_frac": frac(c("ffbp.grid", "valid"),
                                     c("ffbp.grid", "points")),
        "ffbp.level1_s": t("ffbp.level1"),
        "ffbp.level1_points": c("ffbp.level1", "points"),
        "ffbp.merge_s": t("ffbp.merge"),
        "ffbp.merge_points": c("ffbp.merge", "points"),
        "ffbp.flagged_frac": float(provenance.get("flagged_fraction", 0.0)),
        "ffbp.rest_s": t("ffbp.recon"),
        "kernels.gather_s": t("kernels.gather"),
        "kernels.gather_pairs": c("kernels.gather", "pairs"),
        "kernels.gather_pairs_per_s": frac(c("kernels.gather", "pairs"),
                                           t("kernels.gather")),
        "kernels.gather_oow": c("kernels.gather", "oow"),
        "kernels.interp_s": t("kernels.interp"),
        "kernels.interp_points": c("kernels.interp", "points"),
        "kernels.interp_taps": c("kernels.interp", "taps"),
        "kernels.interp_miss_frac": frac(c("kernels.interp", "missed"),
                                         c("kernels.interp", "points")),
        "bpa.rest_s": t("bpa.recon"),
    }


def op_model(workload: Workload, geom: Geometry, scan: Scan,
             provenance: dict) -> dict:
    """The op-count model's terms for a reconstruction, from its measured
    per-level sample counts. Grid construction has no term."""
    if workload.algorithm == "bpa":
        params, measured = hhsar.FfbpParams(levels=1), None
    else:
        params = hhsar.FfbpParams(**workload.params)
        measured = provenance["level_points"]
    report = hhsar.predict_op_count(scan.cube.aperture, geom.region,
                                    geom.freqs, params, geom.dims,
                                    measured_level_points=measured)
    return {"model.n_ops_rc": report.n_ops_rc,
            "model.n_ops_bpa": report.n_ops_bpa,
            "model.n_ops_interp": report.n_ops_interp}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "recon_s": "s", "voxels_per_s": "1/s", "setup_s": "s",
    "peak_mem_mb": "MB", "psnr_db": "dB", "mainlobe_mm": "mm",
    "pslr_db": "dB", "ok_frac": "ratio",
}


def timed_pass(workload, geom, source, seconds) -> list:
    """Reconstruct fresh scans until the timed calls add up to `seconds`."""
    outcomes = []
    while not outcomes or sum(o.seconds for o in outcomes) < seconds:
        outcomes.append(attempt(workload, geom, source.next()))
    return outcomes


def point_target(workload, geom, source) -> dict:
    """Fidelity and memory from one single-scatterer scan.

    The reconstruction runs under tracemalloc, which slows it several
    times, so it is never timed. Its PSNR is taken against BPA of the
    same cube (against the sampled exact image for BPA itself), and its
    PSF from the x cut through the scatterer: in a 27-point scene the
    neighbours leak into that cut and the figures spread by a quarter
    from seed to seed. A failed check or an unmeasurable PSF fails the
    outcome.
    """
    scan = source.next(point_scene())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = attempt(workload, geom, scan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fig = {"outcome": out, "peak_mem_mb": peak / 1e6, "psnr_db": None,
           "mainlobe_mm": None, "pslr_db": None}
    if out.error is not None:
        return fig
    psnr_db = out.psnr
    if workload.algorithm != "bpa":
        ref = hhsar.bpa_reconstruct(scan.cube, geom.region, geom.dims)
        psnr_db = hhsar.psnr(ref, out.volume)
    try:
        psf = hhsar.psf_metrics(*hhsar.profile_cut(out.volume, "x",
                                                   REGION_CENTER))
    except hhsar.HhsarError as exc:
        out.error = f"point response is not measurable: {exc}"
        return fig
    # PSLR as peak over the highest sidelobe: a positive number of dB
    fig.update(psnr_db=psnr_db, mainlobe_mm=psf.mainlobe_width_mm,
               pslr_db=-psf.pslr_db)
    return fig


def run_end_to_end(workload, geom, seed, seconds, setup_repeats) -> dict:
    setup = measure_setup(workload.name, setup_repeats)
    warm_up(workload.name)
    source = ScanSource(workload, geom, seed)
    outcomes = timed_pass(workload, geom, source, seconds)
    point = point_target(workload, geom, source)
    checked = outcomes + [point.pop("outcome")]
    failed = sum(o.error is not None for o in checked)
    times = [o.seconds for o in outcomes]
    metrics = {
        "recon_s": statistics.median(times),
        "voxels_per_s": geom.n_voxels * len(times) / sum(times),
        "setup_s": statistics.median(setup),
        **point,
        "ok_frac": (len(checked) - failed) / len(checked),
    }
    return {"attempted": len(checked), "failed": failed, "metrics": metrics,
            "units": END_TO_END_UNITS,
            "samples": {"recon_s": times, "setup_s": setup,
                        "sampled_psnr_db": [o.psnr for o in checked]},
            "errors": [o.error for o in checked if o.error]}


def run_traced(workload, geom, seed, seconds) -> dict:
    """Alternate untraced and traced reconstructions of fresh scans."""
    warm_up(workload.name)
    source = ScanSource(workload, geom, seed)
    tracer = Tracer()
    root = "bpa.recon" if workload.algorithm == "bpa" else "ffbp.recon"
    plain, traced = [], []
    while not traced or sum(o.seconds for o in plain + traced) < seconds:
        if len(plain) <= len(traced):
            plain.append(attempt(workload, geom, source.next()))
            continue
        tracer.trace_id = len(traced)
        undo = tracer.install()
        try:
            traced.append(attempt(workload, geom, source.next(),
                                  tracer.wrap(root, reconstruct)))
        finally:
            undo()
    outcomes = plain + traced

    # every per-layer figure comes from one real call: the median traced one
    order = sorted(range(len(traced)), key=lambda i: traced[i].seconds)
    pick = order[(len(order) - 1) // 2]
    chosen = traced[pick]
    spans = [s for s in tracer.spans if s["trace"] == pick]
    own = self_times(spans)
    provenance = chosen.volume.provenance if chosen.volume is not None else {}
    metrics = layer_metrics(spans, provenance)
    if chosen.volume is not None:
        metrics.update(op_model(workload, geom, chosen.scan, provenance))
    untraced_s = statistics.median(o.seconds for o in plain)
    metrics.update({
        "trace.recon_s": chosen.seconds,
        "trace.untraced_recon_s": untraced_s,
        "trace.overhead_s": chosen.seconds - untraced_s,
        # the root span sits inside the timed call: this is the wrapper's
        # own cost, and self times add up to the root's duration exactly
        "trace.unattributed_s": chosen.seconds - sum(own.values()),
        "trace.min_self_s": min(own.values()),
    })
    return {"attempted": len(outcomes),
            "failed": sum(o.error is not None for o in outcomes),
            "metrics": metrics,
            "units": {name: layer_unit(name) for name in metrics},
            "samples": {"untraced_s": [o.seconds for o in plain],
                        "traced_s": [o.seconds for o in traced]},
            "errors": [o.error for o in outcomes if o.error],
            "spans": tracer.spans}


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "have_numba": bool(hhsar._kernels.HAVE_NUMBA), "seed": seed,
            "omp_threads": os.environ["OMP_NUM_THREADS"],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run(name: str, seed: int, seconds: float, trace: bool, geom: Geometry,
        setup_repeats: int) -> dict:
    """One benchmark run; returns the full record."""
    workload = WORKLOADS[name]
    if trace:
        record = run_traced(workload, geom, seed, seconds)
    else:
        record = run_end_to_end(workload, geom, seed, seconds, setup_repeats)
    record["correct"] = record["failed"] == 0 and all(
        v is not None for v in record["metrics"].values())
    record.update(workload=name, trace=int(trace),
                  environment=environment(seed))
    return record


def summary(record: dict) -> dict:
    """The result line: exactly correct, attempted, failed and metrics."""
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": value, "unit": record["units"][name]}
                        for name, value in record["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(hhsar.__file__).resolve().parent != SRC / "hhsar":
        raise SystemExit(f"hhsar was imported from {hhsar.__file__}, "
                         f"not from {SRC}")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 DESK, SETUP_REPEATS)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"],
                      "samples": record["samples"]}))
    for err in record["errors"]:
        print(f"failed: {err}")
    for name, value in record["metrics"].items():
        print(f"{args.workload:9s} {name:28s} {value!s:>24} "
              f"{record['units'][name]}")
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
