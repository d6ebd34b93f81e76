"""Tests of the benchmark itself: its correctness check bites, and a
tiny-geometry run of every workload prints every declared metric."""

import dataclasses
import json

import numpy as np
import pytest

import hhsar
import hhsar_bench as bench

# A 9x9 scan over a half-size region keeps each reconstruction under a
# second. Three levels still exercise every traced layer; the coarse scan
# images worse than the desk geometry, hence the lower floors.
TINY = bench.Geometry(side=9, dims=(17, 17, 9), scale=0.5)
TINY_FLOORS = {"handheld": 10.0, "rail": 15.0, "reference": 40.0}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "DESK", TINY)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    for name, w in bench.WORKLOADS.items():
        params = dict(w.params, levels=3) if w.params else w.params
        monkeypatch.setitem(bench.WORKLOADS, name, dataclasses.replace(
            w, params=params, psnr_floor=TINY_FLOORS[name]))


def declared_metrics(kind):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(tiny, capsys,
                                                        workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        assert bench.main(["--workload", workload, "--seed", "5",
                           "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared_metrics(kind)
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def _shifted(workload, geom, scan):
    good = hhsar.bpa_reconstruct(scan.cube, geom.region, geom.dims)
    return hhsar.ImageVolume(np.roll(good.values, 2, axis=0), good.origin,
                             good.step)


def _zeros(workload, geom, scan):
    origin, step = hhsar.region_grid(geom.region, geom.dims)
    return hhsar.ImageVolume(np.zeros(geom.dims), origin, step)


def _off_grid(workload, geom, scan):
    dims = (geom.dims[0], geom.dims[1], geom.dims[2] - 1)
    return hhsar.bpa_reconstruct(scan.cube, geom.region, dims)


@pytest.mark.parametrize("fake", [_shifted, _zeros, _off_grid])
def test_a_broken_reconstruction_counts_as_failed(tiny, monkeypatch, fake):
    monkeypatch.setattr(bench, "reconstruct", fake)
    record = bench.run("reference", 3, 0.0, False, TINY, 1)
    assert record["attempted"] >= 2
    assert record["failed"] == record["attempted"]
    assert not record["correct"]
    assert record["metrics"]["ok_frac"] == 0.0


def test_a_raised_error_counts_as_failed(tiny):
    workload = bench.WORKLOADS["reference"]
    scan = bench.ScanSource(workload, TINY, 3).next()

    def fails(*_):
        raise hhsar.NumericDomainError("no preimage")

    out = bench.attempt(workload, TINY, scan, fails)
    assert out.error.startswith("NumericDomainError")
    assert bench.attempt(workload, TINY, scan).error is None


def test_layer_self_times_add_up_to_the_traced_call(tiny):
    record = bench.run("handheld", 4, 0.0, True, TINY, 1)
    m = record["metrics"]
    layers = sum(v for k, v in m.items()
                 if k.endswith("_s") and k.split(".")[0] in
                 ("spectrum", "ffbp", "kernels", "bpa")
                 and not k.endswith("per_s")) + m["rangecomp.s"]
    assert m["trace.min_self_s"] >= 0.0
    assert layers + m["trace.unattributed_s"] == pytest.approx(
        m["trace.recon_s"], rel=1e-9)
    assert m["kernels.gather_pairs"] == m["model.n_ops_bpa"]
    assert m["kernels.interp_points"] == m["model.n_ops_interp"]


def test_a_zero_volume_fails_where_the_floor_alone_would_pass(tiny):
    # on a point target most sampled voxels are dark, so an all-zero
    # volume's PSNR clears the handheld floor
    workload = bench.WORKLOADS["handheld"]
    scan = bench.ScanSource(workload, TINY, 3).next(bench.point_scene())
    zeros = _zeros(workload, TINY, scan)
    assert bench.sampled_psnr(scan.exact, np.zeros_like(scan.exact)) \
        > workload.psnr_floor
    with pytest.raises(bench.CheckFailure, match="all-zero"):
        bench.check_volume(workload, TINY, scan, zeros)
