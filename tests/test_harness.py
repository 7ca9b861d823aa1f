import dataclasses
import importlib.util
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from covlab import geometry as geo
from covlab import harness
from covlab import limits as lim
from covlab import sampling as smp
from covlab.coverage import coverage_threshold
from covlab.harness import (ConfigError, ConfigRefused, ExperimentConfig,
                            KSchedule, RunMode, Sampler, constant_k,
                            ks_distance, run_experiment)
from covlab.harness import _summarize_weak  # noqa: F401  (exchangeability test)
from covlab.sampling import DensitySpec, density_sample


def _disk_cfg(**kw):
    base = dict(spec=geo.unit_disk(), region=geo.REGION_ALL,
                mode=RunMode.WEAK_BOUNDARY, sizes=(64,),
                schedule=constant_k(1), replications=4, base_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# ks_distance


def test_ks_single_sample_at_median():
    cdf = lambda x: np.clip(x, 0.0, 1.0)  # uniform CDF
    assert ks_distance([0.5], cdf) == pytest.approx(0.5)


def test_ks_constant_samples_at_lower_tail():
    cdf = lambda x: np.clip(x, 0.0, 1.0)
    assert ks_distance([1e-9] * 50, cdf) > 0.99


def test_ks_inverse_cdf_self_test():
    # standard Gumbel-type law sampled through its inverse CDF
    rng = np.random.default_rng(17)
    u = rng.random(100_000)
    samples = -np.log(-np.log(u))
    cdf = lambda x: np.exp(-np.exp(-np.asarray(x)))
    assert ks_distance(samples, cdf) < 0.01


def test_ks_bounds():
    cdf = lambda x: np.exp(-np.exp(-np.asarray(x)))
    rng = np.random.default_rng(3)
    d = ks_distance(rng.standard_normal(100), cdf)
    assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------------------
# schedules and config


def test_kschedule_kinds():
    c = KSchedule("constant", 3)
    assert c.k_of(100) == 3 and c.beta == 0.0
    b = KSchedule("beta_log", 1.0)
    assert b.k_of(1000) == math.ceil(math.log(1000)) and b.beta == 1.0
    p = KSchedule("power", 0.5)
    assert p.k_of(100) == 10 and p.beta is None
    with pytest.raises(ConfigError):
        KSchedule("power", 1.0)
    with pytest.raises(ConfigError):
        KSchedule("constant", 0)


@pytest.mark.parametrize("obj,bad", [
    ({"kind": "beta_log", "k": 1.0}, "k"),
    ({"kind": "constant", "beta": 3}, "beta"),
    ({"kind": "power", "beta": 0.5}, "beta"),
    ({"kind": "constant", "k": 2, "p": 0.5}, "p"),
])
def test_kschedule_json_takes_only_its_own_key(obj, bad):
    with pytest.raises(ConfigError, match=f"'{bad}'"):
        KSchedule.from_json(obj)
    for sched in (constant_k(2), KSchedule("beta_log", 1.5),
                  KSchedule("power", 0.5)):
        assert KSchedule.from_json(sched.to_json()) == sched


def test_kschedule_json_needs_its_parameter():
    with pytest.raises(ConfigError, match="'beta'"):
        KSchedule.from_json({"kind": "beta_log"})
    with pytest.raises(ConfigError, match="unknown k schedule kind"):
        KSchedule.from_json({"kind": "linear", "k": 1})


def test_config_validation():
    with pytest.raises(ConfigError, match=">= 16"):
        _disk_cfg(sizes=(8,))
    with pytest.raises(ConfigError, match="cap 1000000 for d=2"):
        _disk_cfg(sizes=(1_000_001,))
    _disk_cfg(sizes=(1_000_000,))
    with pytest.raises(ConfigError, match="cap 200000 for d=3"):
        _disk_cfg(spec=geo.solid_ball(), sizes=(200_001,))
    _disk_cfg(spec=geo.solid_ball(), sizes=(200_000,))
    with pytest.raises(ConfigError, match="constant"):
        _disk_cfg(schedule=KSchedule("beta_log", 1.0))
    with pytest.raises(ConfigError, match="increasing"):
        ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                         mode=RunMode.SLLN_TRACE, sizes=(100, 100),
                         schedule=constant_k(1), replications=1)
    # a binomial cloud has a whole number of points; a Poisson intensity
    # need not be whole
    with pytest.raises(ConfigError, match="binomial size 1000.5"):
        _disk_cfg(sizes=(1000.5,))
    doc = {**_disk_cfg().to_json(), "sizes": [1000.5], "sampler": "poisson"}
    assert ExperimentConfig.from_json(doc).sizes == (1000.5,)


def test_config_json_round_trip():
    cfg = _disk_cfg(sizes=(64, 128), sampler=Sampler.POISSON,
                    metric=geo.Metric.EUCLIDEAN, grid_h=0.05)
    back = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert back == cfg


def test_config_rejects_unknown_density_key():
    doc = _disk_cfg().to_json()
    doc["density"] = {"kind": "uniform", "f0": 1.0}
    with pytest.raises(ConfigError, match="'f0'"):
        ExperimentConfig.from_json(doc)


def test_config_rejects_custom_density_json():
    doc = _disk_cfg().to_json()
    doc["density"] = {"kind": "custom"}
    with pytest.raises(ConfigError, match="uniform"):
        ExperimentConfig.from_json(doc)


# ---------------------------------------------------------------------------
# weak boundary runs


def test_minimal_run_one_row():
    cfg = _disk_cfg(sizes=(16,), schedule=constant_k(16), replications=1)
    res = run_experiment(cfg)
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row.stat_lo <= row.stat_hi
    assert row.lo <= row.hi


def test_run_row_count_and_invariants():
    cfg = _disk_cfg(sizes=(64, 128), replications=5)
    res = run_experiment(cfg)
    assert len(res.rows) == 10
    for row in res.rows:
        assert row.stat_lo <= row.stat_hi
        assert 0.0 <= row.lo <= row.hi
    for block in res.summary.values():
        assert 0.0 <= block["ks_lo"] <= 1.0
        assert 0.0 <= block["ks_hi"] <= 1.0


def test_ks_pair_within_straddle_bound():
    # the lo- and hi-based empirical CDFs differ at x by the fraction of
    # replications whose bracket straddles x, so the KS pair differs by at
    # most the maximal straddle fraction
    cfg = _disk_cfg(sizes=(128,), replications=40)
    res = run_experiment(cfg)
    lo = np.array([r.stat_lo for r in res.rows])
    hi = np.array([r.stat_hi for r in res.rows])
    straddle = max(float(np.mean((lo <= x) & (x < hi))) for x in lo)
    block = res.summary["128"]
    assert abs(block["ks_lo"] - block["ks_hi"]) <= straddle + 1e-12


def test_run_determinism_byte_identical(tmp_path):
    cfg = _disk_cfg(replications=5)
    a, b = run_experiment(cfg), run_experiment(cfg)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_rows_csv(str(pa))
    b.write_rows_csv(str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    assert a.summary_json() == b.summary_json()


def test_whole_float_size_writes_what_the_int_size_writes(tmp_path):
    # a Python-API size 1e3 is written as 1000 in every result file, the
    # config echo included
    outs = []
    for name, size in (("float", 1e3), ("int", 1000)):
        res = run_experiment(_disk_cfg(sizes=(size,), replications=2))
        out = tmp_path / name
        out.mkdir()
        res.write_rows_csv(str(out / "rows.csv"))
        res.write_summary_json(str(out / "summary.json"))
        res.write_meta_json(str(out / "run_meta.json"))
        outs.append(out)
    a, b = outs
    for name in ("rows.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (json.loads((a / "run_meta.json").read_text()).keys()
            == json.loads((b / "run_meta.json").read_text()).keys())
    summary = json.loads((a / "summary.json").read_text())
    assert summary["config"]["sizes"] == [1000]


def test_rows_csv_header_is_the_row_fields(tmp_path):
    res = run_experiment(_disk_cfg(replications=1))
    path = tmp_path / "rows.csv"
    res.write_rows_csv(str(path))
    header = path.read_text().splitlines()[0].split(",")
    assert header == [f.name
                      for f in dataclasses.fields(harness.ReplicationRow)]


def test_refusal_degenerate_law():
    cfg = _disk_cfg(region=geo.interior_body(0.2), schedule=constant_k(2))
    with pytest.raises(ConfigRefused):
        run_experiment(cfg)


def test_poisson_sampler_runs():
    cfg = _disk_cfg(sampler=Sampler.POISSON, sizes=(128,), replications=3)
    res = run_experiment(cfg)
    assert len(res.rows) == 3


def test_binomial_run_samples_the_custom_density(monkeypatch):
    # density (2/3)(1 + x) on the square: mean x is 5/9, not 1/2
    dens = DensitySpec.custom(lambda p: (2.0 / 3.0) * (1.0 + p[:, 0]),
                              sup_bound=4.0 / 3.0, f0=2.0 / 3.0, f1=2.0 / 3.0)
    cfg = ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                           mode=RunMode.SLLN_TRACE, sizes=(20_000,),
                           schedule=constant_k(1), replications=1,
                           base_seed=7, density=dens)
    clouds = []

    def recording(cloud, *args, **kw):
        clouds.append(cloud)
        return coverage_threshold(cloud, *args, **kw)

    monkeypatch.setattr(harness, "coverage_threshold", recording)
    run_experiment(cfg)
    want = density_sample(cfg.spec, dens, 20_000,
                          np.random.SeedSequence(entropy=7, spawn_key=(0, 0)))
    assert clouds[0].points.tobytes() == want.points.tobytes()
    assert abs(float(np.mean(clouds[0].points[:, 0])) - 5.0 / 9.0) < 0.01


def _tilted_square_cfg(dens, sampler, replications):
    return ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                            mode=RunMode.SLLN_TRACE, sizes=(2_000,),
                            schedule=constant_k(1), replications=replications,
                            base_seed=7, density=dens, sampler=sampler)


@pytest.mark.parametrize("sampler", [Sampler.BINOMIAL, Sampler.POISSON])
def test_custom_density_run_probes_once(monkeypatch, sampler):
    # the 100k-point density check runs once per run, not once per draw,
    # and the clouds are the ones an unchecked draw gives
    dens = DensitySpec.custom(lambda p: (2.0 / 3.0) * (1.0 + p[:, 0]),
                              sup_bound=4.0 / 3.0, f0=2.0 / 3.0, f1=2.0 / 3.0)
    probes, clouds = [], []
    probe = smp._density_probe

    def counting(*args):
        probes.append(args)
        return probe(*args)

    def recording(cloud, *args, **kw):
        clouds.append(cloud)
        return coverage_threshold(cloud, *args, **kw)

    monkeypatch.setattr(smp, "_density_probe", counting)
    monkeypatch.setattr(harness, "coverage_threshold", recording)
    run_experiment(_tilted_square_cfg(dens, sampler, 3))
    assert len(probes) == 1
    # the pool may bracket the clouds in any order: match them as a set
    got = sorted(cloud.points.tobytes() for cloud in clouds)
    want = []
    for rep in range(3):
        seed = np.random.SeedSequence(entropy=7, spawn_key=(0, rep))
        want.append((smp.poisson_sample(clouds[0].spec, dens, 2_000.0, seed)
                     if sampler is Sampler.POISSON
                     else density_sample(clouds[0].spec, dens, 2_000, seed)
                     ).points.tobytes())
    assert len(set(want)) == 3
    assert got == sorted(want)


def test_bad_custom_density_fails_before_any_replication(monkeypatch):
    dens = DensitySpec.custom(lambda p: np.full(len(p), 1.5), sup_bound=2.0,
                              f0=1.5, f1=1.5)
    monkeypatch.setattr(harness, "_draw_cloud",
                        lambda *a: pytest.fail("drew a cloud"))
    with pytest.raises(smp.SamplingError, match="integrates"):
        run_experiment(_tilted_square_cfg(dens, Sampler.BINOMIAL, 3))


def test_halved_h_shifts_within_transform_image():
    f0 = 1.0 / math.pi
    cfg1 = _disk_cfg(sizes=(256,), replications=6, grid_h=0.02)
    cfg2 = _disk_cfg(sizes=(256,), replications=6, grid_h=0.01)
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    for a, b in zip(r1.rows, r2.rows):
        # same cloud, so the lo values differ by at most the coarser h and
        # the statistics by at most the transform image of that gap
        hi_point = max(a.lo, b.lo) + 0.02
        image = (lim.boundary_centering(hi_point, 256, 2, 1, f0)
                 - lim.boundary_centering(hi_point - 0.02, 256, 2, 1, f0))
        assert abs(a.stat_lo - b.stat_lo) <= image + 1e-12


def test_exchangeable_replications():
    cfg = _disk_cfg(replications=6)
    res = run_experiment(cfg)
    law = lim.LimitLaw(regime=lim.Regime.WEAK_BOUNDARY, d=2, k=1,
                       f0=1 / math.pi, volume=math.pi,
                       boundary_area=2 * math.pi)
    cdf = lambda z: lim.boundary_law_cdf(law, z)
    permuted = list(reversed(res.rows))
    assert _summarize_weak(permuted, cfg.sizes, cdf) == res.summary


# ---------------------------------------------------------------------------
# weak interior runs


def test_interior_run_square_body():
    cfg = ExperimentConfig(spec=geo.unit_square(2),
                           region=geo.interior_body(0.25),
                           mode=RunMode.WEAK_INTERIOR, sizes=(64,),
                           schedule=constant_k(1), replications=3, base_seed=2)
    res = run_experiment(cfg)
    assert len(res.rows) == 3
    assert res.law["regime"] == "weak_interior"
    assert res.law["vB"] == pytest.approx(0.25)


def test_interior_all_region_refined_max_path():
    cfg = ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                           mode=RunMode.WEAK_INTERIOR, sizes=(64,),
                           schedule=constant_k(1), replications=3, base_seed=2)
    res = run_experiment(cfg)
    assert len(res.rows) == 3
    for row in res.rows:
        assert row.stat_lo <= row.stat_hi


def test_interior_k3_dominates_k1_rowwise():
    base = dict(spec=geo.unit_square(2), region=geo.interior_body(0.25),
                mode=RunMode.WEAK_INTERIOR, sizes=(128,), replications=4,
                base_seed=9)
    r1 = run_experiment(ExperimentConfig(schedule=constant_k(1), **base))
    r3 = run_experiment(ExperimentConfig(schedule=constant_k(3), **base))
    for a, b in zip(r1.rows, r3.rows):
        assert b.lo >= a.lo - 1e-12  # same seeds, larger k


def test_interior_sphere_equals_coverage():
    # on a boundaryless shape the depth is infinite, so on a pinned grid the
    # interior threshold equals the plain coverage threshold, replication by
    # replication
    cfg = ExperimentConfig(spec=geo.unit_sphere(), region=geo.REGION_ALL,
                           mode=RunMode.WEAK_INTERIOR, sizes=(64,),
                           schedule=constant_k(1), replications=2, base_seed=1,
                           grid_h=0.05)
    res_i = run_experiment(cfg)
    cfg_b = ExperimentConfig(spec=geo.unit_sphere(), region=geo.REGION_ALL,
                             mode=RunMode.WEAK_BOUNDARY, sizes=(64,),
                             schedule=constant_k(1), replications=2,
                             base_seed=1, grid_h=0.05)
    # d=2, k=1 keeps the boundary mode legal on a boundaryless shape
    res_b = run_experiment(cfg_b)
    for a, b in zip(res_i.rows, res_b.rows):
        assert a.lo == b.lo and a.hi == b.hi


# ---------------------------------------------------------------------------
# slln runs


def test_slln_constant_k_reference_and_rows():
    cfg = ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                           mode=RunMode.SLLN_TRACE, sizes=(64, 256),
                           schedule=constant_k(1), replications=4, base_seed=3)
    res = run_experiment(cfg)
    assert res.summary["reference"] == pytest.approx(1.0)  # max(1, (2-2/d))=1, f0=1
    assert set(res.summary["per_size"]) == {"64", "256"}
    for block in res.summary["per_size"].values():
        assert block["iqr_lo"][0] <= block["median_lo"] <= block["iqr_lo"][1]


def test_slln_power_schedule_uses_k_denominator():
    cfg = ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                           mode=RunMode.SLLN_TRACE, sizes=(256,),
                           schedule=KSchedule("power", 0.5), replications=2,
                           base_seed=4)
    res = run_experiment(cfg)
    k = math.ceil(256 ** 0.5)
    assert res.rows[0].k == k
    # reference for beta=None with f0=f1=1: max(1, 2) = 2
    assert res.summary["reference"] == pytest.approx(2.0)
    row = res.rows[0]
    want = 256 * math.pi * row.lo ** 2 / k
    assert row.stat_lo == pytest.approx(want, rel=1e-12)


def test_slln_beta_log_reference():
    cfg = ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                           mode=RunMode.SLLN_TRACE, sizes=(256,),
                           schedule=KSchedule("beta_log", 1.0), replications=2,
                           base_seed=4)
    res = run_experiment(cfg)
    want = max(lim.rate_inverse(1.0, 1.0), 2 * lim.rate_inverse(1.0, 0.5))
    assert res.summary["reference"] == pytest.approx(want)


def test_slln_k_not_small_enough_errors():
    cfg = ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                           mode=RunMode.SLLN_TRACE, sizes=(16,),
                           schedule=KSchedule("power", 0.99), replications=1)
    with pytest.raises(ConfigError, match="o\\(n\\)"):
        run_experiment(cfg)


def test_run_experiment_dispatch():
    cfg = _disk_cfg(replications=1)
    assert run_experiment(cfg).law["regime"] == "weak_boundary"


def test_euclidean_metric_on_curved_family():
    # the same limit applies with ambient-Euclidean balls; the thresholds
    # themselves are strictly smaller on a curved shape
    base = dict(spec=geo.unit_sphere(), region=geo.REGION_ALL,
                mode=RunMode.WEAK_BOUNDARY, sizes=(128,),
                schedule=constant_k(1), replications=4, base_seed=6,
                grid_h=0.05)
    rg = run_experiment(ExperimentConfig(metric=geo.Metric.GEODESIC, **base))
    re_ = run_experiment(ExperimentConfig(metric=geo.Metric.EUCLIDEAN, **base))
    assert rg.law == re_.law
    for a, b in zip(rg.rows, re_.rows):
        assert b.lo < a.lo


def test_thread_pool_matches_serial(monkeypatch):
    # 2 sizes x 5 replications: each size's pool ends on an uneven tail
    cfg = _disk_cfg(sizes=(64, 128), replications=5)
    monkeypatch.setenv("COVLAB_THREADS", "1")
    serial = run_experiment(cfg)
    assert serial.workers == 1
    assert [(r.size, r.rep) for r in serial.rows] == [
        (size, rep) for size in (64, 128) for rep in range(5)]
    monkeypatch.delenv("COVLAB_THREADS")
    default = run_experiment(cfg)
    monkeypatch.setenv("COVLAB_THREADS", "4")
    # more workers than cores, switching often: a shared cache or grid
    # written by one replication would show in the others' rows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = run_experiment(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert pooled.workers == 4
    for other in (default, pooled):
        assert other.rows == serial.rows
        assert other.summary_json() == serial.summary_json()


def test_default_worker_count(monkeypatch):
    # unset COVLAB_THREADS means every core the process may run on
    monkeypatch.delenv("COVLAB_THREADS", raising=False)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert harness._threads() == 3
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
    assert harness._threads() == 6
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._threads() == 1
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
    monkeypatch.setenv("COVLAB_THREADS", "1")
    assert harness._threads() == 1


def test_run_uses_at_most_one_worker_per_replication(monkeypatch):
    monkeypatch.setenv("COVLAB_THREADS", "8")
    assert run_experiment(_disk_cfg(sizes=(64,), replications=3)).workers == 3


def test_calibrate_pilot_tool_imports():
    # the pilot tool binds the harness names it drives at import time, so a
    # renamed or removed entry point fails here; no pilot is run
    path = (pathlib.Path(__file__).resolve().parent.parent / "tools"
            / "calibrate_pilot.py")
    spec = importlib.util.spec_from_file_location("calibrate_pilot", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.run_experiment is run_experiment
    assert callable(tool.main)
