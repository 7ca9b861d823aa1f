"""Acceptance suite: one test per criterion, each printing a PASS line.

Stochastic criteria use the pilot-calibrated bands and seeds recorded in
tests/data/pilot_bands.json (regenerate with tools/calibrate_pilot.py).
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest
from scipy import stats

from conftest import make_cloud
from covlab import geometry as geo
from covlab import limits as lim
from covlab.coverage import coverage_threshold, interior_threshold
from covlab.grids import build_grid
from covlab.harness import (ExperimentConfig, RunMode, Sampler, constant_k,
                            run_experiment)
from covlab.sampling import uniform_sample

GEO = geo.Metric.GEODESIC
EUC = geo.Metric.EUCLIDEAN

PILOT = json.loads(
    (pathlib.Path(__file__).parent / "data" / "pilot_bands.json").read_text())


def _report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def test_criterion_01_constant_exactness():
    t0 = time.monotonic()
    assert lim.interior_coefficient(1) == pytest.approx(1.0, rel=1e-12)
    assert lim.interior_coefficient(2) == pytest.approx(1.0, rel=1e-12)
    assert lim.interior_coefficient(3) == pytest.approx(
        3 * math.pi ** 2 / 32, rel=1e-12)
    for k in range(1, 9):
        want2 = 2.0 ** (1 - k) * math.pi ** -0.5 / math.factorial(k - 1)
        want3 = (2.0 ** (k - 5) * 3.0 ** (1 - k) * math.pi ** (5 / 3)
                 / math.factorial(k - 1))
        assert abs(lim.boundary_coefficient(2, k) / want2 - 1) <= 1e-12
        assert abs(lim.boundary_coefficient(3, k) / want3 - 1) <= 1e-12
    assert lim.boundary_coefficient(3, 1) == pytest.approx(
        2 ** -4 * math.pi ** (5 / 3), rel=1e-12)
    dt = time.monotonic() - t0
    assert dt < 1.0
    _report(1, f"closed-form constants exact to 1e-12 ({dt * 1e3:.0f} ms)")


def test_criterion_02_transform_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    n = rng.integers(20, 10 ** 6, size=1000).astype(float)
    r = rng.random(1000) * 1.5
    s = rng.random(1000) * 8.0         # boundary area of a volume-1 shape
    x = rng.random(1000) * 16.0 - 6.0
    for ni, ri, si, xi in zip(n, r, s, x):
        stat3 = 1.5 * lim.boundary_centering(ri, ni, 3, 1, 1.0)
        want3 = ni * math.pi * ri ** 3 - math.log(ni) - 2 * math.log(math.log(ni))
        assert abs(stat3 - want3) <= 1e-12 * max(1.0, abs(want3))
        stat2 = 2.0 * lim.boundary_centering(ri, ni, 2, 1, 1.0)
        want2 = ni * math.pi * ri ** 2 - math.log(ni) - math.log(math.log(ni))
        assert abs(stat2 - want2) <= 1e-12 * max(1.0, abs(want2))
        law3 = lim.LimitLaw(regime=lim.Regime.WEAK_BOUNDARY, d=3, k=1,
                            f0=1.0, volume=1.0, boundary_area=si)
        cdf3 = lim.boundary_law_cdf(law3, 2 * xi / 3)
        want_cdf3 = math.exp(-(2 ** -4) * math.pi ** (5 / 3) * si
                             * math.exp(-2 * xi / 3))
        assert abs(cdf3 - want_cdf3) <= 1e-12
        law2 = lim.LimitLaw(regime=lim.Regime.WEAK_BOUNDARY, d=2, k=1,
                            f0=1.0, volume=1.0, boundary_area=si)
        cdf2 = lim.boundary_law_cdf(law2, xi / 2)
        want_cdf2 = math.exp(-math.exp(-xi)
                             - si * math.pi ** -0.5 * math.exp(-xi / 2))
        assert abs(cdf2 - want_cdf2) <= 1e-12
    dt = time.monotonic() - t0
    assert dt < 1.0
    _report(2, f"d=2/d=3 statistics and laws match under zeta=x/2, 2x/3 "
               f"on 1000 random inputs ({dt * 1e3:.0f} ms)")


def test_criterion_03_rate_inverse():
    t0 = time.monotonic()
    avals = np.linspace(0.0, 5.0, 100)
    xvals = np.linspace(0.0, 10.0, 100)
    for a in avals:
        prev = -math.inf
        for xv in xvals:
            y = lim.rate_inverse(float(a), float(xv))
            if a == 0.0:
                assert y == xv
            else:
                assert abs(y * lim.rate_function(a / y) - xv) <= 1e-10
            if xv > 0:
                assert y > prev or (a == 0.0 and y == xv)
            prev = y
    dt = time.monotonic() - t0
    assert dt < 1.0
    _report(3, f"rate inverse solves y*H(a/y)=x to 1e-10 on a 100x100 "
               f"lattice, strictly increasing ({dt * 1e3:.0f} ms)")


def test_criterion_04_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    specs = [geo.unit_disk(), geo.unit_square(2), geo.spherical_cap(1.3)]
    for i in range(100):
        spec = specs[i % 3]
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 501))
        metric = GEO if i % 2 == 0 else EUC
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        h = geo.intrinsic_diameter(spec) / 14.0
        coarse = coverage_threshold(
            cloud, build_grid(spec, geo.REGION_ALL, h), k, metric)
        fine = coverage_threshold(
            cloud, build_grid(spec, geo.REGION_ALL, h / 10.0), k, metric)
        # the two grids are not nested, so the finer max can undercut the
        # coarse one by at most its own covering radius h/10; beyond that
        # slack the coarse interval must contain the finer value
        assert coarse.lo - h / 10.0 - 1e-9 <= fine.lo <= coarse.hi + 1e-9, \
            f"instance {i}: fine lo outside coarse interval"
        assert coarse.width <= h + 1e-12
    dt = time.monotonic() - t0
    assert dt < 300.0
    _report(4, f"100 random instances: coarse interval contains the 10x "
               f"finer value up to its own covering radius ({dt:.1f} s)")


def test_criterion_05_deterministic_exact_cases():
    disk = geo.unit_disk()
    est = coverage_threshold(make_cloud(disk, [[0.0, 0.0]]),
                             build_grid(disk, geo.REGION_ALL, 0.02), 1, GEO)
    assert est.lo <= 1.0 <= est.hi and est.width <= 0.02 + 1e-12
    sq = geo.unit_square(2)
    est2 = coverage_threshold(make_cloud(sq, [[0.0, 0.0]]),
                              build_grid(sq, geo.REGION_ALL, 0.02), 1, GEO)
    assert est2.lo <= math.sqrt(2.0) <= est2.hi and est2.width <= 0.02 + 1e-12
    _report(5, "single-center thresholds certified: 1 on the disk, sqrt(2) "
               "for the corner cloud on the square")


def test_criterion_06_monotonicity_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    specs = [geo.unit_disk(), geo.unit_square(2), geo.spherical_cap(1.2),
             geo.unit_sphere()]
    violations = 0
    for i in range(200):
        spec = specs[i % 4]
        grid = build_grid(spec, geo.REGION_ALL,
                          geo.intrinsic_diameter(spec) / 10.0)
        n = int(rng.integers(3, 120))
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        extra = uniform_sample(spec, int(rng.integers(1, 40)),
                               int(rng.integers(2 ** 31)))
        bigger = make_cloud(spec, np.vstack([cloud.points, extra.points]))
        e1 = coverage_threshold(cloud, grid, 1, GEO)
        e2 = coverage_threshold(bigger, grid, 1, GEO)
        if e2.lo > e1.lo + 1e-12:
            violations += 1
        k_hi = min(3, n)
        ek = coverage_threshold(cloud, grid, k_hi, GEO)
        if ek.lo < e1.lo - 1e-12:
            violations += 1
        ee = coverage_threshold(cloud, grid, 1, EUC)
        if ee.lo > e1.lo + 1e-12:
            violations += 1
    assert violations == 0
    dt = time.monotonic() - t0
    _report(6, f"200 instances, zero monotonicity/metric-ordering "
               f"violations ({dt:.1f} s)")


def test_criterion_07_slln_directional():
    t0 = time.monotonic()
    cal = PILOT["slln_square"]
    cfg = ExperimentConfig(spec=geo.unit_square(2), region=geo.REGION_ALL,
                           mode=RunMode.SLLN_TRACE,
                           sizes=tuple(cal["sizes"]),
                           schedule=constant_k(1),
                           replications=cal["replications"],
                           base_seed=cal["acceptance_seed"])
    res = run_experiment(cfg)
    assert res.summary["reference"] == pytest.approx(1.0)
    medians = []
    widths = []
    for s in cal["sizes"]:
        med = res.summary["per_size"][str(s)]["median_lo"]
        lo_band, hi_band = cal["band"][str(s)]
        assert lo_band <= med <= hi_band, \
            f"n={s}: median {med:.4f} outside pilot band [{lo_band}, {hi_band}]"
        medians.append(med)
        widths.append(hi_band - lo_band)
    gaps = [abs(m - 1.0) for m in medians]
    assert gaps[0] > gaps[1] > gaps[2], f"medians not approaching 1: {medians}"
    assert widths[0] > widths[1] > widths[2]
    dt = time.monotonic() - t0
    _report(7, f"slln medians {['%.3f' % m for m in medians]} approach 1 "
               f"monotonically within shrinking pilot bands ({dt:.0f} s)")


def test_criterion_08_weak_law_direction():
    t0 = time.monotonic()
    cal = PILOT["weak_disk"]
    cfg = ExperimentConfig(spec=geo.unit_disk(), region=geo.REGION_ALL,
                           mode=RunMode.WEAK_BOUNDARY,
                           sizes=tuple(cal["sizes"]),
                           schedule=constant_k(1),
                           replications=cal["replications"],
                           base_seed=cal["acceptance_seed"])
    res = run_experiment(cfg)
    ks_small = res.summary["1000"]["ks_lo"]
    ks_big = res.summary["10000"]["ks_lo"]
    for v in (ks_small, ks_big, res.summary["1000"]["ks_hi"],
              res.summary["10000"]["ks_hi"]):
        assert math.isfinite(v) and 0.0 <= v <= 1.0
    assert ks_big < ks_small, \
        f"KS did not improve with n: {ks_big:.4f} vs {ks_small:.4f}"
    dt = time.monotonic() - t0
    assert dt < 1800.0
    _report(8, f"weak-law KS improves with n: {ks_small:.4f} (n=1e3) -> "
               f"{ks_big:.4f} (n=1e4), M={cal['replications']} ({dt:.0f} s)")


def test_criterion_09_poisson_binomial_agreement():
    t0 = time.monotonic()
    cal = PILOT["poisson_binomial"]
    samples = {}
    for sampler in (Sampler.BINOMIAL, Sampler.POISSON):
        cfg = ExperimentConfig(spec=geo.unit_disk(), region=geo.REGION_ALL,
                               mode=RunMode.WEAK_BOUNDARY,
                               sizes=(cal["size"],), schedule=constant_k(1),
                               replications=cal["replications"],
                               base_seed=cal["acceptance_seed"],
                               sampler=sampler)
        res = run_experiment(cfg)
        samples[sampler.value] = np.array([r.stat_lo for r in res.rows])
    gap = float(stats.ks_2samp(samples["binomial"],
                               samples["poisson"]).statistic)
    assert gap <= 0.1, f"poisson/binomial KS gap {gap:.4f} > 0.1"
    dt = time.monotonic() - t0
    _report(9, f"poisson vs binomial lo-statistic KS gap {gap:.4f} <= 0.1 "
               f"at size 1e4, M={cal['replications']} ({dt:.0f} s)")


def test_criterion_10_boundaryless_interior_law():
    t0 = time.monotonic()
    cal = PILOT["sphere_interior"]
    sph = geo.unit_sphere()
    # law comparison through the harness (auto-refined estimates)
    cfg = ExperimentConfig(spec=sph, region=geo.REGION_ALL,
                           mode=RunMode.WEAK_INTERIOR, sizes=(cal["size"],),
                           schedule=constant_k(1),
                           replications=cal["replications"],
                           base_seed=cal["acceptance_seed"])
    res = run_experiment(cfg)
    ks_lo = res.summary[str(cal["size"])]["ks_lo"]
    assert math.isfinite(ks_lo) and 0.0 <= ks_lo <= 1.0
    assert res.law["regime"] == "weak_interior"
    assert res.law["vB"] == pytest.approx(4 * math.pi)
    # interior and plain thresholds must coincide on every replication
    grid = build_grid(sph, geo.REGION_ALL, 0.05)
    for rep in range(cal["replications"]):
        seed = np.random.SeedSequence(entropy=cal["acceptance_seed"],
                                      spawn_key=(0, rep))
        cloud = uniform_sample(sph, cal["size"], seed)
        a = interior_threshold(cloud, sph, geo.REGION_ALL, 1, GEO, grid=grid)
        b = coverage_threshold(cloud, grid, 1, GEO)
        assert a == b
    dt = time.monotonic() - t0
    _report(10, f"boundaryless sphere: interior == coverage threshold on all "
                f"{cal['replications']} replications; interior-law KS "
                f"{ks_lo:.4f} reported ({dt:.0f} s)")
