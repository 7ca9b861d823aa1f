"""Randomized audit of the certified threshold brackets.

Any point of B gives a lower bound for the threshold, so a large random
probe set is an independent check of the certified upper end: if some
probe's k-NN distance ever exceeded hi, the bracket (and in particular the
refinement bookkeeping) would be broken.  The probes never use the grid
machinery under audit.
"""

import math

import numpy as np
import pytest

from covlab import geometry as geo
from covlab.coverage import KnnField, coverage_threshold, interior_threshold
from covlab.grids import build_grid
from covlab.sampling import uniform_sample
from conftest import make_cloud

GEO = geo.Metric.GEODESIC
EUC = geo.Metric.EUCLIDEAN


def _region_probes(spec, region, n, seed):
    pts = uniform_sample(spec, n, seed).points
    keep = geo.region_contains_many(spec, region, pts)
    return pts[keep]


def _instances(rng, count):
    specs = [geo.unit_disk(), geo.unit_square(2), geo.spherical_cap(1.4),
             geo.solid_ball(), geo.unit_sphere()]
    for i in range(count):
        spec = specs[i % len(specs)]
        if i % 3 == 0 and geo.boundary_measure(spec) > 0:
            region = geo.interior_body(0.15)
        else:
            region = geo.REGION_ALL
        k = int(rng.integers(1, 4))
        n = int(rng.integers(max(k, 20), 400))
        metric = GEO if i % 2 == 0 else EUC
        yield i, spec, region, k, n, metric


def test_refined_bracket_dominates_random_probes():
    rng = np.random.default_rng(777)
    for i, spec, region, k, n, metric in _instances(rng, 40):
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        h0 = geo.intrinsic_diameter(spec) / 8.0
        target = h0 / (32 if spec.d == 2 else 8)
        est = coverage_threshold(cloud, build_grid(spec, region, h0), k,
                                 metric, refine_to=target)
        probes = _region_probes(spec, region, 60_000,
                                int(rng.integers(2 ** 31)))
        vals = KnnField(spec, cloud.points, k, metric)(probes)
        probe_max = float(vals.max())
        assert probe_max <= est.hi + 1e-9, \
            f"instance {i}: probe {probe_max} beats certified hi {est.hi}"
        assert est.lo <= est.hi and est.h <= target * (1 + 1e-9)


def test_unrefined_bracket_dominates_random_probes():
    rng = np.random.default_rng(888)
    for i, spec, region, k, n, metric in _instances(rng, 30):
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        h = geo.intrinsic_diameter(spec) / 11.0
        est = coverage_threshold(cloud, build_grid(spec, region, h), k, metric)
        probes = _region_probes(spec, region, 60_000,
                                int(rng.integers(2 ** 31)))
        vals = KnnField(spec, cloud.points, k, metric)(probes)
        assert float(vals.max()) <= est.hi + 1e-9, f"instance {i}"


def test_interior_bracket_dominates_probe_bisection():
    # random-probe version of the interior predicate: fewer constraints,
    # so its root can only sit below the certified upper end
    rng = np.random.default_rng(999)
    for trial in range(12):
        spec = (geo.unit_disk(), geo.unit_square(2),
                geo.spherical_cap(1.4))[trial % 3]
        k = int(rng.integers(1, 3))
        n = int(rng.integers(max(k, 20), 200))
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        est = interior_threshold(cloud, spec, geo.REGION_ALL, k, GEO,
                                 h=geo.intrinsic_diameter(spec) / 40.0)
        probes = _region_probes(spec, geo.REGION_ALL, 40_000,
                                int(rng.integers(2 ** 31)))
        vals = KnnField(spec, cloud.points, k, GEO)(probes)
        depth = geo.dist_to_boundary_many(spec, probes)

        def deep_covered(r):
            sel = depth > r
            return bool(np.all(vals[sel] <= r)) if np.any(sel) else True

        lo_r, hi_r = 0.0, geo.intrinsic_diameter(spec)
        for _ in range(60):
            mid = 0.5 * (lo_r + hi_r)
            if deep_covered(mid):
                hi_r = mid
            else:
                lo_r = mid
        assert hi_r <= est.hi + 1e-6, f"trial {trial}"


def test_refinement_with_large_k_and_interior_regions():
    # exercise depth-3 refinement with k near the cloud size on every family
    rng = np.random.default_rng(31337)
    for spec in (geo.unit_disk(), geo.unit_square(2), geo.solid_ball(),
                 geo.unit_sphere(), geo.spherical_cap(0.8)):
        n = 25
        k = 20
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        h0 = geo.intrinsic_diameter(spec) / 6.0
        est = coverage_threshold(cloud, build_grid(spec, geo.REGION_ALL, h0),
                                 k, GEO, refine_to=h0 / 100.0)
        probes = _region_probes(spec, geo.REGION_ALL, 50_000, 777)
        vals = KnnField(spec, cloud.points, k, GEO)(probes)
        assert float(vals.max()) <= est.hi + 1e-9
        # the probe max is itself a dense lower bound: the refined lo must
        # come close to it (within the probe set's own resolution slack)
        assert est.lo >= float(vals.max()) - geo.intrinsic_diameter(spec) / 50.0


def test_deep_refinement_many_levels():
    # six levels of factor-8 refinement stay certified and cheap
    disk = geo.unit_disk()
    cloud = uniform_sample(disk, 2000, 4242)
    est = coverage_threshold(cloud, build_grid(disk, geo.REGION_ALL, 0.25),
                             1, GEO, refine_to=1e-6)
    assert est.h == pytest.approx(1e-6)
    probes = _region_probes(disk, geo.REGION_ALL, 100_000, 5)
    vals = KnnField(disk, cloud.points, 1, GEO)(probes)
    assert float(vals.max()) <= est.hi + 1e-12
    assert est.width == pytest.approx(1e-6)


def test_pinned_regression_values():
    # frozen end-to-end values guard the whole pipeline against silent drift
    disk = geo.unit_disk()
    cloud = uniform_sample(disk, 500, 123456)
    est = coverage_threshold(cloud, build_grid(disk, geo.REGION_ALL, 0.08),
                             2, GEO, refine_to=0.001)
    assert est.lo == pytest.approx(0.17104192001562926, abs=1e-12)
    assert est.hi == pytest.approx(est.lo + est.h, abs=1e-15)


def _probe_deep_root(spec, cloud, k, n_probes, seed):
    """Root of the interior predicate over random probes, by bisection."""
    probes = _region_probes(spec, geo.REGION_ALL, n_probes, seed)
    vals = KnnField(spec, cloud.points, k, GEO)(probes)
    depth = geo.dist_to_boundary_many(spec, probes)
    lo_r, hi_r = 0.0, geo.intrinsic_diameter(spec)
    for _ in range(60):
        mid = 0.5 * (lo_r + hi_r)
        sel = depth > mid
        if not np.any(sel) or np.all(vals[sel] <= mid):
            hi_r = mid
        else:
            lo_r = mid
    return hi_r


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("spec", [geo.unit_disk(), geo.unit_square(2),
                                  geo.solid_ball(), geo.spherical_cap(1.4)],
                         ids=["disk", "square", "ball", "cap"])
def test_refined_interior_bracket_meets_independent_oracles(spec, k):
    rng = np.random.default_rng(4000 + 10 * k + spec.d)
    diam = geo.intrinsic_diameter(spec)
    h = diam / 10.0
    for _ in range(3):
        n = int(rng.integers(max(k, 20), 301))
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        est = interior_threshold(cloud, spec, geo.REGION_ALL, k, GEO, h=h,
                                 refine_to=h / 50.0)
        assert est.h == pytest.approx(h / 50.0)
        assert est.width == pytest.approx(est.h, rel=1e-9)
        # unrefined full-grid bracket of max(min(field, depth)), other h
        grid = build_grid(spec, geo.REGION_ALL, diam / 37.0)
        g = np.minimum(KnnField(spec, cloud.points, k, GEO)(grid.nodes),
                       geo.dist_to_boundary_many(spec, grid.nodes))
        oracle = (float(g.max()), float(g.max()) + grid.h)
        assert max(est.lo, oracle[0]) <= min(est.hi, oracle[1]) + 1e-12
        root = _probe_deep_root(spec, cloud, k, 40_000,
                                int(rng.integers(2 ** 31)))
        assert root <= est.hi + 1e-9


def test_refined_interior_disk_center_fixed_point():
    # single point at the center: the threshold 1/2 solves 1 - r = r
    disk = geo.unit_disk()
    cloud = make_cloud(disk, [[0.0, 0.0]])
    est = interior_threshold(cloud, disk, geo.REGION_ALL, 1, GEO, h=0.05,
                             refine_to=1e-4)
    assert est.lo <= 0.5 <= est.hi
    assert est.width <= 1e-4 * (1 + 1e-9)
