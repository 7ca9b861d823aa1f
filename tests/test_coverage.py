import math
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import knn_sort_oracle, make_cloud
from covlab import geometry as geo
from covlab import grids
from covlab.coverage import (CoverageError, KnnField, coverage_threshold,
                             interior_threshold)
from covlab.grids import GridError, build_grid
from covlab.sampling import uniform_sample

GEO = geo.Metric.GEODESIC
EUC = geo.Metric.EUCLIDEAN


# ---------------------------------------------------------------------------
# grids


def test_square_lattice_11x11():
    h = 0.1  # spacing min(h, 2h/sqrt(2)) = h
    grid = build_grid(geo.unit_square(2), geo.REGION_ALL, h)
    assert len(grid) == 121  # 11 x 11 including the boundary
    probes = uniform_sample(geo.unit_square(2), 10_000, 1).points
    assert cKDTree(grid.nodes).query(probes)[0].max() <= h + 1e-12


@pytest.mark.parametrize("h", [0.3, 0.15])
@pytest.mark.parametrize("reg", ["all", "body"])
@pytest.mark.parametrize("spec", [geo.unit_square(2), geo.unit_square(3),
                                  geo.unit_square(4), geo.unit_square(5),
                                  geo.unit_disk(), geo.solid_ball(),
                                  geo.unit_sphere(), geo.spherical_cap(1.1)],
                         ids=["square", "cube", "square4", "square5", "disk",
                              "ball", "sphere", "cap"])
def test_start_boxes_are_no_longer_than_h(spec, reg, h):
    # every start box side is at most h, so every cover radius is too: a
    # lattice's spacing is min(h, 2h/sqrt(d)), and a ring box spans at most
    # h in the polar angle and c dphi <= h in azimuth, c the radius of its
    # ring (sin of the polar angle on a cap)
    region = geo.REGION_ALL if reg == "all" else geo.interior_body(0.2)
    chart = grids._chart(spec, region)
    chart, box, rep = chart.start(h - chart.slack)
    d = spec.d
    side = box[d:] - box[:d]
    if isinstance(chart, grids._Rings):
        c = np.sin(rep[0]) if spec.curved else rep[0]
        side[1] *= c
        assert np.all(side <= h * (1 + 1e-12))
    else:
        spacing = min(h, 2.0 * h / math.sqrt(d))
        assert np.all(side <= spacing * (1 + 1e-12))
    rho = chart.radius(box, rep) + chart.slack
    assert np.all(rho <= h * (1 + 1e-12))
    assert np.array_equal(build_grid(spec, region, h).rad,
                          np.minimum(chart.cells(spec, box, rep).rad, h))


def test_disk_grid_probe_certification():
    grid = build_grid(geo.unit_disk(), geo.REGION_ALL, 0.05)
    probes = uniform_sample(geo.unit_disk(), 10_000, 2).points
    assert cKDTree(grid.nodes).query(probes)[0].max() <= 0.05 + 1e-12


@pytest.mark.parametrize("name", ["ball", "sphere", "cap"])
def test_curved_grid_probe_certification(name, all_families):
    spec = all_families[name]
    h = 0.08
    grid = build_grid(spec, geo.REGION_ALL, h)
    probes = uniform_sample(spec, 10_000, 3).points
    chord = cKDTree(grid.nodes).query(probes)[0]
    d = geo.chord_to_geodesic(chord) if spec.curved else chord
    assert d.max() <= h + 1e-12
    assert np.all(geo.contains_many(spec, grid.nodes))


def test_interior_grid_strictly_inside():
    grid = build_grid(geo.unit_disk(), geo.interior_body(0.3), 0.02)
    depth = geo.dist_to_boundary_many(geo.unit_disk(), grid.nodes)
    assert np.all(depth > 0.3)
    # and still covers the closed interior body
    rng = np.random.default_rng(4)
    pts = rng.random((40_000, 2)) * 2 - 1
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.7]
    assert cKDTree(grid.nodes).query(pts)[0].max() <= 0.02 + 1e-12


def test_node_cap_error_reports_requirement(monkeypatch):
    monkeypatch.setattr(grids, "NODE_CAP", 1000)
    with pytest.raises(GridError, match=r"needs ~\d+ nodes, above the cap "
                                        r"of 1000; coarsen h"):
        build_grid(geo.unit_disk(), geo.REGION_ALL, 1e-4)


def test_estimate_matches_actual_counts(all_families, monkeypatch):
    # the node cap is checked against a count made before the cells are:
    # exact on the lattice and the rings; on the ball, the cube lattice's
    # count, about 6/pi times the cells that meet the ball
    for name, spec in all_families.items():
        n = len(build_grid(spec, geo.REGION_ALL, 0.11))
        grids.clear_grid_cache()  # else the grid kept at 0.11 is reused
        with monkeypatch.context() as m, \
                pytest.raises(GridError, match=r"needs ~(\d+)") as err:
            m.setattr(grids, "NODE_CAP", n - 1)
            build_grid(spec, geo.REGION_ALL, 0.11)
        est = int(re.search(r"needs ~(\d+)", str(err.value)).group(1))
        assert est == n or (name == "ball" and n < est <= 2 * n + 16), name


def test_start_partitions_are_kept_read_only(monkeypatch):
    grids.clear_grid_cache()
    for spec in (geo.unit_disk(), geo.solid_ball()):
        grid = build_grid(spec, geo.REGION_ALL, 0.3)
        assert build_grid(spec, geo.REGION_ALL, 0.3) is grid
        tables = [a for a in vars(grid.chart).values()
                  if isinstance(a, np.ndarray)]  # the cut chart's tables
        assert len(tables) == (1 if spec.d == 3 else 6)
        for a in (grid.nodes, grid.box, grid.rad, grid.reach2, *tables):
            # a write would reach every later run
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
    # the kept grids hold at most _KEPT_CELLS cells, least recent out first
    disk = geo.unit_disk()
    coarse = build_grid(disk, geo.REGION_ALL, 0.3)
    monkeypatch.setattr(grids, "_KEPT_CELLS", len(coarse) + 10)
    fine = build_grid(disk, geo.REGION_ALL, 0.05)  # too big to keep
    assert build_grid(disk, geo.REGION_ALL, 0.05) is not fine
    assert build_grid(disk, geo.REGION_ALL, 0.3) is coarse
    other = build_grid(disk, geo.REGION_ALL, 0.29)
    assert build_grid(disk, geo.REGION_ALL, 0.29) is other
    assert build_grid(disk, geo.REGION_ALL, 0.3) is not coarse
    grids.clear_grid_cache()
    assert build_grid(disk, geo.REGION_ALL, 0.29) is not other


# ---------------------------------------------------------------------------
# knn


def test_knn_trivial_cases():
    sq = geo.unit_square(2)
    pts = np.array([[0.2, 0.2], [0.8, 0.2]])
    assert KnnField(sq, pts, 1, GEO)([[0.2, 0.2]])[0] == 0.0
    pts2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert KnnField(sq, pts2, 2, GEO)([[0.0, 0.0]])[0] == pytest.approx(1.0)


def test_knn_cloud_too_small():
    with pytest.raises(CoverageError, match="fewer than k"):
        KnnField(geo.unit_square(2), np.array([[0.5, 0.5]]), 2, GEO)


@pytest.mark.parametrize("name,metric", [("disk", GEO), ("cap", GEO),
                                         ("cap", EUC), ("ball", EUC)])
def test_knn_brute_sort_oracle(name, metric, all_families):
    spec = all_families[name]
    cloud = uniform_sample(spec, 100, 7)
    probes = uniform_sample(spec, 25, 8).points
    for k in (1, 3, 10):
        vals = KnnField(spec, cloud.points, k, metric)(probes)
        for x, got in zip(probes, vals):
            want = knn_sort_oracle(spec, x, cloud.points, k, metric)
            assert got == pytest.approx(want, abs=1e-12)


def test_knn_field_matches_pointwise_and_tree_vs_brute(all_families):
    spec = all_families["cap"]
    big = uniform_sample(spec, 3000, 9)
    small = uniform_sample(spec, 20, 9)      # a tiny cloud goes through the tree too
    nodes = uniform_sample(spec, 200, 10).points
    for cloud in (big, small):
        for metric in (GEO, EUC):
            field = KnnField(spec, cloud.points, 3, metric)
            vals = field(nodes)
            for i in (0, 57, 199):
                want = knn_sort_oracle(spec, nodes[i], cloud.points, 3, metric)
                assert vals[i] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# coverage thresholds


def test_exact_threshold_disk_center():
    disk = geo.unit_disk()
    grid = build_grid(disk, geo.REGION_ALL, 0.03)
    cloud = make_cloud(disk, [[0.0, 0.0]])
    for metric in (GEO, EUC):
        est = coverage_threshold(cloud, grid, 1, metric)
        assert est.lo <= 1.0 <= est.hi
        assert est.width <= 0.03 + 1e-12
        assert est.lo == pytest.approx(1.0, abs=1e-12)  # rim node included


def test_exact_threshold_square_corner():
    sq = geo.unit_square(2)
    grid = build_grid(sq, geo.REGION_ALL, 0.04)
    est = coverage_threshold(make_cloud(sq, [[0.0, 0.0]]), grid, 1, GEO)
    assert est.lo <= math.sqrt(2.0) <= est.hi
    assert est.lo == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_target_width_below_resolution_refused():
    # cover radii on an interior body carry a 1e-9 slack, so a target at
    # that scale could never be met
    disk = geo.unit_disk()
    grid = build_grid(disk, geo.interior_body(0.2), 0.1)
    with pytest.raises(CoverageError, match="below the supported"):
        coverage_threshold(make_cloud(disk, [[0.0, 0.0]]), grid, 1, GEO,
                           refine_to=1e-9)


@pytest.mark.parametrize("h", [math.inf, math.nan])
def test_non_finite_h_refused(h):
    with pytest.raises(GridError, match=f"finite number > 0, got {h}"):
        build_grid(geo.unit_disk(), geo.REGION_ALL, h)


@pytest.mark.parametrize("threshold", [coverage_threshold, interior_threshold])
@pytest.mark.parametrize("refine_to", [math.inf, math.nan])
def test_non_finite_target_width_refused(threshold, refine_to):
    disk = geo.unit_disk()
    grid = build_grid(disk, geo.REGION_ALL, 0.1)
    with pytest.raises(CoverageError,
                       match=f"target width {refine_to} is not a finite"):
        threshold(make_cloud(disk, [[0.0, 0.0]]), grid, 1, GEO,
                  refine_to=refine_to)


@pytest.mark.parametrize("h", [True, "0.05"])
def test_h_that_is_no_number_refused(h):
    # True built the h = 1 partition, and a string raised a bare TypeError
    with pytest.raises(GridError, match="finite number > 0, got"):
        build_grid(geo.unit_disk(), geo.REGION_ALL, h)


@pytest.mark.parametrize("threshold", [coverage_threshold, interior_threshold])
@pytest.mark.parametrize("refine_to", [True, "1e-3"])
def test_target_width_that_is_no_number_refused(threshold, refine_to):
    # True was read as a width of 1, and a string raised a bare TypeError
    disk = geo.unit_disk()
    grid = build_grid(disk, geo.REGION_ALL, 0.1)
    with pytest.raises(CoverageError, match="is not a finite number"):
        threshold(make_cloud(disk, [[0.0, 0.0]]), grid, 1, GEO,
                  refine_to=refine_to)


@pytest.mark.parametrize("threshold", [coverage_threshold, interior_threshold])
def test_metric_given_as_its_string(threshold):
    # "geodesic" was compared by identity with Metric.GEODESIC, so it gave
    # the chord bracket, and to_json() raised; a misspelling ran as well
    cap = geo.spherical_cap(1.0)
    cloud = uniform_sample(cap, 2000, 1)
    grid = build_grid(cap, geo.REGION_ALL, 0.05)
    lo = {}
    for name, metric in (("geodesic", GEO), ("euclidean", EUC)):
        est = threshold(cloud, grid, 1, name, refine_to=1e-3)
        want = threshold(cloud, grid, 1, metric, refine_to=1e-3)
        assert est.metric is metric
        assert est.to_json() == want.to_json()
        lo[metric] = est.lo
    assert lo[GEO] != lo[EUC]
    with pytest.raises(geo.ConfigError, match="unknown metric 'geodsic'"):
        threshold(cloud, grid, 1, "geodsic", refine_to=1e-3)


@pytest.mark.parametrize("threshold", [coverage_threshold, interior_threshold])
@pytest.mark.parametrize("k", [2.0, np.int64(2), 1.5, True, math.nan])
def test_threshold_k_is_a_whole_number(monkeypatch, threshold, k):
    # a whole k runs as the int k; any other value is refused before a
    # tree is built, where cKDTree.query raised a TypeError
    disk = geo.unit_disk()
    cloud = uniform_sample(disk, 200, 1)
    grid = build_grid(disk, geo.REGION_ALL, 0.1)
    if k != 2:
        monkeypatch.setattr("covlab.coverage.cKDTree",
                            lambda *a, **kw: pytest.fail("built a tree"))
        with pytest.raises(geo.ConfigError, match="k must be an? "):
            threshold(cloud, grid, k, GEO)
        return
    est = threshold(cloud, grid, k, GEO)
    assert type(est.k) is int
    assert est.to_json() == threshold(cloud, grid, 2, GEO).to_json()


@pytest.mark.parametrize("threshold", [coverage_threshold, interior_threshold])
@pytest.mark.parametrize("cloud_spec,grid_spec", [
    (geo.unit_disk(), geo.unit_square(2)),
    (geo.spherical_cap(0.5), geo.unit_sphere()),
    (geo.solid_ball(), geo.unit_disk()),
], ids=["disk_on_square", "cap_on_sphere", "ball_on_disk"])
def test_cloud_on_another_shape_refused(threshold, cloud_spec, grid_spec):
    # unchecked, the disk cloud gives a bracket on the square's field and
    # the ball cloud fails inside the kd-tree query
    cloud = uniform_sample(cloud_spec, 200, 1)
    grid = build_grid(grid_spec, geo.REGION_ALL, 0.1)
    with pytest.raises(CoverageError) as err:
        threshold(cloud, grid, 1, GEO)
    msg = str(err.value)
    assert str(cloud_spec.to_json()) in msg
    assert str(grid_spec.to_json()) in msg


def test_threshold_interval_vs_fine_grid():
    rng = np.random.default_rng(20)
    specs = [geo.unit_disk(), geo.unit_square(2), geo.spherical_cap(1.3)]
    for i in range(12):
        spec = specs[i % 3]
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 300))
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        metric = GEO if i % 2 == 0 else EUC
        h = geo.intrinsic_diameter(spec) / 14.0
        coarse = coverage_threshold(cloud, build_grid(spec, geo.REGION_ALL, h),
                                    k, metric)
        fine = coverage_threshold(cloud,
                                  build_grid(spec, geo.REGION_ALL, h / 10.0),
                                  k, metric)
        # non-nested grids agree up to the finer one's covering radius
        assert coarse.lo - h / 10.0 - 1e-9 <= fine.lo <= coarse.hi + 1e-9
        assert coarse.width <= h + 1e-12


def test_refinement_matches_fine_grid():
    rng = np.random.default_rng(30)
    for spec in (geo.unit_disk(), geo.unit_square(2), geo.spherical_cap(1.0),
                 geo.solid_ball()):
        n = int(rng.integers(30, 120))
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        h = geo.intrinsic_diameter(spec) / 12.0
        # a full grid at the 2-d target is feasible as a reference; in 3-d
        # it explodes, which is the point of refining, so aim milder there
        target = h / 64.0 if spec.d == 2 else h / 12.0
        refined = coverage_threshold(
            cloud, build_grid(spec, geo.REGION_ALL, h), 1, GEO,
            refine_to=target)
        fine = coverage_threshold(
            cloud, build_grid(spec, geo.REGION_ALL, target), 1, GEO)
        assert refined.h <= target * (1 + 1e-9)
        # the certified intervals must overlap around the true value
        assert refined.lo <= fine.hi + 1e-9 and fine.lo <= refined.hi + 1e-9
        assert refined.lo >= fine.lo - target  # refinement found the peak


@pytest.mark.parametrize("metric", [GEO, EUC], ids=["geo", "euc"])
@pytest.mark.parametrize("name", ["disk", "square", "cap"])
def test_monotonicity_properties(name, metric, all_families):
    rng = np.random.default_rng(40)
    spec = all_families[name]
    grid = build_grid(spec, geo.REGION_ALL, 0.15)
    for _ in range(25):
        n = int(rng.integers(4, 80))
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        extra = uniform_sample(spec, 15, int(rng.integers(2 ** 31)))
        bigger = make_cloud(spec, np.vstack([cloud.points, extra.points]))
        e1 = coverage_threshold(cloud, grid, 1, metric)
        e2 = coverage_threshold(bigger, grid, 1, metric)
        assert e2.lo <= e1.lo + 1e-12 and e2.hi <= e1.hi + 1e-12
        ek = coverage_threshold(cloud, grid, min(3, n), metric)
        assert ek.lo >= e1.lo - 1e-12


def test_metric_ordering_on_curved():
    cap = geo.spherical_cap(1.2)
    grid = build_grid(cap, geo.REGION_ALL, 0.1)
    for seed in range(5):
        cloud = uniform_sample(cap, 60, seed)
        eg = coverage_threshold(cloud, grid, 2, GEO)
        ee = coverage_threshold(cloud, grid, 2, EUC)
        assert ee.lo <= eg.lo + 1e-12
        assert ee.lo < eg.lo  # strictly smaller on a curved family


@pytest.mark.parametrize("name", ["disk", "cap"])
def test_knn_field_lipschitz(name, all_families):
    spec = all_families[name]
    cloud = uniform_sample(spec, 150, 3)
    field = KnnField(spec, cloud.points, 2, GEO)
    xs = uniform_sample(spec, 300, 4).points
    ys = uniform_sample(spec, 300, 5).points
    gap = np.abs(field(xs) - field(ys))
    d = np.array([geo.dist_many(spec, x, y[None], GEO)[0]
                  for x, y in zip(xs, ys)])
    assert np.all(gap <= d + 1e-10)


def test_estimate_json():
    disk = geo.unit_disk()
    est = coverage_threshold(make_cloud(disk, [[0.0, 0.0]]),
                             build_grid(disk, geo.REGION_ALL, 0.1), 1, GEO)
    doc = est.to_json()
    assert set(doc) == {"lo", "hi", "h", "k", "metric", "argmax"}
    assert doc["metric"] == "geodesic"


# ---------------------------------------------------------------------------
# interior threshold


def test_interior_disk_center_fixed_point():
    # single point at the center: the interior threshold solves 1 - r = r
    disk = geo.unit_disk()
    cloud = make_cloud(disk, [[0.0, 0.0]])
    est = interior_threshold(cloud, build_grid(disk, geo.REGION_ALL, 0.01),
                             1, GEO)
    assert est.lo <= 0.5 <= est.hi
    assert est.width <= 1e-4 + 0.01 + 1e-12


def test_interior_at_most_coverage():
    rng = np.random.default_rng(50)
    sq = geo.unit_square(2)
    grid = build_grid(sq, geo.REGION_ALL, 0.05)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        cloud = uniform_sample(sq, n, int(rng.integers(2 ** 31)))
        tol = 1e-3
        ei = interior_threshold(cloud, grid, 1, GEO)
        ec = coverage_threshold(cloud, grid, 1, GEO)
        assert ei.hi <= ec.hi + tol + 1e-12
        assert ei.lo <= ec.lo + 1e-12


def test_interior_corner_cloud():
    # cloud hugging one corner: far interior empties as r grows
    sq = geo.unit_square(2)
    cloud = make_cloud(sq, [[0.02, 0.02], [0.05, 0.03]])
    grid = build_grid(sq, geo.REGION_ALL, 0.02)
    ei = interior_threshold(cloud, grid, 1, GEO)
    ec = coverage_threshold(cloud, grid, 1, GEO)
    assert ei.hi <= ec.hi + 1e-3 + 1e-12


def test_interior_equals_coverage_when_threshold_clears_body():
    # all mass far from the boundary: interior body at depth delta with
    # threshold below delta makes both notions coincide
    disk = geo.unit_disk()
    rng = np.random.default_rng(60)
    pts = rng.random((200, 2)) * 0.6 - 0.3
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.3]
    body = geo.interior_body(0.5)
    grid = build_grid(disk, body, 0.01)
    cloud = make_cloud(disk, pts)
    ec = coverage_threshold(cloud, grid, 1, GEO)
    assert ec.hi < 0.5  # the regime where the equality holds
    ei = interior_threshold(cloud, grid, 1, GEO)
    assert max(ei.lo, ec.lo) <= min(ei.hi, ec.hi)  # intervals overlap


def test_interior_boundaryless_short_circuit():
    sph = geo.unit_sphere()
    grid = build_grid(sph, geo.REGION_ALL, 0.1)
    cloud = uniform_sample(sph, 80, 6)
    a = interior_threshold(cloud, grid, 1, GEO)
    b = coverage_threshold(cloud, grid, 1, GEO)
    assert a == b
