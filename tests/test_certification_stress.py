"""Randomized audit of the certified threshold brackets.

Any point of B gives a lower bound for the threshold, so a large random
probe set is an independent check of the certified upper end: if some
probe's k-NN distance ever exceeded hi, the bracket (and in particular the
refinement bookkeeping) would be broken.  The probes never use the grid
machinery under audit.

The branch and bound is checked against the unrefined full-partition
oracle: the max of the field over every cell of a start partition.
Without a target it evaluates exactly those cells, so the brackets agree
bit for bit, argmax included; with one, its bracket must meet the oracle's
and be at most the target wide.
"""

import math

import numpy as np
import pytest

from covlab import geometry as geo
from covlab import coverage as cov
from covlab.coverage import KnnField, coverage_threshold, interior_threshold
from covlab.grids import EvalGrid, build_grid, refine_nodes
from covlab.sampling import uniform_sample
from conftest import make_cloud
import reference_bnb

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
        grid = build_grid(spec, geo.REGION_ALL,
                          geo.intrinsic_diameter(spec) / 40.0)
        est = interior_threshold(cloud, grid, k, GEO)
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
    # about eighteen levels of halving stay certified and cheap
    disk = geo.unit_disk()
    cloud = uniform_sample(disk, 2000, 4242)
    est = coverage_threshold(cloud, build_grid(disk, geo.REGION_ALL, 0.25),
                             1, GEO, refine_to=1e-6)
    assert est.h == pytest.approx(1e-6)
    probes = _region_probes(disk, geo.REGION_ALL, 100_000, 5)
    vals = KnnField(disk, cloud.points, 1, GEO)(probes)
    assert float(vals.max()) <= est.hi + 1e-12
    assert 0.0 <= est.width <= 1e-6 + 1e-12


def test_pinned_regression_values():
    # frozen end-to-end values guard the whole pipeline against silent
    # drift; pinned with the seed subtrees searched once, whose bracket
    # meets the one that split them again, [lo, 0.17196273667026463], the
    # unseeded one, [0.17104771743033328, 0.17186981258995337], and the one
    # the earlier grid refinement pinned, [0.17104192001562926, +0.001]
    disk = geo.unit_disk()
    cloud = uniform_sample(disk, 500, 123456)
    est = coverage_threshold(cloud, build_grid(disk, geo.REGION_ALL, 0.08),
                             2, GEO, refine_to=0.001)
    assert est.lo == pytest.approx(0.17104771743033328, abs=1e-12)
    assert est.hi == pytest.approx(0.17186981258995343, abs=1e-12)


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
        est = interior_threshold(cloud, build_grid(spec, geo.REGION_ALL, h),
                                 k, GEO, refine_to=h / 50.0)
        assert est.h == pytest.approx(h / 50.0)
        assert 0.0 <= est.width <= est.h + 1e-12
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
    est = interior_threshold(cloud, build_grid(disk, geo.REGION_ALL, 0.05),
                             1, GEO, refine_to=1e-4)
    assert est.lo <= 0.5 <= est.hi
    assert est.width <= 1e-4 * (1 + 1e-9)


# ---------------------------------------------------------------------------
# branch and bound against the unrefined full-partition oracle


def _bits(est):
    floats = np.array([est.lo, est.hi, est.h, *est.argmax])
    return floats.tobytes(), est.k, est.metric


def _every_cell_max(field, grid, k, metric):
    """The unrefined bracket from every cell of ``grid``: the first max of
    the field over the representatives, and the largest bound f(p) + rho."""
    vals = field(grid.nodes)
    best = int(np.argmax(vals))
    return cov.ThresholdEstimate(
        lo=float(vals[best]), hi=float(np.max(vals + grid.rad)), h=grid.h,
        k=k, metric=metric, argmax=tuple(float(v) for v in grid.nodes[best]))


def _assert_matches_oracle(monkeypatch, cloud, region, k, metric, h,
                           refine_to):
    """Both thresholds against the full-partition oracle.  Unrefined they
    are its bracket bit for bit; refined, they meet it (at h and at h/3),
    are at most ``refine_to`` wide, and lo is the field at the argmax,
    which lies in B.  Each level hands its live cells to ``refine_nodes``
    once, and they are never more than its children."""
    spec = cloud.spec
    grid = build_grid(spec, region, h)
    knn = KnnField(spec, cloud.points, k, metric)
    calls = []

    def recording(centers):
        assert isinstance(centers, EvalGrid)
        out = refine_nodes(centers=centers)
        calls.append((len(centers), len(out)))
        return out

    monkeypatch.setattr(cov, "refine_nodes", recording)

    def deep(nodes):
        return np.minimum(knn(nodes), geo.dist_to_boundary_many(spec, nodes))

    runs = ((knn, lambda: coverage_threshold(cloud, grid, k, metric,
                                             refine_to=refine_to)),
            (deep, lambda: interior_threshold(cloud, grid, k, metric,
                                              refine_to=refine_to)))
    for field, threshold in runs:
        calls.clear()
        est = threshold()
        oracle = _every_cell_max(field, grid, k, metric)
        if refine_to is None:
            assert _bits(est) == _bits(oracle)
            assert calls == []
            continue
        assert 0.0 <= est.width <= refine_to + 1e-12
        arg = np.array([est.argmax])
        assert field(arg)[0] == est.lo
        assert geo.region_contains_many(spec, region, arg)[0]
        finer = _every_cell_max(field, build_grid(spec, region, h / 3.0),
                                k, metric)
        for o in (oracle, finer):
            assert max(est.lo, o.lo) <= min(est.hi, o.hi) + 1e-12
        assert all(0 < n_in and n_out <= n_in * 2 ** spec.d
                   for n_in, n_out in calls)


def _prune_h(spec):
    # coarser in 3-D, where refining to h/50 regenerates many more nodes
    return geo.intrinsic_diameter(spec) / (30.0 if spec.d == 2 else 12.0)


PRUNE_CASES = [(fam, reg) for fam in ("square", "cube", "disk", "ball",
                                      "sphere", "cap")
               for reg in ("all", "body") if not (fam == "sphere"
                                                  and reg == "body")]


@pytest.mark.parametrize("refined", [False, True], ids=["coarse", "refined"])
@pytest.mark.parametrize("metric", [GEO, EUC], ids=["geo", "euc"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("fam,reg", PRUNE_CASES,
                         ids=[f"{f}-{r}" for f, r in PRUNE_CASES])
def test_pruned_max_is_bitwise_the_every_node_max(monkeypatch, all_families,
                                                  fam, reg, k, metric,
                                                  refined):
    # unrefined: bit for bit the every-cell max; refined: see
    # _assert_matches_oracle
    spec = all_families[fam]
    region = geo.REGION_ALL if reg == "all" else geo.interior_body(0.2)
    h = _prune_h(spec)
    seed = 50 * PRUNE_CASES.index((fam, reg)) + 10 * k + refined
    cloud = uniform_sample(spec, 300, seed)
    _assert_matches_oracle(monkeypatch, cloud, region, k, metric, h,
                           h / 50.0 if refined else None)


def _boundary_points(spec, n, rng):
    """n points exactly on the boundary of the shape."""
    if spec.family in (geo.Family.UNIT_DISK, geo.Family.SOLID_BALL):
        g = rng.normal(size=(n, spec.m))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    if spec.family is geo.Family.SPHERICAL_CAP:
        s = math.sin(spec.alpha)
        return np.column_stack([s * np.cos(t), s * np.sin(t),
                                np.full(n, math.cos(spec.alpha))])
    # unit square: a random edge, a random place along it
    u = rng.uniform(0.0, 1.0, n)
    side = rng.integers(0, 4, n)
    return np.column_stack([np.where(side < 2, u, side - 2.0),
                            np.where(side < 2, side.astype(float), u)])


def _adversarial_clouds(spec, rng):
    """(points, k) pairs that stress the cell bounds."""
    base = uniform_sample(spec, 40, int(rng.integers(2 ** 31))).points
    yield np.repeat(base, 3, axis=0), 3  # every point three times
    yield base[:12], 12  # k = n
    # every point near one corner: the field is large almost everywhere,
    # so most bounds are loose and most of the grid sits near the max
    corner = base[np.argmax(base @ np.ones(spec.m))]
    yield base[np.argsort(np.linalg.norm(base - corner, axis=1))[:8]], 2
    yield _boundary_points(spec, 30, rng), 1


@pytest.mark.parametrize("spec", [geo.unit_square(2), geo.unit_disk(),
                                  geo.spherical_cap(1.1), geo.solid_ball()],
                         ids=["square", "disk", "cap", "ball"])
def test_pruned_max_on_adversarial_clouds(monkeypatch, spec):
    rng = np.random.default_rng(2024 + spec.m)
    h = _prune_h(spec)
    for pts, k in _adversarial_clouds(spec, rng):
        cloud = make_cloud(spec, pts)
        for metric in (GEO, EUC):
            for refine_to in (None, h / 50.0):
                for region in (geo.REGION_ALL, geo.interior_body(0.2)):
                    _assert_matches_oracle(monkeypatch, cloud, region,
                                           k, metric, h, refine_to)


def test_pruned_field_is_exact_or_below_floor(all_families):
    # lo is the exact field value at the argmax, and no value on a full
    # partition at another resolution rises above hi
    rng = np.random.default_rng(606)
    for trial in range(60):
        spec = list(all_families.values())[trial % len(all_families)]
        k = int(rng.integers(1, 4))
        metric = GEO if trial % 2 else EUC
        cloud = uniform_sample(spec, int(rng.integers(k, 200)),
                               int(rng.integers(2 ** 31)))
        diam = geo.intrinsic_diameter(spec)
        h = diam / float(rng.uniform(6.0, 20.0))
        target = None if trial % 4 == 0 else h / float(rng.uniform(1.0, 40.0))
        knn = KnnField(spec, cloud.points, k, metric)
        est = coverage_threshold(cloud, build_grid(spec, geo.REGION_ALL, h),
                                 k, metric, refine_to=target)
        assert knn(np.array([est.argmax]))[0] == est.lo, f"trial {trial}"
        assert est.width <= (h if target is None else target) + 1e-12
        oracle = build_grid(spec, geo.REGION_ALL,
                            diam / float(rng.uniform(8.0, 60.0)))
        assert float(knn(oracle.nodes).max()) <= est.hi + 1e-12, \
            f"trial {trial}"


# ---------------------------------------------------------------------------
# the seeded lower bound against the unseeded branch and bound


def _unseeded_max(field, grid, target):
    """(lo, hi, nodes evaluated) of the branch and bound run once over the
    whole partition from lo = -inf, as before its lower bound was seeded
    from the best start cells."""
    lo, hi, evaluated = -np.inf, -np.inf, 0
    cells = grid
    while len(cells):
        vals = field(cells.nodes)
        evaluated += len(cells)
        lo = max(lo, float(np.max(vals)))
        bound = vals + cells.rad
        split = bound > lo + target
        hi = max(hi, float(np.max(bound[~split], initial=-np.inf)))
        if not split.any():
            break
        cells = refine_nodes(centers=cells.take(split))
    return lo, max(hi, lo), evaluated


def _count_queries(monkeypatch) -> list:
    """Nodes that every ``KnnField`` call from here on answers, one entry
    a call.  A node that a bounded call leaves open (inf) is asked again
    without the bound, and counted there, so each node counts once."""
    queried = []
    real = KnnField.__call__

    def counting(self, nodes, *args, **kwargs):
        out = real(self, nodes, *args, **kwargs)
        queried.append(int(np.count_nonzero(out != np.inf)))
        return out

    monkeypatch.setattr(KnnField, "__call__", counting)
    return queried


@pytest.mark.parametrize("metric", [GEO, EUC], ids=["geo", "euc"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("fam,reg", PRUNE_CASES,
                         ids=[f"{f}-{r}" for f, r in PRUNE_CASES])
def test_seeded_bracket_meets_the_unseeded_one(all_families, fam, reg, k,
                                               metric):
    spec = all_families[fam]
    region = geo.REGION_ALL if reg == "all" else geo.interior_body(0.2)
    h = _prune_h(spec)
    target = h / 50.0
    cloud = uniform_sample(spec, 300, 70 * PRUNE_CASES.index((fam, reg)) + k)
    grid = build_grid(spec, region, h)
    knn = KnnField(spec, cloud.points, k, metric)

    def deep(nodes):
        return np.minimum(knn(nodes), geo.dist_to_boundary_many(spec, nodes))

    for field, threshold in ((knn, coverage_threshold),
                             (deep, interior_threshold)):
        est = threshold(cloud, grid, k, metric, refine_to=target)
        lo, hi, _ = _unseeded_max(field, grid, target)
        assert 0.0 <= est.width <= target + 1e-12
        assert max(est.lo, lo) <= min(est.hi, hi) + 1e-12
        assert field(np.array([est.argmax]))[0] == est.lo


def _assert_seeding_and_skipping_save(monkeypatch, field, grid):
    """The seeded search evaluates fewer nodes than the unseeded one and
    meets its bracket, and the skipped one fewer than the unskipped one,
    at its bits.  ``field()`` makes a fresh field; the bracket is
    returned."""
    queried = _count_queries(monkeypatch)
    est = cov._certified_max(field(), grid, 1e-4)
    evaluated = sum(queried)
    lo, hi, oracle_evaluated = _unseeded_max(field(), grid, 1e-4)
    assert max(est.lo, lo) <= min(est.hi, hi) + 1e-12
    assert evaluated < oracle_evaluated
    # the children skipped by their parent's nearest samples are work saved
    monkeypatch.setattr(cov, "_SKIP_MIN_CHILDREN", math.inf)
    queried.clear()
    unskipped = cov._certified_max(field(), grid, 1e-4)
    assert _bits(unskipped) == _bits(est)
    assert evaluated < sum(queried)
    return est


def test_seeded_max_evaluates_fewer_nodes(monkeypatch):
    # a square cloud whose start partition is split almost whole when the
    # lower bound is only the best start cell
    square = geo.unit_square(2)
    cloud = uniform_sample(square, 20_000, 2718)
    grid = build_grid(square, geo.REGION_ALL, 0.02)
    _assert_seeding_and_skipping_save(
        monkeypatch, lambda: KnnField(square, cloud.points, 1, GEO), grid)


@pytest.mark.parametrize("k", [1, 3])
def test_seeded_max_from_blocks_evaluates_fewer_nodes(monkeypatch, k):
    # the square's field as the thresholds build it: blocks of start cells
    # answer its nodes, so the skip's bound reads the rows that the blocks
    # chose; the bracket has the tree field's bits
    square = geo.unit_square(2)
    cloud = uniform_sample(square, 20_000, 2718 + k)
    grid = build_grid(square, geo.REGION_ALL, 0.015)

    def blocks():
        knn = KnnField(square, cloud.points, k, GEO, grid.bins)
        assert knn._bins is grid.bins
        return knn

    tree = cov._certified_max(KnnField(square, cloud.points, k, GEO), grid,
                              1e-4)
    est = _assert_seeding_and_skipping_save(monkeypatch, blocks, grid)
    assert _bits(est) == _bits(tree)


def test_seed_cells_are_the_largest_ties_to_lowest_index():
    rng = np.random.default_rng(91)
    for n in (1, 5, 16, 17, 40, 3000):
        for levels in (2, 7, None):  # heavy ties, some ties, none
            vals = (rng.integers(0, levels, n).astype(float) if levels
                    else rng.random(n))
            for count in (1, 4, 16):
                want = np.sort(np.argsort(-vals, kind="stable")[:count])
                assert np.array_equal(cov._top_cells(vals, count), want)


# ---------------------------------------------------------------------------
# children skipped unqueried, by their parent's k nearest samples


def _skip_on_and_off(monkeypatch, cloud, region, k, metric, h, target):
    """Both thresholds with the skip tested on every level, and on none:
    the brackets agree bit for bit, argmax included, and the skip queries
    no more nodes.  Returns the nodes queried (skip on, skip off)."""
    grid = build_grid(cloud.spec, region, h)
    queried = _count_queries(monkeypatch)
    totals = []
    for gate in (0, math.inf):
        monkeypatch.setattr(cov, "_SKIP_MIN_CHILDREN", gate)
        queried.clear()
        brackets = [_bits(threshold(cloud, grid, k, metric, refine_to=target))
                    for threshold in (coverage_threshold, interior_threshold)]
        totals.append((brackets, sum(queried)))
    (skip_bits, skip_nodes), (full_bits, full_nodes) = totals
    assert skip_bits == full_bits
    assert skip_nodes <= full_nodes
    return skip_nodes, full_nodes


SHAPES = ("square", "cube", "disk", "ball", "sphere", "cap")


@pytest.mark.parametrize("metric", [GEO, EUC], ids=["geo", "euc"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fam", SHAPES)
def test_skipped_children_keep_the_bracket_bits(monkeypatch, all_families,
                                                 fam, k, metric):
    spec = all_families[fam]
    h = _prune_h(spec)
    cloud = uniform_sample(spec, 300, 90 * SHAPES.index(fam) + k)
    for target in (h / 4.0, h / 50.0):
        skip_nodes, full_nodes = _skip_on_and_off(
            monkeypatch, cloud, geo.REGION_ALL, k, metric, h, target)
    # at the finer target the skip has children to set aside
    assert skip_nodes < full_nodes


def _tight_cluster(spec, base):
    """``base`` shrunk a thousandfold towards its first point, along
    segments (great circles on the cap) that stay in the shape."""
    pts = base[0] + 1e-3 * (base - base[0])
    if spec.curved:
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


@pytest.mark.parametrize("spec", [geo.unit_square(2), geo.unit_disk(),
                                  geo.spherical_cap(1.1), geo.solid_ball()],
                         ids=["square", "disk", "cap", "ball"])
def test_skipped_children_keep_the_bits_on_adversarial_clouds(monkeypatch,
                                                              spec):
    # duplicated points, n == k, a cluster near one corner, points on the
    # boundary (from _adversarial_clouds), and one tight cluster
    rng = np.random.default_rng(4048 + spec.m)
    h = _prune_h(spec)
    clouds = list(_adversarial_clouds(spec, rng))
    base = uniform_sample(spec, 40, int(rng.integers(2 ** 31))).points
    clouds.append((_tight_cluster(spec, base), 3))
    for pts, k in clouds:
        cloud = make_cloud(spec, pts)
        for metric in (GEO, EUC):
            for region in (geo.REGION_ALL, geo.interior_body(0.2)):
                _skip_on_and_off(monkeypatch, cloud, region, k, metric, h,
                                 h / 50.0)


# ---------------------------------------------------------------------------
# the seed subtrees searched once, against the branch and bound that splits
# them again in its second run (tests/reference_bnb.py)

_SKIP_GATE = cov._SKIP_MIN_CHILDREN


def _lo_bits(est):
    return np.array([est.lo, est.h, *est.argmax]).tobytes()


def _assert_keeps_the_reference_lo(monkeypatch, cloud, region, k, metric,
                                   h):
    """Both thresholds, with no target and at h/10 and h/100, and with the
    skip tested on large levels only or on every level: lo, h and the
    argmax have the reference's bits, and hi is within the target of lo
    and meets the reference's bracket.  hi itself may differ: a seed cell
    that the first run set aside under its lower lo keeps its bound, where
    the reference splits it again."""
    grid = build_grid(cloud.spec, region, h)
    knn = KnnField(cloud.spec, cloud.points, k, metric)
    for gate in (_SKIP_GATE, 0):
        monkeypatch.setattr(cov, "_SKIP_MIN_CHILDREN", gate)
        monkeypatch.setattr(reference_bnb, "_SKIP_MIN_CHILDREN", gate)
        for refine_to in (None, h / 10.0, h / 100.0):
            for threshold, deep in ((coverage_threshold, False),
                                    (interior_threshold, True)):
                est = threshold(cloud, grid, k, metric, refine_to=refine_to)
                ref = reference_bnb._certified_max(knn, grid, refine_to, deep)
                case = (gate, refine_to, deep)
                assert _lo_bits(est) == _lo_bits(ref), case
                assert est.lo <= est.hi <= est.lo + est.h, case
                assert max(est.lo, ref.lo) <= min(est.hi, ref.hi), case


@pytest.mark.parametrize("metric", [GEO, EUC], ids=["geo", "euc"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fam", SHAPES)
def test_replay_keeps_the_reference_bits(monkeypatch, all_families, fam, k,
                                         metric):
    spec = all_families[fam]
    cloud = uniform_sample(spec, 600, 110 * SHAPES.index(fam) + k)
    _assert_keeps_the_reference_lo(monkeypatch, cloud, geo.REGION_ALL, k,
                                   metric, _prune_h(spec))


@pytest.mark.parametrize("spec", [geo.unit_square(2), geo.unit_disk(),
                                  geo.spherical_cap(1.1), geo.solid_ball()],
                         ids=["square", "disk", "cap", "ball"])
def test_replay_keeps_the_reference_bits_on_adversarial_clouds(monkeypatch,
                                                               spec):
    rng = np.random.default_rng(5096 + spec.m)
    h = _prune_h(spec)
    clouds = list(_adversarial_clouds(spec, rng))
    base = uniform_sample(spec, 40, int(rng.integers(2 ** 31))).points
    clouds.append((_tight_cluster(spec, base), 3))
    for pts, k in clouds:
        cloud = make_cloud(spec, pts)
        for metric in (GEO, EUC):
            for region in (geo.REGION_ALL, geo.interior_body(0.2)):
                _assert_keeps_the_reference_lo(monkeypatch, cloud, region,
                                               k, metric, h)
