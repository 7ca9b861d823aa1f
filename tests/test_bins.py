"""The start partition's bins, against the k-d tree.

``coverage._evaluate`` takes the field at a start cell from the samples
that ``chart.locate`` puts in the cell's bin, when the k-th smallest chord
among them is below the cell's certified radius R, and asks the tree for
the other cells.  These tests pin what that rests on: cKDTree's distances
are ``sqrt(dx*dx + dy*dy [+ dz*dz])`` bit for bit; every point that the
locator puts in another bin lies at least R from a cell's representative;
and on clouds placed on the bins' faces, seams and poles, the start values
are the tree's bits, and every bracket has the bits, argmax included, of
the reference branch and bound (``tests/reference_bnb.py``, which queries
the tree at every start cell and never bounds a search).
The same clouds pin the bounded tree query that big batches of children
make: every value it gives is the unbounded one, bit for bit, and the
field's call gives the unbounded value at every row.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from covlab import coverage
from covlab import geometry as geo
from covlab import grids
from covlab.coverage import KnnField, coverage_threshold, interior_threshold
from covlab.grids import build_grid, refine_nodes
from covlab.harness import (ExperimentConfig, RunMode, constant_k,
                            run_experiment)
from covlab.sampling import PointCloud, uniform_sample
import reference_bnb

GEO, EUC = geo.Metric.GEODESIC, geo.Metric.EUCLIDEAN
SHAPES = ("square", "cube", "disk", "ball", "sphere", "cap")
CASES = [(fam, reg) for fam in SHAPES for reg in ("all", "body")
         if not (fam == "sphere" and reg == "body")]


def _region(reg):
    return geo.REGION_ALL if reg == "all" else geo.interior_body(0.2)


def _grid(spec, reg):
    h = geo.intrinsic_diameter(spec) / (9.0 if spec.d == 2 else 5.0)
    return build_grid(spec, _region(reg), h)


def _chord(points, probes):
    """sqrt(dx*dx + dy*dy [+ dz*dz]), summed left to right."""
    diff = points - probes
    sq = diff[:, 0] * diff[:, 0]
    for col in diff.T[1:]:
        sq += col * col
    return np.sqrt(sq)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fam", SHAPES)
def test_tree_distance_is_the_elementwise_chord(all_families, fam, k):
    # the bins give a cell the tree's own bits only because the tree sums
    # the squares in this order; a scipy that changes it fails here
    spec = all_families[fam]
    points = uniform_sample(spec, 4000, 3 + k).points
    probes = np.concatenate([uniform_sample(spec, 3000, 9).points,
                             _grid(spec, "all").nodes, points[:200]])
    for tree in (cKDTree(points),
                 cKDTree(points, balanced_tree=False, leafsize=32)):
        dist, rows = tree.query(probes, k=k)
        dist, rows = dist.reshape(len(probes), k), rows.reshape(len(probes), k)
        for j in range(k):
            want = _chord(points.take(rows[:, j], axis=0), probes)
            assert dist[:, j].tobytes() == want.tobytes()


def _faces(grid):
    """Ambient points on every face of every cell's box, at its corners,
    at the middles of its faces and at its centre, each also one ulp to
    either side, kept where they lie on the shape."""
    chart = grid.chart
    d = chart.body.d
    lo, hi = grid.box[:d], grid.box[d:]
    mid = 0.5 * (lo + hi)
    params = []
    for axis in range(d):
        for end in (lo, hi):
            face = mid.copy()
            face[axis] = end[axis]
            params.append(face)
    params += [lo, hi, mid]
    q = np.concatenate(params, axis=1)
    q = np.concatenate([q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf)],
                       axis=1)
    x = chart.ambient(q)
    return x[geo.contains_many(grid.spec, x)]


def _seams(spec):
    """Points on the azimuth seam phi = +-pi, at the poles and at the
    centre, on the disk, the cap and the sphere."""
    if spec.family is geo.Family.UNIT_DISK:
        r = np.linspace(0.0, 1.0, 37)
        return np.concatenate([np.column_stack([-r, np.full_like(r, 0.0)]),
                               np.column_stack([-r, np.full_like(r, -0.0)])])
    t = np.linspace(0.0, spec.body.size, 37)
    s, c = np.sin(t), np.cos(t)
    seam = [np.column_stack([-s, np.full_like(t, sign), c])
            for sign in (0.0, -0.0)]
    poles = np.array([[0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [1e-300, 0.0, 1.0],
                      [0.0, 0.0, -1.0], [-0.0, 0.0, -1.0]])
    return np.concatenate(seam + [poles[geo.contains_many(spec, poles)]])


def _clouds(spec, grid, rng):
    """(name, points, k) of the adversarial clouds for the bins."""
    base = uniform_sample(spec, 400, int(rng.integers(2 ** 31))).points
    faces = np.concatenate([_faces(grid), base])
    for k in (1, 2, 3):
        yield "faces", faces, k
        if spec.d == 2 and spec.family is not geo.Family.UNIT_SQUARE:
            yield "seams", np.concatenate([_seams(spec), base]), k
        yield "duplicates", np.repeat(base[:60], 3, axis=0), k
        yield "n_equals_k", base[:k], k
        cluster = base[0] + 1e-3 * (base[:40] - base[0])
        if spec.curved:
            cluster /= np.linalg.norm(cluster, axis=1, keepdims=True)
        yield "cluster", cluster, k


def _bits(est):
    return np.array([est.lo, est.hi, est.h, *est.argmax]).tobytes()


@pytest.mark.parametrize("fam,reg", CASES, ids=[f"{f}-{r}" for f, r in CASES])
def test_binned_start_keeps_the_tree_bits(monkeypatch, all_families, fam,
                                          reg):
    # with the gate at 0, every batch of children asks the tree within the
    # bound lo + target - rho first
    spec = all_families[fam]
    grid = _grid(spec, reg)
    rng = np.random.default_rng(SHAPES.index(fam) * 2 + (reg == "body"))
    binned = 0
    for name, points, k in _clouds(spec, grid, rng):
        for metric in (GEO, EUC):
            knn = KnnField(spec, points, k, metric)
            binned += int(np.isfinite(knn._binned(grid)[0]).sum())
            got = coverage._evaluate(knn, grid, False)[0]
            want = knn(grid.nodes)
            assert got.tobytes() == want.tobytes(), (name, k, metric)
            cloud = PointCloud(spec, points)
            for gate, refine_to in itertools.product(
                    (coverage._SKIP_MIN_CHILDREN, 0), (None, grid.h / 10.0)):
                monkeypatch.setattr(coverage, "_SKIP_MIN_CHILDREN", gate)
                monkeypatch.setattr(reference_bnb, "_SKIP_MIN_CHILDREN", gate)
                for threshold, deep in ((coverage_threshold, False),
                                        (interior_threshold, True)):
                    est = threshold(cloud, grid, k, metric, refine_to)
                    ref = reference_bnb._certified_max(knn, grid, refine_to,
                                                       deep)
                    case = (name, k, metric, deep, gate)
                    assert _bits(est) == _bits(ref), case
                    assert est.lo <= est.hi <= est.lo + est.h, case
    assert binned > 0  # the bins did answer cells


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fam", SHAPES)
def test_bounded_query_keeps_the_tree_bits(all_families, fam, k):
    # the tree's search within the bound gives a row within it the
    # unbounded value, bit for bit, and a row beyond it inf, with row N;
    # the call asks those rows again, so it gives every row the unbounded
    # value; bounds at the values themselves and past the sphere's
    # diameter included
    spec = all_families[fam]
    grid = _grid(spec, "all")
    rng = np.random.default_rng(40 + SHAPES.index(fam))
    clouds = [uniform_sample(spec, 3000, 7 + k).points]
    clouds += [points for _, points, kk in _clouds(spec, grid, rng) if kk == k]
    probes = np.concatenate([grid.nodes, refine_nodes(centers=grid).nodes,
                             uniform_sample(spec, 500, 8).points])
    opened = 0
    for points in clouds:
        for metric in (GEO, EUC):
            knn = KnnField(spec, points, k, metric)
            full = knn(probes)
            ranked = np.sort(full)
            searched = []
            query = knn._query

            def bounded(nodes, radius):
                chord, near = query(nodes, radius)
                if radius < math.inf:
                    searched.append((chord.copy(), near.copy()))
                return chord, near

            knn._query = bounded
            for bound in (*ranked[[0, len(full) // 10, len(full) // 2, -1]],
                          float(np.nextafter(ranked[-1], np.inf)), math.pi,
                          4.0):
                searched.clear()
                assert knn(probes, bound).tobytes() == full.tobytes(), bound
                ((chord, near),) = searched
                got = knn._field(chord)
                kept = got != np.inf
                assert got[kept].tobytes() == full[kept].tobytes(), bound
                assert np.all(full[~kept] >= bound * (1.0 - 1e-12)), bound
                assert np.all(kept[full < bound * (1.0 - 1e-12)]), bound
                assert np.all(near[~kept, -1] == len(points))
                opened += int((~kept).sum())
    assert opened > 0


@pytest.mark.parametrize("fam,reg", CASES, ids=[f"{f}-{r}" for f, r in CASES])
def test_points_in_other_bins_lie_beyond_the_radius(all_families, fam, reg):
    spec = all_families[fam]
    grid = _grid(spec, reg)
    points = np.concatenate([_faces(grid),
                             uniform_sample(spec, 3000, 5).points])
    if spec.d == 2 and spec.family is not geo.Family.UNIT_SQUARE:
        points = np.concatenate([points, _seams(spec)])
    cell = grid.chart.locate(points)
    reach = np.sqrt(grid.reach2[:-1])
    assert np.all(reach >= 0.0) and np.all(reach < grid.h)
    for row in range(len(grid)):
        other = cell != row
        chord = _chord(points[other], grid.nodes[row])
        assert np.all(chord >= reach[row]), row


@pytest.mark.parametrize("fam,reg", CASES, ids=[f"{f}-{r}" for f, r in CASES])
def test_locate_inverts_the_start_indexing(all_families, fam, reg):
    # the centre of each cell's box falls in that cell
    grid = _grid(all_families[fam], reg)
    chart = grid.chart
    d = chart.body.d
    centres = chart.ambient(0.5 * (grid.box[:d] + grid.box[d:]))
    assert np.array_equal(grid.chart.locate(centres), np.arange(len(grid)))


def _misbinned_pairs(grid):
    """(A, B) pairs about a cell's representative p on the square: B lies
    inside p's box by an ulp or so, nearer to p than the box's nearest
    face, but the locator's rounding puts it in the next cell; A lies in
    p's bin, farther from p than B and nearer than every face."""
    pairs = []
    last = grid.chart.last
    for row in range(len(grid) - last - 1):  # not the open upper x faces
        p, box = grid.nodes[row], grid.box[:, row]
        face = min(p[0] - box[0], p[1] - box[1], box[2] - p[0], box[3] - p[1])
        x = box[2]
        for _ in range(6):
            x = np.nextafter(x, -np.inf)
            b = np.array([x, p[1]])
            if grid.chart.locate(b[None])[0] == row:
                continue
            cb = _chord(b[None], p)[0]
            y = p[1] + cb
            for _ in range(40):
                a = np.array([p[0], y])
                ca = _chord(a[None], p)[0]
                if cb < ca < face and grid.chart.locate(a[None])[0] == row:
                    pairs.append(np.array([a, b]))
                    break
                y = np.nextafter(y, np.inf)
    return pairs


def test_margin_holds_against_points_binned_across_a_face():
    # without the margin on R, A would certify p at A's chord, above the
    # tree's value at B's
    square = geo.unit_square(2)
    pairs = []
    for h in (0.0145, 0.037, 0.11):
        grid = build_grid(square, geo.REGION_ALL, h)
        for pair in _misbinned_pairs(grid):
            knn = KnnField(square, pair, 1, EUC)
            got = coverage._evaluate(knn, grid, False)[0]
            assert got.tobytes() == knn(grid.nodes).tobytes()
            pairs.append(pair)
    assert len(pairs) >= 3


def test_each_size_builds_its_bins_once(monkeypatch):
    grids.clear_grid_cache()  # a size's grid may be kept from another test
    filled, used = [], []
    real_filled, real_binned = grids._Rings.bin_reach, KnnField._binned

    def filling(self, grid, rep):
        filled.append(len(grid))
        return real_filled(self, grid, rep)

    def using(self, grid):
        used.append(grid.reach2)
        return real_binned(self, grid)

    monkeypatch.setattr(grids._Rings, "bin_reach", filling)
    monkeypatch.setattr(KnnField, "_binned", using)
    cfg = ExperimentConfig(spec=geo.unit_disk(), region=geo.REGION_ALL,
                           mode=RunMode.WEAK_BOUNDARY, sizes=(200, 400),
                           schedule=constant_k(1), replications=3,
                           base_seed=5)
    run_experiment(cfg)
    assert len(filled) == 2 and len(used) == 6
    assert len({id(reach2) for reach2 in used}) == 2
    assert not any(reach2 is None for reach2 in used)


def test_more_dimensions_carry_no_bins():
    # from eight coordinates on, cKDTree sums the squares in another order
    for d in (4, 8):
        square = geo.unit_square(d)
        grid = build_grid(square, geo.REGION_ALL, 0.7)
        assert grid.reach2 is None
        knn = KnnField(square, uniform_sample(square, 300, d).points, 2, EUC)
        got = coverage._evaluate(knn, grid, False)[0]
        assert got.tobytes() == knn(grid.nodes).tobytes()


def test_only_the_start_partition_carries_bins(all_families):
    for spec in all_families.values():
        grid = _grid(spec, "all")
        assert grid.reach2 is not None
        some = grid.take(np.arange(0, len(grid), 3))
        assert some.reach2 is None
        assert refine_nodes(centers=some).reach2 is None
        # a grid without bins certifies no cell
        knn = KnnField(spec, uniform_sample(spec, 500, 1).points, 1, GEO)
        assert np.all(knn._binned(some)[0] == np.inf)
