"""Blocks of start cells, on the square and on the rings, against the
k-d tree.

On a 2-D start partition, ``KnnField`` answers each node from the samples
in a block of start cells around it, w = 1 and then 2, where the k-th
smallest chord among them is below the block's certified radius, and asks
the tree only for the rows that no block certifies: on a lattice the
(2w + 1)^2 cells around the node's slot, on the rings (the disk, the cap
and the sphere) the cells of rings i - w..i + w that meet the azimuth
wedge of the node's own ring's cells j - w..j + w.  These tests pin that
every value a block certifies is the tree's, bit for bit, and that its k
rows are k distinct samples at the tree's k distances, on uniform clouds
and on clouds placed on the cells' faces (ring circles and azimuth rays,
the seams at azimuth 0 and +-pi among them), the lattice's edges, the axis
and the rim, clusters that leave cells empty, duplicates and n = k; that
sample pairs which the locator's rounding puts across a block's closed
face keep the tree's bits; and that a lattice too coarse for its cloud
keeps the tree.  A field on rings answers from blocks only when it is
built with ``ring_blocks`` (see the coverage module), so the tests of the
ring blocks set it.
"""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from covlab import coverage
from covlab import geometry as geo
from covlab.coverage import KnnField
from covlab.grids import build_grid, refine_nodes
from covlab.sampling import uniform_sample

GEO, EUC = geo.Metric.GEODESIC, geo.Metric.EUCLIDEAN
SQUARE = geo.unit_square(2)
REGIONS = {"all": geo.REGION_ALL, "body": geo.interior_body(0.2)}
RINGS = {"disk": geo.unit_disk(), "cap": geo.spherical_cap(1.0),
         "sphere": geo.unit_sphere()}


def _grid(reg):
    # lattices of 13 x 13 start cells, whose mean 3 x 3 block holds 32 of
    # the 600 samples of a uniform cloud: blocks serve them
    return build_grid(SQUARE, REGIONS[reg], 0.09 if reg == "all" else 0.05)


def _chords(points, probes):
    """(N, k) chords from each probe to its k ``points`` (N, k, m), summed
    as cKDTree sums them: sqrt(dx*dx + dy*dy (+ dz*dz))."""
    diff = points - probes[:, None, :]
    sq = diff[..., 0] * diff[..., 0]
    for i in range(1, diff.shape[-1]):
        sq = sq + diff[..., i] * diff[..., i]
    return np.sqrt(sq)


def _faces(grid):
    """The lattice's cell faces, one cell beyond each edge included, and
    its edges."""
    bins = grid.bins
    faces = bins.lo + (np.arange(-1, bins.last + 2) - 0.5) * bins.step
    edges = bins.lo + np.array([0.0, bins.last]) * bins.step
    return np.concatenate([faces, edges, [0.0, 1.0]]).clip(0.0, 1.0)


def _clouds(grid, rng, k):
    base = rng.random((600, 2))
    lines = _faces(grid)
    on_faces = base.copy()
    on_faces[::2, 0] = rng.choice(lines, 300)
    on_faces[1::2, 1] = rng.choice(lines, 300)
    corners = np.array(np.meshgrid(lines, lines)).reshape(2, -1).T
    yield "uniform", base
    yield "faces", on_faces
    yield "face_corners", np.concatenate([corners, base[:100]])
    # most cells empty, a few crowded beyond what a block may hold
    cluster = 0.4 + 0.02 * base[:500]
    yield "cluster", np.concatenate([cluster, base[500:530]])
    yield "duplicates", np.repeat(base[:90], 4, axis=0)
    yield "n_equals_k", base[:k]


def _probes(grid, rng):
    lines = _faces(grid)
    return np.concatenate([
        grid.nodes, refine_nodes(centers=grid).nodes, rng.random((400, 2)),
        np.array(np.meshgrid(lines, lines)).reshape(2, -1).T])


@pytest.mark.parametrize("metric", [GEO, EUC])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("reg", sorted(REGIONS))
def test_blocks_give_the_tree_bits(reg, k, metric):
    grid = _grid(reg)
    rng = np.random.default_rng(10 * k + len(reg))
    probes = _probes(grid, rng)
    certified = left_open = 0
    for name, points in _clouds(grid, rng, k):
        knn = KnnField(SQUARE, points, k, metric, grid.bins)
        assert knn._bins is grid.bins, name
        dist = cKDTree(points).query(probes, k=k)[0].reshape(len(probes), k)
        got = knn(probes)
        assert got.tobytes() == dist[:, -1].tobytes(), name
        near = knn.nearest
        assert np.all(np.diff(np.sort(near, axis=1), axis=1) > 0), name
        assert np.sort(_chords(knn._points[near], probes), axis=1
                       ).tobytes() == dist.tobytes(), name
        # the blocks alone: every row they certify, and its k rows
        chord, near = knn._blocks(probes)
        sure = chord != np.inf
        assert chord[sure].tobytes() == dist[sure, -1].tobytes(), name
        near = near[sure]
        assert np.all(np.diff(np.sort(near, axis=1), axis=1) > 0), name
        assert np.sort(_chords(knn._points[near], probes[sure]), axis=1
                       ).tobytes() == dist[sure].tobytes(), name
        certified += int(sure.sum())
        left_open += int((~sure).sum())
    assert certified > 0 and left_open > 0


def _misbinned_pairs(grid):
    """(A, B) pairs about a node q on the square whose nearest w = 1 block
    face is the upper face in x: B lies inside that face by an ulp or so,
    nearer to q than the face, but the locator's rounding puts it in the
    next cell, outside the block; A lies in the block, farther from q than
    B and nearer than every face of the block."""
    bins, pairs = grid.bins, []
    s = bins.step
    for i in range(bins.last - 1):
        # low in the lattice, so that A's coordinate steps finer than B's
        q = np.array([bins.lo + (i + 0.4) * s, bins.lo + s])
        face = bins.lo + (i + 1.5) * s  # as the block computes it
        x = face
        for _ in range(6):
            x = np.nextafter(x, -np.inf)
            b = np.array([x, q[1]])
            if bins.locate(b[None])[0] // (bins.last + 1) != i + 2:
                continue
            cb = _chords(b[None, None], q[None])[0, 0]
            y = q[1] + cb
            for _ in range(40):
                a = np.array([q[0], y])
                ca = _chords(a[None, None], q[None])[0, 0]
                if cb < ca < face - q[0]:
                    pairs.append((q, np.array([a, b])))
                    break
                y = np.nextafter(y, np.inf)
            break
    return pairs


def test_margin_holds_against_points_binned_across_a_block_face():
    # without the margin on the block's radius, A would certify q at A's
    # chord, above the tree's value at B's
    pairs = 0
    for h in (0.013, 0.037, 0.05, 0.09):
        grid = build_grid(SQUARE, geo.REGION_ALL, h)
        for q, pair in _misbinned_pairs(grid):
            knn = KnnField(SQUARE, pair, 1, EUC, grid.bins)
            want = cKDTree(pair).query(q[None])[0]
            assert knn._blocks(q[None])[0].tobytes() == want.tobytes()
            assert knn(q[None]).tobytes() == want.tobytes()
            pairs += 1
    assert pairs >= 3


def test_every_two_dimensional_start_partition_has_blocks(all_families):
    # with ring_blocks every 2-D start partition has blocks and 3-D has
    # none; without it a field on rings builds its tree at once
    for blocks in (True, False):
        for name, spec in all_families.items():
            grid = build_grid(spec, geo.REGION_ALL, 0.3)
            knn = KnnField(spec, uniform_sample(spec, 100, 1).points, 1,
                           GEO, grid.bins, ring_blocks=blocks)
            want = spec.d == 2 and (blocks or name == "square")
            assert (knn._bins is not None) == want, (name, blocks)
            assert (knn._tree is None) == want, (name, blocks)


def test_a_lattice_coarse_for_its_cloud_keeps_the_tree(monkeypatch):
    # 13 x 13 start cells: blocks while the mean 3 x 3 block holds at most
    # _BLOCK_MEAN samples, 901 of a uniform cloud, the tree built at once
    # above that
    built = []
    real = coverage.cKDTree

    def counting(points, **kwargs):
        built.append(len(points))
        return real(points, **kwargs)

    monkeypatch.setattr(coverage, "cKDTree", counting)
    grid = _grid("all")
    assert coverage._BLOCK_MEAN == 48 and grid.bins.last == 12
    for n, blocks in ((901, True), (902, False)):
        built.clear()
        knn = KnnField(SQUARE, uniform_sample(SQUARE, n, 5).points, 1, GEO,
                       grid.bins)
        assert (knn._bins is not None) == blocks, n
        assert built == ([] if blocks else [n]), n
        probes = refine_nodes(centers=grid).nodes
        want = cKDTree(knn._points).query(probes)[0]
        assert knn(probes).tobytes() == want.tobytes()


# polar radius of each ring shape: the disk's radius, the cap's polar angle
EXTENT = {"disk": 1.0, "cap": 1.0, "sphere": math.pi}


def _ring_grid(fam, reg):
    # about 300 start cells (about 200 for the interior bodies), whose mean
    # 9 cells hold 18 to 27 of the 600 samples of a uniform cloud: blocks
    # serve them
    return build_grid(RINGS[fam], REGIONS[reg],
                      0.2 if fam == "sphere" else 0.1)


def _ambient(spec, t, phi):
    if spec.family is geo.Family.UNIT_DISK:
        return np.column_stack([t * np.cos(phi), t * np.sin(phi)])
    return np.column_stack([np.sin(t) * np.cos(phi),
                            np.sin(t) * np.sin(phi), np.cos(t)])


def _polar(spec, x):
    c = np.hypot(x[:, 0], x[:, 1])
    t = c if spec.family is geo.Family.UNIT_DISK else np.arctan2(c, x[:, 2])
    return t, np.arctan2(x[:, 1], x[:, 0])


def _ring_faces(grid, extent):
    """(the ring circles, one beyond each end included, the axis and the
    rim; the azimuth rays between every ring's cells and the seams at 0
    and +-pi, each with its neighbouring floats)."""
    bins = grid.bins
    circles = (np.arange(-1, bins.last + 2) + 0.5) * bins.step
    circles = np.concatenate([circles, [0.0, bins.last * bins.step, extent],
                              np.nextafter(circles, 0.0)]).clip(0.0, extent)
    rays = [0.0, math.pi, -math.pi]
    for count in bins.count:
        edge = (2.0 * np.arange(count) + 1.0) * math.pi / count
        rays.extend(np.where(edge > math.pi, edge - 2.0 * math.pi, edge))
    rays = np.array(rays)
    return circles, np.concatenate([rays, np.nextafter(rays, 0.0),
                                    np.nextafter(rays, 4.0)])


def _ring_clouds(spec, grid, extent, rng, k):
    base = uniform_sample(spec, 600, int(rng.integers(2 ** 31))).points
    t, phi = _polar(spec, base)
    circles, rays = _ring_faces(grid, extent)
    yield "uniform", base
    yield "faces", np.concatenate([
        _ambient(spec, rng.choice(circles, 300), phi[:300]),
        _ambient(spec, t[300:], rng.choice(rays, 300))])
    # the axis cell, its face and the rim, at every azimuth
    ends = np.array([0.0, 1e-300, 0.5 * grid.bins.step, extent,
                     np.nextafter(extent, 0.0)])
    yield "axis_rim", np.concatenate([
        _ambient(spec, rng.choice(ends, 60), rng.choice(rays, 60)),
        base[:100]])
    # most cells empty, a few crowded beyond what a block may hold, across
    # the seam at +-pi
    cluster = _ambient(spec, 0.5 * extent + 0.02 * rng.random(500),
                       math.pi + 0.02 * (rng.random(500) - 0.5))
    yield "cluster", np.concatenate([cluster, base[500:530]])
    yield "duplicates", np.repeat(base[:90], 4, axis=0)
    yield "n_equals_k", base[:k]


def _ring_probes(spec, grid, extent, rng):
    circles, rays = _ring_faces(grid, extent)
    crossings = np.array(np.meshgrid(circles, rng.choice(rays, 40))
                         ).reshape(2, -1)
    start = grid.take(np.arange(0, len(grid), 3))
    return np.concatenate([
        grid.nodes, refine_nodes(centers=start).nodes,
        uniform_sample(spec, 400, int(rng.integers(2 ** 31))).points,
        _ambient(spec, *crossings)])


@pytest.mark.parametrize("metric", [GEO, EUC])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("reg", sorted(REGIONS))
@pytest.mark.parametrize("fam", sorted(RINGS))
def test_ring_blocks_give_the_tree_bits(fam, reg, k, metric):
    spec, grid, extent = RINGS[fam], _ring_grid(fam, reg), EXTENT[fam]
    rng = np.random.default_rng(100 * k + 10 * len(reg) + len(fam))
    probes = _ring_probes(spec, grid, extent, rng)
    certified = left_open = 0
    for name, points in _ring_clouds(spec, grid, extent, rng, k):
        knn = KnnField(spec, points, k, metric, grid.bins, ring_blocks=True)
        assert knn._bins is grid.bins, name
        dist = cKDTree(points).query(probes, k=k)[0].reshape(len(probes), k)
        got = knn(probes)
        assert got.tobytes() == knn._field(dist[:, -1].copy()).tobytes(), \
            name
        near = knn.nearest
        assert np.all(np.diff(np.sort(near, axis=1), axis=1) > 0), name
        assert np.sort(_chords(knn._points[near], probes), axis=1
                       ).tobytes() == dist.tobytes(), name
        # the blocks alone: every row they certify, and its k rows
        chord, near = knn._blocks(probes)
        sure = chord != np.inf
        assert chord[sure].tobytes() == dist[sure, -1].tobytes(), name
        near = near[sure]
        assert np.all(np.diff(np.sort(near, axis=1), axis=1) > 0), name
        assert np.sort(_chords(knn._points[near], probes[sure]), axis=1
                       ).tobytes() == dist[sure].tobytes(), name
        certified += int(sure.sum())
        left_open += int((~sure).sum())
    assert certified > 0 and left_open > 0


def _misbinned_ring_pairs(grid):
    """(A, B) pairs about a node q on the disk, at azimuth 0 in ring i,
    whose nearest w = 1 block face is the ring circle (i + 3/2) dt: B lies
    inside that circle by an ulp or so, nearer to q than the circle, but
    the locator's rounding puts it in ring i + 2, outside the block; A lies
    in the block, farther from q than B and nearer than every face of the
    block."""
    bins, pairs = grid.bins, []
    dt = bins.step
    for i in range(2, bins.last - 2):
        q = np.array([(i + 0.4) * dt, 0.0])
        face = (i + 1.0 + 0.5) * dt  # as the block computes it
        ring = bins.first[i + 2], bins.first[i + 2] + bins.count[i + 2]
        x = face
        for _ in range(6):
            x = np.nextafter(x, -np.inf)
            b = np.array([x, 0.0])
            if not ring[0] <= bins.locate(b[None])[0] < ring[1]:
                continue
            cb = _chords(b[None, None], q[None])[0, 0]
            y = cb
            for _ in range(40):
                a = np.array([q[0], y])
                ca = _chords(a[None, None], q[None])[0, 0]
                if cb < ca < face - q[0]:
                    pairs.append((q, np.array([a, b])))
                    break
                y = np.nextafter(y, np.inf)
            break
    return pairs


def test_margin_holds_against_points_binned_across_a_ring_circle():
    # without the margin on the block's radius, A would certify q at A's
    # chord, above the tree's value at B's
    disk, pairs = RINGS["disk"], 0
    for h in (0.013, 0.037, 0.05, 0.09):
        grid = build_grid(disk, geo.REGION_ALL, h)
        for q, pair in _misbinned_ring_pairs(grid):
            knn = KnnField(disk, pair, 1, EUC, grid.bins, ring_blocks=True)
            want = cKDTree(pair).query(q[None])[0]
            assert knn._blocks(q[None])[0].tobytes() == want.tobytes()
            assert knn(q[None]).tobytes() == want.tobytes()
            pairs += 1
    assert pairs >= 3


@pytest.mark.parametrize("threshold", [coverage.coverage_threshold,
                                       coverage.interior_threshold])
@pytest.mark.parametrize("fam", sorted(RINGS))
def test_ring_blocks_keep_the_bracket_bits(fam, threshold):
    # the whole branch and bound, its levels asked of the blocks first or
    # of the tree alone
    spec, grid = RINGS[fam], _ring_grid(fam, "all")
    for k in (1, 3):
        cloud = uniform_sample(spec, 600, 7 + k)
        brackets = []
        for blocks in (True, False):
            knn = KnnField(spec, cloud.points, k, GEO, grid.bins, blocks)
            assert (knn._bins is not None) == blocks
            est = threshold(cloud, grid, k, GEO, refine_to=grid.h / 50,
                            ring_blocks=blocks)
            brackets.append(np.array([est.lo, est.hi, *est.argmax]))
        assert brackets[0].tobytes() == brackets[1].tobytes(), k
