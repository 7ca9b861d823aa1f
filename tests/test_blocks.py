"""The square's blocks of start cells, against the k-d tree.

On a 2-D lattice start partition, ``KnnField`` answers each node from the
samples in the (2w + 1)^2 start cells around it, w = 1 and then 2, where
the k-th smallest chord among them is below the block's certified radius,
and asks the tree only for the rows that no block certifies.  These tests
pin that every value a block certifies is the tree's, bit for bit, and
that its k rows are k distinct samples at the tree's k distances, on
uniform clouds and on clouds placed on the cells' faces and the lattice's
edges, clusters that leave cells empty, duplicates and n = k; and that a
lattice too coarse for its cloud keeps the tree.
"""

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


def _grid(reg):
    # lattices of 13 x 13 start cells, whose mean 3 x 3 block holds 32 of
    # the 600 samples of a uniform cloud: blocks serve them
    return build_grid(SQUARE, REGIONS[reg], 0.09 if reg == "all" else 0.05)


def _chords(points, probes):
    """(N, k) chords from each probe to its k ``points`` (N, k, 2), summed
    as cKDTree sums them: sqrt(dx*dx + dy*dy)."""
    diff = points - probes[:, None, :]
    return np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])


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


def test_only_two_dimensional_lattices_have_blocks(all_families):
    for name, spec in all_families.items():
        grid = build_grid(spec, geo.REGION_ALL, 0.3)
        knn = KnnField(spec, uniform_sample(spec, 100, 1).points, 1, GEO,
                       grid.bins)
        assert (knn._bins is not None) == (name == "square"), name


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
