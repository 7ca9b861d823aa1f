"""The covlab names that the benchmark in ``perfbench/`` reaches.

The benchmark traces covlab by wrapping names in its modules, and checks
brackets through the package's exports.  A change that deletes or renames
one of them fails here, not only when the benchmark runs.
"""

import math
import pathlib

import numpy as np
import pytest

import covlab
from covlab import coverage
from covlab import geometry as geo
from covlab.grids import build_grid
from covlab.sampling import uniform_sample

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    missing = []
    for hook in layers.HOOKS:
        try:
            spans.resolve(hook.target)
        except spans.HookMissing:
            missing.append(hook.target)
    assert missing == []


def test_package_exports_the_check_uses():
    # perfbench/check.py builds its independent bracket from these
    for name in ("ManifoldSpec", "uniform_sample", "build_grid", "REGION_ALL",
                 "Family"):
        assert hasattr(covlab, name), name


@pytest.mark.parametrize("threshold", [coverage.coverage_threshold,
                                       coverage.interior_threshold])
@pytest.mark.parametrize("spec", [geo.unit_square(2), geo.spherical_cap(1.0)],
                         ids=["square", "cap"])
def test_one_tree_build_per_threshold_call(monkeypatch, threshold, spec):
    """The benchmark's ``coverage.tree`` span wraps
    ``covlab.coverage.cKDTree``, so that name must build the one tree of
    each threshold call.  On box shapes the tree is built on a sorted copy
    of the cloud; the sort runs before ``cKDTree`` is called, outside the
    ``coverage.tree`` span, so its time lands in ``coverage.self_s``.
    """
    built = []
    real = coverage.cKDTree

    def counting(points, **kwargs):
        built.append(points)
        return real(points, **kwargs)

    monkeypatch.setattr(coverage, "cKDTree", counting)
    cloud = uniform_sample(spec, 400, 3)
    grid = build_grid(spec, geo.REGION_ALL, 0.1)
    for calls in (1, 2):
        threshold(cloud, grid, 2, geo.Metric.GEODESIC, refine_to=0.01)
        assert len(built) == calls
    for points in built:
        # the span gets the whole cloud, sorted on the square
        assert points.shape == cloud.points.shape
        assert np.array_equal(np.sort(points, axis=0),
                              np.sort(cloud.points, axis=0))


@pytest.mark.parametrize("threshold", [coverage.coverage_threshold,
                                       coverage.interior_threshold])
@pytest.mark.parametrize("spec", [geo.unit_square(2), geo.spherical_cap(1.0)],
                         ids=["square", "cap"])
def test_query_hook_counts_the_nodes_the_tree_answers(monkeypatch, threshold,
                                                      spec):
    """The benchmark's ``coverage.query_nodes`` is ``len(out)`` summed over
    ``KnnField.__call__``.  The children that the branch and bound skips
    are bounded from their parent's neighbours, never queried, so every
    ``cKDTree.query`` must go through that call and ask for its nodes.
    The start cells that the grid's bins certify are not queried either:
    the bins and the tree's first call answer each start cell once."""
    asked, counted, binned = [], [], []

    class Tree(coverage.cKDTree):
        def query(self, x, *args, **kwargs):
            asked.append(len(x))
            return super().query(x, *args, **kwargs)

    real = coverage.KnnField.__call__
    real_binned = coverage.KnnField._binned

    def counting(self, nodes, *args, **kwargs):
        out = real(self, nodes, *args, **kwargs)
        counted.append(np.array(nodes))
        return out

    def binning(self, grid):
        chord, near = real_binned(self, grid)
        binned.append(chord != np.inf)
        return chord, near

    monkeypatch.setattr(coverage, "cKDTree", Tree)
    monkeypatch.setattr(coverage.KnnField, "__call__", counting)
    monkeypatch.setattr(coverage.KnnField, "_binned", binning)
    cloud = uniform_sample(spec, 5000, 17)
    grid = build_grid(spec, geo.REGION_ALL, 0.03)
    for gate in (coverage._SKIP_MIN_CHILDREN, 0):
        monkeypatch.setattr(coverage, "_SKIP_MIN_CHILDREN", gate)
        asked.clear()
        counted.clear()
        binned.clear()
        threshold(cloud, grid, 2, geo.Metric.GEODESIC, refine_to=3e-4)
        assert asked == [len(nodes) for nodes in counted]
        (sure,) = binned
        assert 0 < sure.sum() < len(grid)
        assert counted[0].tobytes() == grid.nodes[~sure].tobytes()


@pytest.mark.parametrize("threshold", [coverage.coverage_threshold,
                                       coverage.interior_threshold])
@pytest.mark.parametrize("fam", ["square", "cube", "disk", "ball", "sphere",
                                 "cap"])
def test_no_node_is_queried_twice(monkeypatch, all_families, threshold, fam):
    """The seed cells' subtrees are searched by the first run alone, and
    the second run holds only the other start cells, so no box of one
    threshold call is split by ``refine_nodes`` twice, and no node is
    answered by ``KnnField.__call__`` twice.  A node reaches that call a
    second time only when a bounded call left it open (inf), and then the
    second call answers it.

    The one exception is the solid ball, whose cells are boxes of the
    enclosing cube: a representative outside the ball is projected onto
    its sphere, and two distinct cells whose boxes stick out of the ball
    along one ray from the centre project to one node.  Such a node may be
    answered once for each of those cells, and no more often."""
    answered, left_open, made, split = [], [], [], []
    real = coverage.KnnField.__call__
    real_refine = coverage.refine_nodes

    def recording(self, nodes, bound=math.inf):
        out = real(self, nodes, bound)
        nodes = np.array(nodes, dtype=float)
        answered.append(nodes[out != np.inf])
        if bound < math.inf:
            left_open.append(nodes[out == np.inf])
        return out

    def refining(centers):
        split.append(centers.box.T)
        kids = real_refine(centers=centers)
        made.append(kids)
        return kids

    monkeypatch.setattr(coverage.KnnField, "__call__", recording)
    monkeypatch.setattr(coverage, "refine_nodes", refining)
    spec = all_families[fam]
    h = geo.intrinsic_diameter(spec) / (30.0 if spec.d == 2 else 12.0)
    grid = build_grid(spec, geo.REGION_ALL, h)

    def cells_at(node):
        """The distinct boxes of the cells whose representative is node."""
        boxes = [cells.box.T[(cells.nodes == node).all(axis=1)]
                 for cells in [grid, *made]]
        return np.unique(np.concatenate(boxes), axis=0)

    for gate in (coverage._SKIP_MIN_CHILDREN, 0):
        monkeypatch.setattr(coverage, "_SKIP_MIN_CHILDREN", gate)
        opened = 0
        for seed in range(3):
            answered.clear()
            left_open.clear()
            made.clear()
            split.clear()
            cloud = uniform_sample(spec, 2000, 40 + seed)
            threshold(cloud, grid, 2, geo.Metric.GEODESIC, refine_to=h / 100)
            halved = np.concatenate(split)
            assert len(np.unique(halved, axis=0)) == len(halved)
            rows, times = np.unique(np.concatenate(answered), axis=0,
                                    return_counts=True)
            for node, n in zip(rows[times > 1], times[times > 1]):
                assert fam == "ball"
                assert np.sqrt(node @ node) == pytest.approx(1.0, abs=1e-12)
                boxes = cells_at(node)
                assert len(boxes) >= n
                axis = node != 0.0
                for lo, hi in zip(boxes[:, :3], boxes[:, 3:]):
                    # the box meets the ray {t node : t >= 1} outside
                    assert np.all((lo <= 0.0) & (hi >= 0.0) | axis)
                    t = np.sort([lo[axis] / node[axis],
                                 hi[axis] / node[axis]], axis=0)
                    assert max(t[0].max(), 1.0) <= t[1].min() * (1 + 1e-12)
            again = np.concatenate(left_open or [rows[:0]])
            both = np.concatenate([rows, np.unique(again, axis=0)])
            assert len(np.unique(both, axis=0)) == len(rows)
            opened += len(again)
        if gate == 0:  # every batch may be bounded: some rows were left open
            assert opened > 0
