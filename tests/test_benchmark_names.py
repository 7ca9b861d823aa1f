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
    ``cKDTree.query`` must go through that call and ask for its nodes."""
    asked, counted = [], []

    class Tree(coverage.cKDTree):
        def query(self, x, *args, **kwargs):
            asked.append(len(x))
            return super().query(x, *args, **kwargs)

    real = coverage.KnnField.__call__

    def counting(self, nodes):
        out = real(self, nodes)
        counted.append(len(out))
        return out

    monkeypatch.setattr(coverage, "cKDTree", Tree)
    monkeypatch.setattr(coverage.KnnField, "__call__", counting)
    cloud = uniform_sample(spec, 5000, 17)
    grid = build_grid(spec, geo.REGION_ALL, 0.03)
    for gate in (coverage._SKIP_MIN_CHILDREN, 0):
        monkeypatch.setattr(coverage, "_SKIP_MIN_CHILDREN", gate)
        asked.clear()
        counted.clear()
        threshold(cloud, grid, 2, geo.Metric.GEODESIC, refine_to=3e-4)
        assert asked == counted and sum(counted) > len(grid)


@pytest.mark.parametrize("threshold", [coverage.coverage_threshold,
                                       coverage.interior_threshold])
@pytest.mark.parametrize("fam", ["square", "cube", "disk", "ball", "sphere",
                                 "cap"])
def test_no_node_is_queried_twice(monkeypatch, all_families, threshold, fam):
    """The main run reads the seed run's subtrees from its record, so no
    node of one threshold call reaches ``KnnField.__call__`` twice: the
    benchmark's ``coverage.query_nodes`` counts distinct nodes."""
    queried = []
    real = coverage.KnnField.__call__

    def recording(self, nodes):
        queried.append(np.array(nodes, dtype=float))
        return real(self, nodes)

    monkeypatch.setattr(coverage.KnnField, "__call__", recording)
    spec = all_families[fam]
    h = geo.intrinsic_diameter(spec) / (30.0 if spec.d == 2 else 12.0)
    grid = build_grid(spec, geo.REGION_ALL, h)
    for gate in (coverage._SKIP_MIN_CHILDREN, 0):
        monkeypatch.setattr(coverage, "_SKIP_MIN_CHILDREN", gate)
        for seed in range(3):
            queried.clear()
            cloud = uniform_sample(spec, 2000, 40 + seed)
            threshold(cloud, grid, 2, geo.Metric.GEODESIC, refine_to=h / 100)
            rows = np.concatenate(queried)
            assert len(np.unique(rows, axis=0)) == len(rows)


@pytest.mark.parametrize("spec,k,threshold", [
    (geo.unit_disk(), 1, coverage.coverage_threshold),
    (geo.spherical_cap(1.0), 2, coverage.interior_threshold)],
    ids=["disk", "cap"])
def test_replayed_levels_make_no_hooked_call(monkeypatch, spec, k, threshold):
    """A main-run level that lies wholly in the seed subtrees calls none of
    ``refine_nodes``, ``KnnField.__call__`` and ``dist_to_boundary_many``.
    Each replayed level begins with ``_Replay.descend``; the log counts
    the levels whose descend no hooked call follows.  On the benchmark's
    disk and cap loads, most clouds have such levels: those whose argmax
    lies in a seed subtree."""
    log = []

    def logging(name, real):
        def call(*args, **kwargs):
            log.append(name)
            return real(*args, **kwargs)
        return call

    for owner, name in ((coverage, "refine_nodes"),
                        (coverage.KnnField, "__call__"),
                        (coverage, "dist_to_boundary_many"),
                        (coverage._Replay, "descend")):
        monkeypatch.setattr(owner, name, logging(name, getattr(owner, name)))
    h = 3.0 / math.sqrt(10_000)  # about the threshold at n = 1e4
    grid = build_grid(spec, geo.REGION_ALL, h)
    with_free = 0
    for seed in range(10):
        log.clear()
        cloud = uniform_sample(spec, 10_000, 60 + seed)
        threshold(cloud, grid, k, geo.Metric.GEODESIC, refine_to=h / 500)
        free = sum(name == "descend" and nxt in ("descend", None)
                   for name, nxt in zip(log, log[1:] + [None]))
        with_free += free > 0
    assert with_free >= 5
