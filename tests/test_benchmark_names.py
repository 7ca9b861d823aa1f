"""The covlab names that the benchmark in ``perfbench/`` reaches.

The benchmark traces covlab by wrapping names in its modules, and checks
brackets through the package's exports.  A change that deletes or renames
one of them fails here, not only when the benchmark runs.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import covlab
from covlab import coverage, harness
from covlab import geometry as geo
from covlab.grids import build_grid
from covlab.harness import ExperimentConfig, run_experiment
from covlab.sampling import PointCloud, uniform_sample

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


def _counting_trees(monkeypatch):
    """The points of every tree that ``covlab.coverage.cKDTree`` builds."""
    built = []
    real = coverage.cKDTree

    def counting(points, **kwargs):
        built.append(points)
        return real(points, **kwargs)

    monkeypatch.setattr(coverage, "cKDTree", counting)
    return built


def _packed_square(n, seed):
    """A square cloud packed into the left 40% of the square: the blocks
    of start cells around the nodes on the right hold no sample."""
    square = geo.unit_square(2)
    points = uniform_sample(square, n, seed).points.copy()
    points[:, 0] *= 0.4
    return PointCloud(square, points)


@pytest.mark.parametrize("threshold", [coverage.coverage_threshold,
                                       coverage.interior_threshold])
@pytest.mark.parametrize("fam", ["square", "packed", "cap", "cube", "ball"])
def test_at_most_one_tree_per_threshold_call(monkeypatch, all_families,
                                             threshold, fam):
    """The benchmark's ``coverage.tree`` span wraps
    ``covlab.coverage.cKDTree``, so that name must build every tree, at
    most one per threshold call.  The cap, the cube and the ball build one
    in every call.  On the square the blocks of start cells answer first:
    a uniform cloud at this spacing builds none, and a packed cloud, which
    leaves nodes open, builds one.  On box shapes the tree is built on a
    sorted copy of the cloud; the sort runs before ``cKDTree`` is called,
    outside the ``coverage.tree`` span, so its time lands in
    ``coverage.self_s``.
    """
    built = _counting_trees(monkeypatch)
    spec = all_families["square" if fam == "packed" else fam]
    cloud = (_packed_square(400, 3) if fam == "packed"
             else uniform_sample(spec, 400, 3))
    grid = build_grid(spec, geo.REGION_ALL, 0.1)
    for calls in (1, 2):
        threshold(cloud, grid, 2, geo.Metric.GEODESIC, refine_to=0.01)
        assert len(built) == (0 if fam == "square" else calls)
    for points in built:
        # the span gets the whole cloud, sorted on the square
        assert points.shape == cloud.points.shape
        assert np.array_equal(np.sort(points, axis=0),
                              np.sort(cloud.points, axis=0))


def test_square_at_benchmark_size_builds_no_tree(monkeypatch):
    # the square_slln_1e5 load of perfbench/workloads.py
    built = _counting_trees(monkeypatch)
    run_experiment(ExperimentConfig.from_json({
        "spec": {"family": "unit_square"}, "mode": "slln_trace",
        "sizes": [100_000], "k": {"kind": "constant", "k": 1},
        "replications": 4, "base_seed": 1_100_000}))
    assert built == []


def test_disk_at_benchmark_size_builds_few_trees(monkeypatch):
    """The disk_weak_1e4 load of perfbench/workloads.py at its first seed,
    its fields on blocks, as in a run of one replication.  None of the 300
    replications of that load's seeds 1,100,000 to 1,100,014 built a tree,
    so 20 replications may build one at most."""
    monkeypatch.setattr(harness, "_RING_BLOCK_REPS", 20)
    built = _counting_trees(monkeypatch)
    run_experiment(ExperimentConfig.from_json({
        "spec": {"family": "unit_disk"}, "mode": "weak_boundary",
        "sizes": [10_000], "k": {"kind": "constant", "k": 1},
        "replications": 20, "base_seed": 1_100_000}))
    assert len(built) <= 1


def _run_script(script, *args):
    """The last stdout line of ``script`` run with ``args`` in a fresh
    interpreter that imports covlab from this checkout, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PERFBENCH.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


_LOADED = """
import json, sys
import covlab.cli
from covlab import coverage

def scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

built = []
real = coverage.cKDTree

def counting(points, **kwargs):
    built.append(len(points))
    return real(points, **kwargs)

coverage.cKDTree = counting
imported = scipy()
with open(sys.argv[2], "w") as fh:
    json.dump({"spec": json.loads(sys.argv[3]),
               "sizes": [int(sys.argv[4])], "replications": 1,
               "k": {"kind": "constant", "k": int(sys.argv[5])}}, fh)
code = covlab.cli.main([sys.argv[1], "--config", sys.argv[2], "--out",
                        sys.argv[6]])
print(json.dumps([imported, scipy(), len(built), code]))
"""


@pytest.mark.parametrize("mode,spec,size,k", [
    pytest.param("slln", {"family": "unit_square"}, 20_000, 1,
                 id="slln-unit_square-20000"),
    pytest.param("weak", {"family": "unit_disk"}, 2_000, 1,
                 id="weak-unit_disk-2000"),
    pytest.param("weak", {"family": "unit_disk"}, 10_000, 1,
                 id="weak-unit_disk-10000"),
    pytest.param("interior", {"family": "spherical_cap", "alpha": 1.0},
                 10_000, 2, id="interior-spherical_cap-10000")])
def test_scipy_is_loaded_by_the_first_tree(tmp_path, mode, spec, size, k):
    # importing scipy.spatial is most of a one-replication CLI call's
    # start-up; a run that builds no tree does not pay for it
    imported, after, built, code = _run_script(
        _LOADED, mode, tmp_path / "config.json", json.dumps(spec), size, k,
        tmp_path / "out")
    assert imported == [] and code == 0
    assert bool(after) == (built > 0)


@pytest.mark.parametrize("reps,trees", [(1, 0), (2, 2), (3, 3)])
def test_ring_fields_answer_from_blocks_in_a_one_replication_run(
        monkeypatch, reps, trees):
    # a run of one replication answers the disk from blocks, and builds
    # no tree at this size; a longer run builds one tree a replication, at
    # once, as before the blocks, whatever the process has loaded
    built = _counting_trees(monkeypatch)
    asked = []
    real = coverage.KnnField._blocks

    def blocks(self, nodes):
        asked.append(len(nodes))
        return real(self, nodes)

    monkeypatch.setattr(coverage.KnnField, "_blocks", blocks)
    run_experiment(ExperimentConfig.from_json({
        "spec": {"family": "unit_disk"}, "mode": "weak_boundary",
        "sizes": [2_000], "k": {"kind": "constant", "k": 1},
        "replications": reps, "base_seed": 1_100_000}))
    assert len(built) == trees
    assert bool(asked) == (reps == 1)


@pytest.mark.parametrize("threshold", [coverage.coverage_threshold,
                                       coverage.interior_threshold])
@pytest.mark.parametrize("spec", [geo.unit_square(2), geo.spherical_cap(1.0)],
                         ids=["square", "cap"])
def test_query_hook_counts_the_nodes_the_tree_answers(monkeypatch, threshold,
                                                      spec):
    """The benchmark's ``coverage.query_nodes`` is ``len(out)`` summed over
    ``KnnField.__call__``.  The children that the branch and bound skips
    are bounded from their parent's neighbours, never queried, so every
    ``cKDTree.query`` must go through that call, once at most, and ask for
    its nodes: all of them on the cap, and on the square those that the
    blocks of start cells leave open.  The start cells that the grid's
    bins certify are not queried either: the bins and the field's first
    call answer each start cell once.  The square's cloud is packed to
    one side, so that the blocks leave nodes to the tree."""
    asked, counted, expected, binned = [], [], [], []
    inside = []
    real_tree = coverage.cKDTree

    class Tree:
        def __init__(self, points, **kwargs):
            self.tree = real_tree(points, **kwargs)

        def query(self, x, *args, **kwargs):
            assert inside, "a tree query outside KnnField.__call__"
            asked[-1].append(np.array(x))
            return self.tree.query(x, *args, **kwargs)

    real = coverage.KnnField.__call__
    real_binned = coverage.KnnField._binned

    def counting(self, nodes, *args, **kwargs):
        nodes = np.array(nodes)
        want = nodes
        if self._bins is not None and kwargs.get("blocks", True):
            want = nodes[self._blocks(nodes)[0] == np.inf]
        expected.append([want] if len(want) else [])
        asked.append([])
        inside.append(True)
        try:
            out = real(self, nodes, *args, **kwargs)
        finally:
            inside.pop()
        counted.append(nodes)
        return out

    def binning(self, grid):
        chord, near = real_binned(self, grid)
        binned.append(chord != np.inf)
        return chord, near

    monkeypatch.setattr(coverage, "cKDTree", Tree)
    monkeypatch.setattr(coverage.KnnField, "__call__", counting)
    monkeypatch.setattr(coverage.KnnField, "_binned", binning)
    cloud = (_packed_square(5000, 17) if spec.family is geo.Family.UNIT_SQUARE
             else uniform_sample(spec, 5000, 17))
    grid = build_grid(spec, geo.REGION_ALL, 0.03)
    for gate in (coverage._SKIP_MIN_CHILDREN, 0):
        monkeypatch.setattr(coverage, "_SKIP_MIN_CHILDREN", gate)
        asked.clear()
        counted.clear()
        expected.clear()
        binned.clear()
        threshold(cloud, grid, 2, geo.Metric.GEODESIC, refine_to=3e-4)
        assert [[x.tobytes() for x in call] for call in asked] == \
            [[x.tobytes() for x in call] for call in expected]
        assert sum(map(len, asked)) > 0  # the tree did answer nodes
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
    second call answers it from the tree: no node's block of start cells
    is gathered twice.

    The one exception is the solid ball, whose cells are boxes of the
    enclosing cube: a representative outside the ball is projected onto
    its sphere, and two distinct cells whose boxes stick out of the ball
    along one ray from the centre project to one node.  Such a node may be
    answered once for each of those cells, and no more often."""
    answered, left_open, made, split, gathered = [], [], [], [], []
    real = coverage.KnnField.__call__
    real_refine = coverage.refine_nodes
    real_blocks = coverage.KnnField._blocks

    def recording(self, nodes, bound=math.inf, **kwargs):
        out = real(self, nodes, bound, **kwargs)
        nodes = np.array(nodes, dtype=float)
        answered.append(nodes[out != np.inf])
        if bound < math.inf:
            left_open.append(nodes[out == np.inf])
        return out

    def blocking(self, nodes):
        gathered.append(np.array(nodes))
        return real_blocks(self, nodes)

    def refining(centers):
        split.append(centers.box.T)
        kids = real_refine(centers=centers)
        made.append(kids)
        return kids

    monkeypatch.setattr(coverage.KnnField, "__call__", recording)
    monkeypatch.setattr(coverage.KnnField, "_blocks", blocking)
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
            gathered.clear()
            cloud = (_packed_square(2000, 40 + seed) if fam == "square"
                     else uniform_sample(spec, 2000, 40 + seed))
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
            blocked = np.concatenate(gathered or [rows[:0]])
            assert len(np.unique(blocked, axis=0)) == len(blocked)
            assert (len(blocked) > 0) == (fam == "square")
        if gate == 0:  # every batch may be bounded: some rows were left open
            assert opened > 0
