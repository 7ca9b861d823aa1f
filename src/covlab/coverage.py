"""k-coverage thresholds with certified error intervals.

Every threshold here is the max over a target set B of one field that is
1-Lipschitz in the geodesic metric.  The coverage threshold maximises the
k-th nearest-neighbor distance field f; the interior coverage threshold
maximises min(f, depth), where depth is the distance to the boundary of
the shape.  One maximiser serves both thresholds: Lipschitz branch and
bound over the cells of a partition of B (Piyavskii 1972; Shubert 1972).
A cell whose representative p has value f(p) and whose cover radius is
rho holds no value above f(p) + rho, so cells whose bound stays within
the target width of the best value found are set aside, and only the
others are split and evaluated again.  The work goes to the few cells
near the argmax, and the bracket [best value, largest bound set aside]
is at most the target wide.  The best value is seeded by a first search
over the start cells of largest value alone, so the whole start
partition is weighed against a value close to the max, and most of its
cells are set aside at once.

Most children of a split cell are set aside as soon as they are
evaluated, and their parent's k nearest samples already prove it before
they are queried.  Those k samples are k distinct points of the cloud, so
the k-th neighbour distance f(c) at a child c is at most u(c), the largest
distance from c to them (chord, then geodesic where the field is; the
interior field min(f, depth) is below f too).  A child with u(c) < lo and
u(c) + rho_c <= min(lo + target, hi), for the lo and hi held before its
level, has f(c) < lo, so it moves neither lo nor the argmax; its bound
f(c) + rho_c is within lo + target, so it is not split; and the bound is
at most hi, so it does not raise hi.  Such a child is skipped unqueried,
and every bracket keeps its bits.  u carries a relative margin of 1e-12
for the rounding by which the tree's distances and numpy's may differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (ManifoldSpec, Metric, _body, check_number,
                       chord_to_geodesic, dist_to_boundary_many)
from .grids import MIN_RESOLUTION, EvalGrid, refine_nodes
from .sampling import PointCloud


# start cells that seed the lower bound before the whole partition is seen
_SEED_CELLS = 16

# fewest children a level tests for skipping: on smaller batches the test's
# numpy calls, which hold the GIL, cost more than the queries they save
_SKIP_MIN_CHILDREN = 256

# relative margin on a child's distance to its parent's nearest samples,
# for the rounding by which cKDTree's distances and numpy's may differ
_REACH_MARGIN = 1e-12


class CoverageError(ValueError):
    pass


@dataclass(frozen=True)
class ThresholdEstimate:
    """Certified bracket [lo, hi] for a coverage threshold.

    lo is the largest field value found at a point of B (a valid lower
    bound); hi is the largest bound f(p) + rho over a partition of B, so
    hi - lo <= h, the target width.  ``argmax`` is the point attaining lo.
    """

    lo: float
    hi: float
    h: float
    k: int
    metric: Metric
    argmax: tuple

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "h": self.h, "k": self.k,
                "metric": self.metric.value, "argmax": list(self.argmax)}


class KnnField:
    """Evaluates the k-th nearest-neighbor distance at many query points.

    On curved families the tree works in chord (ambient) distance, which
    is monotone in the great-circle distance, so the k-th neighbor is the
    same point; geodesic values are recovered with 2*asin(chord/2).
    ``nearest`` holds the rows of the last call's k nearest samples, an
    (N, k) index array that :meth:`reach` reads.
    """

    def __init__(self, spec: ManifoldSpec, points: np.ndarray, k: int,
                 metric: Metric):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k = check_number(k, "k", integral=True)
        if k < 1:
            raise CoverageError(f"k must be >= 1, got {k}")
        if len(points) < k:
            raise CoverageError(
                f"cloud has {len(points)} points, fewer than k={k}: the "
                "threshold is undefined (empty-ball convention surfaced as "
                "an error)")
        self.spec = spec
        self.k = k
        self.metric = metric
        # Sliding-midpoint splits with 32-point leaves (Maneewongvatana and
        # Mount 1999) build 1.6-2.2x faster than a balanced tree, and build
        # plus query fell on the disk, square and cap loads.  A box cloud
        # fills its bounding box, so on the square and the cube the tree
        # skips node compaction, which would only shrink boxes that are
        # already tight, and is built over a copy sorted by bucket, so that
        # each node's rows sit close in memory: on the square at n=1e5 the
        # build, sort included, fell from about 27 to 16 ms per
        # replication, with the same nodes queried.  The disk, ball and
        # caps leave much of their bounding box empty, and compaction pays
        # there: at n=1e4 the same build was slower on the disk, the ball
        # and the cap.  The k-th distances do not depend on the row order,
        # so every bracket keeps its bits.
        if _body(spec).kind == "box":
            self._points = _bucket_sorted(points)
            self._tree = cKDTree(self._points, balanced_tree=False,
                                 leafsize=32, compact_nodes=False)
        else:
            self._points = points
            self._tree = cKDTree(points, balanced_tree=False, leafsize=32)
        self.nearest = np.empty((0, k), dtype=np.intp)

    def __call__(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        if len(nodes) == 0:
            self.nearest = np.empty((0, self.k), dtype=np.intp)
            return np.empty(0)
        chord, near = self._tree.query(nodes, k=self.k)
        self.nearest = near.reshape(len(nodes), self.k)
        chord = chord[:, -1] if self.k > 1 else np.ravel(chord)
        return self._metric(chord)

    def _metric(self, chord: np.ndarray) -> np.ndarray:
        if self.spec.curved and self.metric is Metric.GEODESIC:
            return chord_to_geodesic(chord)
        return chord

    def reach(self, nodes: np.ndarray, near: np.ndarray) -> np.ndarray:
        """Largest distance from each node to its row of samples ``near``
        (rows as in ``nearest``), an upper bound on the field there.  The
        chord is raised by ``_REACH_MARGIN`` before it is turned geodesic,
        so the bound holds against the tree's own rounding.
        """
        far = np.zeros(len(nodes))
        for col in near.T:
            diff = self._points.take(col, axis=0)
            diff -= nodes
            np.maximum(far, np.einsum("ij,ij->i", diff, diff), out=far)
        np.sqrt(far, out=far)
        far *= 1.0 + _REACH_MARGIN
        return self._metric(far)


def _bucket_sorted(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` ordered by one uint16 key: ``16 // m`` bits
    per axis, each axis cut into equal buckets over its own min..max, the
    first axis most significant.  ``argsort(kind="stable")`` runs as a
    radix sort on uint16.  The columns are reduced one by one: at n=1e5,
    the max of both takes 0.23 ms, against 3.4 ms for ``amax(axis=0)`` on
    the rows.  The buckets are computed in place, without a fresh
    temporary per step.
    """
    bits = 16 // points.shape[1]
    key = np.zeros(len(points), dtype=np.uint16)
    for col in points.T:
        lo = col.min()
        span = col.max() - lo
        key <<= bits
        if 0.0 < span < math.inf:  # else one bucket; cKDTree refuses NaN
            bucket = col - lo
            bucket /= span
            bucket *= 1 << bits
            np.minimum(bucket, (1 << bits) - 1, out=bucket)
            key |= bucket.astype(np.uint16)
    return points.take(np.argsort(key, kind="stable"), axis=0)


def _certified_max(knn: KnnField, grid: EvalGrid, refine_to: float | None,
                   deep: bool = False) -> ThresholdEstimate:
    """Certified bracket for the max over B of the k-NN field ``knn``, or
    of min(knn, depth) when ``deep``; both are 1-Lipschitz.

    The target width is ``refine_to`` or, without it, ``grid.h`` (then no
    cell is split).  The field is evaluated once on the cells of ``grid``;
    the branch and bound then runs twice.  The first run explores only the
    ``_SEED_CELLS`` cells of largest value, and keeps its best value and
    argmax: a field value at a point of B, so a lower bound that sits near
    the final max before the whole partition is seen.  The second run
    starts from that value on the whole partition, reusing its values, so
    it sets aside most start cells at once.  Its bracket [best, max bound
    over the cells set aside] has width <= the target.
    """
    if refine_to is not None and not math.isfinite(refine_to):
        raise CoverageError(f"target width {refine_to} is not a finite "
                            "number")
    target = grid.h if refine_to is None else min(refine_to, grid.h)
    if target <= MIN_RESOLUTION:
        raise CoverageError(f"target width {target} is below the supported "
                            "resolution")
    vals, near = _evaluate(knn, grid.nodes, deep)
    seed = _top_cells(vals, _SEED_CELLS)
    lo, _, arg = _branch_and_bound(knn, deep, grid.take(seed), vals[seed],
                                   near[seed], target)
    lo, hi, arg = _branch_and_bound(knn, deep, grid, vals, near, target, lo,
                                    arg)
    return ThresholdEstimate(lo=lo, hi=max(hi, lo), h=target, k=knn.k,
                             metric=knn.metric,
                             argmax=tuple(float(v) for v in arg))


def _evaluate(knn: KnnField, nodes: np.ndarray, deep: bool):
    """(field values, rows of the k nearest samples) at ``nodes``."""
    vals = knn(nodes)
    if deep:
        vals = np.minimum(vals, dist_to_boundary_many(knn.spec, nodes))
    return vals, knn.nearest


def _top_cells(vals: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest values, ties to the lowest index,
    in increasing order, so the first argmax is among them and stays the
    first.  This is ``np.sort(np.argsort(-vals, kind="stable")[:count])``
    without sorting all of ``vals``.
    """
    if len(vals) <= count:
        return np.arange(len(vals))
    kth = -np.partition(-vals, count - 1)[count - 1]  # count-th largest
    above = np.flatnonzero(vals > kth)
    tied = np.flatnonzero(vals == kth)[:count - len(above)]
    return np.sort(np.concatenate([above, tied]))


def _branch_and_bound(knn: KnnField, deep: bool, cells: EvalGrid,
                      vals: np.ndarray, near: np.ndarray, target: float,
                      lo: float = -np.inf, arg=None):
    """(lo, hi, argmax) of the branch and bound over ``cells``.

    ``vals`` are the field values at the cells' representatives, ``near``
    the rows of their k nearest samples, and ``lo`` (attained at ``arg``)
    is a field value already found in B.  Each level splits only the cells
    whose bound f(p) + rho exceeds the best value so far plus ``target``,
    and evaluates their children in one batch; hi is the largest bound set
    aside.  A batch of ``_SKIP_MIN_CHILDREN`` children or more first drops
    each child c whose distance u(c) to its parent's k nearest samples
    proves it set aside: u(c) < lo and u(c) + rho_c <= min(lo + target,
    hi).  Since f(c) <= u(c), such a child would change neither lo, the
    argmax nor hi, and would not be split (see the module docstring).
    """
    hi = -np.inf
    while len(cells):
        best = int(np.argmax(vals))
        if vals[best] > lo:
            lo, arg = float(vals[best]), cells.nodes[best]
        bound = vals + cells.rad
        split = bound > lo + target
        hi = max(hi, float(bound.max(where=~split, initial=-np.inf)))
        if not split.any():
            break
        near = near[split]
        cells = refine_nodes(centers=cells.take(split))
        if len(cells) >= _SKIP_MIN_CHILDREN:
            u = knn.reach(cells.nodes, near.take(cells.parent, axis=0))
            skip = u < lo
            skip &= u + cells.rad <= min(lo + target, hi)
            cells = cells.take(~skip)
        vals, near = _evaluate(knn, cells.nodes, deep)
    return lo, hi, arg


def _knn_field(cloud: PointCloud, grid: EvalGrid, k: int,
               metric: Metric) -> KnnField:
    """The cloud's k-NN field on the grid's shape, which must be the
    shape the cloud was drawn on."""
    if cloud.spec != grid.spec:
        raise CoverageError(f"the cloud is on {cloud.spec.to_json()} but "
                            f"the grid is on {grid.spec.to_json()}")
    return KnnField(grid.spec, cloud.points, k, metric)


def coverage_threshold(cloud: PointCloud, grid: EvalGrid, k: int,
                       metric: Metric, refine_to: float | None = None
                       ) -> ThresholdEstimate:
    """Certified bracket for the k-coverage threshold of B.

    The threshold is the max over B of the k-NN distance field; the bracket
    is narrowed to a width of ``refine_to`` when it is given, and is at
    most ``grid.h`` wide otherwise.  The cloud must lie on the grid's
    shape.
    """
    return _certified_max(_knn_field(cloud, grid, k, metric), grid,
                          refine_to)


def interior_threshold(cloud: PointCloud, grid: EvalGrid, k: int,
                       metric: Metric, refine_to: float | None = None
                       ) -> ThresholdEstimate:
    """Certified bracket for the interior coverage threshold of B.

    This is the smallest r such that every point of B farther than r from
    the boundary has k sample points within r.  Some point violates that
    at r exactly when min(f(x), depth(x)) > r, where f is the k-NN
    distance field, so the threshold is the max over B of min(f, depth).
    Both terms are 1-Lipschitz, so the branch and bound of
    :func:`coverage_threshold` carries over unchanged.  The depth is taken
    on the grid's shape, which must be the cloud's; on a boundaryless shape
    it is infinite and the result equals the plain coverage threshold.
    """
    return _certified_max(_knn_field(cloud, grid, k, metric), grid,
                          refine_to, deep=True)
