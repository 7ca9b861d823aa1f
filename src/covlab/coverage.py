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
is at most the target wide.  A first search finishes the start cells of
largest value alone, so the rest of the start partition is weighed
against a value close to the max, and most of its cells are set aside at
once.

Every batch of cells, the start partition and each level alike, is
evaluated in two passes.  The first pass answers the cells it can answer
cheaply and leaves the others inf; the second asks the tree, without a
bound, for every row the first left inf.  Every finite first answer is
the tree's own value, bit for bit, so every value is exact and lo, hi
and the argmax keep their bits: the first pass decides only which rows
the tree is asked for.  The rows of the k nearest samples can differ
from the tree's only among samples at equal distance; they feed only the
bound u(c) of the skip below, which holds for any k distinct samples.

The first pass over a start partition reads the cloud binned into its
cells (Bentley, Weide and Yao 1980).  The grid's bins put every sample
in at most one cell, and every sample that they do not put in cell c
lies at least c's certified radius R from c's representative p (see
grids).  So every sample within R of p is in c's bin, and when the k-th
smallest chord c_k from p to the samples in the bin is below R, the k
nearest samples of p all lie in the bin and c_k is the k-th neighbour
chord.  It is computed as cKDTree computes it, ``sqrt(dx*dx + dy*dy (+
dz*dz))`` summed in that order, so it has the tree's bits.

The first pass over any other batch asks the tree only as far as the
bracket can use it (the bounds-overlap-ball test of Friedman, Bentley and
Finkel 1977).  A child c whose value is at most B = lo + target - rho,
for the largest cover radius rho among the batch's children, is set
aside as soon as it is evaluated, since f(c) + rho_c <= lo + target and
lo only rises.  So a batch of ``_SKIP_MIN_CHILDREN`` nodes or more, when
B > 0, is searched with B as the tree's search radius (the chord 2
sin(B/2), B capped at pi, on a geodesic field): the search stops early
where the k-th neighbour lies beyond the radius, and that node comes
back inf.  A finite bounded answer is the k-th neighbour chord, computed
as the unbounded search computes it (the same squares summed in the same
order).  A smaller batch is searched without a bound and leaves no row
open.  Both passes turn chords into field values the same way.

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

The seed cells' subtrees are searched once, by the first run.  The
second run holds the rest of the start partition, the seed cells' values
set to -inf, and starts from the first run's lo, hi and argmax.  A cell
that the first run set aside stays set aside, since lo only rises, and
its bound stays in hi.  lo and the argmax have the bits that a second run
over the whole partition, splitting the seed cells again, would give.
That run holds, at each level of the seed subtrees, a subset of what the
first run held, since it splits with a lo at least the first run's final
one: so each value it meets there is one the first run met, or that of a
child the first run skipped (below lo), and none exceeds lo.  The other
cells are split by lo alone, in the same order, and neither the skip nor
the bounded query above moves lo or the argmax.  Only hi can differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (ManifoldSpec, Metric, as_points, check_enum,
                       check_number, chord_to_geodesic,
                       dist_to_boundary_many, is_number)
from .grids import MIN_RESOLUTION, NODE_CAP, EvalGrid, refine_nodes
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
        points = as_points(points)
        k = check_number(k, "k", integral=True)
        metric = check_enum(metric, Metric, "metric")
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
        if spec.body.kind == "box":
            self._points = _bucket_sorted(points)
            self._tree = cKDTree(self._points, balanced_tree=False,
                                 leafsize=32, compact_nodes=False)
        else:
            self._points = points
            self._tree = cKDTree(points, balanced_tree=False, leafsize=32)
        self._geodesic = spec.curved and metric is Metric.GEODESIC
        self.nearest = np.empty((0, k), dtype=np.intp)

    def __call__(self, nodes: np.ndarray, bound: float = math.inf
                 ) -> np.ndarray:
        """The field at ``nodes``, or inf where it is not below ``bound``.

        A finite bound is handed to the tree as its search radius (as a
        chord, 2 sin(bound/2) with the bound capped at pi, on a geodesic
        field), so the search stops early where the k-th neighbour lies
        beyond it; such a row comes back inf, with row N in ``nearest``.
        Every finite value is the unbounded one, bit for bit.
        """
        radius = bound
        if self._geodesic and bound < math.inf:
            radius = 2.0 * math.sin(0.5 * min(bound, math.pi))
        chord, near = self._tree.query(as_points(nodes), k=self.k,
                                       distance_upper_bound=radius)
        if self.k == 1:  # the tree gives (N,) arrays for k=1
            self.nearest = near[:, None]
        else:
            self.nearest, chord = near, chord[:, -1]
        return self._field(chord)

    def _field(self, chord: np.ndarray) -> np.ndarray:
        """The field at the k-th neighbour ``chord``, inf kept as inf."""
        if not self._geodesic:
            return chord
        vals = chord_to_geodesic(chord)
        vals[chord == np.inf] = np.inf
        return vals

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
        return chord_to_geodesic(far) if self._geodesic else far

    def _binned(self, grid: EvalGrid):
        """(the field at each cell's representative from the samples in
        its bin, where the bin certifies it, else inf; (N, k) rows of those
        k samples), in one pass over the tree's own points (see the module
        docstring)."""
        size, k, bins = len(grid), self.k, grid.bins
        near = np.zeros((size, k), np.intp)
        if bins is None:
            return np.full(size, np.inf), near
        cell = bins.locate(self._points)  # row N: in no cell
        sq = np.zeros(len(cell))
        for rep, col in zip(grid.nodes.T, self._points.T):
            gap = rep.take(cell, mode="clip")
            gap -= col
            gap *= gap
            sq += gap  # cKDTree's order: ((0 + dx^2) + dy^2) + dz^2
        kth = np.empty(size + 1)
        for j in range(k):  # the j-th smallest chord in every cell
            kth.fill(np.inf)
            np.minimum.at(kth, cell, sq)
            hit = (sq == kth.take(cell)).nonzero()[0]
            pick = np.zeros(size + 1, np.intp)
            pick[cell.take(hit)] = hit  # one of them where chords tie
            near[:, j] = pick[:size]
            if j < k - 1:
                sq[pick.take(cell.take(hit))] = np.inf
        chord = np.where(kth[:size] < bins.reach2[:size], kth[:size], np.inf)
        return self._field(np.sqrt(chord, out=chord)), near


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
    the branch and bound then runs twice.  The first run finishes the
    ``_SEED_CELLS`` cells of largest value alone: its best value, a field
    value at a point of B, is a lower bound that sits near the final max
    before the whole partition is seen.  The second run starts from that
    value, the first run's hi and argmax, on the rest of the partition,
    reusing its values, so it sets aside most start cells at once (see the
    module docstring).  Its bracket [best, max bound over the cells set
    aside] has width <= the target.
    """
    if refine_to is not None and not is_number(refine_to):
        raise CoverageError(f"target width {refine_to} is not a finite "
                            "number")
    target = grid.h if refine_to is None else min(refine_to, grid.h)
    if target <= MIN_RESOLUTION:
        raise CoverageError(f"target width {target} is below the supported "
                            "resolution")
    vals, near = _evaluate(knn, grid, deep)
    seed = _top_cells(vals, _SEED_CELLS)
    lo, hi, arg = _branch_and_bound(knn, deep, target, grid.take(seed),
                                    vals[seed], near[seed])
    vals[seed] = -np.inf  # finished: their bounds are in hi
    lo, hi, arg = _branch_and_bound(knn, deep, target, grid, vals, near, lo,
                                    hi, arg)
    return ThresholdEstimate(lo=lo, hi=max(hi, lo), h=target, k=knn.k,
                             metric=knn.metric,
                             argmax=tuple(float(v) for v in arg))


def _evaluate(knn: KnnField, cells: EvalGrid, deep: bool,
              bound: float = math.inf):
    """(field values, rows of the k nearest samples) at the
    representatives of ``cells``.  A start partition is answered first by
    its bins, any other batch by the tree within ``bound``; the tree then
    answers, without a bound, every row left inf, so every value is exact
    (see the module docstring)."""
    nodes = cells.nodes
    if cells.bins is not None:
        vals, near = knn._binned(cells)
    else:
        vals, near = knn(nodes, bound), knn.nearest
    rows = (vals == np.inf).nonzero()[0]
    if rows.size:
        vals[rows] = knn(nodes.take(rows, axis=0))
        near[rows] = knn.nearest
    if deep:
        np.minimum(vals, dist_to_boundary_many(knn.spec, nodes), out=vals)
    return vals, near


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


def _branch_and_bound(knn: KnnField, deep: bool, target: float,
                      cells: EvalGrid, vals: np.ndarray, near: np.ndarray,
                      lo: float = -np.inf, hi: float = -np.inf, arg=None):
    """(lo, hi, argmax) of the branch and bound over ``cells``.

    ``vals`` are the field values at the cells' representatives, ``near``
    the rows of their k nearest samples, ``lo`` (attained at ``arg``) is a
    field value already found in B, and ``hi`` the largest bound of the
    cells already set aside.  Each level splits only the cells whose bound
    f(p) + rho exceeds the best value so far plus ``target``, and
    evaluates their children in one batch; hi is the largest bound set
    aside.  A batch of ``_SKIP_MIN_CHILDREN`` children or more first drops
    each child c whose distance u(c) to its parent's k nearest samples
    proves it set aside: u(c) < lo and u(c) + rho_c <= min(lo + target,
    hi).  Since f(c) <= u(c), such a child would change neither lo, the
    argmax nor hi, and would not be split (see the module docstring).  A
    batch of that many nodes or more is queried within lo + target - rho
    first, and again without a bound where that leaves a value open.
    Raises :class:`CoverageError` when a level would make more than
    ``NODE_CAP`` children.
    """
    while True:
        best = vals.argmax()
        if vals[best] > lo:
            lo, arg = float(vals[best]), cells.nodes[best]
        bound = vals + cells.rad
        split = bound > lo + target
        hi = float(np.maximum.reduce(bound, initial=hi, where=~split))
        split = split.nonzero()[0]
        if not split.size:
            break
        count = split.size * 2 ** cells.domain.body.d
        if count > NODE_CAP:
            raise CoverageError(
                f"a target width of {target} needs a level of {count} "
                f"cells, above the cap of {NODE_CAP}; widen the target")
        cells = refine_nodes(centers=cells.take(split))
        if len(cells) >= _SKIP_MIN_CHILDREN:
            u = knn.reach(cells.nodes, near.take(split[cells.parent], axis=0))
            skip = u < lo
            skip &= u + cells.rad <= min(lo + target, hi)
            cells = cells.take(~skip)
        if not len(cells):  # every child skipped
            break
        # a child whose value is at most lo + target - rho is set aside: a
        # big batch asks the tree only that far first (see the module
        # docstring)
        within = math.inf
        if len(cells) >= _SKIP_MIN_CHILDREN:
            within = lo + target - float(cells.rad.max())
        vals, near = _evaluate(knn, cells, deep,
                               within if within > 0.0 else math.inf)
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
