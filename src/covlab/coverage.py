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
is at most the target wide.  A seed pass over the start cells of largest
value first raises the best value close to the max, so the rest of the
start partition is weighed against it, and most of its cells are set
aside at once.

Every batch of cells, the start partition and each level alike, is
evaluated in two passes.  The first pass answers the cells it can answer
cheaply and leaves the others inf; the second asks the field, without a
bound, for every row the first left inf.  Every finite answer is the
tree's own value, bit for bit, so every value is exact and lo, hi and
the argmax keep their bits: the passes decide only which rows the tree
is asked for.  The rows of the k nearest samples can differ
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

On every 2-D start partition (the square, the disk, the cap and the
sphere, whole or an interior body), the field can answer every node it
is asked from blocks of start cells, and ask the tree only for the rows
that no block certifies (on the rings when asked; see below).  The
cloud is sorted by start cell once, so a run of consecutive cells is one
run of samples.  The partition's chart lays out the block about a node q
at w, (2w + 1)^2 cells on a lattice and the cells of 2w + 1 rings that
meet a wedge about q on the rings, as runs of consecutive cells, and
certifies its radius R: every sample outside the block lies at least R
from q (see grids).  As in a bin, a k-th smallest chord below R is the
k-th neighbour chord, summed as the tree sums it.

The start spacing is about the threshold's scale, so the k-th neighbour
of a node that the branch and bound asks lies within about one spacing:
w = 1 answers almost every node, and w = 2 the rows it leaves open (per
replication, 48 of 943 nodes and then none on the disk at n = 1e4, k =
1; 134 of 3,051 and then none on the cap of polar radius 1 at n = 1e4,
k = 2).  A node's gather grows with its block and a tree query does not, so
the blocks serve a start partition whose mean 9 cells hold at most
``_BLOCK_MEAN`` samples (the harness's planned spacing puts 25 to 40
there for n = 1e4 to 1e6), and a block of more than ``_BLOCK_MOST``
samples is left to the tree.  The tree is built on the first row that no
block answers, and scipy is imported there: 80 replications of the
square at n = 1e5 built none, nor did 300 on the disk at n = 1e4.  In
3-D the blocks lost to the tree: their 27 and 125 cells gather far more
samples per node than the tree visits, and a replication on the cube at
n = 1e5 took longer, so the blocks serve d = 2 only.

On the rings the blocks save the import of scipy, most of a short run's
start-up (0.36 -> 0.11 s for one replication on the disk at n = 1e4),
but not the tree's time once scipy is loaded.  A level of the branch and
bound is a few dozen nodes, and a block pass over them is some 60 small
numpy calls that hold the GIL, where a tree search releases it: at the
planned spacing and two threads a replication took 8.4 against 4.9 ms
on the disk at n = 1e4, and 22 against 7.3 ms on the cap at k = 2.  So a
field on rings answers from blocks only when its caller sets
``ring_blocks``, and builds its tree at once otherwise, as it did before
the blocks.  The harness sets it in a run of one replication per size
(``harness._RING_BLOCK_REPS``), where the import is most of the run, and
the ``cover`` command for its one bracket.

The first pass over any other batch asks the field only as far as the
bracket can use it (the bounds-overlap-ball test of Friedman, Bentley
and Finkel 1977).  A child c whose value is at most B = lo + w - rho,
for the largest cover radius rho among the batch's children and the
width w that the run splits at (below), is set aside as soon as it is
evaluated, since f(c) + rho_c <= lo + w and lo only rises.  So a batch
of ``_SKIP_MIN_CHILDREN`` nodes or more, when B > 0, is searched with B
as the tree's search radius where no block answers it (the chord 2
sin(B/2), B capped at pi, on a geodesic field): the search stops early
where the k-th neighbour lies beyond the radius, and that node comes
back inf.  A finite bounded answer is the k-th neighbour chord, computed
as the unbounded search computes it (the same squares summed in the same
order).  A smaller batch is searched without a bound and leaves no row
open.  Both passes turn chords into field values the same way.

Most children of a split cell are set aside as soon as they are
evaluated, and their parent's k nearest samples already prove it before
they are queried.  Those k samples are k distinct points of the cloud,
so the k-th neighbour distance f(c) at a child c is at most u(c), the
largest distance from c to them (chord, then geodesic where the field
is; the interior field min(f, depth) is below f too).  A child with u(c)
< lo and u(c) + rho_c <= min(lo + target, hi), for the lo and hi held
before its level, has f(c) < lo, so it moves neither lo nor the argmax;
its bound f(c) + rho_c is within lo + target, so it is not split; and
the bound is at most hi, so it does not raise hi.  Such a child is
skipped unqueried in the finishing run (below), and every bracket keeps
its bits.  u carries a relative margin of 1e-12 for the rounding by
which the tree's distances and numpy's may differ.

The branch and bound runs twice, and only the second run, the finishing
run, sets hi.  The seed pass holds the ``_SEED_CELLS`` start cells of
largest value and splits a cell only while its bound exceeds lo by
``_SEED_WIDTH`` target widths, w = 16 target.  It skips no child, so the
cells it sets aside, which it returns with their values and rows of
nearest samples, partition the seed cells; and its lo is the largest
value it met, so none of them holds a value above lo.  The finishing run
starts from that lo and argmax, with no hi, and splits at w = target.
It holds the rest of the start partition, the seed cells' values set to
-inf so that they are set aside with no bound, and weighs the returned
cells with it at its first level.  So every cell that it sets aside or
skips belongs to one partition of B: the start cells other than the
seeds, the returned cells, and their descendants.  hi is the largest
bound over the cells of that partition that it set aside, and a skipped
child's bound is at most the hi held before its level, so hi bounds the
field on B; every cell set aside has a bound within lo + target, so hi -
lo <= target.  The seed pass only raises lo: it leaves the seed cells'
subtrees near their final split to the finishing run, which splits them
against its own lo, near the max, and so in fewer levels than a search
that finished them against the seed pass's lower lo.  At the benchmark's
seed 11, the batches evaluated per replication, start partition
included, fell 15.2 -> 12.0 on the cap of polar radius 1 at k = 2, 12.0
-> 9.6 on the disk and 12.7 -> 10.0 on the square, with the nodes
evaluated within 1.3%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ManifoldSpec, Metric, as_points, check_enum,
                       check_number, chord_to_geodesic,
                       dist_to_boundary_many, is_number)
from .grids import MIN_RESOLUTION, NODE_CAP, Bins, EvalGrid, refine_nodes
from .sampling import PointCloud


# start cells that seed the lower bound before the whole partition is seen
_SEED_CELLS = 16

# the seed pass splits a cell only while its bound exceeds its best value
# by this many target widths: it only raises lo, and leaves the seed cells'
# subtrees near their final split to the finishing run
_SEED_WIDTH = 16

# fewest children a level tests for skipping: on smaller batches the test's
# numpy calls, which hold the GIL, cost more than the queries they save
_SKIP_MIN_CHILDREN = 256

# relative margin on a child's distance to its parent's nearest samples,
# for the rounding by which cKDTree's distances and numpy's may differ
_REACH_MARGIN = 1e-12

# most samples that 9 start cells, about a block at w = 1, may hold on the
# mean for the field to answer from blocks: a node's gather grows with its
# block, a tree query does not.  Square, one thread, planned target width:
# a mean block of 48 samples won at n=1e5 and 1e6, one of 64 lost at
# n=1e5.  On the rings, which take blocks only to skip scipy's import in a
# one-replication run, a replication at n=1e4 cost this much more than the
# tree, scipy loaded (one thread, disk weak k=1 / cap interior k=2): 1.7 /
# 2.9 ms at a mean of 25 (the planned spacing), 3.9 / 4.8 ms at 48 and
# 4.6 / 9.2 ms at 63, against 0.3 s or more for the import
_BLOCK_MEAN = 48

# most samples one block may hold; a node whose block holds more (a
# cluster) is left to the tree
_BLOCK_MOST = 256

# most (cell, neighbour) rows that the start partition or a level of the
# branch and bound may hold: each keeps the rows of its cells' k nearest
# samples, an (N, k) index array of 128 MB at this budget, and a level
# bounds its children from a second one
ROW_CAP = 16_000_000

# most nodes gathered in one block pass, so that a pass holds at most
# _BLOCK_NODES * _BLOCK_MOST samples, 4 MB an array
_BLOCK_NODES = 2048


def cKDTree(points: np.ndarray, **options):
    """scipy's k-d tree over ``points``.  scipy is imported at the first
    build: importing it is most of covlab's start-up, and a run whose
    nodes the blocks all answer never needs it."""
    from scipy.spatial import cKDTree as tree
    return tree(points, **options)


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
    (N, k) index array that :meth:`reach` reads.  Given the ``bins`` of a
    2-D start partition, the field answers each node from the blocks of
    start cells around it first: on a lattice always, on rings when
    ``ring_blocks`` is set (see the module docstring).  The tree is built
    on the first node that no block answers.
    """

    def __init__(self, spec: ManifoldSpec, points: np.ndarray, k: int,
                 metric: Metric, bins: Bins | None = None,
                 ring_blocks: bool = False):
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
        # already tight, and is built over a copy sorted by bucket (with
        # blocks, by start cell), so that each node's rows sit close in
        # memory: on the square at n=1e5 the build, sort included, fell
        # from about 27 to 16 ms per replication, with the same nodes
        # queried.  The disk, ball and caps leave much of their
        # bounding box empty, and compaction pays there: at n=1e4 the same
        # build was slower on the disk, the ball and the cap.  The k-th
        # distances do not depend on the row order, so every bracket keeps
        # its bits.
        self._box = spec.body.kind == "box"
        self._bins = None
        if (bins is not None and bins.chart.body.d == 2
                and 9 * len(points) <= _BLOCK_MEAN * (len(bins.reach2) - 1)
                and (ring_blocks or not bins.chart.tree_first)):
            self._bins = bins
            self._cell, self._start, self._points = _cell_sorted(bins,
                                                                 points)
            self._cols = tuple(np.ascontiguousarray(self._points.T))
        elif self._box:
            self._points = _bucket_sorted(points)
        else:
            self._points = points
        self._tree = self._build() if self._bins is None else None
        self._geodesic = spec.curved and metric is Metric.GEODESIC
        self.nearest = np.empty((0, k), dtype=np.intp)

    def __call__(self, nodes: np.ndarray, bound: float = math.inf,
                 blocks: bool = True) -> np.ndarray:
        """The field at ``nodes``, or inf at some rows where it is not
        below ``bound``.

        The blocks of start cells answer first, where the field has them
        and ``blocks`` is true (false for nodes that they already left
        open).  The tree answers the other rows, with a finite bound as its
        search radius (as a chord, 2 sin(bound/2) with the bound capped at
        pi, on a geodesic field), so the search stops early where the k-th
        neighbour lies beyond it; such a row comes back inf, with row N in
        ``nearest``.  Every finite value is the unbounded one, bit for bit.
        """
        nodes = as_points(nodes)
        radius = bound
        if self._geodesic and bound < math.inf:
            radius = 2.0 * math.sin(0.5 * min(bound, math.pi))
        if self._bins is None or not blocks:
            chord, near = self._ask(nodes, radius)
        else:
            chord, near = self._blocks(nodes)
            rows = (chord == np.inf).nonzero()[0]
            if rows.size:
                chord[rows], near[rows] = self._ask(
                    nodes.take(rows, axis=0), radius)
        self.nearest = near
        return self._field(chord)

    def _ask(self, nodes: np.ndarray, radius: float):
        """(k-th neighbour chords within ``radius``, else inf; (N, k) rows)
        from the tree, built on the first ask where blocks answer first."""
        if self._tree is None:
            self._tree = self._build()
        chord, near = self._tree.query(nodes, k=self.k,
                                       distance_upper_bound=radius)
        if self.k == 1:  # the tree gives (N,) arrays for k=1
            return chord, near[:, None]
        return chord[:, -1], near

    def _build(self):
        return cKDTree(self._points, balanced_tree=False, leafsize=32,
                       compact_nodes=not self._box)

    def _blocks(self, nodes: np.ndarray):
        """(k-th neighbour chords where the block of start cells about the
        node certifies it, w = 1 and then 2, else inf; (N, k) rows, N where
        open)."""
        chord = np.full(len(nodes), np.inf)
        near = np.full((len(nodes), self.k), len(self._points), np.intp)
        open_ = np.arange(len(nodes))
        for w in (1, 2):
            for first in range(0, len(open_), _BLOCK_NODES):
                rows = open_[first:first + _BLOCK_NODES]
                chord[rows], near[rows] = self._block(
                    nodes.take(rows, axis=0), w)
            open_ = open_[chord.take(open_) == np.inf]
            if not open_.size:
                break
        return chord, near

    def _block(self, q: np.ndarray, w: int):
        """``_blocks`` at one w, on at most ``_BLOCK_NODES`` nodes."""
        k = self.k
        chord = np.full(len(q), np.inf)
        near = np.full((len(q), k), len(self._points), np.intp)
        reach, first, end = self._bins.runs(q, w)
        begin = self._start.take(first)
        size = self._start.take(end) - begin
        count = size.sum(axis=1)
        rows = ((count >= k) & (count <= _BLOCK_MOST) & (reach > 0.0)
                ).nonzero()[0]
        if not rows.size:
            return chord, near
        begin, size, count = (begin.take(rows, 0), size.take(rows, 0),
                              count.take(rows))
        runs = size.ravel()
        total = int(count.sum())
        # sample row of every (node, sample) pair, node by node
        shift = begin.ravel()
        shift -= np.cumsum(runs) - runs
        pick = np.repeat(shift, runs)
        pick += np.arange(total)
        sq = None
        for col, at in zip(self._cols, q.take(rows, axis=0).T):
            gap = col.take(pick)
            gap -= np.repeat(at, count)
            gap *= gap
            if sq is None:
                sq = gap
            else:
                sq += gap  # cKDTree's order: (0 + dx^2) + dy^2
        seg = np.cumsum(count) - count
        picked = np.empty((len(rows), k), np.intp)
        for j in range(k):  # the j-th smallest chord in every block
            kth = np.minimum.reduceat(sq, seg)
            hit = (sq == np.repeat(kth, count)).nonzero()[0]
            if len(hit) > len(rows):  # keep the first in each block
                tie = seg.searchsorted(hit, "right")
                hit = hit[np.diff(tie, prepend=0) > 0]
            picked[:, j] = pick.take(hit)
            if j < k - 1:
                sq[hit] = np.inf
        reach = reach.take(rows)
        sure = kth < reach * reach
        chord[rows[sure]] = np.sqrt(kth[sure])
        near[rows[sure]] = picked[sure]
        return chord, near

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
        # the cells the cloud was sorted by, or row N: in no cell
        cell = self._cell if bins is self._bins else bins.locate(self._points)
        sq = np.zeros(len(cell))
        for rep, col in zip(grid.nodes.T, self._points.T):
            gap = rep.take(cell, mode="clip")
            gap -= col
            gap *= gap
            sq += gap  # cKDTree's order: ((0 + dx^2) + dy^2) + dz^2
        kth = np.empty(size + 1)
        for j in range(k):  # the j-th smallest chord in every cell
            # a scatter, even over a cloud sorted by cell: at n = 1e6 on
            # the square np.minimum.at took 2.6 ms, a reduceat over the
            # 279k cell runs 13 ms
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


def _cell_sorted(bins: Bins, points: np.ndarray):
    """((n,) start cell of each sorted row, (cells + 2,) first sorted row
    of each cell and of an empty cell N, then n, the rows of ``points``
    ordered by cell), for bins that put every point in a cell."""
    cell = bins.locate(points)
    cells = len(bins.reach2) - 1
    # numpy sorts 16-bit keys by radix; its stable sort of wider keys is a
    # merge sort, about 5x slower than a quicksort at n = 1e6
    if cells <= 1 << 16:
        order = np.argsort(cell.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(cell.astype(np.int32))
    count = np.bincount(cell, minlength=cells + 1)
    start = np.zeros(cells + 2, np.intp)
    np.cumsum(count, out=start[1:])
    return (np.repeat(np.arange(cells + 1), count), start,
            points.take(order, axis=0))


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
    the branch and bound then runs twice.  The seed pass splits the
    ``_SEED_CELLS`` cells of largest value, and their children, only while
    a bound exceeds its best value by ``_SEED_WIDTH`` target widths: that
    value, a field value at a point of B, is a lower bound near the final
    max before the whole partition is seen.  The finishing run starts from
    it and its argmax on the rest of the partition, reusing its values,
    and takes in the cells that the seed pass set aside, so it sets aside
    most start cells at once (see the module docstring).  Its bracket
    [best, max bound over the cells set aside] has width <= the target.
    Raises :class:`CoverageError` when the start partition holds more than
    ``ROW_CAP`` rows of k nearest samples.
    """
    if refine_to is not None and not is_number(refine_to):
        raise CoverageError(f"target width {refine_to} is not a finite "
                            "number")
    target = grid.h if refine_to is None else min(refine_to, grid.h)
    if target <= MIN_RESOLUTION:
        raise CoverageError(f"target width {target} is below the supported "
                            "resolution")
    if len(grid) * knn.k > ROW_CAP:
        raise CoverageError(
            f"a start partition of {len(grid)} cells of k = {knn.k} nearest "
            f"samples needs {len(grid) * knn.k} rows, above the budget of "
            f"{ROW_CAP}; coarsen h")
    vals, near = _evaluate(knn, grid, deep)
    seed = _top_cells(vals, _SEED_CELLS)
    aside = []
    lo, _, arg = _branch_and_bound(
        knn, deep, target, [(grid.take(seed), vals[seed], near[seed])],
        aside=aside)
    vals[seed] = -np.inf  # the cells that the seed pass set aside stand in
    lo, hi, arg = _branch_and_bound(
        knn, deep, target, [(grid, vals, near), _joined(aside)], lo, arg)
    return ThresholdEstimate(lo=lo, hi=max(hi, lo), h=target, k=knn.k,
                             metric=knn.metric,
                             argmax=tuple(float(v) for v in arg))


def _evaluate(knn: KnnField, cells: EvalGrid, deep: bool,
              bound: float = math.inf):
    """(field values, rows of the k nearest samples) at the
    representatives of ``cells``.  A start partition is answered first by
    its bins, any other batch by the field within ``bound``; the field then
    answers, without a bound, every row left inf, from the tree alone where
    its blocks already left the row open, so every value is exact (see the
    module docstring)."""
    nodes = cells.nodes
    if cells.bins is not None:
        vals, near = knn._binned(cells)
    else:
        vals, near = knn(nodes, bound), knn.nearest
    rows = (vals == np.inf).nonzero()[0]
    if rows.size:  # a row that the field left open, its blocks did too
        vals[rows] = knn(nodes.take(rows, axis=0),
                         blocks=cells.bins is not None)
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


def _joined(batches: list) -> tuple:
    """Several batches, each cells and then arrays with a row per cell, as
    one batch, in order; cells joined from two batches or more have no
    parents."""
    if len(batches) == 1:
        return batches[0]
    grids, *arrays = zip(*batches)
    first = grids[0]
    cells = EvalGrid(first.spec, first.domain,
                     np.concatenate([g.nodes for g in grids]),
                     max(g.h for g in grids),
                     np.concatenate([g.box for g in grids], axis=1),
                     np.concatenate([g.rad for g in grids]))
    return (cells, *(np.concatenate(a) for a in arrays))


def _branch_and_bound(knn: KnnField, deep: bool, target: float,
                      batches: list, lo: float = -np.inf, arg=None,
                      aside: list | None = None):
    """(lo, hi, argmax) of the branch and bound over the cells of
    ``batches``.

    Each batch holds cells, the field values at their representatives and
    the rows of their k nearest samples; ``lo`` (attained at ``arg``) is a
    field value already found in B.  Each level splits only the cells
    whose bound f(p) + rho exceeds the best value so far plus ``target``,
    and evaluates their children in one batch; hi is the largest bound set
    aside.  A batch of ``_SKIP_MIN_CHILDREN`` children or more first drops
    each child c whose distance u(c) to its parent's k nearest samples
    proves it set aside: u(c) < lo and u(c) + rho_c <= min(lo + target,
    hi).  Since f(c) <= u(c), such a child would change neither lo, the
    argmax nor hi, and would not be split (see the module docstring).  A
    batch of that many nodes or more is queried within lo + target - rho
    first, and again without a bound where that leaves a value open.

    The seed pass passes a list ``aside``: a cell is then split only while
    its bound exceeds lo + w, w being ``_SEED_WIDTH`` target widths, a big
    batch is queried within lo + w - rho first, no child is skipped, and
    each level appends the cells it sets aside, as (cells, values, rows),
    in place of a hi.

    Raises :class:`CoverageError` when a level would make more than
    ``NODE_CAP`` children, or more than ``ROW_CAP`` rows of k nearest
    samples.
    """
    width = target if aside is None else _SEED_WIDTH * target
    hi = -np.inf
    while True:
        split_off = []
        for cells, vals, near in batches:
            best = vals.argmax()
            if vals[best] > lo:
                lo, arg = float(vals[best]), cells.nodes[best]
            bound = vals + cells.rad
            split = bound > lo + width
            if aside is None:
                hi = float(np.maximum.reduce(bound, initial=hi, where=~split))
            else:
                rest = (~split).nonzero()[0]
                aside.append((cells.take(rest), vals[rest], near[rest]))
            split = split.nonzero()[0]
            split_off.append((cells.take(split), near.take(split, axis=0)))
        centers, near = _joined(split_off)
        if not len(centers):
            break
        count = len(centers) * 2 ** centers.domain.chart.body.d
        if count > NODE_CAP:
            raise CoverageError(
                f"a target width of {target} needs a level of {count} "
                f"cells, above the cap of {NODE_CAP}; widen the target")
        if count * knn.k > ROW_CAP:
            raise CoverageError(
                f"a target width of {target} needs a level of {count} "
                f"cells of k = {knn.k} nearest samples, {count * knn.k} "
                f"rows, above the budget of {ROW_CAP}; widen the target")
        cells = refine_nodes(centers=centers)
        if aside is None and len(cells) >= _SKIP_MIN_CHILDREN:
            u = knn.reach(cells.nodes, near.take(cells.parent, axis=0))
            skip = u < lo
            skip &= u + cells.rad <= min(lo + target, hi)
            cells = cells.take(~skip)
        if not len(cells):  # every child skipped
            break
        # a child whose value is at most lo + width - rho is set aside: a
        # big batch asks the tree only that far first (see the module
        # docstring)
        within = math.inf
        if len(cells) >= _SKIP_MIN_CHILDREN:
            within = lo + width - float(cells.rad.max())
        batches = [(cells, *_evaluate(knn, cells, deep,
                                      within if within > 0.0 else math.inf))]
    return lo, hi, arg


def _knn_field(cloud: PointCloud, grid: EvalGrid, k: int, metric: Metric,
               ring_blocks: bool) -> KnnField:
    """The cloud's k-NN field on the grid's shape, which must be the
    shape the cloud was drawn on."""
    if cloud.spec != grid.spec:
        raise CoverageError(f"the cloud is on {cloud.spec.to_json()} but "
                            f"the grid is on {grid.spec.to_json()}")
    return KnnField(grid.spec, cloud.points, k, metric, grid.bins,
                    ring_blocks)


def coverage_threshold(cloud: PointCloud, grid: EvalGrid, k: int,
                       metric: Metric, refine_to: float | None = None,
                       ring_blocks: bool = False) -> ThresholdEstimate:
    """Certified bracket for the k-coverage threshold of B.

    The threshold is the max over B of the k-NN distance field; the bracket
    is narrowed to a width of ``refine_to`` when it is given, and is at
    most ``grid.h`` wide otherwise.  The cloud must lie on the grid's
    shape.  ``ring_blocks`` lets a field on rings answer from blocks of
    start cells before it builds a tree (see the module docstring); the
    bracket does not depend on it.
    """
    return _certified_max(_knn_field(cloud, grid, k, metric, ring_blocks),
                          grid, refine_to)


def interior_threshold(cloud: PointCloud, grid: EvalGrid, k: int,
                       metric: Metric, refine_to: float | None = None,
                       ring_blocks: bool = False) -> ThresholdEstimate:
    """Certified bracket for the interior coverage threshold of B.

    This is the smallest r such that every point of B farther than r from
    the boundary has k sample points within r.  Some point violates that
    at r exactly when min(f(x), depth(x)) > r, where f is the k-NN
    distance field, so the threshold is the max over B of min(f, depth).
    Both terms are 1-Lipschitz, so the branch and bound of
    :func:`coverage_threshold` carries over unchanged.  The depth is taken
    on the grid's shape, which must be the cloud's; on a boundaryless shape
    it is infinite and the result equals the plain coverage threshold.
    ``ring_blocks`` is as in :func:`coverage_threshold`.
    """
    return _certified_max(_knn_field(cloud, grid, k, metric, ring_blocks),
                          grid, refine_to, deep=True)
