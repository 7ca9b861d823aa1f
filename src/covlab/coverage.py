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
run of samples.  A block holds every sample that the bins put in one of
its cells; every other sample lies across one of the block's closed
faces from its node q, so its chord to q is at least the block's radius
R: the chord from q to the nearest closed face, less the bins' 1e-12.
As in a bin, a k-th smallest chord below R is the k-th neighbour chord,
summed as the tree sums it.

- On a lattice, q falls in the slot rint((q - lo)/s), clipped to the
  lattice, and its block is the (2w + 1)^2 cells around that slot: one
  run per row along the last axis.  R is the gap from q to the nearest
  face along its axis; a face on the lattice's edge is open, since
  clipping bins every point past it.
- On the rings (radius, or polar angle on a cap, by azimuth; the cells
  run ring by ring and by azimuth on each), q falls in ring i =
  rint(t/dt), clipped, and cell j = rint(phi count_i / 2 pi) on it.  Its
  cells j - w..j + w span the wedge phi +- A about q, and its block
  takes rings i - w..i + w and, on each, every cell whose azimuth range
  meets the wedge: one run of cells, or two where the wedge wraps past
  the ring's cell 0, and the whole ring where every cell meets it.  A
  sample outside the block lies beyond the ring circle t' = (i - w -
  1/2) dt or (i + w + 1/2) dt, at a chord of at least |t - t'| (sin |t -
  t'| on a cap, 1 for a gap of pi/2 or more), or at an azimuth more than
  A from q's, at a chord of at least c sin(min(A, pi/2)), c being q's
  distance to the axis, as in the bins (see grids).  The axis and the
  rim are open faces, the rim since clipping bins every point past it.
  A = pi, and every ring of the block is whole, where ring i is, and
  where the block reaches a ring of one cell, on the axis: near it c is
  below the spacing, and the rays would leave open nodes whose k-th
  neighbour lies within one spacing.

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
bracket can use it (the bounds-overlap-ball test of Friedman, Bentley and
Finkel 1977).  A child c whose value is at most B = lo + target - rho,
for the largest cover radius rho among the batch's children, is set
aside as soon as it is evaluated, since f(c) + rho_c <= lo + target and
lo only rises.  So a batch of ``_SKIP_MIN_CHILDREN`` nodes or more, when
B > 0, is searched with B as the tree's search radius where no block
answers it (the chord 2 sin(B/2), B capped at pi, on a geodesic field):
the search stops early where the k-th neighbour lies beyond the radius,
and that node comes back inf.  A finite bounded answer is the k-th
neighbour chord, computed as the unbounded search computes it (the same
squares summed in the same order).  A smaller batch is searched without
a bound and leaves no row open.  Both passes turn chords into field
values the same way.

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

from .geometry import (ManifoldSpec, Metric, as_points, check_enum,
                       check_number, chord_to_geodesic,
                       dist_to_boundary_many, is_number)
from .grids import (_BIN_MARGIN, MIN_RESOLUTION, NODE_CAP, Bins, EvalGrid,
                    refine_nodes)
from .sampling import PointCloud


# start cells that seed the lower bound before the whole partition is seen
_SEED_CELLS = 16

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
        self._cap = spec.body.kind == "cap"
        self._bins = None
        if (bins is not None and bins.domain.body.d == 2
                and 9 * len(points) <= _BLOCK_MEAN * (len(bins.reach2) - 1)
                and (ring_blocks or not bins.domain.rings)):
            self._bins = bins
            self._cell, self._start, self._points = _cell_sorted(bins,
                                                                 points)
            self._cols = tuple(np.ascontiguousarray(self._points.T))
            if bins.domain.rings:
                self._ring_tables(bins)
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
        runs = self._ring_runs if self._bins.domain.rings else self._row_runs
        reach, begin, size = runs(q, w)
        reach -= _BIN_MARGIN
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

    def _row_runs(self, q: np.ndarray, w: int):
        """((N,) radius of each node's block on the lattice, before the
        margin; (N, 2w + 1) first sorted row and length of each run of
        samples in it)."""
        bins = self._bins
        last, step = bins.last, bins.step
        slot = q - bins.lo
        slot /= step
        np.rint(slot, out=slot)
        np.clip(slot, 0.0, last, out=slot)
        # a face on the lattice's edge is open
        low, high = slot - w, slot + w
        reach = np.minimum(
            np.where(low > 0.0, q - (bins.lo + (low - 0.5) * step), np.inf),
            np.where(high < last, bins.lo + (high + 0.5) * step - q,
                     np.inf)).min(axis=1)
        # each row of the block is one run of slots, so one run of samples
        slot = slot.astype(np.intp)
        band = slot[:, :1] + np.arange(-w, w + 1)
        inside = (band >= 0) & (band <= last)
        band.clip(0, last, out=band)
        band *= last + 1
        begin = self._start.take(band + np.maximum(slot[:, 1:] - w, 0))
        size = self._start.take(band + np.minimum(slot[:, 1:] + w, last) + 1)
        size -= begin
        size *= inside
        return reach, begin, size

    def _ring_tables(self, bins: Bins) -> None:
        """The per-ring arrays that ``_ring_runs`` reads: cells, cells per
        turn and first cell of every ring, with two rings of one empty
        cell (cell N, which ``_start`` leaves empty) padding each end; and,
        for w = 1 and 2, the ring circles below and above the block about
        each ring, -inf and inf where the face is open, and whether the
        block is taken whole."""
        cells, ring = len(bins.reach2) - 1, np.arange(bins.last + 1.0)
        pad = np.ones(2)
        count = np.concatenate([pad, bins.count, pad])
        first = np.concatenate([cells * pad, bins.first, cells * pad])
        self._rings = count, count * (0.5 / math.pi), first
        self._bands = {w: np.arange(2 - w, 3 + w) for w in (1, 2)}
        # rings whose block is taken whole: their cells j - w..j + w are
        # all of them, or the block reaches a ring of one cell, on the axis,
        # near which an azimuth ray passes closer than any ring circle
        pole = bins.count[-1] == 1.0
        self._whole = {w: (bins.count <= 2 * w + 1) | (ring <= w)
                       | (pole & (ring >= bins.last - w)) for w in (1, 2)}
        self._faces = {w: (np.where(ring > w, (ring - w - 0.5) * bins.step,
                                    -np.inf),
                           np.where(ring < bins.last - w,
                                    (ring + w + 0.5) * bins.step, np.inf))
                       for w in (1, 2)}

    def _ring_runs(self, q: np.ndarray, w: int):
        """``_row_runs`` on the rings: the block takes rings i - w..i + w
        around the node's ring i, and on each the cells whose azimuth range
        meets the wedge phi +- A that the node's own ring's cells j - w..j
        + w span around it; so one run of cells on a ring, or two where the
        wedge wraps past the ring's first cell, (N, 2(2w + 1)) runs."""
        bins, (count, turns, first) = self._bins, self._rings
        step, last = bins.step, bins.last
        x0, x1 = q[:, 0], q[:, 1]
        c = np.hypot(x0, x1)  # distance to the axis
        t = np.arctan2(c, q[:, 2]) if self._cap else c
        ring = np.rint(t / step)
        np.minimum(ring, last, out=ring)
        ring = ring.astype(np.intp)
        phi = np.arctan2(x1, x0)
        # A = (2w + 1 - 2 |turn - j|) pi / count_i, pi where the block is
        # taken whole
        half = phi * turns.take(ring + 2)
        half -= np.rint(half)
        np.abs(half, out=half)
        half *= -2.0
        half += 2 * w + 1
        half *= math.pi
        half /= count.take(ring + 2)
        half[self._whole[w].take(ring)] = math.pi
        # the block's certified radius; the axis and the rim are open faces
        below, above = self._faces[w]
        gap = np.minimum(t - below.take(ring), above.take(ring) - t)
        if self._cap:
            gap = np.where(gap < np.inf,
                           np.sin(np.minimum(gap, 0.5 * math.pi)), np.inf)
        across = np.minimum(half, 0.5 * math.pi)
        np.sin(across, out=across)
        across *= c
        across[half >= math.pi] = np.inf
        reach = np.minimum(gap, across)
        # on each ring of the block (two empty rings pad each end), cells j
        # with j - 1/2 <= (phi + A) count / 2 pi, j + 1/2 >= (phi - A) count
        # / 2 pi: cells low..low + span - 1, wrapped past cell count - 1
        band = ring[:, None] + self._bands[w]
        count, turns = count.take(band), turns.take(band)
        low = np.ceil((phi - half)[:, None] * turns - 0.5)
        span = np.floor((phi + half)[:, None] * turns + 0.5)
        span -= low
        span += 1.0
        low += count * (low < 0.0)
        low[span >= count] = 0.0
        np.minimum(span, count, out=span)
        span += low
        cell = first.take(band)
        edges = np.concatenate([cell + low, cell,
                                cell + np.minimum(span, count),
                                cell + np.maximum(span - count, 0.0)], axis=1)
        edges = self._start.take(edges.astype(np.intp))
        runs = 2 * band.shape[1]
        return reach, edges[:, :runs], edges[:, runs:] - edges[:, :runs]

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
    ordered by cell), for bins that put every point in a cell: a lattice
    whose cells are its slots, or rings, whose cells run ring by ring and
    by azimuth on each."""
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
    the branch and bound then runs twice.  The first run finishes the
    ``_SEED_CELLS`` cells of largest value alone: its best value, a field
    value at a point of B, is a lower bound that sits near the final max
    before the whole partition is seen.  The second run starts from that
    value, the first run's hi and argmax, on the rest of the partition,
    reusing its values, so it sets aside most start cells at once (see the
    module docstring).  Its bracket [best, max bound over the cells set
    aside] has width <= the target.  Raises :class:`CoverageError` when
    the start partition holds more than ``ROW_CAP`` rows of k nearest
    samples.
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
    ``NODE_CAP`` children, or more than ``ROW_CAP`` rows of k nearest
    samples.
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
        if count * knn.k > ROW_CAP:
            raise CoverageError(
                f"a target width of {target} needs a level of {count} "
                f"cells of k = {knn.k} nearest samples, {count * knn.k} "
                f"rows, above the budget of {ROW_CAP}; widen the target")
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
