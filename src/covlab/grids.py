"""Cell partitions of B with a certified cover radius, in charts.

A partition turns "for every x in B" into a finite max.  Each cell is a box
in a chart of B's body, with a representative point p in B and a cover
radius rho: every point of B in the cell lies within geodesic distance rho
of p.  A cell splits into its 2^d children by halving every side of its
box, so the children tile their parent exactly; children take the centres
of their boxes.  B's body, one of the three kinds of geometry's shape
table, picks one of two charts, and each chart owns the facts below:

- a lattice: the square and the cube in their own coordinates, and the
  solid ball in those of its enclosing cube [-R, R]^3, where a box that
  misses the ball is dropped and a representative outside the ball is
  projected onto it, which moves it no farther from any point of the ball
  (projection onto a convex set is 1-Lipschitz);
- rings: radius t x azimuth on the disk, polar angle t x azimuth on a cap
  (the sphere is the cap of radius pi).  The flat and the spherical rings
  differ in four facts: the radius c(t) of the ring circle at t (t, or
  sin t); the polar coordinate of a point at c from the axis (c, or
  atan2(c, z): arccos is coarse near a pole); the chord across a polar
  gap g (g, or 2 sin(g/2)); and the chord certified beyond a ring circle
  at a polar gap g (g, or sin(min(g, pi/2)), for every point beyond the
  cone, whatever its rounding off the sphere).

rho is the largest distance from the (unprojected) representative to a
corner of the box.  That is exact on flat boxes, where the distance is
convex.  On polar boxes the distance grows with the azimuth gap a, and
along a meridian it is largest at an end t' of the polar range, provided
that the azimuth gap to the box's ends is at most pi/2 (pi on the disk),
or the representative sits on the axis; the start partition and the
halving keep to that.  Its chord is sqrt(dt^2 + c(t) c(t') (2 sin(a/2))^2),
dt the chord across t - t'.

The start partition at resolution h has no box side longer than h, and
so every rho <= h.  It is the lattice of nodes lo + i s with spacing
s <= min(h, 2h/sqrt(d)), each node with the box [node - s/2, node + s/2]
clipped to the shape, or rings spaced dt <= h of ceil(2 pi c(t) / h)
nodes (two at least off the axis), each node with the box half way to
its neighbours; its nodes are the representatives, so the corners, faces
and rims of B are among them.  A lattice cell has rho = sqrt(d) s / 2, h
at s = 2h/sqrt(d); the bound s <= h keeps the lattices of d <= 3 below
h, as the rings are (0.71 h on the square, at most about 0.74 h on the
rings), so the branch and bound sets more start cells aside where the
bins already read them: on the square at n = 1e5 its first level splits
about a quarter as many cells, out of twice as many.  For an interior
body the partition is that of the body shrunk by a further hair (1e-9),
so the representatives satisfy the strict interior constraint, and the
slack is added to every cover radius; geometry refuses an interior body
that has no point that far inside it.

The start partition also bins ambient points (Bentley, Weide and Yao
1980): ``chart.locate`` puts a point in the cell whose node is nearest in
the partition's own indexing, that is ``rint((x - lo) / s)`` per lattice
axis, clipped to the lattice, or the ring ``rint(t / dt)``, clipped, and
the azimuth ``rint(phi count / 2 pi) mod count`` on it.  The bin of a cell
is its box, open beyond the faces that lie on the edge of the domain (the
lattice's edge, the axis and the rim), since clipping bins every point
past them.  Each cell carries a certified chord radius R: every point
that the locator puts in another cell lies at least R from the cell's
representative p.  R is the chord from p to the nearest face of its bin
that is not open, less an absolute margin of 1e-12 for the rounding of
the locator, the faces and the chords (every coordinate and angle is at
most pi in size, so these are a few 1e-16).  A point beyond a face lies
across the face's line, plane, circle or cone from p, so its chord to p
is at least: on a lattice, the gap from p to the face along its axis; on
the rings, the chord certified at the polar gap to a ring circle that
bounds the bin, and c sin(min(alpha, pi/2)) to the rays or half-planes
that bound its azimuth, c being p's distance to the axis and alpha the
half-width of the ring's boxes.  The one cell of a ring on the axis has
no azimuth face.  A representative that leaves its box (a projected node
of the ball) has R = 0, and a grid that is not a start partition carries
no ``reach2``: none of its cells is certified.

On a 2-D start partition the cells also form blocks about any point q,
for the k-NN field (see the coverage module).  A block holds the bins of
its cells, and every point outside it lies beyond one of the block's
faces that is not open, so at least the block's radius R from q: the
chord to that face, as for a bin, less the same margin.  On a lattice, q
falls in the slot rint((q - lo)/s), clipped, and its block is the (2w +
1)^2 cells around that slot, one run of cells per row along the last
axis.  On the rings q falls in ring i and cell j, as the locator puts it;
its cells j - w..j + w span the wedge phi +- A about q, and its block
takes rings i - w..i + w and, on each, every cell whose azimuth range
meets the wedge: one run of cells, or two where the wedge wraps past the
ring's cell 0.  Its faces are the ring circles (i - w - 1/2) dt and (i +
w + 1/2) dt and the rays at phi +- A.  A = pi, and every ring of the
block is whole, where every cell of ring i meets the wedge, and where
the block reaches a ring of one cell, on the axis: near it c is below
the spacing, and the rays would leave open nodes whose k-th neighbour
lies within one spacing.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import (_INSET, ManifoldSpec, RegionKind, RegionSpec, _Body,
                       _body, chord_to_geodesic, is_number)

# most cells a start partition may have; guards --h and grid_h input
NODE_CAP = 4_000_000

# smallest supported cover radius or bracket width
MIN_RESOLUTION = 4.0 * _INSET

# absolute margin on a certified bin radius (see the module docstring)
_BIN_MARGIN = 1e-12

# most cells of the start partitions that build_grid keeps for reuse, in
# all.  A cell takes 64 bytes (nodes, boxes, radii and bins) on the square
# and the disk, 72 on the caps, 88 on the cube and 103 on the solid ball,
# whose bins map every slot of its cube lattice; so the kept grids hold
# 54 MB at most, and a grid of more cells (NODE_CAP cells would take up to
# 410 MB) is never kept.
_KEPT_CELLS = 1 << 19


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class EvalGrid:
    """Cells covering B: representatives ``nodes`` in B, boxes and radii.

    Cell i is the parameter box of column i of ``box``, its lower corner
    on rows 0..d-1 and its upper corner on rows d..2d-1, so that one
    gather selects both corners and the per-axis arithmetic runs on
    contiguous rows.  Its representative is ``nodes[i]`` (ambient
    coordinates) and its cover radius ``rad[i] <= h``.  ``parent[i]`` is
    the row, among the cells that :func:`refine_nodes` split, whose box
    holds cell i's box; a start partition has no parents.  ``chart`` is
    B's chart cut into the start partition, in which the cells split and
    whose ``locate`` bins points in the start cells.  ``reach2`` holds a
    start partition's squared bin radii, with a 0 at row N; other grids
    have none.
    """

    spec: ManifoldSpec
    chart: _Chart
    nodes: np.ndarray     # (N, m) representative points in B
    h: float
    box: np.ndarray       # (2d, N) parameter box lower, then upper corners
    rad: np.ndarray       # (N,) certified cover radii
    parent: np.ndarray | None = None  # (N,) row of each cell's parent
    reach2: np.ndarray | None = None  # (N + 1,) squared bin radii

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def box_lo(self) -> np.ndarray:
        """(N, d) lower box corners."""
        return self.box[:len(self.box) // 2].T

    @property
    def box_hi(self) -> np.ndarray:
        """(N, d) upper box corners."""
        return self.box[len(self.box) // 2:].T

    def take(self, rows: np.ndarray) -> "EvalGrid":
        """The cells selected by a boolean mask or an index array; ``h``
        stays a bound on their radii."""
        if rows.dtype == bool:
            rows = rows.nonzero()[0]
        return EvalGrid(self.spec, self.chart,
                        self.nodes.take(rows, axis=0), self.h,
                        self.box.take(rows, axis=1), self.rad.take(rows),
                        None if self.parent is None
                        else self.parent.take(rows))


@dataclass(frozen=True, eq=False)
class _Chart:
    """A chart of B's body, whose cells are boxes in its parameters: the
    (N, m) ``ambient`` points of (d, N) parameters, the cover ``radius``
    of (2d, N) boxes about their representatives, the rows of the boxes
    that meet the body (``keep``, None for all) and the ``nodes`` in B;
    the cover radii add ``slack``.  ``start(h)`` gives (the chart cut into
    the start partition at h, its boxes, its representatives); the cut
    chart holds the spacing ``step``, the ``last`` lattice index or ring,
    and the tables with which it ``locate``s points in the start cells,
    as N for none, and lays out the ``runs`` of blocks: ``runs(q, w)``
    gives each node's block radius (0 where it certifies none) and its
    runs' first and end rows, on 2-D cells.  A field on a chart that is
    ``tree_first`` builds its tree at once unless asked for blocks."""

    body: _Body
    slack: float = 0.0
    step: float = 0.0
    last: int = 0
    tree_first: ClassVar[bool] = False  # see the coverage module

    def keep(self, box: np.ndarray) -> np.ndarray | None:
        return None

    def nodes(self, rep: np.ndarray) -> np.ndarray:
        return self.ambient(rep)

    def cells(self, spec: ManifoldSpec, box: np.ndarray, rep: np.ndarray,
              h: float | None = None,
              parent: np.ndarray | None = None) -> EvalGrid:
        """Cells of the (2d, N) boxes and (d, N) parameter representatives
        that meet the body, each with the ``parent`` row given for it."""
        keep = self.keep(box)
        if keep is not None:
            box, rep = box.take(keep, axis=1), rep.take(keep, axis=1)
            if parent is not None:
                parent = parent.take(keep)
        rad = self.radius(box, rep)
        rad += self.slack
        if h is None:
            h = float(np.maximum.reduce(rad, initial=0.0))
        return EvalGrid(spec, self, self.nodes(rep), h, box, rad, parent)


@dataclass(frozen=True, eq=False)
class _Lattice(_Chart):
    """The box [lo, lo + side]^d in its own coordinates: the square and the
    cube, and the solid ball (``ball``) in its enclosing cube.  ``row``
    maps each slot of the start partition, ravelled in the nodes' order,
    to the row of its cell: N for a slot whose box was dropped, None when
    no box was."""

    lo: float = 0.0
    side: float = 0.0
    ball: bool = False
    row: np.ndarray | None = None

    def ambient(self, q):
        # in row order, so that a gather of rows copies only those rows
        return np.ascontiguousarray(q.T)

    def radius(self, box, rep):
        d = self.body.d
        return np.sqrt(sum(np.maximum(rep[i] - box[i], box[d + i] - rep[i])
                           ** 2 for i in range(d)))

    def keep(self, box):
        if not self.ball:
            return None
        near2 = sum(np.minimum(np.maximum(box[i], 0.0), box[3 + i]) ** 2
                    for i in range(3))
        return (near2 <= self.body.size ** 2).nonzero()[0]

    def nodes(self, rep):
        x = self.ambient(rep)
        if self.ball:  # projected onto the ball
            nrm = np.sqrt(sum(x[:, i] ** 2 for i in range(3)))
            out = nrm > self.body.size
            x = x.copy()
            x[out] *= (self.body.size / nrm[out])[:, None]
        return x

    def start(self, h):
        d, lo, side = self.body.d, self.lo, self.side
        n = max(1, math.ceil(side / min(h, 2.0 * h / math.sqrt(d))))
        _check_cap((n + 1) ** d, h)
        s = side / n
        axis = lo + np.arange(n + 1) * s
        axis[-1] = lo + side  # exact upper face
        axes = (axis, np.maximum(axis - s / 2, lo),
                np.minimum(axis + s / 2, lo + side))
        rep, box_lo, box_hi = (
            np.array([m.ravel() for m in np.meshgrid(*(a,) * d,
                                                     indexing="ij")])
            for a in axes)
        box = np.concatenate((box_lo, box_hi))
        keep, row = self.keep(box), None
        if keep is not None:
            row = np.full(len(rep[0]), len(keep), dtype=np.intp)
            row[keep] = np.arange(len(keep))
        return dataclasses.replace(self, step=s, last=n, row=row), box, rep

    def _slot(self, x: np.ndarray) -> np.ndarray:
        """(N, d) index of the lattice node nearest each ambient point,
        clipped to the lattice, as floats."""
        q = x - self.lo
        q /= self.step
        np.rint(q, out=q)
        return np.clip(q, 0.0, self.last, out=q)

    def locate(self, x):
        q = self._slot(x) @ (self.last + 1.0) ** np.arange(x.shape[1] - 1,
                                                           -1, -1.0)
        slot = q.astype(np.intp)
        return slot if self.row is None else self.row.take(slot)

    def _reach(self, x: np.ndarray, low: np.ndarray, high: np.ndarray):
        """Certified radius about the (d, N) points ``x`` of the boxes of
        (d, N) lower and upper faces ``low`` and ``high``."""
        return np.maximum(np.minimum(
            np.where(low > self.lo, x - low, np.inf),
            np.where(high < self.lo + self.side, high - x, np.inf)
        ).min(axis=0) - _BIN_MARGIN, 0.0)

    def bin_reach(self, grid, rep):
        return self._reach(grid.nodes.T, *np.split(grid.box, 2))

    def runs(self, q, w):
        slot = self._slot(q)
        reach = self._reach(q.T, (self.lo + (slot - (w + 0.5)) * self.step).T,
                            (self.lo + (slot + (w + 0.5)) * self.step).T)
        slot, last = slot.astype(np.intp), self.last
        band = slot[:, :1] + np.arange(-w, w + 1)
        inside = (band >= 0) & (band <= last)
        band = band.clip(0, last) * (last + 1)
        first = band + np.maximum(slot[:, 1:] - w, 0)
        end = band + np.minimum(slot[:, 1:] + w, last) + 1
        return reach, first, np.where(inside, end, first)


@dataclass(frozen=True, eq=False)
class _Rings(_Chart):
    """Rings about the axis: radius t x azimuth on the disk, polar angle t
    x azimuth on a cap (``sphere``).  Ring i of the start partition holds
    ``count[i]`` cells from row ``first[i]``, as floats.  ``pad`` holds
    rows of the cells, cells per turn and first cell of every ring, with
    two rings of one empty cell (row N) padding each end; row w - 1 of
    ``below``, ``above`` and ``whole`` the ring circles that bound the
    block about each ring at w (-inf and inf where open) and whether it is
    taken whole."""

    tree_first: ClassVar[bool] = True
    sphere: bool = False
    count: np.ndarray | None = None
    first: np.ndarray | None = None
    pad: np.ndarray | None = None
    below: np.ndarray | None = None
    above: np.ndarray | None = None
    whole: np.ndarray | None = None

    def circle(self, t: np.ndarray) -> np.ndarray:
        """c(t), the radius of the ring circle at t."""
        return np.sin(t) if self.sphere else t

    def ambient(self, q):
        t, phi = q
        c = self.circle(t)
        return np.column_stack([c * np.cos(phi), c * np.sin(phi)]
                               + ([np.cos(t)] if self.sphere else []))

    def radius(self, box, rep):
        t = rep[0]
        gap = np.maximum(rep[1] - box[1], box[3] - rep[1])
        across = (2.0 * np.sin(0.5 * gap)) ** 2 * self.circle(t)
        ends = box[::2]  # both polar ends in one batch
        dt = 2.0 * np.sin(0.5 * (t - ends)) if self.sphere else t - ends
        chord2 = dt * dt + across * self.circle(ends)
        chord = np.sqrt(np.maximum(chord2[0], chord2[1]))
        return chord_to_geodesic(chord) if self.sphere else chord

    def start(self, h):
        size = self.body.size
        pos = np.linspace(0.0, size, max(1, math.ceil(size / h)) + 1)
        # a ring off the axis gets two boxes at least, so no azimuth gap
        # exceeds pi/2 (see the module docstring)
        on_axis = (pos == 0.0) | (pos == math.pi)
        counts = np.maximum(np.where(on_axis, 1, 2),
                            np.ceil(2.0 * math.pi * self.circle(pos) / h)
                            ).astype(np.int64)
        _check_cap(int(np.sum(counts)), h)
        ring = np.repeat(np.arange(len(pos)), counts)
        first = np.cumsum(counts) - counts
        j = np.arange(len(ring)) - first[ring]
        ang = 2.0 * math.pi * j / counts[ring]
        step, half_a, t = pos[1] - pos[0], math.pi / counts[ring], pos[ring]
        box = np.array([np.maximum(t - 0.5 * step, 0.0), ang - half_a,
                        np.minimum(t + 0.5 * step, size), ang + half_a])
        # the tables of the blocks (see the module docstring)
        count, first = counts.astype(float), first.astype(float)
        last, pad, w = len(pos) - 1, np.ones(2), np.array([[1.0], [2.0]])
        i, cells = np.arange(last + 1.0), len(ring) * pad
        padded = np.concatenate([pad, count, pad])
        chart = dataclasses.replace(
            self, step=step, last=last, count=count, first=first,
            pad=np.array([padded, padded * (0.5 / math.pi),
                          np.concatenate([cells, first, cells])]),
            below=np.where(i > w, (i - w - 0.5) * step, -np.inf),
            above=np.where(i < last - w, (i + w + 0.5) * step, np.inf),
            whole=(count <= 2 * w + 1) | (i <= w)
            | ((count[-1] == 1.0) & (i >= last - w)))
        return chart, box, np.array([t, ang])

    def _polar(self, x: np.ndarray):
        """(distance to the axis, polar coordinate, nearest ring, azimuth)
        of the (N, m) ambient points ``x``."""
        x0, x1 = x[:, 0], x[:, 1]
        c = x0 * x0
        c += x1 * x1
        np.sqrt(c, out=c)
        t = np.arctan2(c, x[:, 2]) if self.sphere else c
        ring = t / self.step
        np.rint(ring, out=ring)
        np.minimum(ring, self.last, out=ring)
        return c, t, ring.astype(np.intp), np.arctan2(x1, x0)

    def locate(self, x):
        _, _, ring, j = self._polar(x)
        count = self.count.take(ring)
        j *= count
        j *= 0.5 / math.pi
        np.rint(j, out=j)
        np.add(j, count, out=j, where=j < 0)  # j mod count: |j| <= count / 2
        j += self.first.take(ring)
        return j.astype(np.intp)

    def _reach(self, t, c, below, above, half):
        """Certified radius about points at polar coordinate t, c from the
        axis, between the ring circles ``below`` and ``above`` (-inf and inf
        where open) and the azimuth rays at +-``half`` (none from pi on)."""
        gap = np.minimum(t - below, above - t)
        if self.sphere:
            gap = np.where(gap < np.inf,
                           np.sin(np.minimum(gap, 0.5 * math.pi)), np.inf)
        across = np.sin(np.minimum(half, 0.5 * math.pi)) * c
        across[half >= math.pi] = np.inf
        return np.maximum(np.minimum(gap, across) - _BIN_MARGIN, 0.0)

    def bin_reach(self, grid, rep):
        t, box = rep[0], grid.box
        return self._reach(t, self.circle(t),
                           np.where(box[0] > 0.0, box[0], -np.inf),
                           np.where(box[2] < self.body.size, box[2], np.inf),
                           0.5 * (box[3] - box[1]))

    def runs(self, q, w):
        count, turns, first = self.pad
        c, t, ring, phi = self._polar(q)
        # A = (2w + 1 - 2 |turn - j|) pi / count_i, pi where the block is
        # taken whole
        turn = phi * turns.take(ring + 2)
        half = ((2 * w + 1 - 2.0 * np.abs(turn - np.rint(turn))) * math.pi
                / count.take(ring + 2))
        half[self.whole[w - 1].take(ring)] = math.pi
        reach = self._reach(t, c, self.below[w - 1].take(ring),
                            self.above[w - 1].take(ring), half)
        # on each ring of the block, cells j with j - 1/2 <= (phi + A)
        # count / 2 pi, j + 1/2 >= (phi - A) count / 2 pi: cells
        # low..low + span - 1, wrapped past cell count - 1
        band = ring[:, None] + np.arange(2 - w, 3 + w)
        count, turns = count.take(band), turns.take(band)
        low = np.ceil((phi - half)[:, None] * turns - 0.5)
        span = np.floor((phi + half)[:, None] * turns + 0.5) - low + 1.0
        low += count * (low < 0.0)
        low[span >= count] = 0.0
        np.minimum(span, count, out=span)
        span += low
        cell = first.take(band)
        edges = np.concatenate(
            [cell + low, cell, cell + np.minimum(span, count),
             cell + np.maximum(span - count, 0.0)], axis=1)
        return reach, *np.split(edges.astype(np.intp), 2, axis=1)


def _chart(spec: ManifoldSpec, region: RegionSpec) -> _Chart:
    """B's chart: a box's lattice, the cube lattice of a 3-d ball, or the
    rings of the disk and of a cap."""
    body, slack = _body(spec, region), 0.0  # refuses an empty interior body
    if region.kind is not RegionKind.ALL and not body.boundaryless:
        # every point of B lies within _INSET * sqrt(d) of the shrunk
        # body, whose points are strictly inside B
        body = spec.body.shrunk(region.delta + _INSET)
        slack = _INSET * math.sqrt(spec.d)
    if body.kind == "box":
        return _Lattice(body, slack=slack, lo=body.lo, side=body.size)
    if body.d == 3:
        return _Lattice(body, slack=slack, lo=-body.size,
                        side=2 * body.size, ball=True)
    return _Rings(body, slack=slack, sphere=body.kind == "cap")


def _check_cap(count: int, h: float) -> None:
    if count > NODE_CAP:
        raise GridError(
            f"grid at h={h} needs ~{count} nodes, above the cap of "
            f"{NODE_CAP}; coarsen h")


# the start partitions that build_grid keeps, least recently used first
_kept: OrderedDict = OrderedDict()
_kept_lock = threading.Lock()


def clear_grid_cache() -> None:
    """Forget the start partitions that :func:`build_grid` keeps."""
    with _kept_lock:
        _kept.clear()


def build_grid(spec: ManifoldSpec, region: RegionSpec, h: float) -> EvalGrid:
    """Start partition of B with every cover radius <= h.

    The driver builds one per sample size; tests and benchmarks use it as
    the full-partition oracle at h.  The partition holds its cut chart,
    which locates points in its cells, and in two and three dimensions the
    squared radii that its bins certify (``reach2``), where the tests pin
    those chords to cKDTree's bits.  Raises
    :class:`GridError` when h is not a finite number above
    ``MIN_RESOLUTION``, or when the partition would need more than
    ``NODE_CAP`` cells (the message reports the count needed).

    The partitions built last are kept and handed out again for the same
    (spec, region, h), so a process that runs again builds none; their
    arrays are read-only, so no caller can change them for the next.
    """
    if not (is_number(h) and h > 0.0):
        raise GridError(f"covering radius h must be a finite number > 0, "
                        f"got {h}")
    if h <= MIN_RESOLUTION:
        raise GridError(f"h={h} is below the supported resolution")
    key = (spec, region, h)
    with _kept_lock:
        grid = _kept.get(key)
        if grid is not None:
            _kept.move_to_end(key)
            return grid
    grid = _start_partition(spec, region, h)
    if len(grid) <= _KEPT_CELLS:
        with _kept_lock:
            _kept[key] = grid
            while sum(map(len, _kept.values())) > _KEPT_CELLS:
                _kept.popitem(last=False)
    return grid


def _start_partition(spec: ManifoldSpec, region: RegionSpec,
                     h: float) -> EvalGrid:
    """:func:`build_grid`'s partition, its arrays made read-only."""
    chart = _chart(spec, region)
    chart, box, rep = chart.start(h - chart.slack)
    grid = chart.cells(spec, box, rep, h=float(h))
    # every rho <= h: sqrt(d) s / 2 on a lattice, at most about 0.74 h on
    # the rings; where it is h itself (lattices of d >= 4), the corner
    # formula can round a few ulps above it
    np.minimum(grid.rad, grid.h, out=grid.rad)
    if spec.m <= 3:  # cKDTree's order of summation differs from m = 8 on
        reach = chart.bin_reach(grid, rep)
        grid = dataclasses.replace(grid, reach2=np.append(reach * reach, 0.0))
    _read_only(grid.nodes, grid.box, grid.rad, grid.reach2,
               *vars(chart).values())
    return grid


def _read_only(*arrays) -> None:
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


def refine_nodes(centers: EvalGrid) -> EvalGrid:
    """The children of the given cells: each box halved along every side.

    Children take the centres of their boxes as representatives; on the
    ball, children whose box misses the ball are dropped.  Each child's
    ``parent`` is its row in ``centers``.
    """
    chart = centers.chart
    d = chart.body.d
    lo, hi = centers.box[:d], centers.box[d:]
    mid = 0.5 * (lo + hi)
    n = lo.shape[1]
    # (corner row, cell, child) boxes, child j in itertools.product order:
    # it takes the upper half of axis i where bit d-1-i of j is set
    box = np.empty((2 * d, n, 2 ** d))
    for i in range(d):
        lower = box[i].reshape(n, 2 ** i, 2, -1)
        upper = box[d + i].reshape(n, 2 ** i, 2, -1)
        lower[:, :, 0] = lo[i, :, None, None]
        lower[:, :, 1] = upper[:, :, 0] = mid[i, :, None, None]
        upper[:, :, 1] = hi[i, :, None, None]
    box = box.reshape(2 * d, -1)
    return chart.cells(centers.spec, box, 0.5 * (box[:d] + box[d:]),
                       parent=np.arange(n).repeat(2 ** d))
