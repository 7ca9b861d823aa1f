"""Cell partitions of B with a certified cover radius.

A partition turns "for every x in B" into a finite max.  Each cell is a box
in a parameter space of the shape, with a representative point p in B and
a cover radius rho: every point of B in the cell lies within geodesic
distance rho of p.  A cell splits into its 2^d children by halving every
side of its box, so the children tile their parent exactly.  The parameter
space is read from B's body, one of the three kinds of geometry's shape
table:

- a box (the square and cube): its own coordinates;
- a ball at d=3 (the solid ball): the coordinates of the enclosing cube
  [-R, R]^3; a box that misses the ball is dropped, and a representative
  outside the ball is projected onto it, which moves it no farther from
  any point of the ball (projection onto a convex set is 1-Lipschitz);
- a ball at d=2 (the disk): radius x azimuth; a cap (the cap, and the
  sphere as the cap of radius pi): polar angle x azimuth.

rho is the largest distance from the (unprojected) representative to a
corner of the box.  That is exact on flat boxes, where the distance is
convex.  On polar boxes the distance grows with the azimuth gap, and along
a meridian it is largest at an end of the polar range, provided that the
azimuth gap to the box's ends is at most pi/2 (pi on the disk), or the
representative sits on the axis; the start partition and the halving keep
to that.

The start partition at resolution h has no box side longer than h, and
so every rho <= h.  It is the lattice of nodes lo + i s with spacing
s <= min(h, 2h/sqrt(d)), each node with the box [node - s/2, node + s/2]
clipped to the shape, or rings spaced <= h of ceil(2 pi c / h) nodes (c
the ring's radius, or sin of its polar angle; two nodes at least off the
axis), each node with the box half way to its neighbours; its nodes are
the representatives, so the corners, faces and rims of B are among them.
Children take the centres of their boxes.  A lattice cell has rho =
sqrt(d) s / 2, which is h at s = 2h/sqrt(d); the bound s <= h keeps the
lattices of d <= 3 below h, as the rings are (0.71 h on the square, at
most about 0.74 h on the rings), so the branch and bound sets more start
cells aside where the bins already read them: on the square at n = 1e5
its first level splits about a quarter as many cells, out of twice as
many.

For interior-body regions the partition is that of the body shrunk by a
further hair (1e-9), so the representatives satisfy the strict interior
constraint; the slack is added to every cover radius.  Geometry refuses
an interior body that has no point that far inside it.

The start partition also bins ambient points (Bentley, Weide and Yao
1980): ``Bins.locate`` sends a point to the cell whose node is nearest in
the partition's own indexing, that is ``rint((x - lo) / s)`` per lattice
axis, clipped to the lattice, or the ring ``rint(t / dt)``, clipped, and
the azimuth ``rint(phi count / 2 pi) mod count`` on it.  The bin of a cell
is its box, open beyond the faces that lie on the edge of the domain,
since clipping bins every point past them.  Each cell carries a certified
chord radius R: every point that the locator puts in another cell lies at
least R from the cell's representative p.  R is the distance from p to
the nearest face of its bin that is not open, less an absolute margin of
1e-12 for the rounding of the locator, the faces and the chords (every
coordinate and angle is at most pi in size, so these are a few 1e-16).
A point beyond a face lies across the face's line, circle, plane or cone
from p, so its chord to p is at least:

- on a lattice, the gap from p to the face along its axis;
- on the disk, at radius r, r - t' and t' - r to the circles of radius
  t' that bound the ring, and r sin(alpha) to the rays that bound the
  azimuth, alpha <= pi/2 being the half-width of the ring's boxes;
- on a cap, at polar angle t, sin|t - t'| to the cones of polar angle t'
  that bound the ring (1 for a gap of pi/2 or more), and sin t
  sin(alpha) to the half-planes that bound the azimuth.  These hold for
  every ambient point beyond the face, so for every sample whatever its
  rounding off the sphere.

The one cell of a ring on the axis has no azimuth face.  A representative
that leaves its box (a projected node of the ball) has R = 0, and a grid
that is not a start partition carries no bins: none of their cells is
certified.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

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
    holds cell i's box; a start partition has no parents.  ``domain`` is
    the parameter space of B that the cells split in.  ``bins`` locate
    points in the cells of a start partition; other grids have none.
    """

    spec: ManifoldSpec
    domain: _Domain
    nodes: np.ndarray     # (N, m) representative points in B
    h: float
    box: np.ndarray       # (2d, N) parameter box lower, then upper corners
    rad: np.ndarray       # (N,) certified cover radii
    parent: np.ndarray | None = None  # (N,) row of each cell's parent
    bins: Bins | None = None

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
        return EvalGrid(self.spec, self.domain,
                        self.nodes.take(rows, axis=0), self.h,
                        self.box.take(rows, axis=1), self.rad.take(rows),
                        None if self.parent is None
                        else self.parent.take(rows))


@dataclass(frozen=True, eq=False)
class Bins:
    """The cells of a start partition as bins of ambient points, each with
    its certified chord radius (see the module docstring).

    On a lattice, ``step`` is the spacing s, ``last`` the last node's
    index on every axis, and ``row`` maps each lattice slot, ravelled in
    the nodes' order, to the row of its cell (N for a slot whose box was
    dropped; None when no box was).  On rings, ``step`` is the ring
    spacing dt, ``last`` the last ring, and ring i holds ``count[i]``
    cells from row ``first[i]``.  ``reach2`` holds the squared radii, with
    a 0 at row N.
    """

    domain: _Domain
    step: float
    last: int
    lo: float = 0.0                   # lattice origin
    first: np.ndarray | None = None   # rings: (rings,) first row, as floats
    count: np.ndarray | None = None   # rings: (rings,) cells, as floats
    row: np.ndarray | None = None     # lattice: (slots,) row of each slot
    reach2: np.ndarray | None = None  # (N + 1,) squared certified radii

    def locate(self, x: np.ndarray) -> np.ndarray:
        """(n,) row of the cell that each of the (n, m) ambient points
        ``x`` falls in, N for a point that falls in no cell."""
        if not self.domain.rings:
            q = x - self.lo
            q /= self.step
            np.rint(q, out=q)
            np.clip(q, 0.0, self.last, out=q)
            q = q @ (self.last + 1.0) ** np.arange(q.shape[1] - 1, -1, -1.0)
            slot = q.astype(np.intp)
            return slot if self.row is None else self.row.take(slot)
        x0, x1 = x[:, 0], x[:, 1]
        t = x0 * x0
        t += x1 * x1
        np.sqrt(t, out=t)
        if self.domain.body.kind == "cap":  # arccos is coarse near a pole
            np.arctan2(t, x[:, 2], out=t)
        t /= self.step
        np.rint(t, out=t)
        ring = np.minimum(t, self.last, out=t).astype(np.intp)
        count = self.count.take(ring)
        j = np.arctan2(x1, x0)
        j *= count
        j *= 0.5 / math.pi
        np.rint(j, out=j)
        np.add(j, count, out=j, where=j < 0)  # j mod count: |j| <= count / 2
        j += self.first.take(ring)
        return j.astype(np.intp)

    def filled(self, grid: EvalGrid, rep: np.ndarray) -> Bins:
        """These bins with the rows and radii of ``grid``'s cells, whose
        (d, N) parameter representatives (unprojected) are ``rep``."""
        body, box, x = self.domain.body, grid.box, grid.nodes
        d, row = body.d, None
        if not self.domain.rings:
            if body.kind == "ball":  # the boxes that miss the ball are gone
                slot = Bins(self.domain, self.step, self.last,
                            self.lo).locate(0.5 * (box[:d] + box[d:]).T)
                row = np.full((self.last + 1) ** d, len(grid), dtype=np.intp)
                row[slot] = np.arange(len(grid))
            # a face on the edge of the lattice is open
            top = body.lo + body.size if body.kind == "box" else body.size
            near = np.minimum(
                np.where(box[:d] > self.lo, x.T - box[:d], np.inf),
                np.where(box[d:] < top, box[d:] - x.T, np.inf)).min(axis=0)
        else:
            sphere = body.kind == "cap"
            t = rep[0]
            gaps = np.array([t - box[0], box[2] - t])
            if sphere:
                gaps = np.sin(np.minimum(gaps, 0.5 * math.pi))
            alpha = 0.5 * (box[3] - box[1])
            across = (np.sin(t) if sphere else t) * np.sin(alpha)
            near = np.minimum.reduce([
                np.where(box[0] > 0.0, gaps[0], np.inf),
                np.where(box[2] < body.size, gaps[1], np.inf),
                np.where(alpha < math.pi, across, np.inf)])
        reach = np.maximum(near - _BIN_MARGIN, 0.0)
        reach2 = np.append(reach * reach, 0.0)
        return dataclasses.replace(self, row=row, reach2=reach2)


@dataclass(frozen=True)
class _Domain:
    """Parameter space of B's body, plus the ``slack`` its cover radii add.

    A box is its own parameter space; a 3-d ball takes the enclosing cube
    [-size, size]^3 and projects onto the ball; a 2-d body other than a
    box (the disk and the cap) takes rings: radius (polar angle on the
    cap) in [0, size] x azimuth in [0, 2 pi].
    """

    body: _Body
    slack: float = 0.0

    @functools.cached_property
    def rings(self) -> bool:
        return self.body.kind != "box" and self.body.d == 2

    def ambient(self, q: np.ndarray) -> np.ndarray:
        """(N, m) ambient points of the (d, N) parameter points ``q``, in
        row order, so that a gather of rows copies only those rows."""
        if not self.rings:
            return np.ascontiguousarray(q.T)
        sphere = self.body.kind == "cap"
        t, phi = q
        c = np.sin(t) if sphere else t
        x = np.empty((len(t), 3 if sphere else 2))
        np.multiply(c, np.cos(phi), out=x[:, 0])
        np.multiply(c, np.sin(phi), out=x[:, 1])
        if sphere:
            np.cos(t, out=x[:, 2])
        return x

    def radius(self, box: np.ndarray, rep: np.ndarray) -> np.ndarray:
        """Largest distance from each representative to a corner of its box.

        On flat boxes the farthest corner takes the farther end on every
        axis.  On polar boxes it takes the larger azimuth gap, and the
        chord to a point at the same azimuth gap is
        ``dt^2 + c(t) c(t') (2 sin(gap/2))^2`` with dt = t - t' on the disk
        and 2 sin((t - t')/2) on the sphere, for t' at either end.
        """
        d = self.body.d
        if not self.rings:
            return np.sqrt(sum(np.maximum(rep[i] - box[i],
                                          box[d + i] - rep[i]) ** 2
                               for i in range(d)))
        sphere = self.body.kind == "cap"
        t = rep[0]
        gap = np.maximum(rep[1] - box[1], box[3] - rep[1])
        across = (2.0 * np.sin(0.5 * gap)) ** 2 * (np.sin(t) if sphere else t)
        ends = box[::2]  # both polar ends in one batch
        dt = 2.0 * np.sin(0.5 * (t - ends)) if sphere else t - ends
        chord2 = dt * dt + across * (np.sin(ends) if sphere else ends)
        chord = np.sqrt(np.maximum(chord2[0], chord2[1]))
        return chord_to_geodesic(chord) if sphere else chord

    def cells(self, spec: ManifoldSpec, box: np.ndarray, rep: np.ndarray,
              h: float | None = None,
              parent: np.ndarray | None = None) -> EvalGrid:
        """Cells of the given (2d, N) boxes and (d, N) parameter
        representatives, each with the ``parent`` row given for it."""
        size = self.body.size
        cube = self.body.kind == "ball" and not self.rings
        if cube:  # drop the boxes that miss the ball
            near2 = sum(np.minimum(np.maximum(box[i], 0.0), box[3 + i]) ** 2
                        for i in range(3))
            keep = (near2 <= size ** 2).nonzero()[0]
            box, rep = box.take(keep, axis=1), rep.take(keep, axis=1)
            if parent is not None:
                parent = parent.take(keep)
        rad = self.radius(box, rep)
        rad += self.slack
        x = self.ambient(rep)
        if cube:
            nrm = np.sqrt(sum(x[:, i] ** 2 for i in range(3)))
            out = nrm > size
            x = x.copy()
            x[out] *= (size / nrm[out])[:, None]
        if h is None:
            h = float(np.maximum.reduce(rad, initial=0.0))
        return EvalGrid(spec, self, x, h, box, rad, parent)


@functools.lru_cache(maxsize=64)
def _domain(spec: ManifoldSpec, region: RegionSpec) -> _Domain:
    """The parameter space of B."""
    body = _body(spec, region)  # refuses an empty interior body
    if region.kind is RegionKind.ALL or body.boundaryless:
        return _Domain(body)
    # every point of B lies within _INSET * sqrt(d) of the shrunk
    # body, whose points are strictly inside B
    return _Domain(spec.body.shrunk(region.delta + _INSET),
                   _INSET * math.sqrt(spec.d))


def _start(dom: _Domain, h: float):
    """((2d, N) boxes, (d, N) representatives, unfilled :class:`Bins`) of
    the start partition at h."""
    body = dom.body
    if not dom.rings:
        lo, side = ((body.lo, body.size) if body.kind == "box"
                    else (-body.size, 2.0 * body.size))
        n = max(1, math.ceil(side / min(h, 2.0 * h / math.sqrt(body.d))))
        _check_cap((n + 1) ** body.d, h)
        s = side / n
        axis = lo + np.arange(n + 1) * s
        axis[-1] = lo + side  # exact upper face
        axes = (axis, np.maximum(axis - s / 2, lo),
                np.minimum(axis + s / 2, lo + side))
        rep, box_lo, box_hi = (
            np.array([m.ravel() for m in np.meshgrid(*(a,) * body.d,
                                                     indexing="ij")])
            for a in axes)
        return np.concatenate((box_lo, box_hi)), rep, Bins(dom, s, n, lo)
    pos = np.linspace(0.0, body.size, max(1, math.ceil(body.size / h)) + 1)
    circ = np.sin(pos) if body.kind == "cap" else pos
    # a ring off the axis gets two boxes at least, so no azimuth gap
    # exceeds pi/2 (see the module docstring)
    on_axis = (pos == 0.0) | (pos == math.pi)
    counts = np.maximum(np.where(on_axis, 1, 2),
                        np.ceil(2.0 * math.pi * circ / h)).astype(np.int64)
    _check_cap(int(np.sum(counts)), h)
    ring = np.repeat(np.arange(len(pos)), counts)
    first = np.cumsum(counts) - counts
    j = np.arange(len(ring)) - first[ring]
    ang = 2.0 * math.pi * j / counts[ring]
    half_t = 0.5 * (pos[1] - pos[0])
    half_a = math.pi / counts[ring]
    t = pos[ring]
    box = np.array([np.maximum(t - half_t, 0.0), ang - half_a,
                    np.minimum(t + half_t, body.size), ang + half_a])
    bins = Bins(dom, pos[1] - pos[0], len(pos) - 1,
                first=first.astype(float), count=counts.astype(float))
    return box, np.array([t, ang]), bins


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
    the full-partition oracle at h.  The partition carries its
    :class:`Bins` in two and three dimensions, where the tests pin the
    chords that the bins certify to cKDTree's bits.  Raises
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
    dom = _domain(spec, region)
    box, rep, bins = _start(dom, h - dom.slack)
    grid = dom.cells(spec, box, rep, h=float(h))
    # every rho <= h: sqrt(d) s / 2 on a lattice, at most about 0.74 h on
    # the rings; where it is h itself (lattices of d >= 4), the corner
    # formula can round a few ulps above it
    np.minimum(grid.rad, grid.h, out=grid.rad)
    if spec.m <= 3:  # cKDTree's order of summation differs from m = 8 on
        grid = dataclasses.replace(grid, bins=bins.filled(grid, rep))
        _read_only(grid.bins.first, grid.bins.count, grid.bins.row,
                   grid.bins.reach2)
    _read_only(grid.nodes, grid.box, grid.rad)
    return grid


def _read_only(*arrays: np.ndarray | None) -> None:
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


def refine_nodes(centers: EvalGrid) -> EvalGrid:
    """The children of the given cells: each box halved along every side.

    Children take the centres of their boxes as representatives; on the
    ball, children whose box misses the ball are dropped.  Each child's
    ``parent`` is its row in ``centers``.
    """
    dom = centers.domain
    d = dom.body.d
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
    return dom.cells(centers.spec, box, 0.5 * (box[:d] + box[d:]),
                     parent=np.arange(n).repeat(2 ** d))
