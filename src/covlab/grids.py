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

The start partition at resolution h has every rho <= h.  It is the
lattice of nodes lo + i s with spacing s <= 2h/sqrt(d), each node with the
box [node - s/2, node + s/2] clipped to the shape, or rings spaced <= h of
ceil(2 pi c / h) nodes (c the ring's radius, or sin of its polar angle;
two nodes at least off the axis), each node with the box half way to its
neighbours; its nodes are the
representatives, so the corners, faces and rims of B are among them.
Children take the centres of their boxes.

For interior-body regions the partition is that of the body shrunk by a
further hair (1e-9), so the representatives satisfy the strict interior
constraint; the slack is added to every cover radius.  Geometry refuses
an interior body that has no point that far inside it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (_INSET, ManifoldSpec, RegionKind, RegionSpec, _Body,
                       _body, chord_to_geodesic)

# most cells a start partition may have; guards --h and grid_h input
NODE_CAP = 4_000_000

# smallest supported cover radius or bracket width
MIN_RESOLUTION = 4.0 * _INSET


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class EvalGrid:
    """Cells covering B: representatives ``nodes`` in B, boxes and radii.

    Row i is the parameter box ``[box_lo[i], box_hi[i]]`` with
    representative ``nodes[i]`` (ambient coordinates) and cover radius
    ``rad[i] <= h``.  The boxes are stored column-major, so that the
    per-axis arithmetic runs on contiguous columns.  ``parent[i]`` is the
    row, among the cells that :func:`refine_nodes` split, whose box holds
    cell i's box; a start partition has no parents.
    """

    spec: ManifoldSpec
    region: RegionSpec
    nodes: np.ndarray     # (N, m) representative points in B
    h: float
    box_lo: np.ndarray    # (N, d) parameter box lower corners
    box_hi: np.ndarray    # (N, d) parameter box upper corners
    rad: np.ndarray       # (N,) certified cover radii
    parent: np.ndarray | None = None  # (N,) row of each cell's parent

    def __len__(self) -> int:
        return len(self.nodes)

    def take(self, mask: np.ndarray) -> "EvalGrid":
        """The cells selected by a boolean mask or an index array."""
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        rad = self.rad.take(idx)
        parent = None if self.parent is None else self.parent.take(idx)
        return EvalGrid(self.spec, self.region,
                        self.nodes.take(idx, axis=0),
                        float(rad.max(initial=0.0)), _rows(self.box_lo, idx),
                        _rows(self.box_hi, idx), rad, parent)


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of a column-major (N, d) array, column-major."""
    return a.T.take(idx, axis=1).T


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

    @property
    def rings(self) -> bool:
        return self.body.kind != "box" and self.body.d == 2

    def ambient(self, q: np.ndarray) -> np.ndarray:
        if not self.rings:
            return q
        sphere = self.body.kind == "cap"
        t, phi = q[:, 0], q[:, 1]
        c = np.sin(t) if sphere else t
        x = np.empty((len(t), 3 if sphere else 2))
        np.multiply(c, np.cos(phi), out=x[:, 0])
        np.multiply(c, np.sin(phi), out=x[:, 1])
        if sphere:
            np.cos(t, out=x[:, 2])
        return x

    def radius(self, lo: np.ndarray, hi: np.ndarray,
               rep: np.ndarray) -> np.ndarray:
        """Largest distance from each representative to a corner of its box.

        On flat boxes the farthest corner takes the farther end on every
        axis.  On polar boxes it takes the larger azimuth gap, and the
        chord to a point at the same azimuth gap is
        ``dt^2 + c(t) c(t') (2 sin(gap/2))^2`` with dt = t - t' on the disk
        and 2 sin((t - t')/2) on the sphere, for t' at either end.
        """
        if not self.rings:
            return np.sqrt(sum(np.maximum(rep[:, i] - lo[:, i],
                                          hi[:, i] - rep[:, i]) ** 2
                               for i in range(self.body.d)))
        sphere = self.body.kind == "cap"
        t = rep[:, 0]
        gap = np.maximum(rep[:, 1] - lo[:, 1], hi[:, 1] - rep[:, 1])
        across = (2.0 * np.sin(0.5 * gap)) ** 2 * (np.sin(t) if sphere else t)
        ends = np.array([lo[:, 0], hi[:, 0]])  # both ends in one batch
        dt = 2.0 * np.sin(0.5 * (t - ends)) if sphere else t - ends
        chord2 = dt * dt + across * (np.sin(ends) if sphere else ends)
        chord = np.sqrt(chord2.max(axis=0))
        return chord_to_geodesic(chord) if sphere else chord

    def cells(self, spec: ManifoldSpec, region: RegionSpec, lo: np.ndarray,
              hi: np.ndarray, rep: np.ndarray, h: float | None = None,
              parent: np.ndarray | None = None) -> EvalGrid:
        """Cells of the given boxes and parameter representatives, each
        with the ``parent`` row given for it."""
        size = self.body.size
        cube = self.body.kind == "ball" and not self.rings
        if cube:  # drop the boxes that miss the ball
            near2 = sum(np.clip(0.0, lo[:, i], hi[:, i]) ** 2
                        for i in range(3))
            keep = np.flatnonzero(near2 <= size ** 2)
            lo, hi, rep = (_rows(a, keep) for a in (lo, hi, rep))
            if parent is not None:
                parent = parent.take(keep)
        rad = self.radius(lo, hi, rep) + self.slack
        x = self.ambient(rep)
        if cube:
            nrm = np.sqrt(sum(x[:, i] ** 2 for i in range(3)))
            out = nrm > size
            x = x.copy()
            x[out] *= (size / nrm[out])[:, None]
        if h is None:
            h = float(rad.max(initial=0.0))
        return EvalGrid(spec, region, x, h, lo, hi, rad, parent)


@functools.lru_cache(maxsize=64)
def _domain(spec: ManifoldSpec, region: RegionSpec) -> _Domain:
    """The parameter space of B."""
    body = _body(spec, region)  # refuses an empty interior body
    if region.kind is RegionKind.ALL or body.boundaryless:
        return _Domain(body)
    # every point of B lies within _INSET * sqrt(d) of the shrunk
    # body, whose points are strictly inside B
    return _Domain(_body(spec).shrunk(region.delta + _INSET),
                   _INSET * math.sqrt(spec.d))


def _start(dom: _Domain, h: float):
    """(box lo, box hi, representative) of the start partition at h."""
    body = dom.body
    if not dom.rings:
        lo, side = ((body.lo, body.size) if body.kind == "box"
                    else (-body.size, 2.0 * body.size))
        n = max(1, math.ceil(side / (2.0 * h / math.sqrt(body.d))))
        _check_cap((n + 1) ** body.d, h)
        s = side / n
        axis = lo + np.arange(n + 1) * s
        axis[-1] = lo + side  # exact upper face
        axes = (axis, np.maximum(axis - s / 2, lo),
                np.minimum(axis + s / 2, lo + side))
        rep, box_lo, box_hi = (
            np.array([m.ravel() for m in np.meshgrid(*(a,) * body.d,
                                                     indexing="ij")]).T
            for a in axes)
        return box_lo, box_hi, rep
    pos = np.linspace(0.0, body.size, max(1, math.ceil(body.size / h)) + 1)
    circ = np.sin(pos) if body.kind == "cap" else pos
    # a ring off the axis gets two boxes at least, so no azimuth gap
    # exceeds pi/2 (see the module docstring)
    on_axis = (pos == 0.0) | (pos == math.pi)
    counts = np.maximum(np.where(on_axis, 1, 2),
                        np.ceil(2.0 * math.pi * circ / h)).astype(np.int64)
    _check_cap(int(np.sum(counts)), h)
    ring = np.repeat(np.arange(len(pos)), counts)
    j = np.arange(len(ring)) - (np.cumsum(counts) - counts)[ring]
    ang = 2.0 * math.pi * j / counts[ring]
    half_t = 0.5 * (pos[1] - pos[0])
    half_a = math.pi / counts[ring]
    t = pos[ring]
    box_lo = np.array([np.maximum(t - half_t, 0.0), ang - half_a]).T
    box_hi = np.array([np.minimum(t + half_t, body.size), ang + half_a]).T
    return box_lo, box_hi, np.array([t, ang]).T


def _check_cap(count: int, h: float) -> None:
    if count > NODE_CAP:
        raise GridError(
            f"grid at h={h} needs ~{count} nodes, above the cap of "
            f"{NODE_CAP}; coarsen h")


def build_grid(spec: ManifoldSpec, region: RegionSpec, h: float) -> EvalGrid:
    """Start partition of B with every cover radius <= h.

    The driver builds one per sample size; tests and benchmarks use it as
    the full-partition oracle at h.  Raises :class:`GridError` when h is
    not a finite number above ``MIN_RESOLUTION``, or when the partition
    would need more than ``NODE_CAP`` cells (the message reports the count
    needed).
    """
    if not (math.isfinite(h) and h > 0.0):
        raise GridError(f"covering radius h must be a finite number > 0, "
                        f"got {h}")
    if h <= MIN_RESOLUTION:
        raise GridError(f"h={h} is below the supported resolution")
    dom = _domain(spec, region)
    grid = dom.cells(spec, region, *_start(dom, h - dom.slack), h=float(h))
    # the lattice and the rings have rho <= h (rings about 0.8 h); where
    # it is h itself, the corner formula can round a few ulps above it
    np.minimum(grid.rad, grid.h, out=grid.rad)
    return grid


@functools.lru_cache(maxsize=8)
def _child_bits(d: int) -> np.ndarray:
    """(d, 1, 2^d) flags, read-only: child j takes the upper half of axis i
    where set."""
    bits = np.array(list(itertools.product((False, True), repeat=d)))
    bits.setflags(write=False)
    return bits.T[:, None, :]


def refine_nodes(centers: EvalGrid) -> EvalGrid:
    """The children of the given cells: each box halved along every side.

    Children take the centres of their boxes as representatives; on the
    ball, children whose box misses the ball are dropped.  Each child's
    ``parent`` is its row in ``centers``.
    """
    dom = _domain(centers.spec, centers.region)
    d = dom.body.d
    bits = _child_bits(d)
    # (axis, cell, child) arrays, flattened to column-major (cell, child) rows
    lo, hi = centers.box_lo.T[:, :, None], centers.box_hi.T[:, :, None]
    mid = 0.5 * (lo + hi)
    c_lo = np.where(bits, mid, lo).reshape(d, -1).T
    c_hi = np.where(bits, hi, mid).reshape(d, -1).T
    return dom.cells(centers.spec, centers.region, c_lo, c_hi,
                     0.5 * (c_lo + c_hi),
                     parent=np.arange(len(centers)).repeat(2 ** d))
