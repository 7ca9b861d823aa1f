"""Cell partitions of B with a certified cover radius.

A partition turns "for every x in B" into a finite max.  Each cell is a box
in a parameter space of the shape, with a representative point p in B and
a cover radius rho: every point of B in the cell lies within geodesic
distance rho of p.  A cell splits into its 2^d children by halving every
side of its box, so the children tile their parent exactly.  The parameter
spaces are

- the coordinates themselves on the square and cube;
- the coordinates of the enclosing cube [-R, R]^3 on the solid ball: a
  box that misses the ball is dropped, and a representative outside the
  ball is projected onto it, which moves it no farther from any point of
  the ball (projection onto a convex set is 1-Lipschitz);
- radius x azimuth on the disk, polar angle x azimuth on the sphere and cap.

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

For interior-body regions the representatives are pulled a hair (1e-9)
inside the closed region so they satisfy the strict interior constraint;
the slack is added to every cover radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (Family, ManifoldSpec, RegionKind, RegionSpec,
                       chord_to_geodesic)

# most cells a start partition may have; guards --h and grid_h input
NODE_CAP = 4_000_000

# strict-interior pullback for interior_body grids
_EDGE_EPS = 1e-9
# smallest supported cover radius or bracket width
MIN_RESOLUTION = 4.0 * _EDGE_EPS


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class EvalGrid:
    """Cells covering B: representatives ``nodes`` in B, boxes and radii.

    Row i is the parameter box ``[box_lo[i], box_hi[i]]`` with
    representative ``nodes[i]`` (ambient coordinates) and cover radius
    ``rad[i] <= h``.  The boxes are stored column-major, so that the
    per-axis arithmetic runs on contiguous columns.
    """

    spec: ManifoldSpec
    region: RegionSpec
    nodes: np.ndarray     # (N, m) representative points in B
    h: float
    box_lo: np.ndarray    # (N, d) parameter box lower corners
    box_hi: np.ndarray    # (N, d) parameter box upper corners
    rad: np.ndarray       # (N,) certified cover radii

    def __len__(self) -> int:
        return len(self.nodes)

    def take(self, mask: np.ndarray) -> "EvalGrid":
        """The cells selected by a boolean mask or an index array."""
        rad = self.rad[mask]
        return EvalGrid(self.spec, self.region, self.nodes[mask],
                        float(np.max(rad, initial=0.0)),
                        _rows(self.box_lo, mask), _rows(self.box_hi, mask),
                        rad)


def _rows(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Selected rows of a column-major (N, d) array, column-major."""
    return np.array([col[mask] for col in a.T]).T


@dataclass(frozen=True)
class _Domain:
    """Parameter space of one (family, region) pair.

    ``kind`` is "box" ([lo, lo + size]^d), "ball" (radius size, boxes in
    [-size, size]^3), "disk" (radius in [0, size]) or "sphere" (polar
    angle in [0, size]); the polar kinds add the azimuth in [0, 2 pi].
    """

    kind: str
    d: int
    size: float
    lo: float = 0.0
    slack: float = 0.0

    def ambient(self, q: np.ndarray) -> np.ndarray:
        if self.kind in ("box", "ball"):
            return q
        t, phi = q[:, 0], q[:, 1]
        c = np.sin(t) if self.kind == "sphere" else t
        cols = [c * np.cos(phi), c * np.sin(phi)]
        if self.kind == "sphere":
            cols.append(np.cos(t))
        return np.column_stack(cols)

    def radius(self, lo: np.ndarray, hi: np.ndarray,
               rep: np.ndarray) -> np.ndarray:
        """Largest distance from each representative to a corner of its box.

        On flat boxes the farthest corner takes the farther end on every
        axis.  On polar boxes it takes the larger azimuth gap, and the
        chord to a point at the same azimuth gap is
        ``dt^2 + c(t) c(t') (2 sin(gap/2))^2`` with dt = t - t' on the disk
        and 2 sin((t - t')/2) on the sphere, for t' at either end.
        """
        if self.kind in ("box", "ball"):
            return np.sqrt(sum(np.maximum(rep[:, i] - lo[:, i],
                                          hi[:, i] - rep[:, i]) ** 2
                               for i in range(self.d)))
        sphere = self.kind == "sphere"
        t = rep[:, 0]
        gap = np.maximum(rep[:, 1] - lo[:, 1], hi[:, 1] - rep[:, 1])
        across = (2.0 * np.sin(0.5 * gap)) ** 2 * (np.sin(t) if sphere else t)
        chord2 = np.zeros(len(t))
        for end in (lo[:, 0], hi[:, 0]):
            dt = 2.0 * np.sin(0.5 * (t - end)) if sphere else t - end
            np.maximum(chord2, dt * dt + across * (np.sin(end) if sphere
                                                   else end), out=chord2)
        chord = np.sqrt(chord2)
        return chord_to_geodesic(chord) if sphere else chord

    def cells(self, spec: ManifoldSpec, region: RegionSpec, lo: np.ndarray,
              hi: np.ndarray, rep: np.ndarray, h: float | None = None
              ) -> EvalGrid:
        """Cells of the given boxes and parameter representatives."""
        if self.kind == "ball":  # drop the boxes that miss the ball
            near2 = sum(np.clip(0.0, lo[:, i], hi[:, i]) ** 2
                        for i in range(3))
            keep = near2 <= self.size ** 2
            lo, hi, rep = (_rows(a, keep) for a in (lo, hi, rep))
        rad = self.radius(lo, hi, rep) + self.slack
        x = self.ambient(rep)
        if self.kind == "ball":
            nrm = np.sqrt(sum(x[:, i] ** 2 for i in range(3)))
            out = nrm > self.size
            x = x.copy()
            x[out] *= (self.size / nrm[out])[:, None]
        if h is None:
            h = float(np.max(rad, initial=0.0))
        return EvalGrid(spec, region, x, h, lo, hi, rad)


def _domain(spec: ManifoldSpec, region: RegionSpec) -> _Domain:
    """The parameter space of B."""
    fam = spec.family
    if fam is Family.UNIT_SPHERE:  # no boundary: every region is the sphere
        return _Domain("sphere", 2, math.pi)
    delta = slack = 0.0
    if region.kind is RegionKind.INTERIOR_BODY:
        # every point of B lies within _EDGE_EPS * sqrt(d) of the shrunk
        # domain, whose points are strictly inside B
        delta = region.delta + _EDGE_EPS
        slack = _EDGE_EPS * math.sqrt(spec.d)
    if fam is Family.UNIT_SQUARE:
        size = 1.0 - 2.0 * delta
    elif fam is Family.SPHERICAL_CAP:
        size = spec.alpha - delta
    else:
        size = 1.0 - delta
    if size <= 0.0:
        raise GridError(f"interior body delta={region.delta} empties the "
                        f"{fam.value}")
    kind = {Family.UNIT_SQUARE: "box", Family.SOLID_BALL: "ball",
            Family.UNIT_DISK: "disk", Family.SPHERICAL_CAP: "sphere"}[fam]
    return _Domain(kind, spec.d, size, delta, slack)


def _start(dom: _Domain, h: float):
    """(box lo, box hi, representative) of the start partition at h."""
    if dom.kind in ("box", "ball"):
        lo, side = ((dom.lo, dom.size) if dom.kind == "box"
                    else (-dom.size, 2.0 * dom.size))
        n = max(1, math.ceil(side / (2.0 * h / math.sqrt(dom.d))))
        _check_cap((n + 1) ** dom.d, h)
        s = side / n
        axis = lo + np.arange(n + 1) * s
        axis[-1] = lo + side  # exact upper face
        axes = (axis, np.maximum(axis - s / 2, lo),
                np.minimum(axis + s / 2, lo + side))
        rep, box_lo, box_hi = (
            np.array([m.ravel() for m in np.meshgrid(*(a,) * dom.d,
                                                     indexing="ij")]).T
            for a in axes)
        return box_lo, box_hi, rep
    pos = np.linspace(0.0, dom.size, max(1, math.ceil(dom.size / h)) + 1)
    circ = np.sin(pos) if dom.kind == "sphere" else pos
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
    box_hi = np.array([np.minimum(t + half_t, dom.size), ang + half_a]).T
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
    not above ``MIN_RESOLUTION``, or when the partition would need more
    than ``NODE_CAP`` cells (the message reports the count needed).
    """
    if h <= 0.0:
        raise GridError("covering radius h must be > 0")
    if h <= MIN_RESOLUTION:
        raise GridError(f"h={h} is below the supported resolution")
    dom = _domain(spec, region)
    grid = dom.cells(spec, region, *_start(dom, h - dom.slack), h=float(h))
    # the lattice and the rings have rho <= h (rings about 0.8 h); where
    # it is h itself, the corner formula can round a few ulps above it
    np.minimum(grid.rad, grid.h, out=grid.rad)
    return grid


def refine_nodes(centers: EvalGrid) -> EvalGrid:
    """The children of the given cells: each box halved along every side.

    Children take the centres of their boxes as representatives; on the
    ball, children whose box misses the ball are dropped.
    """
    dom = _domain(centers.spec, centers.region)
    n, d = len(centers), dom.d
    bits = np.array(list(itertools.product((False, True), repeat=d)))
    c_lo, c_hi = np.empty((2, d, n, 2 ** d))
    for i in range(d):  # child j of a cell takes the upper half where bit i
        lo, hi = centers.box_lo[:, i, None], centers.box_hi[:, i, None]
        mid = 0.5 * (lo + hi)
        c_lo[i] = np.where(bits[:, i], mid, lo)
        c_hi[i] = np.where(bits[:, i], hi, mid)
    c_lo, c_hi = c_lo.reshape(d, -1).T, c_hi.reshape(d, -1).T
    return dom.cells(centers.spec, centers.region, c_lo, c_hi,
                     0.5 * (c_lo + c_hi))
