"""Evaluation grids with a certified covering radius.

A grid discretizes "for every x in B" into a finite max: every point of B
lies within geodesic distance h of some node, and all nodes lie in B.
Every supported (family, region) pair is one of two constructions whose
nodes are numbered by a flat index:

- a lattice of the corners of cells of half-diagonal <= h on the square or
  cube; the solid ball is the cube lattice on [-rho, rho]^3 with its
  corners kept in the ball or projected onto it;
- rings of equally spaced nodes at radius r on the disk (circumference
  2 pi r) or at polar angle theta on the sphere or cap (2 pi sin theta).

The full grid emits every index; certified refinement emits a window of
indices around some centers, so refined nodes are nodes of the finer grid.

For interior-body regions the nodes are pulled a hair (1e-9) inside the
closed region so they satisfy the strict interior constraint; the slack is
absorbed into the certified radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (Family, ManifoldSpec, RegionKind, RegionSpec,
                       polar_angle)

DEFAULT_NODE_CAP = 4_000_000

# strict-interior pullback for interior_body grids
_EDGE_EPS = 1e-9


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class EvalGrid:
    """Finite node set in B whose covering radius (geodesic) is <= h."""

    spec: ManifoldSpec
    region: RegionSpec
    nodes: np.ndarray     # (N, m) ambient coordinates
    h: float

    def __len__(self) -> int:
        return len(self.nodes)


class _Lattice:
    """Corner lattice of [lo, lo + side]^d with cells of half-diagonal <= h.

    With ``rho`` set this is the solid ball of radius rho, and the lattice
    spans [-rho, rho]^3 (see :func:`_ball_project`).
    """

    def __init__(self, d: int, lo: float, side: float, h: float,
                 rho: float | None = None):
        self.d, self.lo, self.side, self.rho = d, lo, side, rho
        self.n = max(1, math.ceil(side / (2.0 * h / math.sqrt(d))))
        self.s = side / self.n
        self.shape = (self.n + 1,) * d

    def count(self) -> int:
        if self.rho is None:
            return math.prod(self.shape)
        # lattice nodes inside the ball plus the projected shell: ~ volume ratio
        return int(math.prod(self.shape) * 0.65) + 8

    def all(self) -> np.ndarray:
        return np.arange(math.prod(self.shape))

    def window(self, centers: np.ndarray, reach: float) -> np.ndarray:
        # the ball's projection can move a corner by up to s*sqrt(3)/2
        pad = reach if self.rho is None else reach + self.s
        lo_idx = np.maximum(np.floor((centers - pad - self.lo) / self.s), 0).astype(np.int64)
        hi_idx = np.minimum(np.ceil((centers + pad - self.lo) / self.s),
                            self.n).astype(np.int64)
        # offsets of the largest box; each center's box is clipped to the
        # lattice (which repeats indices), in chunks of about 1M indices
        box = np.indices((int(np.max(hi_idx - lo_idx)) + 1,) * self.d)
        box = box.reshape(self.d, 1, -1)
        per = max(1, 2 ** 20 // box.shape[-1])
        parts = []
        for i in range(0, len(centers), per):
            q = np.minimum(lo_idx[i:i + per].T[:, :, None] + box,
                           hi_idx[i:i + per].T[:, :, None])
            parts.append(_distinct(np.ravel_multi_index(tuple(q), self.shape)))
        return _distinct(np.concatenate(parts))

    def emit(self, idx: np.ndarray) -> np.ndarray:
        axis = self.lo + np.arange(self.n + 1) * self.s
        if self.rho is None:
            axis[-1] = self.lo + self.side  # exact upper face
        if len(idx) == math.prod(self.shape):  # every index: broadcast the axis
            nodes = np.empty(self.shape + (self.d,))
            for i in range(self.d):
                nodes[..., i] = axis.reshape((-1,) + (1,) * (self.d - 1 - i))
            nodes = nodes.reshape(-1, self.d)
        else:
            nodes = np.column_stack(
                [axis[q] for q in np.unravel_index(idx, self.shape)])
        return (nodes if self.rho is None
                else _ball_project(nodes, self.rho, self.s))


def _ball_project(q: np.ndarray, rho: float, s: float) -> np.ndarray:
    """Keep lattice corners in the ball; radially project the near shell."""
    nrm = np.linalg.norm(q, axis=1)
    inside = nrm <= rho
    shell = (~inside) & (nrm <= rho + s * math.sqrt(3.0) / 2.0 + 1e-12)
    return np.concatenate([q[inside], q[shell] * (rho / nrm[shell])[:, None]])


class _Rings:
    """Rings at positions 0..tmax, spaced <= h, of ceil(2 pi c / h) nodes.

    On the disk a ring sits at radius r and c = r; on the sphere or cap it
    sits at polar angle theta and c = sin theta.  Flat indices run ring by
    ring, each ring by increasing azimuth.
    """

    def __init__(self, tmax: float, h: float, polar: bool):
        self.polar = polar
        self.pos = np.linspace(0.0, tmax, max(1, math.ceil(tmax / h)) + 1)
        self.circ = np.sin(self.pos) if polar else self.pos
        self.counts = np.maximum(
            1, np.ceil(2.0 * math.pi * self.circ / h)).astype(np.int64)
        self.starts = np.cumsum(self.counts) - self.counts

    def count(self) -> int:
        return int(np.sum(self.counts))

    def all(self) -> np.ndarray:
        return np.arange(self.count())

    def _cos_half(self, ring: np.ndarray, c_pos: np.ndarray,
                  reach: float) -> np.ndarray:
        """Cosine of the azimuth half-width within ``reach`` of a center, or
        -1 (the whole ring) where the ring or the center is on the axis."""
        if self.polar:  # spherical law of cosines
            num = (math.cos(min(reach, math.pi))
                   - np.cos(self.pos[ring]) * np.cos(c_pos))
            den = self.circ[ring] * np.sin(c_pos)
            whole = den < 1e-12
        else:  # chord <= reach: planar law of cosines
            r = self.pos[ring]
            num = r * r + c_pos * c_pos - reach * reach
            den = 2.0 * r * c_pos
            whole = (r < 1e-12) | (c_pos < 1e-12)
        return np.divide(num, den, out=np.full(len(num), -1.0), where=~whole)

    def window(self, centers: np.ndarray, reach: float) -> np.ndarray:
        c_pos = (polar_angle(centers) if self.polar
                 else np.linalg.norm(centers, axis=1))
        c_ang = np.mod(np.arctan2(centers[:, 1], centers[:, 0]), 2.0 * math.pi)
        first = np.searchsorted(self.pos, c_pos - reach, side="left")
        last = np.searchsorted(self.pos, c_pos + reach, side="right") - 1
        # one entry per (center, ring) pair, then one per node of its window
        pair_c, rank = _runs(np.maximum(last - first + 1, 0))
        ring = first[pair_c] + rank
        half = np.arccos(np.clip(self._cos_half(ring, c_pos[pair_c], reach),
                                 -1.0, 1.0))
        count = self.counts[ring]
        step = 2.0 * math.pi / count
        w = np.ceil(half / step).astype(np.int64) + 1
        whole = 2 * w + 1 >= count
        j0 = np.floor(c_ang[pair_c] / step).astype(np.int64) - w
        pair, k = _runs(np.where(whole, count, 2 * w + 1))
        j = np.where(whole[pair], k, (j0[pair] + k) % count[pair])
        return _distinct(self.starts[ring[pair]] + j)

    def emit(self, idx: np.ndarray) -> np.ndarray:
        ring = np.searchsorted(self.starts, idx, side="right") - 1
        ang = 2.0 * math.pi * (idx - self.starts[ring]) / self.counts[ring]
        c = self.circ[ring]
        cols = [c * np.cos(ang), c * np.sin(ang)]
        if self.polar:
            cols.append(np.cos(self.pos[ring]))
        return np.column_stack(cols)


def _distinct(idx: np.ndarray) -> np.ndarray:
    """Sorted distinct entries, as from np.unique."""
    # np.unique took 1.5 s on 1.5M random int64 where this takes 22 ms
    # (numpy 2.4.6 on a 2-vCPU x86-64 VM with AVX-512)
    idx = np.sort(idx, axis=None)
    keep = np.ones(len(idx), dtype=bool)
    np.not_equal(idx[1:], idx[:-1], out=keep[1:])
    return idx[keep]


def _runs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run number and rank within its run of each entry of consecutive runs."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) - (np.cumsum(sizes) - sizes)[run]


def _construction(spec: ManifoldSpec, region: RegionSpec,
                  h: float) -> _Lattice | _Rings:
    """The structured construction of B at covering radius h."""
    if region.kind is RegionKind.GEODESIC_BALL:
        raise GridError("structured grids for geodesic-ball regions are not "
                        "supported; evaluate on an enclosing region instead")
    delta = 0.0
    if region.kind is RegionKind.INTERIOR_BODY:
        delta = region.delta + _EDGE_EPS
        # nodes sit _EDGE_EPS inside the closed region, so the construction
        # runs slightly finer to keep the certified radius <= h
        h = h - _EDGE_EPS
    fam = spec.family
    if fam is Family.UNIT_SPHERE:
        return _Rings(math.pi, h, polar=True)
    if fam is Family.UNIT_SQUARE:
        size = 1.0 - 2.0 * delta
    elif fam is Family.SPHERICAL_CAP:
        size = spec.alpha - delta
    else:
        size = 1.0 - delta
    if size <= 0.0:
        raise GridError(f"interior body delta={region.delta} empties the "
                        f"{fam.value}")
    if fam is Family.UNIT_SQUARE:
        return _Lattice(spec.d, delta, size, h)
    if fam is Family.SOLID_BALL:
        return _Lattice(3, -size, 2.0 * size, h, rho=size)
    return _Rings(size, h, polar=fam is Family.SPHERICAL_CAP)


def estimate_node_count(spec: ManifoldSpec, region: RegionSpec, h: float) -> int:
    """Node count of :func:`build_grid`; approximate (~volume ratio) for the ball."""
    return _construction(spec, region, h).count()


def build_grid(spec: ManifoldSpec, region: RegionSpec, h: float,
               node_cap: int = DEFAULT_NODE_CAP) -> EvalGrid:
    """Structured grid over B with certified covering radius <= h.

    Raises :class:`GridError` when the required node count exceeds
    ``node_cap`` (the message reports the count needed).
    """
    if h <= 0.0:
        raise GridError("covering radius h must be > 0")
    if h <= 4.0 * _EDGE_EPS:
        raise GridError(f"h={h} is below the supported resolution")
    grid = _construction(spec, region, h)
    est = grid.count()
    if est > node_cap:
        raise GridError(
            f"grid at h={h} needs ~{est} nodes, above the cap of {node_cap}; "
            f"raise node_cap to at least {est} or coarsen h")
    return EvalGrid(spec=spec, region=region, nodes=grid.emit(grid.all()),
                    h=float(h))


def refine_nodes(spec: ManifoldSpec, region: RegionSpec, centers: np.ndarray,
                 reach: float, h: float) -> np.ndarray:
    """Nodes of the resolution-h structured grid near the given centers.

    Returns every node within geodesic distance `reach` of some center
    (possibly a few more).  Because the full construction is an h-cover of
    B, the result is an h-cover of {x in B : dist(x, centers) <= reach - h}.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if len(centers) == 0:
        return np.empty((0, spec.m))
    grid = _construction(spec, region, h)
    nodes = grid.emit(grid.window(centers, reach))
    if len(nodes) > DEFAULT_NODE_CAP:
        raise GridError(f"refinement produced {len(nodes)} nodes, above the "
                        f"cap of {DEFAULT_NODE_CAP}")
    return nodes
