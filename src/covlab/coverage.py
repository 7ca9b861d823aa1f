"""k-coverage thresholds with certified error intervals.

Every threshold here is the max over a target set B of one field that is
1-Lipschitz in the geodesic metric.  The coverage threshold maximises the
k-th nearest-neighbor distance field f; the interior coverage threshold
maximises min(f, depth), where depth is the distance to the boundary of
the shape.  Evaluating the field on an h-covering grid brackets the max
inside [grid max, grid max + h].  Optional refinement re-covers only the
region that can still contain the argmax, shrinking h geometrically at
near-constant cost.  One maximiser serves both thresholds.

The maximiser does not query the field at every node.  The max sits deep
in the field's upper tail, so on each grid level it evaluates every third
node in grid order, bounds each other node y by f(z) + d(y, z) from the
sampled nodes z on either side of it, and evaluates only the nodes whose
bound reaches the level's floor.  The floor sits at or below every value
the refinement looks at -- the running max and the candidate threshold
max - h -- so each node that can change the max, its first argmax or a
candidate set is evaluated exactly, and the bracket is bit for bit the
one that evaluating every node gives.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (ManifoldSpec, Metric, RegionSpec, chord_to_geodesic,
                       dist_many, dist_to_boundary_many)
from .grids import EvalGrid, build_grid, refine_nodes
from .sampling import PointCloud, DensitySpec, density_sample

# each refinement level's covering radius is this many times finer
REFINE_FACTOR = 8.0
# every PRUNE_STRIDE-th node of a level is evaluated; the rest are bounded
# (a wider stride loosens the bounds: 6 ran slower than 3 on the disk)
PRUNE_STRIDE = 3
# sampled nodes per block of bounds (keeps the temporaries small), and the
# rounding allowance on each bound
_PRUNE_CHUNK = 2 ** 14
_PRUNE_SLACK = 1e-9


class CoverageError(ValueError):
    pass


@dataclass(frozen=True)
class ThresholdEstimate:
    """Certified bracket [lo, hi] for a coverage threshold.

    lo is the exact max of the threshold's field over the grid nodes (a
    valid lower bound since nodes lie in B); hi = lo + h by the
    Lipschitz/cover argument.  ``argmax`` is the node attaining lo.
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
    """

    def __init__(self, spec: ManifoldSpec, points: np.ndarray, k: int,
                 metric: Metric):
        points = np.atleast_2d(np.asarray(points, dtype=float))
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
        self._tree = cKDTree(points)

    def __call__(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        if len(nodes) == 0:
            return np.empty(0)
        chord = self._tree.query(nodes, k=self.k)[0]
        chord = chord[:, -1] if self.k > 1 else np.ravel(chord)
        if self.spec.curved and self.metric is Metric.GEODESIC:
            return chord_to_geodesic(chord)
        return chord


def knn_distance(x, cloud: PointCloud, k: int, metric: Metric) -> float:
    """Distance from x to its k-th nearest cloud point (ties by sort order)."""
    if k < 1:
        raise CoverageError(f"k must be >= 1, got {k}")
    if len(cloud) < k:
        raise CoverageError(f"cloud has {len(cloud)} points, fewer than k={k}")
    d = dist_many(cloud.spec, np.asarray(x, dtype=float), cloud.points, metric)
    return float(np.partition(d, k - 1)[k - 1])


def _pruned_field(field, nodes: np.ndarray, curved: bool, lo: float,
                  h: float | None) -> np.ndarray:
    """Values of a 1-Lipschitz field at ``nodes``: each entry is exact, or
    -inf at a node whose value is below the floor.

    Every ``PRUNE_STRIDE``-th node in grid order is evaluated.  The
    floor is ``max(lo, max sampled) - h - 1e-12``, or ``max(lo, max
    sampled)`` when ``h`` is None.  Any other node y has
    f(y) <= min(f(zL) + d(y, zL), f(zR) + d(y, zR)) for the sampled nodes
    zL and zR on either side of it in grid order, where d is the geodesic
    distance (the chord mapped to an arc on curved families; chord <=
    geodesic, so the bound also holds for Euclidean-metric fields).  Only
    nodes whose bound reaches the floor, less a rounding slack, are
    evaluated.
    """
    n = len(nodes)
    vals = np.full(n, -np.inf)
    if n == 0:
        return vals
    z = nodes[::PRUNE_STRIDE]
    samp = field(z)
    vals[::PRUNE_STRIDE] = samp
    top = max(lo, float(np.max(samp)))
    floor = top if h is None else top - h - 1e-12
    keep = []
    for g0 in range(0, len(z), _PRUNE_CHUNK):
        g1 = min(len(z), g0 + _PRUNE_CHUNK)
        for j in range(1, PRUNE_STRIDE):
            y = nodes[g0 * PRUNE_STRIDE + j:g1 * PRUNE_STRIDE:PRUNE_STRIDE]
            m = len(y)
            bound = samp[g0:g0 + m] + _row_dist(y, z[g0:g0 + m], curved)
            # every row but possibly the last has a sampled node after it
            r = min(m, len(z) - 1 - g0)
            np.minimum(bound[:r], samp[g0 + 1:g0 + 1 + r]
                       + _row_dist(y[:r], z[g0 + 1:g0 + 1 + r], curved),
                       out=bound[:r])
            hit = np.flatnonzero(bound >= floor - _PRUNE_SLACK)
            keep.append((g0 + hit) * PRUNE_STRIDE + j)
    keep = np.concatenate(keep)
    vals[keep] = field(nodes[keep])
    return vals


def _row_dist(a: np.ndarray, b: np.ndarray, curved: bool) -> np.ndarray:
    """Geodesic distance between matching rows of two node arrays."""
    # column by column: about 5x faster than a row-wise norm on strided rows
    chord = np.sqrt(sum((a[:, i] - b[:, i]) ** 2 for i in range(a.shape[1])))
    return chord_to_geodesic(chord) if curved else chord


def _certified_max(field, grid: EvalGrid, k: int, metric: Metric,
                   refine_to: float | None) -> ThresholdEstimate:
    """Certified bracket for the max over B of a 1-Lipschitz field.

    ``field`` maps an (N, m) node array to N values.  Without refinement
    the bracket is [max node value, max + grid.h].  With ``refine_to`` set,
    levels of locally regenerated grid (each ``REFINE_FACTOR`` times finer)
    re-cover only the nodes whose value is within one covering radius of
    the running max -- the only places the true argmax can hide -- until
    the covering radius reaches ``refine_to``.

    Each level is evaluated by :func:`_pruned_field`, which leaves -inf
    only at nodes whose value lies below its floor.  A level that feeds a
    further refinement uses the floor ``max(lo, sampled max) - h - 1e-12``:
    the sampled max never exceeds the level's max, so the floor sits at or
    below the candidate threshold ``lo - h - 1e-12`` taken after the level,
    and every candidate and the first node attaining the max are exact.
    The last level only has to show whether lo strictly rises, and where
    first, so its floor is ``max(lo, sampled max)``.  lo, the argmax and
    every candidate set are thus those of evaluating every node.
    """
    def refines(h: float) -> bool:
        return refine_to is not None and h > refine_to * (1.0 + 1e-12)

    curved = grid.spec.curved
    h_cur = grid.h
    vals = _pruned_field(field, grid.nodes, curved, -np.inf,
                         h_cur if refines(h_cur) else None)
    best = int(np.argmax(vals))
    lo = float(vals[best])
    arg = grid.nodes[best]
    nodes_cur, vals_cur = grid.nodes, vals
    while refines(h_cur):
        h_next = max(refine_to, h_cur / REFINE_FACTOR)
        cand = nodes_cur[vals_cur >= lo - h_cur - 1e-12]
        new_nodes = refine_nodes(grid.spec, grid.region, cand,
                                 reach=h_cur + h_next, h=h_next)
        new_vals = _pruned_field(field, new_nodes, curved, lo,
                                 h_next if refines(h_next) else None)
        if len(new_vals):
            b = int(np.argmax(new_vals))
            if new_vals[b] > lo:
                lo = float(new_vals[b])
                arg = new_nodes[b]
        nodes_cur, vals_cur, h_cur = new_nodes, new_vals, h_next
    return ThresholdEstimate(lo=lo, hi=lo + h_cur, h=h_cur, k=k,
                             metric=metric, argmax=tuple(float(v) for v in arg))


def coverage_threshold(cloud: PointCloud, grid: EvalGrid, k: int,
                       metric: Metric, refine_to: float | None = None
                       ) -> ThresholdEstimate:
    """Certified bracket for the k-coverage threshold of B.

    The threshold is the max over B of the k-NN distance field; the bracket
    is refined down to a covering radius of ``refine_to`` when it is given.
    """
    field = KnnField(cloud.spec, cloud.points, k, metric)
    return _certified_max(field, grid, k, metric, refine_to)


def interior_threshold(cloud: PointCloud, spec: ManifoldSpec,
                       region: RegionSpec, k: int, metric: Metric,
                       h: float | None = None, grid: EvalGrid | None = None,
                       refine_to: float | None = None) -> ThresholdEstimate:
    """Certified bracket for the interior coverage threshold.

    This is the smallest r such that every point of B farther than r from
    the boundary has k sample points within r.  Some point violates that
    at r exactly when min(f(x), depth(x)) > r, where f is the k-NN
    distance field, so the threshold is the max over B of min(f, depth).
    Both terms are 1-Lipschitz, so the bracket and the refinement of
    :func:`coverage_threshold` carry over unchanged.  On a boundaryless
    shape the depth is infinite and the result equals the plain coverage
    threshold.
    """
    if grid is None:
        if h is None:
            raise CoverageError("provide either h or a prebuilt grid")
        grid = build_grid(spec, region, h)
    knn = KnnField(spec, cloud.points, k, metric)

    def deep_field(nodes: np.ndarray) -> np.ndarray:
        return np.minimum(knn(nodes), dist_to_boundary_many(spec, nodes))

    return _certified_max(deep_field, grid, k, metric, refine_to)


def covered_region(cloud: PointCloud, grid: EvalGrid, k: int, r: float,
                   metric: Metric) -> np.ndarray:
    """Indices of grid nodes having at least k sample points within r."""
    if r < 0.0:
        raise CoverageError("radius must be >= 0")
    if len(cloud) < k:
        return np.empty(0, dtype=np.int64)
    vals = KnnField(cloud.spec, cloud.points, k, metric)(grid.nodes)
    return np.flatnonzero(vals <= r)


# ---------------------------------------------------------------------------
# packing / covering diagnostics


def packing_estimate(spec: ManifoldSpec, region: RegionSpec, r: float,
                     a: float, dens: DensitySpec | None = None,
                     candidates: np.ndarray | None = None,
                     candidate_h: float | None = None,
                     n_mc: int = 10_000, seed: int = 0) -> int:
    """Greedy lower bound for the packing number of B at radius r, mass cap a.

    Accepts candidate centers in grid order when their ball is disjoint
    from the balls already accepted and its measure under ``dens`` passes
    a Monte Carlo check with a conservative two-sigma margin (so accepted
    balls truly have mass <= a, up to MC error).
    """
    if r <= 0.0 or a <= 0.0:
        raise CoverageError("need r > 0 and a > 0")
    dens = dens or DensitySpec.uniform()
    if candidates is None:
        candidate_h = candidate_h or r / 2.0
        candidates = build_grid(spec, region, candidate_h).nodes
    probe = density_sample(spec, dens, n_mc, seed).points
    accepted: list[np.ndarray] = []
    for c in candidates:
        if accepted:
            gaps = dist_many(spec, c, np.asarray(accepted), Metric.GEODESIC)
            if float(np.min(gaps)) <= 2.0 * r:
                continue
        inside = dist_many(spec, c, probe, Metric.GEODESIC) <= r
        p_hat = float(np.mean(inside))
        margin = 2.0 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_mc)
        if p_hat + margin <= a:
            accepted.append(np.asarray(c, dtype=float))
    return len(accepted)


def covering_estimate(spec: ManifoldSpec, setpoints: np.ndarray,
                      r: float) -> int:
    """Greedy upper bound for how many radius-r balls cover the point set.

    Classic greedy set cover with centers drawn from the set itself: each
    step opens the ball covering the most still-uncovered points (lowest
    index on ties).  The count is an upper bound for the covering number
    of the finite set, hence of the underlying region up to discretization.
    """
    if r <= 0.0:
        raise CoverageError("need r > 0")
    pts = np.atleast_2d(np.asarray(setpoints, dtype=float))
    n = len(pts)
    if n == 0:
        return 0
    # geodesic balls on the sphere are chord balls of radius 2 sin(r/2)
    r_chord = 2.0 * math.sin(min(r, math.pi) / 2.0) if spec.curved else r
    tree = cKDTree(pts)
    members = tree.query_ball_point(pts, r_chord + 1e-12)
    uncovered = np.ones(n, dtype=bool)
    # lazy greedy: counts in the heap may be stale, revalidate on pop
    heap = [(-len(m), i) for i, m in enumerate(members)]
    heapq.heapify(heap)
    count = 0
    remaining = n
    while remaining > 0:
        neg, i = heapq.heappop(heap)
        gain = int(np.count_nonzero(uncovered[members[i]]))
        if gain == 0:
            continue
        if heap and gain < -heap[0][0]:
            heapq.heappush(heap, (-gain, i))
            continue
        uncovered[members[i]] = False
        remaining -= gain
        count += 1
    return count
