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
is at most the target wide.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (ManifoldSpec, Metric, RegionSpec, chord_to_geodesic,
                       dist_many, dist_to_boundary_many)
from .grids import MIN_RESOLUTION, EvalGrid, build_grid, refine_nodes
from .sampling import PointCloud, DensitySpec, density_sample


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


def _certified_max(field, grid: EvalGrid, k: int, metric: Metric,
                   refine_to: float | None) -> ThresholdEstimate:
    """Certified bracket for the max over B of a 1-Lipschitz field.

    ``field`` maps an (N, m) node array to N values.  Branch and bound
    over the cells of ``grid``: each level evaluates the field at every
    live cell's representative in one batch, and splits only the cells
    whose bound f(p) + rho exceeds the best value so far plus the target
    width, ``refine_to`` or, without it, ``grid.h`` (no cell is split).
    Every cell set aside has its bound within the target of the final
    best, so the bracket [best, max bound over the cells set aside] has
    width <= the target.
    """
    target = grid.h if refine_to is None else min(refine_to, grid.h)
    if target <= MIN_RESOLUTION:
        raise CoverageError(f"target width {target} is below the supported "
                            "resolution")
    lo, hi, arg = -np.inf, -np.inf, None
    cells = grid
    while len(cells):
        vals = field(cells.nodes)
        best = int(np.argmax(vals))
        if vals[best] > lo:
            lo, arg = float(vals[best]), cells.nodes[best]
        bound = vals + cells.rad
        split = bound > lo + target
        hi = max(hi, float(np.max(bound[~split], initial=-np.inf)))
        if not split.any():
            break
        cells = refine_nodes(centers=cells.take(split))
    return ThresholdEstimate(lo=lo, hi=max(hi, lo), h=target, k=k,
                             metric=metric,
                             argmax=tuple(float(v) for v in arg))


def coverage_threshold(cloud: PointCloud, grid: EvalGrid, k: int,
                       metric: Metric, refine_to: float | None = None
                       ) -> ThresholdEstimate:
    """Certified bracket for the k-coverage threshold of B.

    The threshold is the max over B of the k-NN distance field; the bracket
    is narrowed to a width of ``refine_to`` when it is given, and is at
    most ``grid.h`` wide otherwise.
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
    Both terms are 1-Lipschitz, so the branch and bound of
    :func:`coverage_threshold` carries over unchanged.  On a boundaryless
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
