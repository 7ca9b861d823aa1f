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

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (ManifoldSpec, Metric, chord_to_geodesic,
                       dist_to_boundary_many)
from .grids import MIN_RESOLUTION, EvalGrid, refine_nodes
from .sampling import PointCloud


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
    on ``grid.spec``; on a boundaryless shape it is infinite and the
    result equals the plain coverage threshold.
    """
    spec = grid.spec
    knn = KnnField(spec, cloud.points, k, metric)

    def deep_field(nodes: np.ndarray) -> np.ndarray:
        return np.minimum(knn(nodes), dist_to_boundary_many(spec, nodes))

    return _certified_max(deep_field, grid, k, metric, refine_to)
