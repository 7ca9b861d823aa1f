"""The branch and bound whose second run splits the seed cells again: a
test-only copy, kept verbatim, of an earlier ``_certified_max``,
``_evaluate`` and ``_branch_and_bound``.

Its second run holds the whole start partition, refines the seed cells'
children and queries them afresh; covlab's second run holds only the
other start cells, and keeps the bounds that its first run set aside.
``tests/test_certification_stress.py`` and ``tests/test_bins.py`` check
that both give the same lo and argmax bits and brackets that meet.  Its
start values all come from the tree, and no search of its is bounded.
``_SKIP_MIN_CHILDREN`` is this module's own, so a test patches it here and
in ``covlab.coverage`` alike.
"""

import math

import numpy as np

from covlab.coverage import (_SEED_CELLS, CoverageError, KnnField,
                             ThresholdEstimate, _top_cells)
from covlab.geometry import dist_to_boundary_many
from covlab.grids import MIN_RESOLUTION, EvalGrid, refine_nodes

_SKIP_MIN_CHILDREN = 256


def _certified_max(knn: KnnField, grid: EvalGrid, refine_to: float | None,
                   deep: bool = False) -> ThresholdEstimate:
    """Certified bracket for the max over B of the k-NN field ``knn``, or
    of min(knn, depth) when ``deep``; both are 1-Lipschitz.

    The target width is ``refine_to`` or, without it, ``grid.h`` (then no
    cell is split).  The field is evaluated once on the cells of ``grid``;
    the branch and bound then runs twice.  The first run explores only the
    ``_SEED_CELLS`` cells of largest value, and keeps its best value and
    argmax: a field value at a point of B, so a lower bound that sits near
    the final max before the whole partition is seen.  The second run
    starts from that value on the whole partition, reusing its values, so
    it sets aside most start cells at once.  Its bracket [best, max bound
    over the cells set aside] has width <= the target.
    """
    if refine_to is not None and not math.isfinite(refine_to):
        raise CoverageError(f"target width {refine_to} is not a finite "
                            "number")
    target = grid.h if refine_to is None else min(refine_to, grid.h)
    if target <= MIN_RESOLUTION:
        raise CoverageError(f"target width {target} is below the supported "
                            "resolution")
    vals, near = _evaluate(knn, grid.nodes, deep)
    seed = _top_cells(vals, _SEED_CELLS)
    lo, _, arg = _branch_and_bound(knn, deep, grid.take(seed), vals[seed],
                                   near[seed], target)
    lo, hi, arg = _branch_and_bound(knn, deep, grid, vals, near, target, lo,
                                    arg)
    return ThresholdEstimate(lo=lo, hi=max(hi, lo), h=target, k=knn.k,
                             metric=knn.metric,
                             argmax=tuple(float(v) for v in arg))


def _evaluate(knn: KnnField, nodes: np.ndarray, deep: bool):
    """(field values, rows of the k nearest samples) at ``nodes``."""
    vals = knn(nodes)
    if deep:
        vals = np.minimum(vals, dist_to_boundary_many(knn.spec, nodes))
    return vals, knn.nearest



def _branch_and_bound(knn: KnnField, deep: bool, cells: EvalGrid,
                      vals: np.ndarray, near: np.ndarray, target: float,
                      lo: float = -np.inf, arg=None):
    """(lo, hi, argmax) of the branch and bound over ``cells``.

    ``vals`` are the field values at the cells' representatives, ``near``
    the rows of their k nearest samples, and ``lo`` (attained at ``arg``)
    is a field value already found in B.  Each level splits only the cells
    whose bound f(p) + rho exceeds the best value so far plus ``target``,
    and evaluates their children in one batch; hi is the largest bound set
    aside.  A batch of ``_SKIP_MIN_CHILDREN`` children or more first drops
    each child c whose distance u(c) to its parent's k nearest samples
    proves it set aside: u(c) < lo and u(c) + rho_c <= min(lo + target,
    hi).  Since f(c) <= u(c), such a child would change neither lo, the
    argmax nor hi, and would not be split (see the module docstring).
    """
    hi = -np.inf
    while len(cells):
        best = int(np.argmax(vals))
        if vals[best] > lo:
            lo, arg = float(vals[best]), cells.nodes[best]
        bound = vals + cells.rad
        split = bound > lo + target
        hi = max(hi, float(bound.max(where=~split, initial=-np.inf)))
        if not split.any():
            break
        near = near[split]
        cells = refine_nodes(centers=cells.take(split))
        if len(cells) >= _SKIP_MIN_CHILDREN:
            u = knn.reach(cells.nodes, near.take(cells.parent, axis=0))
            skip = u < lo
            skip &= u + cells.rad <= min(lo + target, hi)
            cells = cells.take(~skip)
        vals, near = _evaluate(knn, cells.nodes, deep)
    return lo, hi, arg

