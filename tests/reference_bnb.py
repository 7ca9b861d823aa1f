"""The branch and bound of ``covlab.coverage`` on the k-d tree alone: a
test-only copy of ``_certified_max``, ``_evaluate`` and
``_branch_and_bound`` in their two phases.

The seed pass splits the seed cells only while a bound exceeds lo by
``_SEED_WIDTH`` target widths, skips no child and hands every cell it set
aside to the finishing run, which holds them and the rest of the start
partition as one copied batch.  Every value here comes from the tree, no
search is bounded, and no start value comes from the bins or blocks.
``tests/test_certification_stress.py`` and ``tests/test_bins.py`` check
that covlab keeps this copy's bits.  ``_SKIP_MIN_CHILDREN`` is this
module's own, so a test patches it here and in ``covlab.coverage`` alike.
"""

import math

import numpy as np

from covlab.coverage import (_SEED_CELLS, _SEED_WIDTH, CoverageError,
                             KnnField, ThresholdEstimate, _top_cells)
from covlab.geometry import dist_to_boundary_many
from covlab.grids import MIN_RESOLUTION, EvalGrid, refine_nodes

_SKIP_MIN_CHILDREN = 256


def _certified_max(knn: KnnField, grid: EvalGrid, refine_to: float | None,
                   deep: bool = False) -> ThresholdEstimate:
    """Certified bracket for the max over B of the k-NN field ``knn``, or
    of min(knn, depth) when ``deep``: the seed pass over the
    ``_SEED_CELLS`` cells of largest value, then the finishing run over
    the rest of the partition and the cells that the seed pass set aside.
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
    aside = []
    lo, _, arg = _branch_and_bound(knn, deep, grid.take(seed), vals[seed],
                                   near[seed], target, aside=aside)
    vals[seed] = -np.inf
    lo, hi, arg = _branch_and_bound(knn, deep,
                                    *_joined([(grid, vals, near), *aside]),
                                    target, lo, arg)
    return ThresholdEstimate(lo=lo, hi=max(hi, lo), h=target, k=knn.k,
                             metric=knn.metric,
                             argmax=tuple(float(v) for v in arg))


def _evaluate(knn: KnnField, nodes: np.ndarray, deep: bool):
    """(field values, rows of the k nearest samples) at ``nodes``."""
    vals = knn(nodes)
    if deep:
        vals = np.minimum(vals, dist_to_boundary_many(knn.spec, nodes))
    return vals, knn.nearest


def _joined(batches):
    """Evaluated (cells, values, rows) batches as one batch, in order."""
    grids, vals, near = zip(*batches)
    cells = EvalGrid(grids[0].spec, grids[0].domain,
                     np.concatenate([g.nodes for g in grids]),
                     max(g.h for g in grids),
                     np.concatenate([g.box for g in grids], axis=1),
                     np.concatenate([g.rad for g in grids]))
    return cells, np.concatenate(vals), np.concatenate(near)


def _branch_and_bound(knn: KnnField, deep: bool, cells: EvalGrid,
                      vals: np.ndarray, near: np.ndarray, target: float,
                      lo: float = -np.inf, arg=None, aside=None):
    """(lo, hi, argmax) of the branch and bound over ``cells``.

    ``vals`` are the field values at the cells' representatives, ``near``
    the rows of their k nearest samples, and ``lo`` (attained at ``arg``)
    is a field value already found in B.  Each level splits only the cells
    whose bound f(p) + rho exceeds the best value so far plus ``target``,
    and evaluates their children in one batch; hi is the largest bound set
    aside.  A batch of ``_SKIP_MIN_CHILDREN`` children or more first drops
    each child c whose distance u(c) to its parent's k nearest samples
    proves it set aside: u(c) < lo and u(c) + rho_c <= min(lo + target,
    hi).
    With a list ``aside`` (the seed pass), a cell is split only while its
    bound exceeds lo + ``_SEED_WIDTH`` target widths, no child is skipped,
    and the cells set aside are appended to ``aside``.
    """
    width = target if aside is None else _SEED_WIDTH * target
    hi = -np.inf
    while True:
        best = int(np.argmax(vals))
        if vals[best] > lo:
            lo, arg = float(vals[best]), cells.nodes[best]
        bound = vals + cells.rad
        split = bound > lo + width
        if aside is None:
            hi = max(hi, float(bound.max(where=~split, initial=-np.inf)))
        else:
            aside.append((cells.take(~split), vals[~split], near[~split]))
        if not split.any():
            break
        near = near[split]
        cells = refine_nodes(centers=cells.take(split))
        if aside is None and len(cells) >= _SKIP_MIN_CHILDREN:
            u = knn.reach(cells.nodes, near.take(cells.parent, axis=0))
            skip = u < lo
            skip &= u + cells.rad <= min(lo + target, hi)
            cells = cells.take(~skip)
        if not len(cells):
            break
        vals, near = _evaluate(knn, cells.nodes, deep)
    return lo, hi, arg
