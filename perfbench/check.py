"""Correctness checks that hold on any seed.

A replication passes when its row in ``rows.csv`` exists once, is finite,
has ``lo <= hi``, and, for the sampled replications, its bracket meets an
independent one.  The independent bracket redraws the cloud from the
documented per-replication seed and takes the max of the field over a
full grid of another size, with no refinement.  Two certified brackets of
the same threshold always intersect.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.spatial import cKDTree

import covlab
from workloads import Workload

# slack for rounding in the two maxima; far below any covering radius used
_TOL = 1e-12
_FIELDS = ("lo", "hi", "stat_lo", "stat_hi")


def parse_rows(data: bytes) -> dict[int, dict]:
    """Rows keyed by replication; a replication seen twice maps to None."""
    rows: dict[int, dict] = {}
    for rec in csv.DictReader(io.StringIO(data.decode())):
        rep = int(rec["rep"])
        rows[rep] = None if rep in rows else rec
    return rows


def bad_reps(rows: dict[int, dict], reps: int) -> set[int]:
    """Replications whose row is missing, repeated, not finite or lo > hi."""
    bad = set()
    for rep in range(reps):
        rec = rows.get(rep)
        if rec is None:
            bad.add(rep)
            continue
        try:
            vals = [float(rec[f]) for f in _FIELDS]
        except (KeyError, TypeError, ValueError):
            bad.add(rep)
            continue
        if not all(math.isfinite(v) for v in vals) or vals[0] > vals[1]:
            bad.add(rep)
    return bad | {r for r in rows if not 0 <= r < reps}


def stat_width(rows: list[dict]) -> float:
    """Mean certified width of the transformed statistic over the rows."""
    return float(np.mean([float(r["stat_hi"]) - float(r["stat_lo"])
                          for r in rows]))


def independent_bracket(w: Workload, base_seed: int,
                        rep: int) -> tuple[float, float]:
    """Certified bracket of replication ``rep`` on a check_h grid."""
    spec = covlab.ManifoldSpec.from_json(w.spec)
    seed = np.random.SeedSequence(entropy=base_seed, spawn_key=(0, rep))
    cloud = covlab.uniform_sample(spec, w.size, seed)
    grid = covlab.build_grid(spec, covlab.REGION_ALL, w.check_h)
    dist = cKDTree(cloud.points).query(grid.nodes, k=[w.k])[0][:, 0]
    if spec.curved:  # chord -> great-circle distance
        dist = 2.0 * np.arcsin(np.minimum(dist / 2.0, 1.0))
    if w.mode == "interior":
        # the interior threshold is the sup of min(field, depth), both
        # 1-Lipschitz; on a cap the depth is alpha minus the polar angle
        if spec.family is not covlab.Family.SPHERICAL_CAP:
            raise ValueError("interior check is written for the cap only")
        polar = np.arccos(np.clip(grid.nodes[:, 2], -1.0, 1.0))
        dist = np.minimum(dist, spec.alpha - polar)
    lo = float(np.max(dist))
    return lo, lo + grid.h


def brackets_meet(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return max(a[0], b[0]) <= min(a[1], b[1]) + _TOL
