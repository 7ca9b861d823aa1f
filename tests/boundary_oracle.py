"""Independent boundary-distance oracle for the geometry tests.

``sampled_boundary_distance`` finds the distance from a point to a shape's
boundary by scanning quasi-uniform boundary samples and resampling around
the running argmin, without the closed forms of
``geometry.dist_to_boundary_many`` that it checks.
"""

import math

import numpy as np

from covlab import geometry as geo


def boundary_points(spec, n: int) -> np.ndarray:
    """Quasi-uniform samples on the boundary of a catalog shape."""
    fam = spec.family
    if fam is geo.Family.UNIT_SQUARE and spec.d == 2:
        per_side = max(1, n // 4)
        u = np.linspace(0.0, 1.0, per_side, endpoint=False)
        z = np.zeros(per_side)
        o = np.ones(per_side)
        return np.concatenate([np.column_stack(c) for c in
                               ((u, z), (o, u), (1.0 - u, o), (z, 1.0 - u))])
    if fam is geo.Family.UNIT_SQUARE:
        side = max(2, int(math.sqrt(n / 6.0)))
        u = np.linspace(0.0, 1.0, side)
        gu, gv = np.meshgrid(u, u, indexing="ij")
        face = np.column_stack((gu.ravel(), gv.ravel()))
        parts = []
        for axis in range(3):
            for val in (0.0, 1.0):
                pts = np.empty((len(face), 3))
                pts[:, axis] = val
                pts[:, [a for a in range(3) if a != axis]] = face
                parts.append(pts)
        return np.concatenate(parts)
    ang = 2.0 * math.pi * np.arange(n) / n
    if fam is geo.Family.UNIT_DISK:
        return np.column_stack((np.cos(ang), np.sin(ang)))
    if fam is geo.Family.SOLID_BALL:
        # Fibonacci sphere
        i = np.arange(n)
        c = 1.0 - 2.0 * (i + 0.5) / n
        s = np.sqrt(np.clip(1.0 - c * c, 0.0, 1.0))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        return np.column_stack((s * np.cos(golden * i), s * np.sin(golden * i), c))
    sa = math.sin(spec.alpha)
    return np.column_stack((sa * np.cos(ang), sa * np.sin(ang),
                            np.full(n, math.cos(spec.alpha))))


def _jitter_on_boundary(spec, base: np.ndarray, scale: float, n: int,
                        rng) -> np.ndarray:
    """Boundary samples concentrated around a boundary point."""
    fam = spec.family
    if fam is geo.Family.UNIT_SQUARE and spec.d == 2:
        # perturb along the perimeter parametrization
        per = _perimeter_param(base)
        t = np.mod(per + scale * rng.standard_normal(n), 4.0)
        return _perimeter_point(t)
    if fam is geo.Family.UNIT_SQUARE:
        # jitter within the face of the base point, clipped to the face
        axis = int(np.argmin(np.minimum(base, 1.0 - base)))
        pts = np.clip(base[None, :] + scale * rng.standard_normal((n, 3)),
                      0.0, 1.0)
        pts[:, axis] = round(float(base[axis]))
        return pts
    if fam is geo.Family.SOLID_BALL:
        g = base[None, :] + scale * rng.standard_normal((n, 3))
        return g / np.linalg.norm(g, axis=1)[:, None]
    ang0 = math.atan2(base[1], base[0])
    ang = ang0 + scale * rng.standard_normal(n)
    if fam is geo.Family.UNIT_DISK:
        return np.column_stack((np.cos(ang), np.sin(ang)))
    sa = math.sin(spec.alpha)
    return np.column_stack((sa * np.cos(ang), sa * np.sin(ang),
                            np.full(n, math.cos(spec.alpha))))


def _perimeter_param(p: np.ndarray) -> float:
    x, y = float(p[0]), float(p[1])
    if y <= 1e-12 and x < 1.0:
        return x
    if x >= 1.0 - 1e-12:
        return 1.0 + y
    if y >= 1.0 - 1e-12:
        return 2.0 + (1.0 - x)
    return 3.0 + (1.0 - y)


def _perimeter_point(t: np.ndarray) -> np.ndarray:
    t = np.mod(t, 4.0)
    out = np.empty((len(t), 2))
    s0 = t < 1.0
    s1 = (t >= 1.0) & (t < 2.0)
    s2 = (t >= 2.0) & (t < 3.0)
    s3 = t >= 3.0
    out[s0] = np.column_stack((t[s0], np.zeros(np.sum(s0))))
    out[s1] = np.column_stack((np.ones(np.sum(s1)), t[s1] - 1.0))
    out[s2] = np.column_stack((3.0 - t[s2], np.ones(np.sum(s2))))
    out[s3] = np.column_stack((np.zeros(np.sum(s3)), 4.0 - t[s3]))
    return out


def sampled_boundary_distance(spec, x, n: int = 10_000, rounds: int = 3,
                              seed: int = 1) -> float:
    """Min distance from x to sampled boundary points, locally resampled.

    Independent oracle for dist_to_boundary_many: stage one scans quasi-uniform
    boundary samples, later rounds resample around the running argmin at a
    geometrically shrinking scale.
    """
    rng = np.random.default_rng(seed)
    cand = boundary_points(spec, n)
    d = geo.dist_many(spec, np.asarray(x, dtype=float), cand,
                      geo.Metric.GEODESIC)
    best = float(np.min(d))
    arg = cand[int(np.argmin(d))]
    scale = 4.0 * geo.intrinsic_diameter(spec) / math.sqrt(n)
    for _ in range(rounds):
        cand = _jitter_on_boundary(spec, arg, scale, 2000, rng)
        d = geo.dist_many(spec, np.asarray(x, dtype=float), cand,
                          geo.Metric.GEODESIC)
        i = int(np.argmin(d))
        if d[i] < best:
            best = float(d[i])
            arg = cand[i]
        scale /= 8.0
    return best
