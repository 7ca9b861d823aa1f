"""Fast invariant sweep behind `covlab selftest`.

Each check is independent and seeded; a failure prints the exception and
the sweep keeps going, so one run reports every broken invariant at once.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .coverage import KnnField, coverage_threshold
from .grids import build_grid
from .sampling import PointCloud, uniform_sample

_FAMILIES = {
    "square": geo.unit_square(2),
    "disk": geo.unit_disk(),
    "ball": geo.solid_ball(),
    "sphere": geo.unit_sphere(),
    "cap": geo.spherical_cap(1.1),
}


def _check_triangle(n_triples: int):
    rng = np.random.default_rng(20240601)
    for name, spec in _FAMILIES.items():
        pts = uniform_sample(spec, 3 * n_triples, int(rng.integers(2 ** 31))).points
        a, b, c = pts[0::3], pts[1::3], pts[2::3]
        for metric in (geo.Metric.GEODESIC, geo.Metric.EUCLIDEAN):
            ab = _pairdist(spec, a, b, metric)
            bc = _pairdist(spec, b, c, metric)
            ac = _pairdist(spec, a, c, metric)
            assert np.all(ac <= ab + bc + 1e-10), f"triangle fails on {name}"
        ge = _pairdist(spec, a, b, geo.Metric.GEODESIC)
        eu = _pairdist(spec, a, b, geo.Metric.EUCLIDEAN)
        assert np.all(eu <= ge + 1e-12), f"metric domination fails on {name}"


def _pairdist(spec, xs, ys, metric):
    if spec.curved and metric is geo.Metric.GEODESIC:
        dots = np.clip(np.einsum("ij,ij->i", xs, ys), -1.0, 1.0)
        return np.arccos(dots)
    return np.linalg.norm(xs - ys, axis=1)


def _check_boundary_distance():
    for name, spec in _FAMILIES.items():
        if geo.boundary_measure(spec) == 0.0:
            continue
        pts = uniform_sample(spec, 40, 5).points
        got = geo.dist_to_boundary_many(spec, pts)
        for p, g in zip(pts, got):
            want = sampled_boundary_distance(spec, p)
            assert abs(want - g) < 1e-3, f"{name}: dtb {g} vs sampled {want}"


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


def _check_knn_oracle():
    spec = _FAMILIES["disk"]
    cloud = uniform_sample(spec, 100, 31)
    rng = np.random.default_rng(13)
    xs = np.concatenate([uniform_sample(spec, 1, int(rng.integers(2 ** 31)))
                         .points for _ in range(20)])
    d = np.sort([geo.dist_many(spec, x, cloud.points, geo.Metric.GEODESIC)
                 for x in xs], axis=1)
    for k in (1, 3, 7):
        field = KnnField(spec, cloud.points, k, geo.Metric.GEODESIC)
        assert np.all(np.abs(field(xs) - d[:, k - 1]) < 1e-12)


def _check_monotonicity(n_cases: int):
    rng = np.random.default_rng(11)
    specs = [_FAMILIES["disk"], _FAMILIES["square"], _FAMILIES["cap"]]
    for i in range(n_cases):
        spec = specs[i % 3]
        grid = build_grid(spec, geo.REGION_ALL, 0.2)
        n = int(rng.integers(5, 60))
        cloud = uniform_sample(spec, n, int(rng.integers(2 ** 31)))
        extra = uniform_sample(spec, n + 10, int(rng.integers(2 ** 31)))
        bigger = PointCloud(spec, np.vstack([cloud.points, extra.points]))
        for metric in (geo.Metric.GEODESIC, geo.Metric.EUCLIDEAN):
            e1 = coverage_threshold(cloud, grid, 1, metric)
            e2 = coverage_threshold(bigger, grid, 1, metric)
            assert e2.lo <= e1.lo + 1e-12, "adding points raised the threshold"
            e3 = coverage_threshold(cloud, grid, min(3, n), metric)
            assert e3.lo >= e1.lo - 1e-12, "larger k lowered the threshold"
        eg = coverage_threshold(cloud, grid, 1, geo.Metric.GEODESIC)
        ee = coverage_threshold(cloud, grid, 1, geo.Metric.EUCLIDEAN)
        assert ee.lo <= eg.lo + 1e-12


def _check_lipschitz():
    spec = _FAMILIES["cap"]
    cloud = uniform_sample(spec, 200, 17)
    field = KnnField(spec, cloud.points, 2, geo.Metric.GEODESIC)
    xs = uniform_sample(spec, 80, 23).points
    ys = uniform_sample(spec, 80, 29).points
    fx, fy = field(xs), field(ys)
    d = _pairdist(spec, xs, ys, geo.Metric.GEODESIC)
    assert np.all(np.abs(fx - fy) <= d + 1e-10)


def run_selftest(fast: bool = False) -> int:
    n_triples = 2_000 if fast else 10_000
    n_cases = 20 if fast else 60
    checks = [
        ("triangle_and_domination", lambda: _check_triangle(n_triples)),
        ("boundary_distance", _check_boundary_distance),
        ("knn_oracle", _check_knn_oracle),
        ("monotonicity", lambda: _check_monotonicity(n_cases)),
        ("knn_lipschitz", _check_lipschitz),
    ]
    failures = 0
    for name, fn in checks:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL {name}: {exc}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1
