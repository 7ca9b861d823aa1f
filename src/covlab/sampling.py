"""Reproducible point sampling on the catalog shapes.

Sampling uses the counter-based Philox generator, so a cloud is a pure
function of its seed material and independent replications can be drawn
in any order (or in parallel) without coupling.  Densities other than the
uniform one are handled by exact rejection, never MCMC: the downstream
limit statistics are sensitive to any distributional error.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Family, ManifoldSpec, contains_many, volume

class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class DensitySpec:
    """Target probability density on A, relative to Riemannian volume.

    ``uniform()`` is the constant density 1/volume(A).  ``custom(f, M)``
    is an arbitrary density with a known ceiling M >= sup f; f must accept
    an (n, m) array of ambient points and return n values.  ``f0``/``f1``
    are infima of f over B and over B's boundary part; they feed the limit
    laws and are the caller's responsibility for custom densities: a run
    refuses a custom density without f0, or without f1 when B touches the
    boundary.
    """

    kind: str = "uniform"
    f: Callable[[np.ndarray], np.ndarray] | None = None
    sup_bound: float | None = None
    f0: float | None = None
    f1: float | None = None

    @staticmethod
    def uniform() -> "DensitySpec":
        return DensitySpec(kind="uniform")

    @staticmethod
    def custom(f, sup_bound: float, f0: float | None = None,
               f1: float | None = None) -> "DensitySpec":
        if sup_bound <= 0.0:
            raise SamplingError("sup_bound must be positive")
        return DensitySpec(kind="custom", f=f, sup_bound=sup_bound, f0=f0, f1=f1)


@dataclass(frozen=True)
class CloudOrigin:
    kind: str                 # "binomial" | "poisson"
    requested: float          # n for binomial, intensity t for poisson
    realized: int             # number of points actually in the cloud

    def to_json(self) -> dict:
        return {"kind": self.kind, "requested": self.requested,
                "realized": self.realized}


@dataclass
class PointCloud:
    """A finite sample in A with its provenance."""

    spec: ManifoldSpec
    points: np.ndarray                 # (n, m)
    origin: CloudOrigin
    seed: object = None
    density: str = "uniform"

    def __len__(self) -> int:
        return len(self.points)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    elif isinstance(seed, (tuple, list)):
        ss = np.random.SeedSequence(entropy=int(seed[0]),
                                    spawn_key=tuple(int(s) for s in seed[1:]))
    else:
        ss = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(ss))


def _unit_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((n, dim))
    nrm = np.linalg.norm(g, axis=1)
    bad = nrm == 0.0
    if np.any(bad):
        g[bad, 0] = 1.0
        nrm[bad] = 1.0
    return g / nrm[:, None]


def _uniform_points(spec: ManifoldSpec, rng: np.random.Generator,
                    n: int) -> np.ndarray:
    """n i.i.d. points with law = normalized Riemannian volume on A."""
    f = spec.family
    if n == 0:
        return np.empty((0, spec.m))
    if f is Family.UNIT_SQUARE:
        return rng.random((n, spec.d))
    if f is Family.UNIT_DISK:
        r = np.sqrt(rng.random(n))
        return r[:, None] * _unit_directions(rng, n, 2)
    if f is Family.SOLID_BALL:
        r = rng.random(n) ** (1.0 / 3.0)
        return r[:, None] * _unit_directions(rng, n, 3)
    # sphere / cap: azimuth uniform, cos(polar) uniform on [cos(alpha), 1]
    cos_floor = -1.0 if f is Family.UNIT_SPHERE else math.cos(spec.alpha)
    c = 1.0 - rng.random(n) * (1.0 - cos_floor)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, 1.0))
    phi = 2.0 * math.pi * rng.random(n)
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), c))


def uniform_sample(spec: ManifoldSpec, n: int, seed) -> PointCloud:
    """n uniform points on A, deterministic given the seed."""
    if n < 0:
        raise SamplingError("sample size must be >= 0")
    rng = _rng(seed)
    pts = _uniform_points(spec, rng, n)
    return PointCloud(spec, pts, CloudOrigin("binomial", n, n), seed=seed)


# fixed probe stream for the normalization / infimum checks of custom
# densities; independent of every sampling stream
_PROBE_ENTROPY = 0x5EED_CAB1E
_PROBE_N = 100_000


def _density_probe(spec: ManifoldSpec, dens: DensitySpec) -> np.ndarray:
    pts = _uniform_points(spec, _rng(_PROBE_ENTROPY), _PROBE_N)
    vals = np.asarray(dens.f(pts), dtype=float)
    if vals.shape != (_PROBE_N,):
        raise SamplingError("custom density must map an (n, m) array to n values")
    if np.any(vals < 0.0):
        raise SamplingError("custom density takes negative values")
    mass = volume(spec) * float(np.mean(vals))
    if abs(mass - 1.0) > 0.02:
        raise SamplingError(
            f"custom density integrates to ~{mass:.4f} over A, expected 1 "
            "within 2%")
    if np.max(vals) > dens.sup_bound * (1.0 + 1e-12):
        raise SamplingError(
            f"sup_bound={dens.sup_bound} exceeded: density reaches "
            f"{np.max(vals):.6g} on a probe sample")
    return vals


def density_sample(spec: ManifoldSpec, dens: DensitySpec, n: int,
                   seed) -> PointCloud:
    """n i.i.d. points with law dens, by rejection from the uniform law."""
    if dens.kind == "uniform":
        cloud = uniform_sample(spec, n, seed)
        return cloud
    if dens.f is None or dens.sup_bound is None:
        raise SamplingError("custom density needs f and sup_bound")
    _density_probe(spec, dens)
    rng = _rng(seed)
    m_bound = float(dens.sup_bound)
    out: list[np.ndarray] = []
    got = 0
    while got < n:
        want = n - got
        batch = max(64, int(1.3 * want * m_bound * volume(spec)))
        batch = min(batch, 4 * want + 1024)
        props = _uniform_points(spec, rng, batch)
        fvals = np.asarray(dens.f(props), dtype=float)
        over = fvals > m_bound * (1.0 + 1e-12)
        if np.any(over):
            i = int(np.argmax(over))
            raise SamplingError(
                f"density exceeds sup_bound={m_bound} at proposed point "
                f"{props[i].tolist()} (value {fvals[i]:.6g})")
        keep = rng.random(batch) <= fvals / m_bound
        acc = props[keep]
        if len(acc) > want:
            acc = acc[:want]
        out.append(acc)
        got += len(acc)
    pts = np.concatenate(out) if out else np.empty((0, spec.m))
    return PointCloud(spec, pts, CloudOrigin("binomial", n, n), seed=seed,
                      density="custom")


# ---------------------------------------------------------------------------
# Poisson sample sizes


def _poisson_inversion(rng: np.random.Generator, lam: float) -> int:
    # sequential CDF search; fine up to lam ~ 30 in double precision
    x = 0
    p = math.exp(-lam)
    s = p
    u = rng.random()
    while u > s:
        x += 1
        p *= lam / x
        s += p
        if x > 10_000_000:  # pragma: no cover - unreachable for lam <= 30
            raise SamplingError("poisson inversion runaway")
    return x


def _poisson_ptrs(rng: np.random.Generator, lam: float) -> int:
    # transformed rejection with squeeze; valid for lam >= 10
    slam = math.sqrt(lam)
    llam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = int(math.floor((2.0 * a / us + b) * u + lam + 0.43))
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b)
                <= k * llam - lam - math.lgamma(k + 1.0)):
            return k


def poisson_count(rng: np.random.Generator, t: float) -> int:
    if t <= 0.0:
        raise SamplingError("poisson intensity must be > 0")
    if t <= 30.0:
        return _poisson_inversion(rng, t)
    return _poisson_ptrs(rng, t)


def poisson_sample(spec: ManifoldSpec, dens: DensitySpec, t: float,
                   seed) -> PointCloud:
    """Poisson process of intensity t * dens on A.

    Draws the count Z ~ Poisson(t) (CDF inversion for t <= 30, transformed
    rejection beyond), then Z i.i.d. points from dens.
    """
    rng = _rng(seed)
    z = poisson_count(rng, t)
    if dens.kind == "uniform":
        pts = _uniform_points(spec, rng, z)
        density = "uniform"
    else:
        # rejection against the same stream, reusing the binomial machinery
        sub = density_sample(spec, dens, z, rng.integers(0, 2 ** 63 - 1))
        pts = sub.points
        density = "custom"
    return PointCloud(spec, pts, CloudOrigin("poisson", t, z), seed=seed,
                      density=density)


# ---------------------------------------------------------------------------
# dumps


def save_cloud_csv(cloud: PointCloud, path: str) -> None:
    """Write `idx,x1..xm` rows plus a JSON sidecar with the provenance."""
    m = cloud.points.shape[1] if len(cloud) else cloud.spec.m
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["idx"] + [f"x{i + 1}" for i in range(m)])
        for i, p in enumerate(cloud.points):
            w.writerow([i] + [repr(float(v)) for v in p])
    sidecar = {
        "spec": cloud.spec.to_json(),
        "density": cloud.density,
        "seed": _seed_json(cloud.seed),
        "origin": cloud.origin.to_json(),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def _seed_json(seed):
    if isinstance(seed, np.random.SeedSequence):
        return {"entropy": seed.entropy, "spawn_key": list(seed.spawn_key)}
    if isinstance(seed, (tuple, list)):
        return list(seed)
    return seed


def load_cloud_csv(path: str, spec: ManifoldSpec) -> PointCloud:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SamplingError(f"empty cloud file {path}")
    start = 1 if not _is_float(rows[0][0]) else 0
    data = np.array([[float(v) for v in row] for row in rows[start:]])
    if data.ndim != 2 or data.shape[1] < spec.m:
        raise SamplingError(f"cloud file {path} has wrong column count")
    pts = data[:, -spec.m:]
    ok = contains_many(spec, pts)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        raise SamplingError(f"cloud point {bad} lies outside the shape: "
                            f"{pts[bad].tolist()}")
    return PointCloud(spec, pts, CloudOrigin("binomial", len(pts), len(pts)))


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False
