"""Reproducible point sampling on the catalog shapes.

Sampling uses the counter-based Philox generator, so a cloud is a pure
function of its seed material and independent replications can be drawn
in any order (or in parallel) without coupling.  Densities other than the
uniform one are handled by exact rejection, never MCMC: the downstream
limit statistics are sensitive to any distributional error.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ManifoldSpec, check_number, contains_many, volume

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

    def __post_init__(self):
        if self.kind not in ("uniform", "custom"):
            raise SamplingError(f"density kind must be 'uniform' or "
                                f"'custom', got {self.kind!r}")
        for key in ("sup_bound", "f0", "f1"):
            value = getattr(self, key)
            if value is None:
                continue
            if check_number(value, f"density {key!r}") <= 0.0:
                raise SamplingError(f"density {key!r} must be > 0, got "
                                    f"{value!r}")
        if self.kind != "uniform" and (self.f is None
                                       or self.sup_bound is None):
            raise SamplingError("custom density needs f and sup_bound")

    @staticmethod
    def uniform() -> "DensitySpec":
        return DensitySpec(kind="uniform")

    @staticmethod
    def custom(f, sup_bound: float, f0: float | None = None,
               f1: float | None = None) -> "DensitySpec":
        return DensitySpec(kind="custom", f=f, sup_bound=sup_bound, f0=f0, f1=f1)


@dataclass
class PointCloud:
    """A finite sample in A: the shape it lies on and its points."""

    spec: ManifoldSpec
    points: np.ndarray                 # (n, m)

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
    if n == 0:
        return np.empty((0, spec.m))
    body = spec.body
    if body.kind == "box":
        return body.lo + body.size * rng.random((n, body.d))
    if body.kind == "ball":
        r = body.size * rng.random(n) ** (1.0 / body.d)
        return r[:, None] * _unit_directions(rng, n, body.d)
    # cap: azimuth uniform, cos(polar) uniform on [cos(size), 1]
    cos_floor = math.cos(body.size)
    c = 1.0 - rng.random(n) * (1.0 - cos_floor)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, 1.0))
    phi = 2.0 * math.pi * rng.random(n)
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), c))


def uniform_sample(spec: ManifoldSpec, n: int, seed) -> PointCloud:
    """n uniform points on A, deterministic given the seed."""
    if n < 0:
        raise SamplingError("sample size must be >= 0")
    return PointCloud(spec, _uniform_points(spec, _rng(seed), n))


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


@functools.lru_cache(maxsize=8)
def check_density(spec: ManifoldSpec, dens: DensitySpec) -> None:
    """Refuse a custom density that is negative, is not normalised within
    2%, or exceeds sup_bound on a fixed probe set.

    Memoised on (spec, dens), so the probe runs once per density however
    many clouds are drawn from it; a refusal raises and is not cached.
    """
    if dens.kind != "uniform":
        _density_probe(spec, dens)


def density_sample(spec: ManifoldSpec, dens: DensitySpec, n: int,
                   seed) -> PointCloud:
    """n i.i.d. points with law dens, by rejection from the uniform law."""
    if dens.kind == "uniform":
        return uniform_sample(spec, n, seed)
    check_density(spec, dens)
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
    return PointCloud(spec, pts)


# ---------------------------------------------------------------------------
# Poisson sample sizes


def poisson_count(rng: np.random.Generator, t: float) -> int:
    if t <= 0.0:
        raise SamplingError("poisson intensity must be > 0")
    return int(rng.poisson(t))


def poisson_sample(spec: ManifoldSpec, dens: DensitySpec, t: float,
                   seed) -> PointCloud:
    """Poisson process of intensity t * dens on A.

    Draws the count Z ~ Poisson(t), then Z i.i.d. points from dens.
    """
    rng = _rng(seed)
    z = poisson_count(rng, t)
    if dens.kind == "uniform":
        return PointCloud(spec, _uniform_points(spec, rng, z))
    # rejection against the same stream, reusing the binomial machinery
    return density_sample(spec, dens, z, rng.integers(0, 2 ** 63 - 1))


# ---------------------------------------------------------------------------
# dumps


def save_cloud_csv(cloud: PointCloud, path: str) -> None:
    """Write the `idx,x1..xm` rows that :func:`load_cloud_csv` reads."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["idx"] + [f"x{i + 1}" for i in range(cloud.spec.m)])
        w.writerows([i, *p] for i, p in enumerate(cloud.points.tolist()))


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
    return PointCloud(spec, pts)


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False
