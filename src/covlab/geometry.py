"""Catalog of compact manifolds-with-boundary with exact closed-form geometry.

Every supported region is one of a small catalog of shapes embedded in
``R^m`` (unit square/cube, unit disk, solid unit ball, unit sphere,
spherical cap).  For each of these we know the intrinsic distance, the
volume, the surface measure of the boundary, and the distance-to-boundary
function in closed form, so downstream statistics are not polluted by
geometric discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Points declared "on" a curved manifold may be off it by this much.
ON_MANIFOLD_TOL = 1e-12

# dist_to_boundary_many for a boundaryless manifold (the sphere).  Kept as a
# float infinity in-process for painless comparisons; serialization maps
# it to null.
NO_BOUNDARY = math.inf


class GeometryError(ValueError):
    """Invalid shape/region parameters or unsupported combination."""


class ConfigError(ValueError):
    """Malformed configuration input, such as an unknown JSON key."""


def check_keys(obj: dict, known, what: str, required=()) -> None:
    """Raise :class:`ConfigError` unless ``obj`` is a JSON object whose keys
    all lie in ``known`` and include every key of ``required``; the message
    names every key outside ``known``, or every required key missing."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(known))}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{what} is missing required key(s) "
                          f"{', '.join(map(repr, missing))}")


def is_number(value) -> bool:
    """True for a JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_number(obj: dict, key: str, what: str, integral: bool = False,
                default=None):
    """``obj[key]`` as a float, or as an int when ``integral``; ``default``
    when the key is absent.  Raises :class:`ConfigError` for anything but
    a JSON number (a string, a bool, null), and for a fractional value
    where an integer is needed."""
    if key not in obj:
        return default
    value = obj[key]
    if not is_number(value):
        raise ConfigError(f"{what} {key!r} must be a number, got {value!r}")
    if not integral:
        return float(value)
    if not float(value).is_integer():
        raise ConfigError(f"{what} {key!r} must be an integer, got {value!r}")
    return int(value)


class Family(str, Enum):
    UNIT_SQUARE = "unit_square"
    UNIT_DISK = "unit_disk"
    SOLID_BALL = "solid_ball"
    UNIT_SPHERE = "unit_sphere"
    SPHERICAL_CAP = "spherical_cap"


class Metric(str, Enum):
    GEODESIC = "geodesic"
    EUCLIDEAN = "euclidean"


class RegionKind(str, Enum):
    ALL = "all"
    INTERIOR_BODY = "interior_body"


@dataclass(frozen=True)
class ManifoldSpec:
    """One catalog shape: intrinsic dimension d, ambient dimension m.

    ``alpha`` is the polar half-angle and is only meaningful for
    ``SPHERICAL_CAP``.
    """

    family: Family
    d: int
    m: int
    alpha: float | None = None

    def __post_init__(self):
        if self.d < 2 or self.d > self.m:
            raise GeometryError(f"need 2 <= d <= m, got d={self.d}, m={self.m}")
        if self.family is Family.SPHERICAL_CAP:
            if self.alpha is None or not (0.0 < self.alpha < math.pi):
                raise GeometryError("spherical cap needs polar angle in (0, pi)")
        elif self.alpha is not None:
            raise GeometryError("alpha only applies to spherical_cap")

    @property
    def curved(self) -> bool:
        return self.family in (Family.UNIT_SPHERE, Family.SPHERICAL_CAP)

    def to_json(self) -> dict:
        out = {"family": self.family.value}
        if self.family is Family.UNIT_SQUARE and self.d != 2:
            out["d"] = self.d
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out

    @staticmethod
    def from_json(obj: dict) -> "ManifoldSpec":
        check_keys(obj, {"family"}.union(*_SPEC_KEYS.values()), "spec")
        fam = Family(obj.get("family"))
        check_keys(obj, _SPEC_KEYS.get(fam, {"family"}), f"{fam.value} spec",
                   required=("alpha",) if fam is Family.SPHERICAL_CAP else ())
        if fam is Family.UNIT_SQUARE:
            return unit_square(read_number(obj, "d", "spec", integral=True,
                                           default=2))
        if fam is Family.SPHERICAL_CAP:
            return spherical_cap(read_number(obj, "alpha", "spec"))
        return {Family.UNIT_DISK: unit_disk,
                Family.SOLID_BALL: solid_ball,
                Family.UNIT_SPHERE: unit_sphere}[fam]()


# JSON keys of the families that take a parameter
_SPEC_KEYS = {Family.UNIT_SQUARE: {"family", "d"},
              Family.SPHERICAL_CAP: {"family", "alpha"}}


def unit_square(d: int = 2) -> ManifoldSpec:
    """[0,1]^d with its flat metric."""
    return ManifoldSpec(Family.UNIT_SQUARE, d=d, m=d)


def unit_disk() -> ManifoldSpec:
    return ManifoldSpec(Family.UNIT_DISK, d=2, m=2)


def solid_ball() -> ManifoldSpec:
    """Closed unit ball in R^3."""
    return ManifoldSpec(Family.SOLID_BALL, d=3, m=3)


def unit_sphere() -> ManifoldSpec:
    """S^2 in R^3; the one boundaryless catalog entry."""
    return ManifoldSpec(Family.UNIT_SPHERE, d=2, m=3)


def spherical_cap(alpha: float) -> ManifoldSpec:
    """Cap {x in S^2 : polar angle <= alpha} around the north pole."""
    return ManifoldSpec(Family.SPHERICAL_CAP, d=2, m=3, alpha=alpha)


@dataclass(frozen=True)
class RegionSpec:
    """Target subset B of the shape A.

    * ``ALL``            -- B = A.
    * ``INTERIOR_BODY``  -- B = {x in A : dist(x, boundary) >= delta}.
    """

    kind: RegionKind
    delta: float | None = None

    def __post_init__(self):
        if self.kind is RegionKind.INTERIOR_BODY:
            if self.delta is None or self.delta <= 0:
                raise GeometryError("interior_body needs delta > 0")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.delta is not None:
            out["delta"] = self.delta
        return out

    @staticmethod
    def from_json(obj: dict) -> "RegionSpec":
        check_keys(obj, set().union(*_REGION_KEYS.values()), "region")
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in _REGION_KEYS:
            raise ConfigError(f"unknown region kind {kind!r}; known kinds: "
                              f"{', '.join(sorted(_REGION_KEYS))}")
        check_keys(obj, _REGION_KEYS[kind], f"{kind} region",
                   required=sorted(_REGION_KEYS[kind]))
        if kind == RegionKind.INTERIOR_BODY:
            return RegionSpec(RegionKind.INTERIOR_BODY,
                              delta=read_number(obj, "delta", "region"))
        return REGION_ALL


# JSON keys of each region kind
_REGION_KEYS = {RegionKind.ALL.value: {"kind"},
                RegionKind.INTERIOR_BODY.value: {"kind", "delta"}}

REGION_ALL = RegionSpec(RegionKind.ALL)


def interior_body(delta: float) -> RegionSpec:
    return RegionSpec(RegionKind.INTERIOR_BODY, delta=delta)


# ---------------------------------------------------------------------------
# measures


def volume(spec: ManifoldSpec) -> float:
    """Riemannian volume of A (area for d=2 surfaces)."""
    f = spec.family
    if f is Family.UNIT_SQUARE:
        return 1.0
    if f is Family.UNIT_DISK:
        return math.pi
    if f is Family.SOLID_BALL:
        return 4.0 * math.pi / 3.0
    if f is Family.UNIT_SPHERE:
        return 4.0 * math.pi
    if f is Family.SPHERICAL_CAP:
        return 2.0 * math.pi * (1.0 - math.cos(spec.alpha))
    raise GeometryError(f"unknown family {f}")


def boundary_measure(spec: ManifoldSpec) -> float:
    """Surface measure of the boundary of A; 0 for the sphere."""
    f = spec.family
    if f is Family.UNIT_SQUARE:
        return 2.0 * spec.d
    if f is Family.UNIT_DISK:
        return 2.0 * math.pi
    if f is Family.SOLID_BALL:
        return 4.0 * math.pi
    if f is Family.UNIT_SPHERE:
        return 0.0
    if f is Family.SPHERICAL_CAP:
        return 2.0 * math.pi * math.sin(spec.alpha)
    raise GeometryError(f"unknown family {f}")


def intrinsic_diameter(spec: ManifoldSpec) -> float:
    """Largest geodesic distance between two points of A."""
    f = spec.family
    if f is Family.UNIT_SQUARE:
        return math.sqrt(spec.d)
    if f in (Family.UNIT_DISK, Family.SOLID_BALL):
        return 2.0
    if f is Family.UNIT_SPHERE:
        return math.pi
    if f is Family.SPHERICAL_CAP:
        return min(2.0 * spec.alpha, math.pi)
    raise GeometryError(f"unknown family {f}")


# ---------------------------------------------------------------------------
# membership and distances


def contains_many(spec: ManifoldSpec, pts: np.ndarray) -> np.ndarray:
    """Exact membership of each row in A (1e-12 slack on curved families)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    f = spec.family
    if f is Family.UNIT_SQUARE:
        return np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    nrm2 = np.einsum("ij,ij->i", pts, pts)
    if f in (Family.UNIT_DISK, Family.SOLID_BALL):
        return nrm2 <= 1.0 + ON_MANIFOLD_TOL
    on_sphere = np.abs(np.sqrt(nrm2) - 1.0) <= ON_MANIFOLD_TOL
    if f is Family.UNIT_SPHERE:
        return on_sphere
    return on_sphere & (pts[:, 2] >= math.cos(spec.alpha) - ON_MANIFOLD_TOL)


def dist_many(spec: ManifoldSpec, x: np.ndarray, pts: np.ndarray,
              metric: Metric = Metric.GEODESIC) -> np.ndarray:
    """Distances from x to each row of pts: great-circle arcs for the
    geodesic metric on curved families, straight-line norms otherwise."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if metric is Metric.GEODESIC and spec.curved:
        c = np.clip(pts @ x, -1.0, 1.0)
        return np.arccos(c)
    return np.linalg.norm(pts - x[None, :], axis=1)


def chord_to_geodesic(chord) -> np.ndarray:
    """Great-circle arc length from chord length on the unit sphere."""
    return 2.0 * np.arcsin(np.clip(np.asarray(chord) / 2.0, 0.0, 1.0))


def dist_to_boundary_many(spec: ManifoldSpec, pts: np.ndarray) -> np.ndarray:
    """Geodesic distance from each row to the boundary of A (inf on S^2)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    f = spec.family
    if f is Family.UNIT_SQUARE:
        return np.minimum(pts.min(axis=1), (1.0 - pts).min(axis=1))
    if f in (Family.UNIT_DISK, Family.SOLID_BALL):
        return 1.0 - np.linalg.norm(pts, axis=1)
    if f is Family.UNIT_SPHERE:
        return np.full(len(pts), NO_BOUNDARY)
    return spec.alpha - np.arccos(np.clip(pts[:, 2], -1.0, 1.0))


# ---------------------------------------------------------------------------
# regions


def region_contains_many(spec: ManifoldSpec, region: RegionSpec,
                         pts: np.ndarray) -> np.ndarray:
    """Exact membership of each row in B."""
    inside = contains_many(spec, pts)
    if region.kind is RegionKind.ALL:
        return inside
    return inside & (dist_to_boundary_many(spec, pts) >= region.delta)


def _interior_body_measures(spec: ManifoldSpec, delta: float) -> tuple[float, float]:
    f = spec.family
    if f is Family.UNIT_SQUARE:
        side = 1.0 - 2.0 * delta
        if side <= 0.0:
            raise GeometryError(f"interior_body(delta={delta}) is empty")
        return side ** spec.d, 0.0
    if f is Family.UNIT_DISK:
        r = 1.0 - delta
        if r <= 0.0:
            raise GeometryError(f"interior_body(delta={delta}) is empty")
        return math.pi * r * r, 0.0
    if f is Family.SOLID_BALL:
        r = 1.0 - delta
        if r <= 0.0:
            raise GeometryError(f"interior_body(delta={delta}) is empty")
        return 4.0 * math.pi * r ** 3 / 3.0, 0.0
    if f is Family.UNIT_SPHERE:
        # no boundary: the interior body is all of A, at any depth
        return 4.0 * math.pi, 0.0
    a = spec.alpha - delta
    if a <= 0.0:
        raise GeometryError(f"interior_body(delta={delta}) is empty")
    return 2.0 * math.pi * (1.0 - math.cos(a)), 0.0


def region_measures(spec: ManifoldSpec, region: RegionSpec) -> tuple[float, float]:
    """(volume of B, surface measure of B intersected with the boundary of A).

    Raises :class:`GeometryError` for an interior body that is empty.
    """
    if region.kind is RegionKind.ALL:
        return volume(spec), boundary_measure(spec)
    return _interior_body_measures(spec, region.delta)
