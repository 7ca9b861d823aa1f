"""Catalog of compact manifolds-with-boundary with exact closed-form geometry.

Every supported region is one of a small catalog of shapes embedded in
``R^m`` (unit square/cube, unit disk, solid unit ball, unit sphere,
spherical cap).  For each of these we know the intrinsic distance, the
volume, the surface measure of the boundary, and the distance-to-boundary
function in closed form, so downstream statistics are not polluted by
geometric discretization error.

The shape table maps each family to a body of one of three kinds: a box
(the square and the cube), a ball (the disk and the solid ball) or a cap
on S^2 (the cap, and the sphere as the cap of radius pi).  The measures,
membership and depth read that body, and an interior body is the same
kind shrunk by delta.
"""

from __future__ import annotations

import math
import numbers
import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
    """True for a finite JSON number: an int or a float (or another real
    number, such as a numpy scalar), but not a bool, NaN, an infinity
    (Python's json reads the NaN and Infinity literals) or an int beyond
    the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_number(value, what: str, integral: bool = False):
    """``value`` as a float, or as an int when ``integral``.  Raises
    :class:`ConfigError` naming ``what`` for anything but a finite number
    (a string, a bool, None, NaN, an infinity), and for a fractional value
    where an integer is needed."""
    if not is_number(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    if not integral:
        return float(value)
    if not float(value).is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_enum(value, kind: type[Enum], what: str):
    """``value`` as a member of the enum ``kind``.  Raises
    :class:`ConfigError` naming ``what`` and listing the known values for
    anything else."""
    if value not in list(kind):  # compared, not hashed
        known = ", ".join(member.value for member in kind)
        raise ConfigError(f"unknown {what} {value!r}; known values: {known}")
    return kind(value)


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


# ---------------------------------------------------------------------------
# the shape table


class _Shape(NamedTuple):
    kind: str             # "box", "ball" or "cap": see _Body
    d: int | None         # intrinsic dimension; None: any d >= 2
    m: int | None         # ambient dimension; None: m = d
    size: float | None    # the body's size; None: the spec's alpha


_SHAPES = {
    Family.UNIT_SQUARE: _Shape("box", None, None, 1.0),
    Family.UNIT_DISK: _Shape("ball", 2, 2, 1.0),
    Family.SOLID_BALL: _Shape("ball", 3, 3, 1.0),
    Family.UNIT_SPHERE: _Shape("cap", 2, 3, math.pi),
    Family.SPHERICAL_CAP: _Shape("cap", 2, 3, None),
}


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


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class ManifoldSpec:
    """One catalog shape: intrinsic dimension d, ambient dimension m, the
    pair the shape table states for the family.

    ``alpha`` is the polar half-angle and is only meaningful for
    ``SPHERICAL_CAP``.
    """

    family: Family
    d: int
    m: int
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family",
                           check_enum(self.family, Family, "family"))
        for key in ("d", "m"):
            object.__setattr__(self, key, check_number(
                getattr(self, key), f"spec {key!r}", integral=True))
        shape = _SHAPES[self.family]
        if self.d < 2:
            raise GeometryError(f"need d >= 2, got d={self.d}")
        want = (shape.d or self.d, shape.m or self.d)
        if (self.d, self.m) != want:
            raise GeometryError(f"{self.family.value} has (d, m) = {want}, "
                                f"got ({self.d}, {self.m})")
        if shape.size is None:
            object.__setattr__(self, "alpha", check_number(self.alpha,
                                                           "spec 'alpha'"))
            if not 0.0 < self.alpha < math.pi:
                raise GeometryError("spherical cap needs polar angle in (0, pi)")
        elif self.alpha is not None:
            raise GeometryError("alpha only applies to spherical_cap")

    @property
    def curved(self) -> bool:
        return _SHAPES[self.family].kind == "cap"

    @functools.cached_property
    def body(self) -> _Body:
        """The shape as a body of the shape table, built once per spec."""
        shape = _SHAPES[self.family]
        return _Body(shape.kind, self.d,
                     self.alpha if shape.size is None else shape.size)

    def to_json(self) -> dict:
        out = {"family": self.family.value}
        if _SHAPES[self.family].d is None and self.d != 2:
            out["d"] = self.d
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out

    @staticmethod
    def from_json(obj: dict) -> "ManifoldSpec":
        check_keys(obj, {"family", "d", "alpha"}, "spec")
        fam = obj.get("family")
        shape = _SHAPES[check_enum(fam, Family, "family")]
        # the square takes its d, the cap its alpha
        keys = ({"family"} | ({"d"} if shape.d is None else set())
                | ({"alpha"} if shape.size is None else set()))
        check_keys(obj, keys, f"{fam} spec", required=sorted(keys & {"alpha"}))
        d = shape.d or obj.get("d", 2)
        return ManifoldSpec(fam, d, shape.m or d, obj.get("alpha"))


@dataclass(frozen=True)
class RegionSpec:
    """Target subset B of the shape A.

    * ``ALL``            -- B = A.
    * ``INTERIOR_BODY``  -- B = {x in A : dist(x, boundary) >= delta}.
    """

    kind: RegionKind
    delta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind",
                           check_enum(self.kind, RegionKind, "region kind"))
        if self.kind is RegionKind.ALL:
            if self.delta is not None:
                raise ConfigError(f"region 'delta' applies to interior_body "
                                  f"only, got {self.delta!r} on an all region")
            return
        object.__setattr__(self, "delta", check_number(self.delta,
                                                       "region 'delta'"))
        if self.delta <= 0:
            raise GeometryError("interior_body needs delta > 0")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.delta is not None:
            out["delta"] = self.delta
        return out

    @staticmethod
    def from_json(obj: dict) -> "RegionSpec":
        check_keys(obj, {"kind", "delta"}, "region")
        if obj.get("kind") == RegionKind.ALL.value:
            check_keys(obj, {"kind"}, "all region")
        return RegionSpec(obj.get("kind"), obj.get("delta"))


REGION_ALL = RegionSpec(RegionKind.ALL)


def interior_body(delta: float) -> RegionSpec:
    return RegionSpec(RegionKind.INTERIOR_BODY, delta=delta)


# ---------------------------------------------------------------------------
# bodies


# An interior body is refused as empty unless it keeps points this much
# deeper than delta: the cell partitions of B pull their representatives
# that far inside it (see grids).
_INSET = 1e-9


@dataclass(frozen=True)
class _Body:
    """A shape or an interior body, as one of three kinds.

    * ``box``  -- [lo, lo + size]^d;
    * ``ball`` -- radius ``size`` about the origin of R^d;
    * ``cap``  -- polar radius ``size`` about the north pole of S^2; the
      cap of radius pi is the whole sphere, which has no boundary.
    """

    kind: str
    d: int
    size: float
    lo: float = 0.0

    @property
    def boundaryless(self) -> bool:
        return self.kind == "cap" and self.size == math.pi

    def shrunk(self, delta: float) -> "_Body":
        """The points at depth >= delta: the same kind, delta smaller in
        radius (2 delta on the box's side); the sphere stays whole."""
        if self.boundaryless:
            return self
        if self.kind == "box":
            return _Body("box", self.d, self.size - 2.0 * delta,
                         self.lo + delta)
        return _Body(self.kind, self.d, self.size - delta)

    @property
    def volume(self) -> float:
        r = self.size
        if self.kind == "box":
            return r ** self.d
        if self.kind == "cap":
            # 2 pi (1 - cos r), without the cancellation of a thin cap
            return 4.0 * math.pi * math.sin(0.5 * r) ** 2
        return math.pi * r * r if self.d == 2 else 4.0 * math.pi * r ** 3 / 3.0

    @property
    def boundary(self) -> float:
        r = self.size
        if self.kind == "box":
            return 2.0 * self.d * r ** (self.d - 1)
        if self.kind == "cap":  # sin(pi) is 1.2e-16, not 0
            return 0.0 if self.boundaryless else 2.0 * math.pi * math.sin(r)
        return 2.0 * math.pi * r if self.d == 2 else 4.0 * math.pi * r * r

    @property
    def diameter(self) -> float:
        if self.kind == "box":
            return math.sqrt(self.d) * self.size
        if self.kind == "cap":
            return min(2.0 * self.size, math.pi)
        return 2.0 * self.size

    def contains(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "box":
            return np.all((pts >= self.lo) & (pts <= self.lo + self.size),
                          axis=1)
        nrm2 = np.einsum("ij,ij->i", pts, pts)
        if self.kind == "ball":
            return nrm2 <= self.size * self.size + ON_MANIFOLD_TOL
        on_sphere = np.abs(np.sqrt(nrm2) - 1.0) <= ON_MANIFOLD_TOL
        return on_sphere & (pts[:, 2] >= math.cos(self.size) - ON_MANIFOLD_TOL)

    def depth(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "box":
            return np.minimum(pts.min(axis=1) - self.lo,
                              self.lo + self.size - pts.max(axis=1))
        if self.kind == "ball":
            return self.size - np.linalg.norm(pts, axis=1)
        if self.boundaryless:
            return np.full(len(pts), NO_BOUNDARY)
        # np.clip's bits, without its wrappers: z = min(max(z, -1), 1)
        z = np.maximum(-1.0, pts[:, 2])
        np.minimum(1.0, z, out=z)
        np.arccos(z, out=z)
        return np.subtract(self.size, z, out=z)


@functools.lru_cache(maxsize=64)
def _body(spec: ManifoldSpec, region: RegionSpec = REGION_ALL) -> _Body:
    """The body of B, the region of the shape.

    Raises :class:`GeometryError` for an interior body that is empty, or
    that has no point ``_INSET`` deeper than delta.
    """
    body = spec.body
    if region.kind is RegionKind.ALL:
        return body
    if body.shrunk(region.delta + _INSET).size <= 0.0:
        raise GeometryError(f"interior_body(delta={region.delta}) is empty "
                            f"or thinner than {_INSET}")
    return body.shrunk(region.delta)


# ---------------------------------------------------------------------------
# measures


def volume(spec: ManifoldSpec) -> float:
    """Riemannian volume of A (area for d=2 surfaces)."""
    return spec.body.volume


def boundary_measure(spec: ManifoldSpec) -> float:
    """Surface measure of the boundary of A; 0 for the sphere."""
    return spec.body.boundary


def intrinsic_diameter(spec: ManifoldSpec) -> float:
    """Largest geodesic distance between two points of A."""
    return spec.body.diameter


# ---------------------------------------------------------------------------
# membership and distances


def contains_many(spec: ManifoldSpec, pts: np.ndarray) -> np.ndarray:
    """Exact membership of each row in A (1e-12 slack on curved families)."""
    return spec.body.contains(as_points(pts))


def dist_many(spec: ManifoldSpec, x: np.ndarray, pts: np.ndarray,
              metric: Metric = Metric.GEODESIC) -> np.ndarray:
    """Distances from x to each row of pts: great-circle arcs for the
    geodesic metric on curved families, straight-line norms otherwise.
    The arc is the angle atan2(|x cross p|, x . p), which keeps its
    relative precision at every angle (arccos of the dot product loses
    all of it below about 1e-8).  It shares nothing with
    :func:`chord_to_geodesic`, which the k-NN field uses, so the test
    oracles built on it stay independent of that field."""
    metric = check_enum(metric, Metric, "metric")
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if metric is Metric.GEODESIC and spec.curved:
        return np.arctan2(np.linalg.norm(np.cross(pts, x), axis=1), pts @ x)
    return np.linalg.norm(pts - x[None, :], axis=1)


def as_points(pts) -> np.ndarray:
    """``pts`` as a 2-D float array of rows; one that is already that is
    returned as it is."""
    if type(pts) is np.ndarray and pts.ndim == 2 and pts.dtype == float:
        return pts
    return np.atleast_2d(np.asarray(pts, dtype=float))


def chord_to_geodesic(chord) -> np.ndarray:
    """Great-circle arc length from chord length on the unit sphere.

    The half chord is clamped to [0, 1] as ``np.clip`` would, bit for bit
    (-0.0 included), but in place of a copy when it is an array; a scalar,
    a list or a 0-d array gives what it gave through ``np.clip``.
    """
    half = np.divide(chord, 2.0)
    out = half if type(half) is np.ndarray else None  # a scalar is no buffer
    half = np.minimum(1.0, np.maximum(0.0, half, out=out), out=out)
    return np.multiply(2.0, np.arcsin(half, out=out), out=out)


def dist_to_boundary_many(spec: ManifoldSpec, pts: np.ndarray) -> np.ndarray:
    """Geodesic distance from each row to the boundary of A (inf on S^2)."""
    return spec.body.depth(as_points(pts))


# ---------------------------------------------------------------------------
# regions


def region_contains_many(spec: ManifoldSpec, region: RegionSpec,
                         pts: np.ndarray) -> np.ndarray:
    """Exact membership of each row in B."""
    inside = contains_many(spec, pts)
    if region.kind is RegionKind.ALL:
        return inside
    return inside & (dist_to_boundary_many(spec, pts) >= region.delta)


def region_measures(spec: ManifoldSpec, region: RegionSpec) -> tuple[float, float]:
    """(volume of B, surface measure of B intersected with the boundary of A).

    Raises :class:`GeometryError` for an interior body that is empty.
    """
    body = _body(spec, region)
    return body.volume, body.boundary if region.kind is RegionKind.ALL else 0.0
