import math

import numpy as np
import pytest
from scipy.integrate import quad

from covlab import geometry as geo
from covlab.sampling import uniform_sample
from covlab.selftest import sampled_boundary_distance

GEO = geo.Metric.GEODESIC
EUC = geo.Metric.EUCLIDEAN


def test_volumes_trivial():
    assert geo.volume(geo.unit_square(2)) == 1.0
    assert geo.volume(geo.unit_square(3)) == 1.0
    assert geo.volume(geo.unit_disk()) == math.pi
    assert geo.volume(geo.solid_ball()) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert geo.volume(geo.unit_sphere()) == pytest.approx(4 * math.pi, rel=1e-15)


def test_cap_area_against_quadrature():
    # chart integral of the area element sin(theta) dtheta dphi
    for alpha in (0.3, 1.0, math.pi / 2, 2.5):
        want, err = quad(lambda t: 2 * math.pi * math.sin(t), 0.0, alpha)
        assert err < 1e-10
        assert geo.volume(geo.spherical_cap(alpha)) == pytest.approx(want, abs=1e-9)


def test_boundary_measures():
    assert geo.boundary_measure(geo.unit_disk()) == pytest.approx(2 * math.pi)
    assert geo.boundary_measure(geo.unit_square(2)) == 4.0
    assert geo.boundary_measure(geo.unit_square(3)) == 6.0
    assert geo.boundary_measure(geo.unit_sphere()) == 0.0


def test_cap_rim_length_against_polyline():
    # numeric arclength of the rim circle
    for alpha in (0.4, 1.2, 2.0):
        th = np.linspace(0, 2 * math.pi, 200_001)
        sa = math.sin(alpha)
        rim = np.column_stack((sa * np.cos(th), sa * np.sin(th),
                               np.full_like(th, math.cos(alpha))))
        length = float(np.sum(np.linalg.norm(np.diff(rim, axis=0), axis=1)))
        assert geo.boundary_measure(geo.spherical_cap(alpha)) == pytest.approx(
            length, rel=1e-8)


def test_dist_examples():
    sph = geo.unit_sphere()
    n_pole = np.array([0.0, 0.0, 1.0])
    s_pole = np.array([0.0, 0.0, -1.0])
    assert geo.dist_many(sph, n_pole, [s_pole], GEO)[0] == pytest.approx(
        math.pi)
    assert geo.dist_many(sph, n_pole, [s_pole], EUC)[0] == pytest.approx(2.0)
    sq = geo.unit_square(2)
    assert geo.dist_many(sq, [0, 0], [[1, 1]], GEO)[0] == pytest.approx(
        math.sqrt(2))


def test_dist_symmetric_and_clamped():
    sph = geo.unit_sphere()
    x = np.array([1.0, 0.0, 0.0])
    # nearly coincident points must not produce NaN from acos drift
    y = x + 1e-16
    assert geo.dist_many(sph, x, [y], GEO)[0] >= 0.0
    a = uniform_sample(sph, 50, 0).points
    b = uniform_sample(sph, 50, 1).points
    for i in range(50):
        assert geo.dist_many(sph, a[i], b[i:i + 1], GEO)[0] == pytest.approx(
            geo.dist_many(sph, b[i], a[i:i + 1], GEO)[0], abs=1e-15)


def test_metric_domination_and_triangle(all_families):
    rng = np.random.default_rng(3)
    for name, spec in all_families.items():
        pts = uniform_sample(spec, 30_000, int(rng.integers(2 ** 31))).points
        a, b, c = pts[0::3], pts[1::3], pts[2::3]
        dab = _pair(spec, a, b, GEO)
        dbc = _pair(spec, b, c, GEO)
        dac = _pair(spec, a, c, GEO)
        assert np.all(dac <= dab + dbc + 1e-10), name
        eab = _pair(spec, a, b, EUC)
        assert np.all(eab <= dab + 1e-12), name
        if not spec.curved:
            assert np.allclose(eab, dab), name


def _pair(spec, xs, ys, metric):
    if spec.curved and metric is GEO:
        return np.arccos(np.clip(np.einsum("ij,ij->i", xs, ys), -1, 1))
    return np.linalg.norm(xs - ys, axis=1)


def test_dist_to_boundary_examples():
    depth = geo.dist_to_boundary_many
    assert depth(geo.unit_disk(), [0.0, 0.0])[0] == 1.0
    assert depth(geo.unit_square(2), [0.25, 0.5])[0] == 0.25
    assert math.isinf(depth(geo.unit_sphere(), [0, 0, 1.0])[0])
    cap = geo.spherical_cap(1.0)
    theta = 0.3
    x = [math.sin(theta), 0.0, math.cos(theta)]
    assert depth(cap, x)[0] == pytest.approx(1.0 - theta, abs=1e-12)


def test_dist_to_boundary_sampling_oracle(all_families):
    for name, spec in all_families.items():
        if geo.boundary_measure(spec) == 0.0:
            continue
        pts = uniform_sample(spec, 25, 5).points
        for p, got in zip(pts, geo.dist_to_boundary_many(spec, pts)):
            want = sampled_boundary_distance(spec, p)
            assert got == pytest.approx(want, abs=1e-3), name


def test_region_contains():
    disk = geo.unit_disk()
    assert geo.region_contains_many(disk, geo.REGION_ALL, [0.3, 0.1])[0]
    body = geo.interior_body(0.2)
    assert list(geo.region_contains_many(disk, body, [[0.0, 0.0], [0.9, 0.0]])
                ) == [True, False]


def test_region_measures(all_families):
    # All must echo the global measures on every family
    for spec in all_families.values():
        assert geo.region_measures(spec, geo.REGION_ALL) == (
            geo.volume(spec), geo.boundary_measure(spec))
    assert geo.region_measures(geo.unit_disk(), geo.REGION_ALL) == (
        math.pi, 2 * math.pi)
    v, sv = geo.region_measures(geo.unit_square(2), geo.interior_body(0.25))
    assert v == pytest.approx(0.25) and sv == 0.0
    v, sv = geo.region_measures(geo.spherical_cap(math.pi / 2), geo.REGION_ALL)
    want, _ = quad(lambda t: 2 * math.pi * math.sin(t), 0.0, math.pi / 2)
    assert v == pytest.approx(want) and sv == pytest.approx(2 * math.pi)


def test_interior_body_empty_region_errors():
    with pytest.raises(geo.GeometryError):
        geo.region_measures(geo.unit_disk(), geo.interior_body(1.5))
    with pytest.raises(geo.GeometryError):
        geo.region_measures(geo.spherical_cap(0.5), geo.interior_body(0.6))


def test_spec_json_round_trip(all_families):
    for spec in all_families.values():
        assert geo.ManifoldSpec.from_json(spec.to_json()) == spec
    for region in (geo.REGION_ALL, geo.interior_body(0.2)):
        assert geo.RegionSpec.from_json(region.to_json()) == region


@pytest.mark.parametrize("cls,obj,bad", [
    (geo.ManifoldSpec, {"family": "unit_disk", "alpha": 1.0}, "alpha"),
    (geo.ManifoldSpec, {"family": "unit_square", "dim": 3}, "dim"),
    (geo.ManifoldSpec, {"family": "spherical_cap", "alpha": 1.0, "d": 2}, "d"),
    (geo.RegionSpec, {"kind": "all", "delta": 0.2}, "delta"),
    (geo.RegionSpec, {"kind": "interior_body", "delta": 0.2, "radius": 1},
     "radius"),
])
def test_spec_json_rejects_unknown_keys(all_families, cls, obj, bad):
    with pytest.raises(geo.ConfigError, match=f"'{bad}'"):
        cls.from_json(obj)
    # what to_json writes is exactly what from_json accepts
    for spec in all_families.values():
        assert geo.ManifoldSpec.from_json(spec.to_json()) == spec
    for region in (geo.REGION_ALL, geo.interior_body(0.2)):
        assert geo.RegionSpec.from_json(region.to_json()) == region


def test_invalid_specs():
    with pytest.raises(geo.GeometryError):
        geo.spherical_cap(0.0)
    with pytest.raises(geo.GeometryError):
        geo.spherical_cap(math.pi)
    with pytest.raises(geo.GeometryError):
        geo.unit_square(1)
    with pytest.raises(geo.GeometryError):
        geo.interior_body(-0.1)
