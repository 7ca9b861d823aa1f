import hashlib
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from boundary_oracle import sampled_boundary_distance
from covlab import geometry as geo
from covlab import grids
from covlab.grids import build_grid
from covlab.sampling import uniform_sample

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


def test_dist_reads_the_metric_by_value():
    # a metric given by its string was compared by identity, so "geodesic"
    # gave the chord and a misspelt metric went through as euclidean
    sph = geo.unit_sphere()
    pole, east = (0.0, 0.0, 1.0), [(1.0, 0.0, 0.0)]
    assert geo.dist_many(sph, pole, east, "geodesic")[0] == pytest.approx(
        math.pi / 2, rel=1e-15)
    assert geo.dist_many(sph, pole, east, "euclidean")[0] == pytest.approx(
        math.sqrt(2), rel=1e-15)
    with pytest.raises(geo.ConfigError, match="unknown metric 'geodsic'"):
        geo.dist_many(sph, pole, east, "geodsic")


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


@pytest.mark.parametrize("phi", [0.0, 0.7, -2.9])
@pytest.mark.parametrize("angle", [1e-12, 1e-9, 1e-6, 1.0, math.pi - 1e-6])
def test_geodesic_dist_keeps_its_precision_at_every_angle(angle, phi):
    # arccos of the dot product gave 0.0 at 1e-9, and was 4.4e-5 too large,
    # relative, at 1e-6
    sph = geo.unit_sphere()
    pole = np.array([0.0, 0.0, 1.0])
    p = np.array([math.sin(angle) * math.cos(phi),
                  math.sin(angle) * math.sin(phi), math.cos(angle)])
    assert geo.dist_many(sph, pole, [p], GEO)[0] == pytest.approx(
        angle, rel=1e-15, abs=0.0)
    assert geo.dist_many(sph, p, [pole], GEO)[0] == pytest.approx(
        angle, rel=1e-15, abs=0.0)


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
        ebc = _pair(spec, b, c, EUC)
        eac = _pair(spec, a, c, EUC)
        assert np.all(eac <= eab + ebc + 1e-10), name
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


def test_interior_body_empty_region_errors(all_families):
    with pytest.raises(geo.GeometryError):
        geo.region_measures(geo.unit_disk(), geo.interior_body(1.5))
    with pytest.raises(geo.GeometryError):
        geo.region_measures(geo.spherical_cap(0.5), geo.interior_body(0.6))
    # region_measures and build_grid accept and refuse the same bodies, with
    # the same error: a body is refused unless it has points 1e-9 deeper
    # than delta, where the grid places its representatives
    for name, inradius in (("disk", 1.0), ("cap", 1.1), ("square", 0.5),
                           ("ball", 1.0)):
        spec = all_families[name]
        for gap in (1e-3, 2e-9):
            region = geo.interior_body(inradius - gap)
            assert geo.region_measures(spec, region)[0] >= 0.0
            nodes = build_grid(spec, region, 0.1).nodes
            assert len(nodes) and np.all(
                geo.region_contains_many(spec, region, nodes)), (name, gap)
        for gap in (5e-10, 0.0, -1e-3):
            region = geo.interior_body(inradius - gap)
            with pytest.raises(geo.GeometryError) as measured:
                geo.region_measures(spec, region)
            with pytest.raises(geo.GeometryError) as gridded:
                build_grid(spec, region, 0.1)
            assert str(gridded.value) == str(measured.value), (name, gap)
    # the sphere has no boundary: every interior body is the whole sphere
    sphere = all_families["sphere"]
    whole = build_grid(sphere, geo.REGION_ALL, 0.1)
    for delta in (0.2, 5.0):
        region = geo.interior_body(delta)
        assert geo.region_measures(sphere, region) == (4.0 * math.pi, 0.0)
        grid = build_grid(sphere, region, 0.1)
        assert np.array_equal(grid.nodes, whole.nodes)
        assert np.array_equal(grid.rad, whole.rad)


# volume, boundary_measure, intrinsic_diameter, region_measures on A and on
# interior bodies at delta 0.05, 0.2 and 0.45, and the sha256 of
# uniform_sample(spec, 64, 7).points, pinned before the shapes became bodies
# of three kinds (the cap's bodies at delta 0.05 and 0.2 again when a cap's
# area became 4 pi sin^2(a/2)); no golden run reaches the ball or the cube
PINNED = {
    "square": (
        1.0, 4.0, 1.4142135623730951, (1.0, 4.0), (0.81, 0.0), (0.36, 0.0),
        (0.009999999999999995, 0.0),
        "87eeb1ecd455fafa6800a909a52892eba3cb4b18ac9b8bc44bff198df58109a0"),
    "cube": (
        1.0, 6.0, 1.7320508075688772, (1.0, 6.0), (0.7290000000000001, 0.0),
        (0.21599999999999997, 0.0), (0.0009999999999999994, 0.0),
        "04802bcc57a5d3fe93b8eff762903843c404a99aed73d3f4ff9e0751daa7e1cb"),
    "disk": (
        3.141592653589793, 6.283185307179586, 2.0,
        (3.141592653589793, 6.283185307179586), (2.8352873698647882, 0.0),
        (2.0106192982974678, 0.0), (0.9503317777109126, 0.0),
        "1f6f978b0134ef16b15389f3af6dc02dd9bbf1493afe2f9f5f60cf0d2ceb7b43"),
    "ball": (
        4.1887902047863905, 12.566370614359172, 2.0,
        (4.1887902047863905, 12.566370614359172), (3.5913640018287314, 0.0),
        (2.1446605848506324, 0.0), (0.696909970321336, 0.0),
        "845b1b0f7ba9edb55636bba0b9a4d266ef9e57f9c40baeaf5b43a8ceb2484ff6"),
    "sphere": (
        12.566370614359172, 0.0, 3.141592653589793, (12.566370614359172, 0.0),
        (12.566370614359172, 0.0), (12.566370614359172, 0.0),
        (12.566370614359172, 0.0),
        "63aa43c0696b4bb2cfd91cdbb6e25852adb3cf7df22a691c113c57ec3b8a4130"),
    "cap": (
        3.4331568216447517, 5.599620990388318, 2.2,
        (3.4331568216447517, 5.599620990388318), (3.1568542097883383, 0.0),
        (2.377494687744979, 0.0), (1.2812432808524454, 0.0),
        "1b92e297b90df4174ce76d2d9b8521135f163ee9b1a55bf0bda553265b305f3e"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_measures_and_samples_pinned(all_families, name):
    spec = all_families[name]
    *want, digest = PINNED[name]
    got = [geo.volume(spec), geo.boundary_measure(spec),
           geo.intrinsic_diameter(spec),
           geo.region_measures(spec, geo.REGION_ALL)]
    got += [geo.region_measures(spec, geo.interior_body(delta))
            for delta in (0.05, 0.2, 0.45)]
    assert got == want
    pts = uniform_sample(spec, 64, 7).points
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest


def test_spec_json_round_trip(all_families):
    # the Python API may spell a family or a kind as its JSON string
    for spec in [*all_families.values(), geo.ManifoldSpec("unit_disk", 2, 2)]:
        assert geo.ManifoldSpec.from_json(spec.to_json()) == spec
    for region in (geo.REGION_ALL, geo.interior_body(0.2),
                   geo.RegionSpec("interior_body", 0.2)):
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
    # a (d, m) that the family does not have
    with pytest.raises(geo.GeometryError):
        geo.ManifoldSpec(geo.Family.UNIT_DISK, d=3, m=3)
    with pytest.raises(geo.GeometryError):
        geo.ManifoldSpec(geo.Family.UNIT_SPHERE, d=2, m=2)
    # a string kind gets the delta check too; -5 gave the disk a volume of
    # 113.1
    with pytest.raises(geo.GeometryError):
        geo.RegionSpec("interior_body", -5.0)
    # each would be accepted and then fail mid-run, or run at a value that
    # was never asked for (a bool as 1.0)
    for build, needle in [
            (lambda: geo.unit_square(2.5), "spec 'd' must be an integer"),
            (lambda: geo.spherical_cap(True), "spec 'alpha' must be a finite"),
            (lambda: geo.interior_body(math.nan), "'delta' must be a finite"),
            (lambda: geo.interior_body(True), "'delta' must be a finite"),
            # to_json would write what from_json refuses
            (lambda: geo.RegionSpec(geo.RegionKind.ALL, 0.2),
             "'delta' applies to interior_body only"),
            # a file names a delta only on an interior_body region
            (lambda: geo.RegionSpec.from_json({"kind": "all", "delta": None}),
             "unknown all region key")]:
        with pytest.raises(geo.ConfigError, match=needle):
            build()


@pytest.mark.parametrize("first,second", [(3.0, 3), (3, 3.0)])
def test_whole_float_d_is_the_int_d(first, second):
    # the specs are one key of the shape caches, so the first one built
    # must not leave a float d there for the other
    geo._body.cache_clear()
    grids._domain.cache_clear()
    a, b = geo.unit_square(first), geo.unit_square(second)
    for spec in (a, b):
        assert json.dumps(spec.to_json()) == ('{"family": "unit_square", '
                                              '"d": 3}')
    ga = build_grid(a, geo.REGION_ALL, 0.2)
    gb = build_grid(b, geo.REGION_ALL, 0.2)
    assert ga.nodes.tobytes() == gb.nodes.tobytes()
    assert ga.nodes.tobytes() == build_grid(
        geo.unit_square(3), geo.REGION_ALL, 0.2).nodes.tobytes()


# chords at the ends of [0, 2] and z at the poles, one ulp either side
EDGE_CHORDS = [0.0, -0.0, 1e-300, np.nextafter(2.0, 0.0), 2.0,
               np.nextafter(2.0, 3.0)]
EDGE_Z = [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0,
          np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0)]


def _clipped_geodesic(chord):
    """chord_to_geodesic as np.clip computed it."""
    return 2.0 * np.arcsin(np.clip(np.asarray(chord) / 2.0, 0.0, 1.0))


def _same(a, b) -> bool:
    return type(a) is type(b) and np.asarray(a).tobytes() == \
        np.asarray(b).tobytes()


@pytest.mark.parametrize("length", [1, 6, 8, 17, 64])
def test_chord_to_geodesic_keeps_the_clip_bits(length):
    # every edge chord at every place of arrays long and short enough for
    # numpy's vector loops and their tails
    for chord in EDGE_CHORDS:
        for at in range(length):
            arr = np.full(length, 0.5)
            arr[at] = chord
            assert _same(geo.chord_to_geodesic(arr), _clipped_geodesic(arr))
    # scalars, lists and 0-d arrays keep their return type
    for chord in EDGE_CHORDS + [0.5, 1, np.float64(0.5)]:
        for given in (chord, [chord], np.array(chord)):
            assert _same(geo.chord_to_geodesic(given),
                         _clipped_geodesic(given)), given


@pytest.mark.parametrize("length", [1, 6, 8, 17, 64])
def test_cap_depth_keeps_the_clip_bits(length):
    cap = geo.spherical_cap(1.2)
    for z in EDGE_Z:
        for at in range(length):
            pts = np.zeros((length, 3))
            pts[:, 2] = 0.3
            pts[at, 2] = z
            want = cap.alpha - np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
            assert _same(geo.dist_to_boundary_many(cap, pts), want)
