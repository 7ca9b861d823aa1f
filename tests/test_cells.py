"""Property tests of the cell partitions and the branch and bound over them.

The cover radius of a cell is audited without the corner formula that
computes it: points drawn uniformly in the cell's parameter box are mapped
to the shape here, and each one of B must lie within the cell's radius of
its representative.  The audit covers caps up to a polar angle of
pi - 1e-6, sphere cells touching a pole and ball cells straddling the
sphere, whose representatives are projected.

The branch and bound is audited against 60k random probes of B and an
unrefined start partition at another resolution, on clouds with repeated
points, with k equal to the cloud size, and with every point on the
boundary of the shape, on the whole shape and on interior bodies, and at
target widths down to just above the supported resolution.  A level that
would make more cells than a start partition may have is refused, and so
is one whose cells' rows of k nearest samples exceed their budget.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covlab import coverage
from covlab import geometry as geo
from covlab.coverage import (CoverageError, KnnField, coverage_threshold,
                             interior_threshold)
from covlab.grids import MIN_RESOLUTION, build_grid, refine_nodes
from covlab.sampling import uniform_sample
from conftest import make_cloud

GEO = geo.Metric.GEODESIC
EUC = geo.Metric.EUCLIDEAN
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def _spec(fam, alpha):
    return {"square": geo.unit_square(2), "cube": geo.unit_square(3),
            "disk": geo.unit_disk(), "ball": geo.solid_ball(),
            "sphere": geo.unit_sphere(),
            "cap": geo.spherical_cap(alpha)}[fam]


def _to_ambient(spec, q):
    """Parameter points to the shape: coordinates on the square, cube and
    ball, (radius, azimuth) on the disk, (polar angle, azimuth) on the
    sphere and cap."""
    if spec.family in (geo.Family.UNIT_SQUARE, geo.Family.SOLID_BALL):
        return q
    t, phi = q[..., 0], q[..., 1]
    if spec.family is geo.Family.UNIT_DISK:
        return np.stack([t * np.cos(phi), t * np.sin(phi)], axis=-1)
    return np.stack([np.sin(t) * np.cos(phi), np.sin(t) * np.sin(phi),
                     np.cos(t)], axis=-1)


def _geodesic(spec, a, b):
    chord = np.linalg.norm(a - b, axis=-1)
    return geo.chord_to_geodesic(chord) if spec.curved else chord


def _audit(spec, region, cells, rng, n_pts=64):
    """Largest excess of a sampled point's distance to its representative
    over the cell's cover radius, over the points of B in the cells."""
    u = rng.random((len(cells), n_pts, spec.d))
    q = cells.box_lo[:, None] + u * (cells.box_hi - cells.box_lo)[:, None]
    x = _to_ambient(spec, q)
    in_b = geo.region_contains_many(spec, region, x.reshape(-1, spec.m))
    excess = _geodesic(spec, x, cells.nodes[:, None]) - cells.rad[:, None]
    return float(np.max(np.where(in_b.reshape(len(cells), n_pts), excess,
                                 -np.inf), initial=-np.inf))


FAMILY_NAMES = ["square", "cube", "disk", "ball", "sphere", "cap"]
FAMILIES = st.sampled_from(FAMILY_NAMES)


def _body(spec, fam, body):
    """An interior body a tenth of the diameter deep, or all of A."""
    if not body or fam == "sphere":
        return geo.REGION_ALL
    return geo.interior_body(0.2 * min(geo.intrinsic_diameter(spec), 1.0)
                             / 2.0)


@SETTINGS
@given(fam=FAMILIES, alpha=st.floats(0.05, math.pi - 1e-6),
       body=st.booleans(), h=st.floats(0.04, 0.6), splits=st.integers(0, 4),
       seed=st.integers(0, 2 ** 31))
def test_cover_radius_holds_for_sampled_points(fam, alpha, body, h, splits,
                                               seed):
    spec = _spec(fam, alpha)
    region = _body(spec, fam, body)
    h = h * geo.intrinsic_diameter(spec) / 2.0
    rng = np.random.default_rng(seed)
    cells = build_grid(spec, region, h)
    assert np.all(cells.rad <= h)
    assert np.all(geo.region_contains_many(spec, region, cells.nodes))
    for level in range(splits + 1):
        # a random sample, plus the cells on a pole or the axis, and the
        # ball cells whose box straddles the sphere
        pick = rng.random(len(cells)) < min(1.0, 300 / len(cells))
        if fam in ("disk", "sphere", "cap"):
            pick |= cells.box_lo[:, 0] == 0.0
            pick |= cells.box_hi[:, 0] >= math.pi
        if fam == "ball":
            far = np.linalg.norm(np.maximum(np.abs(cells.box_lo),
                                            np.abs(cells.box_hi)), axis=1)
            pick |= far > 1.0 - (region.delta or 0.0)
        assert _audit(spec, region, cells.take(pick), rng) <= 1e-12, level
        parents = cells.take(rng.random(len(cells)) < 0.2)
        if not len(parents):
            break
        cells = refine_nodes(centers=parents)
        assert np.all(geo.region_contains_many(spec, region, cells.nodes))


def _cloud_points(spec, kind, n, rng):
    pts = uniform_sample(spec, n, int(rng.integers(2 ** 31))).points
    if kind == "repeated":
        return np.repeat(pts[: max(1, n // 3)], 3, axis=0)
    if kind == "boundary" and geo.boundary_measure(spec) > 0:
        if spec.family in (geo.Family.UNIT_DISK, geo.Family.SOLID_BALL):
            return pts / np.linalg.norm(pts, axis=1, keepdims=True)
        if spec.family is geo.Family.SPHERICAL_CAP:
            t = rng.uniform(0.0, 2.0 * math.pi, n)
            s = math.sin(spec.alpha)
            return np.column_stack([s * np.cos(t), s * np.sin(t),
                                    np.full(n, math.cos(spec.alpha))])
        # square: push one coordinate of every point onto a face
        pts = pts.copy()
        axis = rng.integers(0, spec.d, n)
        pts[np.arange(n), axis] = rng.integers(0, 2, n)
    return pts


def _floor_examples(fn):
    """Adds the floor targets on every family and region as explicit
    examples, whatever the draws."""
    for fam in FAMILY_NAMES:
        for body in (False, True):
            for floor in (1.05, 2.0):
                fn = example(fam=fam, alpha=math.pi - 1e-6, body=body,
                             floor=floor, kind="random", n=40, k=2,
                             euclid=False, ratio=1.0, seed=3)(fn)
    return fn


@SETTINGS
@_floor_examples
@given(fam=FAMILIES, alpha=st.floats(0.3, math.pi - 1e-6),
       body=st.booleans(), floor=st.one_of(st.none(), st.floats(1.05, 2.0)),
       kind=st.sampled_from(["random", "repeated", "k_is_n", "boundary"]),
       n=st.integers(2, 60), k=st.integers(1, 4), euclid=st.booleans(),
       ratio=st.floats(1.0, 60.0), seed=st.integers(0, 2 ** 31))
def test_bracket_meets_probes_and_full_partition(fam, alpha, body, floor,
                                                 kind, n, k, euclid, ratio,
                                                 seed):
    # the target is h / ratio, or floor times the supported resolution
    spec = _spec(fam, alpha)
    region = _body(spec, fam, body)
    rng = np.random.default_rng(seed)
    pts = _cloud_points(spec, kind, n, rng)
    k = len(pts) if kind == "k_is_n" else min(k, len(pts))
    cloud = make_cloud(spec, pts)
    metric = EUC if euclid else GEO
    diam = geo.intrinsic_diameter(spec)
    h = diam / (8.0 if spec.d == 2 else 5.0)
    target = h / ratio if floor is None else floor * MIN_RESOLUTION
    grid = build_grid(spec, region, h)
    knn = KnnField(spec, cloud.points, k, metric)
    probes = uniform_sample(spec, 60_000, int(rng.integers(2 ** 31))).points
    probes = probes[geo.region_contains_many(spec, region, probes)]
    oracle = build_grid(spec, region, h / float(rng.uniform(2, 4)))
    depth = geo.dist_to_boundary_many
    for est, field in (
            (coverage_threshold(cloud, grid, k, metric, refine_to=target),
             knn),
            (interior_threshold(cloud, grid, k, metric, refine_to=target),
             lambda x: np.minimum(knn(x), depth(spec, x)))):
        assert 0.0 <= est.width <= target + 1e-12
        assert field(np.array([est.argmax]))[0] == est.lo
        assert float(field(probes).max()) <= est.hi + 1e-12
        top = float(field(oracle.nodes).max())
        assert max(est.lo, top) <= min(est.hi, top + oracle.h) + 1e-12


def test_runaway_level_is_refused(monkeypatch):
    # the chord field of a k = n cloud on the sphere is flat at each
    # sample's antipode, so a target near the supported resolution needs a
    # level of O(1/target) cells.  At the real cap the refusal comes after
    # levels of 1.07M and 2.16M cells, where the next needs 4.29M
    monkeypatch.setattr(coverage, "NODE_CAP", 100_000)
    spec = geo.unit_sphere()
    pts = _cloud_points(spec, "k_is_n", 48, np.random.default_rng(34269))
    cloud = make_cloud(spec, pts)
    target = 1.8048473014317254 * MIN_RESOLUTION
    grid = build_grid(spec, geo.REGION_ALL, math.pi / 8.0)
    for threshold in (coverage_threshold, interior_threshold):
        with pytest.raises(CoverageError, match=f"width of {target} needs "
                           r"a level of \d+ cells, above the cap of 100000"):
            threshold(cloud, grid, 48, EUC, refine_to=target)


_RUNAWAY = """
import json, math, resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from covlab import coverage, geometry as geo
from covlab.grids import MIN_RESOLUTION, build_grid
from covlab.sampling import PointCloud, uniform_sample

spec = geo.unit_sphere()
seed = int(np.random.default_rng(34269).integers(2 ** 31))
cloud = PointCloud(spec, uniform_sample(spec, 48, seed).points)
grid = build_grid(spec, geo.REGION_ALL, math.pi / 8.0)
try:
    coverage.coverage_threshold(cloud, grid, 48, geo.Metric.EUCLIDEAN,
                                refine_to=1.8048473014317254 * MIN_RESOLUTION)
    message = None
except coverage.CoverageError as exc:
    message = str(exc)
print(json.dumps([message,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def test_runaway_level_is_refused_within_its_row_budget():
    # the sphere example above at the real cell cap: k = 48 rows a cell
    # would take 2.2 GB on its level of 2.16M cells; the row budget
    # refuses a level of 528k cells first.  The child process limits its
    # address space to 2 GB and must peak below 1 GB.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    # one BLAS thread: each thread's buffer would count against the limit
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _RUNAWAY], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    message, peak_kb = json.loads(out.stdout.splitlines()[-1])
    assert message is not None
    assert f"above the budget of {coverage.ROW_CAP}" in message
    assert "k = 48" in message
    assert peak_kb < 1 << 20


class _Evaluated(Exception):
    pass


def test_fine_start_partition_is_refused_within_its_row_budget(monkeypatch):
    # k = 48 rows a cell of a start partition of 392k cells would take
    # 150 MB an index array; the row budget refuses it before the field is
    # asked anything, and lets k = 38 through
    def evaluate(*args, **kwargs):
        raise _Evaluated

    monkeypatch.setattr(coverage, "_evaluate", evaluate)
    square = geo.unit_square(2)
    cloud = make_cloud(square, uniform_sample(square, 100, 3).points)
    grid = build_grid(square, geo.REGION_ALL, 0.0016)
    assert 38 * len(grid) <= coverage.ROW_CAP < 48 * len(grid)
    for threshold in (coverage_threshold, interior_threshold):
        with pytest.raises(CoverageError, match=(
                f"start partition of {len(grid)} cells of k = 48 nearest "
                f"samples needs {48 * len(grid)} rows, above the budget of "
                f"{coverage.ROW_CAP}")):
            threshold(cloud, grid, 48, EUC)
        with pytest.raises(_Evaluated):
            threshold(cloud, grid, 38, EUC)


@pytest.mark.parametrize("fam", ["disk", "sphere", "cap"])
def test_axis_cells_stay_whole(fam):
    # the start partition keeps one cell around the disk centre and each
    # pole, and two cells at least on every other ring
    spec = _spec(fam, 2.0)
    grid = build_grid(spec, geo.REGION_ALL, 0.05)
    on_axis = (grid.box_lo[:, 0] == 0.0) | (grid.box_hi[:, 0] >= math.pi)
    first = grid.box_lo[:, 0] == 0.0
    assert np.count_nonzero(first) == 1
    assert np.all(grid.box_hi[first, 1] - grid.box_lo[first, 1]
                  == pytest.approx(2.0 * math.pi))
    widths = grid.box_hi[~on_axis, 1] - grid.box_lo[~on_axis, 1]
    assert np.all(widths <= math.pi * (1.0 + 1e-12))
