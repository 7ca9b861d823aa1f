import math

import numpy as np
import pytest
from scipy import stats

from covlab import geometry as geo
from covlab import sampling as smp

UNIFORM = smp.DensitySpec.uniform()


def test_empty_cloud():
    c = smp.uniform_sample(geo.unit_disk(), 0, 1)
    assert len(c) == 0 and c.points.shape == (0, 2)


def test_reproducible_bit_exact(all_families):
    for spec in all_families.values():
        a = smp.uniform_sample(spec, 500, 42)
        b = smp.uniform_sample(spec, 500, 42)
        assert np.array_equal(a.points, b.points)
        c = smp.uniform_sample(spec, 500, 43)
        assert not np.array_equal(a.points, c.points)


def test_seed_tuple_and_seedsequence():
    spec = geo.unit_disk()
    a = smp.uniform_sample(spec, 100, (7, 3))
    b = smp.uniform_sample(spec, 100,
                           np.random.SeedSequence(entropy=7, spawn_key=(3,)))
    assert np.array_equal(a.points, b.points)


def test_membership_exact(all_families):
    for name, spec in all_families.items():
        pts = smp.uniform_sample(spec, 20_000, 11).points
        assert np.all(geo.contains_many(spec, pts)), name


def test_disk_radius_fraction():
    pts = smp.uniform_sample(geo.unit_disk(), 1_000_000, 5).points
    frac = float(np.mean(np.einsum("ij,ij->i", pts, pts) <= 0.25))
    assert frac == pytest.approx(0.25, abs=0.002)


def test_square_mean_coordinate():
    pts = smp.uniform_sample(geo.unit_square(2), 1_000_000, 6).points
    assert float(pts[:, 0].mean()) == pytest.approx(0.5, abs=0.002)


def test_cap_polar_angle_law():
    alpha = 1.2
    pts = smp.uniform_sample(geo.spherical_cap(alpha), 200_000, 8).points
    # cos(theta) should be uniform on [cos(alpha), 1]
    c = pts[:, 2]
    u = (1.0 - c) / (1.0 - math.cos(alpha))
    d = stats.kstest(u, "uniform").statistic
    assert d < 0.01


def _cell_index(spec, pts):
    """Equal-measure 8-cell partition per family."""
    fam = spec.family
    if fam is geo.Family.UNIT_SQUARE and spec.d == 2:
        return np.minimum((pts[:, 0] * 4).astype(int), 3) + 4 * (pts[:, 1] >= 0.5)
    if fam is geo.Family.UNIT_SQUARE:
        bits = (pts[:, :3] >= 0.5).astype(int)
        return bits[:, 0] * 4 + bits[:, 1] * 2 + bits[:, 2]
    if fam is geo.Family.UNIT_DISK:
        quad = (pts[:, 0] >= 0).astype(int) * 2 + (pts[:, 1] >= 0).astype(int)
        inner = np.einsum("ij,ij->i", pts, pts) <= 0.5
        return quad + 4 * inner
    if fam in (geo.Family.SOLID_BALL, geo.Family.UNIT_SPHERE):
        bits = (pts >= 0.0).astype(int)
        return bits[:, 0] * 4 + bits[:, 1] * 2 + bits[:, 2]
    ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * math.pi)
    return np.minimum((ang / (2 * math.pi) * 8).astype(int), 7)


def test_chi_square_uniformity(all_families):
    crit = stats.chi2.isf(1e-3, 7)
    for name, spec in all_families.items():
        pts = smp.uniform_sample(spec, 100_000, 13).points
        counts = np.bincount(_cell_index(spec, pts), minlength=8)
        expected = len(pts) / 8.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < crit, f"{name}: chi2={chi2:.1f} crit={crit:.1f}"


def test_density_uniform_kind_delegates():
    spec = geo.unit_square(2)
    a = smp.density_sample(spec, UNIFORM, 1000, 3)
    b = smp.uniform_sample(spec, 1000, 3)
    assert np.array_equal(a.points, b.points)


def test_custom_constant_matches_uniform_law():
    spec = geo.unit_square(2)
    dens = smp.DensitySpec.custom(lambda p: np.ones(len(p)), sup_bound=1.0)
    pts = smp.density_sample(spec, dens, 100_000, 21).points
    d = stats.kstest(pts[:, 0], "uniform").statistic
    assert d < 0.01


def test_custom_tilted_density_mean():
    # f(x) = (2/3)(1 + x1) on the unit square; E[x1] = 5/9
    spec = geo.unit_square(2)
    dens = smp.DensitySpec.custom(lambda p: (2.0 / 3.0) * (1.0 + p[:, 0]),
                                  sup_bound=4.0 / 3.0)
    pts = smp.density_sample(spec, dens, 1_000_000, 17).points
    assert float(pts[:, 0].mean()) == pytest.approx(5.0 / 9.0, abs=0.002)


def test_custom_density_sup_violation():
    spec = geo.unit_square(2)
    dens = smp.DensitySpec.custom(lambda p: (2.0 / 3.0) * (1.0 + p[:, 0]),
                                  sup_bound=1.0)
    with pytest.raises(smp.SamplingError, match="sup_bound"):
        smp.density_sample(spec, dens, 1000, 3)


@pytest.mark.parametrize("kw,needle", [
    ({"sup_bound": math.nan}, "'sup_bound' must be a finite number"),
    ({"sup_bound": 0.0}, "'sup_bound' must be > 0"),
    ({"sup_bound": True}, "'sup_bound' must be a finite number"),
    ({"f0": math.nan}, "'f0' must be a finite number"),
    ({"f1": -1.0}, "'f1' must be > 0"),
    ({"f": None}, "needs f and sup_bound"),
    ({"sup_bound": None}, "needs f and sup_bound"),
    # a misspelt kind was sampled as a custom density
    ({"kind": "custm"}, "density kind must be 'uniform' or 'custom'"),
    ({"kind": None}, "density kind must be 'uniform' or 'custom'"),
], ids=["sup_nan", "sup_zero", "sup_bool", "f0_nan", "f1_negative", "no_f",
        "no_sup", "kind_misspelt", "kind_none"])
def test_density_spec_refuses_bad_values(kw, needle):
    # refused where the spec is built, not by the first draw or run: a NaN
    # f0 surfaced as a NaN grid radius
    args = {"kind": "custom", "f": lambda p: np.ones(len(p)),
            "sup_bound": 1.0, **kw}
    with pytest.raises(ValueError, match=needle):
        smp.DensitySpec(**args)


def test_custom_density_normalization_check():
    spec = geo.unit_square(2)
    dens = smp.DensitySpec.custom(lambda p: np.full(len(p), 1.5), sup_bound=2.0)
    with pytest.raises(smp.SamplingError, match="integrates"):
        smp.density_sample(spec, dens, 100, 3)


def test_poisson_counts_moments():
    spec = geo.unit_square(2)
    counts = np.array([len(smp.poisson_sample(spec, UNIFORM, 1e4, (9, rep)))
                       for rep in range(1000)])
    se = math.sqrt(1e4) / math.sqrt(len(counts))
    assert counts.mean() == pytest.approx(1e4, abs=3 * se)
    assert counts.var(ddof=1) == pytest.approx(1e4, rel=0.10)


def test_poisson_tiny_intensity():
    c = smp.poisson_sample(geo.unit_disk(), UNIFORM, 1e-9, 4)
    assert len(c) == 0


def test_poisson_pmf_against_scipy():
    # independent oracle for the two count samplers
    rng = smp._rng(99)
    for lam in (4.0, 100.0):
        draws = np.array([smp.poisson_count(rng, lam) for _ in range(60_000)])
        lo, hi = stats.poisson.ppf([1e-5, 1 - 1e-5], lam).astype(int)
        grid = np.arange(lo, hi + 1)
        exp = stats.poisson.pmf(grid, lam) * len(draws)
        obs = np.array([(draws == v).sum() for v in grid])
        mask = exp > 5
        chi2 = float(((obs[mask] - exp[mask]) ** 2 / exp[mask]).sum())
        assert chi2 < stats.chi2.isf(1e-3, mask.sum() - 1), f"lam={lam}"


def test_poisson_points_law():
    pts = smp.poisson_sample(geo.unit_square(2), UNIFORM, 50_000.0, 31).points
    assert abs(len(pts) - 50_000) < 5 * math.sqrt(50_000)
    assert stats.kstest(pts[:, 0], "uniform").statistic < 0.01


def test_cloud_csv_round_trip(tmp_path):
    spec = geo.spherical_cap(0.9)
    cloud = smp.uniform_sample(spec, 64, 12)
    path = str(tmp_path / "cloud.csv")
    smp.save_cloud_csv(cloud, path)
    assert [p.name for p in tmp_path.iterdir()] == ["cloud.csv"]
    back = smp.load_cloud_csv(path, spec)
    assert back.spec == spec
    assert back.points.tobytes() == cloud.points.tobytes()
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w") as fh:
        fh.write("idx,x1,x2,x3\n0,5.0,0.0,0.0\n")
    with pytest.raises(smp.SamplingError, match="outside"):
        smp.load_cloud_csv(bad, spec)
