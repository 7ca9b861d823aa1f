import numpy as np
import pytest

from covlab import geometry as geo
from covlab.sampling import PointCloud, uniform_sample


def make_cloud(spec, pts) -> PointCloud:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return PointCloud(spec, pts)


def random_cloud(spec, n, seed) -> PointCloud:
    return uniform_sample(spec, n, seed)


def knn_sort_oracle(spec, x, pts, k, metric) -> float:
    """k-th neighbor distance by fully sorting the distance list."""
    d = np.sort(geo.dist_many(spec, np.asarray(x, float), pts, metric))
    return float(d[k - 1])


# one shape of every family, by name; ``tools/pin_grids.py`` pins the start
# partitions of these shapes
FAMILIES = {
    "square": geo.unit_square(2),
    "cube": geo.unit_square(3),
    "disk": geo.unit_disk(),
    "ball": geo.solid_ball(),
    "sphere": geo.unit_sphere(),
    "cap": geo.spherical_cap(1.1),
}


@pytest.fixture(scope="session")
def all_families():
    return FAMILIES
