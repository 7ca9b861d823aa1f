"""The k-NN field is the same bits whichever tree it is built on.

On box shapes (the square and the cube) ``KnnField`` builds its tree on a
copy of the cloud sorted by bucket, without node compaction; on the other
shapes it builds on the rows as given.  Each k-th neighbor distance is the
distance to one row, computed the same way whatever the row's position,
so every value must equal, bit for bit, the value of a plain
``cKDTree(points)`` over the unsorted rows.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from covlab import geometry as geo
from covlab.coverage import KnnField, _bucket_sorted
from covlab.grids import build_grid
from covlab.sampling import uniform_sample

GEO, EUC = geo.Metric.GEODESIC, geo.Metric.EUCLIDEAN


def plain_kth(spec, points, k, metric, probes):
    chord = cKDTree(points).query(probes, k=k)[0]
    chord = chord[:, -1] if k > 1 else np.ravel(chord)
    if spec.curved and metric is GEO:
        return geo.chord_to_geodesic(chord)
    return chord


def assert_same_bits(spec, points, k, metric, probes):
    got = KnnField(spec, points, k, metric)(probes)
    want = plain_kth(spec, points, k, metric, probes)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def same_rows(a, b) -> bool:
    """True when a and b hold the same rows the same number of times."""
    def canon(x):
        return x[np.lexsort(x.T[::-1])]
    return a.shape == b.shape and canon(a).tobytes() == canon(b).tobytes()


@pytest.mark.parametrize("metric", [GEO, EUC])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["square", "cube", "disk", "ball", "sphere",
                                  "cap"])
def test_field_matches_plain_tree_bitwise(all_families, name, k, metric):
    spec = all_families[name]
    cloud = uniform_sample(spec, 3000, 41)
    random_probes = uniform_sample(spec, 2000, 42).points
    start_nodes = build_grid(spec, geo.REGION_ALL, 0.08).nodes
    for probes in (random_probes, start_nodes):
        assert_same_bits(spec, cloud.points, k, metric, probes)


def _degenerate_clouds(m):
    rng = np.random.default_rng(7 + m)
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * m)).reshape(m, -1).T
    line = np.zeros((200, m))
    line[:, 0] = rng.random(200)
    line[:, 1:] = 0.375                  # zero span on every other axis
    flat = rng.random((300, m))
    flat[:, -1] = 0.5                    # zero span on the last axis
    face = rng.random((400, m))
    face[::2, 0] = 1.0                   # half the rows on one face
    face[1::4] = corners[rng.integers(len(corners), size=100)]
    repeated = np.repeat(rng.random((40, m)), 5, axis=0)
    return {
        "identical": np.full((64, m), 0.25),
        "line": line,
        "flat": flat,
        "duplicates": repeated[rng.permutation(len(repeated))],
        "faces_and_corners": face,
        "corners_only": corners,
        "n_equals_k": rng.random((3, m)),
    }


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("case", ["identical", "line", "flat", "duplicates",
                                  "faces_and_corners", "corners_only",
                                  "n_equals_k"])
def test_degenerate_box_clouds_match_plain_tree(m, case):
    spec = geo.unit_square(m)
    points = _degenerate_clouds(m)[case]
    probes = np.concatenate([uniform_sample(spec, 500, 43).points,
                             build_grid(spec, geo.REGION_ALL, 0.2).nodes,
                             points[:50]])
    for k in (1, 2, 3):
        for metric in (GEO, EUC):
            assert_same_bits(spec, points, k, metric, probes)
    assert same_rows(_bucket_sorted(points), points)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sorted_copy_holds_the_cloud_rows(m):
    points = uniform_sample(geo.unit_square(m), 5000, 44).points
    ordered = _bucket_sorted(points)
    assert ordered.flags.c_contiguous
    assert same_rows(ordered, points)
    # the rows did move, and the first axis leads the key: its buckets
    # never decrease down the copy
    assert not np.array_equal(ordered, points)
    x, top = ordered[:, 0], 1 << (16 // m)
    lead = np.floor((x - x.min()) / (x.max() - x.min()) * top)
    assert np.all(np.diff(np.minimum(lead, top - 1)) >= 0)
