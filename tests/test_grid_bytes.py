"""Byte-for-byte guard on the evaluation grids, and the refinement contract.

``tests/data/golden/grid_nodes.json`` maps each case id to the sha256 and
byte length of ``build_grid(...).nodes.tobytes()``, for every family, on
the whole shape and on an interior body, at two resolutions, as pinned
before the grid constructions were rewritten as one lattice and one ring
construction.  The golden runs never reach the solid ball or the cube, so
these hashes are their only byte-level guard.

The refinement test checks the contract certified refinement rests on:
``refine_nodes`` returns rows of the full construction at the same h, and
misses no node of it within geodesic ``reach`` of a centre.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from covlab import geometry as geo
from covlab.grids import build_grid, estimate_node_count, refine_nodes
from covlab.sampling import uniform_sample

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden",
                      "grid_nodes.json")
FAMILIES = ("square", "cube", "disk", "ball", "sphere", "cap")
REGIONS = {"all": geo.REGION_ALL, "body": geo.interior_body(0.2)}
HS = (0.17, 0.037)
CASES = [(fam, reg, h) for fam in FAMILIES for reg in REGIONS for h in HS
         if not (fam == "sphere" and reg == "body")]
# lattices whose last corner lo + n*s rounds off lo + side, so the bytes
# show that the upper face is placed exactly
FACE_CASES = [("square", "all", 0.0145), ("square", "body", 0.023),
              ("cube", "all", 0.018), ("cube", "body", 0.028)]


def _case_id(fam, reg, h):
    return f"{fam}-{reg}-{h}"


def _digest(nodes: np.ndarray) -> dict:
    raw = nodes.tobytes()
    return {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("fam,reg,h", CASES + FACE_CASES,
                         ids=[_case_id(*c) for c in CASES + FACE_CASES])
def test_grid_nodes_match_golden_bytes(golden, all_families, fam, reg, h):
    nodes = build_grid(all_families[fam], REGIONS[reg], h).nodes
    assert _digest(nodes) == golden[_case_id(fam, reg, h)]


def _rows(a: np.ndarray) -> set:
    return {r.tobytes() for r in np.ascontiguousarray(a)}


@pytest.mark.parametrize("fam,reg,h", CASES,
                         ids=[_case_id(*c) for c in CASES])
def test_refine_window_is_exact_subgrid(all_families, fam, reg, h):
    spec, region = all_families[fam], REGIONS[reg]
    full = build_grid(spec, region, h).nodes
    if fam != "ball":
        assert estimate_node_count(spec, region, h) == len(full)
    full_rows = _rows(full)
    # 300 centers at reach 0.5 split the finer 3-D lattice windows into
    # several chunks; sorting by x keeps the chunks apart
    for seed, n_centers, reach in ((0, 1, h + h / 8.0), (1, 7, h + h / 8.0),
                                   (2, 30, h + h / 8.0), (3, 300, 0.5)):
        pts = uniform_sample(spec, 4 * n_centers, seed).points
        pts = pts[geo.region_contains_many(spec, region, pts)][:n_centers]
        pts = pts[np.argsort(pts[:, 0])]
        # the first node sits on the axis, pole or corner of its family
        centers = np.vstack([full[:1], pts])
        got = refine_nodes(spec, region, centers, reach=reach, h=h)
        assert len(got) == len(_rows(got))
        assert _rows(got) <= full_rows, "refined rows off the full grid"
        near = np.zeros(len(full), dtype=bool)
        for c in centers:
            near |= geo.dist_many(spec, c, full, geo.Metric.GEODESIC) <= reach
        assert _rows(full[near]) <= _rows(got), "node within reach missed"
