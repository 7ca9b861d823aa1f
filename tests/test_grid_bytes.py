"""Byte-for-byte guard on the start partitions, and the splitting contract.

``tests/data/golden/grid_nodes.json`` maps each case id to the sha256 and
byte length of ``build_grid(...).nodes.tobytes()``, for every family, on
the whole shape and on an interior body, at two resolutions.  The square,
cube, disk, sphere and cap representatives are the lattice and ring
nodes pinned before the grids became cell partitions; the solid ball's
were pinned again when its cells became boxes of the enclosing cube that
meet the ball, and the lattices (square, cube, ball) when their spacing
became min(h, 2h/sqrt(d)).  The golden runs never reach the solid ball or the cube,
so these hashes are their only byte-level guard.

``tests/data/golden/grid_cells.json`` pins, for the same cases, what a
start partition holds beyond its nodes: its boxes, its radii, the cells
its bins put a fixed uniform cloud of probes in, and the nodes, boxes,
radii and parents of the children of every 7th start cell.
``tools/pin_grids.py`` writes both files from the current code.

The splitting test checks the contract the branch and bound rests on:
``refine_nodes`` halves every box of the cells it is given, so the
children tile their parents exactly, and each child keeps its
representative in B and within its cover radius of every point of B in
its box.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from covlab import geometry as geo
from covlab.grids import _domain, build_grid, refine_nodes
from covlab.sampling import uniform_sample

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden",
                      "grid_nodes.json")
GOLDEN_CELLS = os.path.join(os.path.dirname(GOLDEN), "grid_cells.json")
FAMILIES = ("square", "cube", "disk", "ball", "sphere", "cap")
REGIONS = {"all": geo.REGION_ALL, "body": geo.interior_body(0.2)}
HS = (0.17, 0.037)
CASES = [(fam, reg, h) for fam in FAMILIES for reg in REGIONS for h in HS
         if not (fam == "sphere" and reg == "body")]
# more lattices; on the last four the last corner lo + n*s rounds off
# lo + side, so the bytes show that the upper face is placed exactly
FACE_CASES = [("square", "all", 0.0145), ("square", "body", 0.023),
              ("cube", "all", 0.018), ("cube", "body", 0.028),
              ("square", "all", 0.0103), ("square", "body", 0.016),
              ("cube", "all", 0.0205), ("cube", "body", 0.0316)]


def _case_id(fam, reg, h):
    return f"{fam}-{reg}-{h}"


def _digest(nodes: np.ndarray) -> dict:
    raw = nodes.tobytes()
    return {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}


def _cells(spec, reg, h) -> dict:
    """Digests of the start partition's boxes, radii and probe cells, and
    of the children of every 7th start cell."""
    grid = build_grid(spec, REGIONS[reg], h)
    kids = refine_nodes(centers=grid.take(np.arange(0, len(grid), 7)))
    probes = uniform_sample(spec, 4000, 29).points
    return {"box": _digest(grid.box), "rad": _digest(grid.rad),
            "locate": _digest(grid.bins.locate(probes)),
            "kids_nodes": _digest(kids.nodes), "kids_box": _digest(kids.box),
            "kids_rad": _digest(kids.rad),
            "kids_parent": _digest(kids.parent)}


def node_pins(families) -> dict:
    """``grid_nodes.json``'s table, from the current code."""
    return {_case_id(fam, reg, h): _digest(
        build_grid(families[fam], REGIONS[reg], h).nodes)
        for fam, reg, h in CASES + FACE_CASES}


def cell_pins(families) -> dict:
    """``grid_cells.json``'s table, from the current code."""
    return {_case_id(fam, reg, h): _cells(families[fam], reg, h)
            for fam, reg, h in CASES + FACE_CASES}


def _load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return _load(GOLDEN)


@pytest.fixture(scope="module")
def golden_cells():
    return _load(GOLDEN_CELLS)


@pytest.mark.parametrize("fam,reg,h", CASES + FACE_CASES,
                         ids=[_case_id(*c) for c in CASES + FACE_CASES])
def test_grid_nodes_match_golden_bytes(golden, all_families, fam, reg, h):
    nodes = build_grid(all_families[fam], REGIONS[reg], h).nodes
    assert _digest(nodes) == golden[_case_id(fam, reg, h)]


@pytest.mark.parametrize("fam,reg,h", CASES + FACE_CASES,
                         ids=[_case_id(*c) for c in CASES + FACE_CASES])
def test_grid_cells_match_golden_bytes(golden_cells, all_families, fam,
                                       reg, h):
    got = _cells(all_families[fam], reg, h)
    assert got == golden_cells[_case_id(fam, reg, h)]


def _volume(lo, hi):
    return np.prod(hi - lo, axis=1)


@pytest.mark.parametrize("fam,reg,h", CASES,
                         ids=[_case_id(*c) for c in CASES])
def test_refine_window_is_exact_subgrid(all_families, fam, reg, h):
    # a window of cells, the first one on the axis, pole or corner of its
    # family, split twice; every child box lies in its parent's, which is
    # the child's ``parent`` row, the children's parameter volumes add up to the parent's (the ball's
    # dropped children aside), and no two children overlap
    spec, region = all_families[fam], REGIONS[reg]
    grid = build_grid(spec, region, h)
    assert np.all(grid.rad <= h)
    rng = np.random.default_rng(len(grid))
    window = np.concatenate([[0], rng.choice(len(grid), min(30, len(grid)),
                                             replace=False)])
    parents = grid.take(np.unique(window))
    root_rad = parents.rad
    d = spec.d
    for _ in range(2):
        kids = refine_nodes(centers=parents)
        assert np.all(geo.region_contains_many(spec, region, kids.nodes))
        if reg == "body":  # strictly inside the closed body
            depth = geo.dist_to_boundary_many(spec, kids.nodes)
            assert np.all(depth > region.delta)
        # each child inside exactly one parent
        inside = ((kids.box_lo[:, None] >= parents.box_lo[None])
                  & (kids.box_hi[:, None] <= parents.box_hi[None])).all(-1)
        assert np.all(inside.sum(axis=1) == 1)
        owner = np.argmax(inside, axis=1)
        assert np.array_equal(kids.parent, owner)  # the ball's dropped too
        assert np.all(np.bincount(owner) <= 2 ** d)
        vol = np.bincount(owner, _volume(kids.box_lo, kids.box_hi),
                          minlength=len(parents))
        pvol = _volume(parents.box_lo, parents.box_hi)
        if fam == "ball":
            assert np.all(vol <= pvol * (1 + 1e-12))
        else:
            assert np.allclose(vol, pvol, rtol=1e-12, atol=0.0)
        parents, root_rad = kids, root_rad[owner]
    # two halvings shrink every cover radius, also where the first split
    # of a cell on the axis does not
    slack = _domain(spec, region).slack
    assert np.all(parents.rad - slack <= 0.75 * (root_rad - slack) + 1e-12)


SHAPE_CASES = sorted({(fam, reg) for fam, reg, _ in CASES})


@pytest.mark.parametrize("fam,reg", SHAPE_CASES,
                         ids=[f"{f}-{r}" for f, r in SHAPE_CASES])
def test_nodes_are_in_row_order(all_families, fam, reg):
    # the branch and bound gathers rows of nodes; on a column-major array
    # each gather would copy the whole array first
    grid = build_grid(all_families[fam], REGIONS[reg], HS[0])
    kids = refine_nodes(centers=grid.take(np.arange(0, len(grid), 7)))
    assert grid.nodes.flags.c_contiguous
    assert kids.nodes.flags.c_contiguous
