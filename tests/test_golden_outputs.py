"""Byte-for-byte guard on the deterministic run outputs.

``tests/data/golden/<run>/`` holds a config together with the ``rows.csv``
and ``summary.json`` that run wrote when it was pinned.  Speedups and
refactors must reproduce those bytes exactly.  The runs cover every mode
of the experiment driver: weak boundary runs (disk, Poisson disk, a cap
with the Euclidean metric on a fixed grid), strong-law traces (beta_log
and power schedules on the square, beta_log on the cube, the one 3-D
box) and interior runs (a boundaryless sphere, an interior-body region,
and the refined max of min(k-NN field, depth) over a whole cap).
"""

import os

import pytest

from covlab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


@pytest.mark.parametrize("run,mode", [("weak_disk", "weak"),
                                      ("slln_square", "slln"),
                                      ("interior_sphere", "interior"),
                                      ("interior_body_disk", "interior"),
                                      ("interior_cap_k2", "interior"),
                                      ("weak_disk_poisson", "weak"),
                                      ("weak_cap_euclid_gridh", "weak"),
                                      ("slln_square_power", "slln"),
                                      ("slln_cube", "slln")])
def test_outputs_match_golden_bytes(tmp_path, capsys, run, mode):
    src = os.path.join(GOLDEN, run)
    out = str(tmp_path / run)
    assert main([mode, "--config", os.path.join(src, "config.json"),
                 "--out", out]) == 0
    for name in ("rows.csv", "summary.json"):
        with open(os.path.join(src, name), "rb") as fh:
            want = fh.read()
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == want, f"{run}/{name} differs from golden"
