"""Byte-for-byte guard on the deterministic run outputs.

``tests/data/golden/<run>/`` holds a config together with the ``rows.csv``
and ``summary.json`` that run wrote before the interior threshold became a
refined max.  Speedups and refactors must reproduce those bytes exactly on
the weak and strong-law paths, and on the interior runs whose threshold is
the plain one: a boundaryless sphere, where the depth is infinite, and an
interior-body region.
"""

import os

import pytest

from covlab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


@pytest.mark.parametrize("run,mode", [("weak_disk", "weak"),
                                      ("slln_square", "slln"),
                                      ("interior_sphere", "interior"),
                                      ("interior_body_disk", "interior")])
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
