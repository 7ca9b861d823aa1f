#!/usr/bin/env python3
"""Write the start-partition pins of ``tests/test_grid_bytes.py``.

    python tools/pin_grids.py          # write both files
    python tools/pin_grids.py --check  # compare, write nothing

Builds every case of ``tests/test_grid_bytes.py`` (``CASES`` and
``FACE_CASES``, on the shapes of ``tests/conftest.py``'s ``FAMILIES``)
with the current code and writes ``tests/data/golden/grid_nodes.json``
(the nodes' digests) and ``grid_cells.json`` (boxes, radii, probe cells
and one split), as ``json.dumps(table, indent=1, sort_keys=True)`` and a
newline.  A new chart's cases are pinned by adding them to those lists
and running this once.  With ``--check`` it prints, per file, whether the
committed file equals what it would write, and exits 1 if one differs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import FAMILIES  # noqa: E402
import test_grid_bytes as pins  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files, write none")
    args = parser.parse_args(argv)
    same = True
    for path, table in ((pins.GOLDEN, pins.node_pins(FAMILIES)),
                        (pins.GOLDEN_CELLS, pins.cell_pins(FAMILIES))):
        text = json.dumps(table, indent=1, sort_keys=True) + "\n"
        name = os.path.relpath(path, ROOT)
        if args.check:
            with open(path) as fh:
                equal = fh.read() == text
            same &= equal
            print(f"{name}: {'equal' if equal else 'DIFFERS'}")
        else:
            with open(path, "w") as fh:
                fh.write(text)
            print(f"{name}: {len(table)} cases written")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
