#!/usr/bin/env python3
"""Check a golden run against the current code before it is re-pinned.

    python tools/check_repin.py tests/data/golden/weak_disk

Runs the golden's ``config.json`` on the current code into a temporary
directory, twice: as the golden was run, and with every bracket refined
to a 64th of its target width.  Per row of ``rows.csv`` it prints whether
lo and hi kept their bits, whether the new bracket [lo, hi] meets the
golden's, the golden's and the new width over h, and whether the new hi
is at least the fine run's lo.  It then lists the keys of
``summary.json`` whose values moved.

Exits 1 if any new bracket misses the golden's, is wider than its h, or
has a hi below the fine run's lo; 0 otherwise.  A golden that passes is
re-pinned by running its config into its own directory, as
``tests/test_golden_outputs.py`` runs it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from covlab import cli, harness  # noqa: E402

COMMANDS = {"weak_boundary": "weak", "weak_interior": "interior",
            "slln_trace": "slln"}

# a 64th of the target width: the fine run's lo is a value of the field at
# a point of B, so every certified hi must reach it
FINE = 64


def _run(golden: str, out: str) -> None:
    with open(os.path.join(golden, "summary.json")) as fh:
        mode = json.load(fh)["config"]["mode"]
    with contextlib.redirect_stdout(io.StringIO()):  # its "wrote ..." line
        code = cli.main([COMMANDS[mode], "--config",
                         os.path.join(golden, "config.json"), "--out", out])
    if code != 0:
        raise SystemExit(f"the run of {golden} failed")


def _fine_run(golden: str, out: str) -> None:
    """The golden's run with every target width divided by ``FINE``."""
    kept = harness.coverage_threshold, harness.interior_threshold

    def finer(threshold):
        def call(cloud, grid, k, metric, refine_to=None, **options):
            target = grid.h if refine_to is None else min(refine_to, grid.h)
            return threshold(cloud, grid, k, metric, refine_to=target / FINE,
                             **options)
        return call

    harness.coverage_threshold, harness.interior_threshold = map(finer, kept)
    try:
        _run(golden, out)
    finally:
        harness.coverage_threshold, harness.interior_threshold = kept


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _leaves(doc, path=""):
    """{dotted key: value} of every leaf of a JSON document."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            out.update(_leaves(value, f"{path}.{key}" if path else key))
        return out
    if isinstance(doc, list):
        out = {}
        for i, value in enumerate(doc):
            out.update(_leaves(value, f"{path}[{i}]"))
        return out
    return {path: doc}


def check(golden: str, out: str) -> bool:
    """Print the row and summary report; True when every row passed."""
    _run(golden, os.path.join(out, "new"))
    _fine_run(golden, os.path.join(out, "fine"))
    old = _rows(os.path.join(golden, "rows.csv"))
    new = _rows(os.path.join(out, "new", "rows.csv"))
    fine = _rows(os.path.join(out, "fine", "rows.csv"))
    if [(r["size"], r["rep"]) for r in old] != [(r["size"], r["rep"])
                                                for r in new]:
        print("the rows are not the golden's (size, rep) rows")
        return False
    print(f"{os.path.basename(os.path.normpath(golden))}: {len(new)} rows")
    print("size rep lo_bits hi_bits meets old_w/h new_w/h hi>=fine_lo")
    passed = True
    for a, b, f in zip(old, new, fine):
        lo_a, hi_a = float(a["lo"]), float(a["hi"])
        lo_b, hi_b, h = float(b["lo"]), float(b["hi"]), float(b["h"])
        meets = max(lo_a, lo_b) <= min(hi_a, hi_b)
        narrow = hi_b - lo_b <= h
        reaches = hi_b >= float(f["lo"])
        passed &= meets and narrow and reaches
        print(f"{b['size']} {b['rep']} "
              f"{'kept' if a['lo'] == b['lo'] else 'moved'} "
              f"{'kept' if a['hi'] == b['hi'] else 'moved'} "
              f"{'yes' if meets else 'NO'} "
              f"{(hi_a - lo_a) / float(a['h']):.4f} "
              f"{(hi_b - lo_b) / h:.4f}{'' if narrow else ' (> h)'} "
              f"{'yes' if reaches else 'NO'}")
    with open(os.path.join(golden, "summary.json")) as fh:
        before = _leaves(json.load(fh))
    with open(os.path.join(out, "new", "summary.json")) as fh:
        after = _leaves(json.load(fh))
    moved = sorted(key for key in before.keys() | after.keys()
                   if before.get(key) != after.get(key))
    print(f"summary.json keys moved ({len(moved)}): "
          + (", ".join(moved) if moved else "none"))
    return passed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("golden", help="a golden directory: config.json, "
                   "rows.csv and summary.json")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        passed = check(args.golden, out)
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
