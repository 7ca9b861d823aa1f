"""Run every workload once and print its end-to-end metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a covlab checkout.  Each workload runs in its own
process (``run.py --trace 0``), so peak memory is per workload.  Exits 1
when any workload fails its correctness check or cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})")
            print(proc.stderr, end="")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and res["correct"]
        print(f"{name}: failed/attempted {res['failed']}/{res['attempted']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<12} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
