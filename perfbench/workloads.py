"""Workload table and the calls that drive covlab through its CLI.

Every workload is one ``covlab`` run mode on one shape at one sample size,
with the harness planning the grid (``grid_h: null``).  Only the standard
library is imported at module level, so that importing this module does
not count towards the measured set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    mode: str          # covlab CLI subcommand: weak | interior | slln
    spec: dict         # ManifoldSpec JSON
    size: int
    k: int
    reps: int          # replications per CLI call
    check_h: float     # covering radius of the independent check grid


# check_h is coarser than the harness-planned coarse grid on every
# workload, so the check never reuses the program's grid.
WORKLOADS = {
    "disk_weak_1e4": Workload("weak", {"family": "unit_disk"},
                              10_000, 1, reps=20, check_h=0.003),
    "square_slln_1e5": Workload("slln", {"family": "unit_square"},
                                100_000, 1, reps=4, check_h=0.0011),
    "cap_interior_k2": Workload("interior",
                                {"family": "spherical_cap", "alpha": 1.0},
                                10_000, 2, reps=3, check_h=0.0025),
}


def base_seed(seed: int, call: int) -> int:
    """Seed of the ``call``-th CLI call of a run; calls never reach 100000."""
    return seed * 100_000 + call


def config(name: str, seed: int, reps: int | None = None) -> dict:
    """The experiment config handed to covlab: all it learns of the seed."""
    w = WORKLOADS[name]
    return {
        "spec": w.spec,
        "region": {"kind": "all"},
        "metric": "geodesic",
        "sampler": "binomial",
        "sizes": [w.size],
        "k": {"kind": "constant", "k": w.k},
        "replications": w.reps if reps is None else reps,
        "grid_h": None,
        "base_seed": seed,
    }


def write_config(cfg: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)


def import_covlab(root: str):
    """Import ``covlab.cli`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import covlab.cli
    origin = os.path.realpath(covlab.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"covlab was imported from {origin}, not from {src}")
    return covlab.cli


def run_cli(cli, mode: str, cfg_path: str, outdir: str) -> int:
    """One closed-loop call of the user's entry point; its chatter is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([mode, "--config", cfg_path, "--out", outdir])


def setup(root: str, name: str, seed: int, workdir: str) -> float:
    """Seconds to import covlab and run a one-replication warm-up.

    ``seed`` is handed to covlab as is: callers pass a :func:`base_seed`.
    """
    t0 = time.perf_counter()
    cli = import_covlab(root)
    os.makedirs(workdir, exist_ok=True)
    cfg_path = os.path.join(workdir, "config.json")
    write_config(config(name, seed, reps=1), cfg_path)
    rc = run_cli(cli, WORKLOADS[name].mode, cfg_path, workdir)
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"warm-up of {name} exited with code {rc}")
    return elapsed
