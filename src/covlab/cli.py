"""Command-line entry point.

Subcommands: ``constants`` (closed-form constant tables), ``cover`` (one
threshold estimate for a cloud file), ``weak`` / ``interior`` / ``slln``
(experiment runs from a JSON config).
Exit codes: 0 success, 1 usage or error, 2 configuration refused.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import geometry as geo
from .coverage import coverage_threshold
from .grids import build_grid
from .harness import (CONFIG_KEYS, ConfigError, ConfigRefused,
                      ExperimentConfig, RunMode, run_experiment)
from .limits import (boundary_coefficient, interior_coefficient,
                     unit_ball_volume)
from .sampling import load_cloud_csv


def _number(token: str, what: str, integral: bool = False):
    """``token`` read as a JSON number, the rule a config's numbers follow.

    Raises :class:`ConfigError` quoting the token when it is not a finite
    number, or, with ``integral``, not a whole one.
    """
    try:
        value = json.loads(token)
    except ValueError:
        value = None
    if not geo.is_number(value) or (integral
                                    and not float(value).is_integer()):
        kind = "an integer" if integral else "a finite number"
        raise ConfigError(f"{what}: {token!r} is not {kind}")
    return int(value) if integral else value


def _parse_range(text: str, what: str) -> list[int]:
    if ".." in text:
        a, b = (_number(v, what, integral=True) for v in text.split("..", 1))
        values = list(range(a, b + 1))
    else:
        values = [_number(v, what, integral=True) for v in text.split(",") if v]
    if not values:
        raise ConfigError(f"{what}: {text!r} selects no values")
    return values


def _parse_spec(token: str) -> geo.ManifoldSpec:
    tok = token.strip().lower()
    if tok.startswith("{"):
        return geo.ManifoldSpec.from_json(json.loads(token))
    if tok in ("square", "unit_square"):
        return geo.unit_square(2)
    if tok.startswith("square:"):
        return geo.unit_square(_number(tok.split(":", 1)[1],
                                       f"spec {token!r}", integral=True))
    if tok in ("disk", "unit_disk"):
        return geo.unit_disk()
    if tok in ("ball", "solid_ball"):
        return geo.solid_ball()
    if tok in ("sphere", "unit_sphere"):
        return geo.unit_sphere()
    if tok.startswith("cap:"):
        return geo.spherical_cap(_number(tok.split(":", 1)[1],
                                         f"spec {token!r}"))
    raise ConfigError(f"unknown spec {token!r}; try disk, square, square:3, "
                      "ball, sphere, cap:ALPHA or a JSON object")


def _cmd_constants(args) -> int:
    dims = _parse_range(args.d, "--d")
    ks = _parse_range(args.k, "--k")
    table = {
        "theta_d": {str(d): unit_ball_volume(d) for d in dims},
        "c_d": {str(d): interior_coefficient(d) for d in dims if d >= 1},
        "c_dk": {f"{d},{k}": boundary_coefficient(d, k)
                 for d in dims if d >= 2 for k in ks},
    }
    text = json.dumps(table, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_cover(args) -> int:
    spec = _parse_spec(args.spec)
    region = (geo.RegionSpec.from_json(json.loads(args.region))
              if args.region else geo.REGION_ALL)
    cloud = load_cloud_csv(args.cloud, spec)
    metric = geo.Metric(args.metric)
    grid = build_grid(spec, region, args.h)
    # one bracket in this process: a field on rings answers from blocks
    # and saves the import of scipy, as a one-replication run does
    est = coverage_threshold(cloud, grid,
                             _number(args.k, "--k", integral=True), metric,
                             refine_to=args.refine_to, ring_blocks=True)
    print(json.dumps(est.to_json(), indent=2, sort_keys=True))
    return 0


def _load_config(args, mode: RunMode) -> ExperimentConfig:
    with open(args.config) as fh:
        obj = json.load(fh)
    geo.check_keys(obj, CONFIG_KEYS, "config")
    if obj.setdefault("mode", mode.value) != mode.value:
        raise ConfigError(f"config 'mode' is {obj['mode']!r}, but this "
                          f"subcommand runs {mode.value!r}")
    if args.seed is not None:
        obj["base_seed"] = _number(args.seed, "--seed", integral=True)
    if args.reps is not None:
        obj["replications"] = _number(args.reps, "--reps", integral=True)
    if args.sizes is not None:
        obj["sizes"] = [_number(s, "--sizes") for s in args.sizes.split(",")
                        if s]
    if args.metric is not None:
        obj["metric"] = args.metric
    return ExperimentConfig.from_json(obj)


def _cmd_run(args, mode: RunMode) -> int:
    config = _load_config(args, mode)
    result = run_experiment(config)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    result.write_rows_csv(os.path.join(outdir, "rows.csv"))
    result.write_summary_json(os.path.join(outdir, "summary.json"))
    result.write_meta_json(os.path.join(outdir, "run_meta.json"))
    print(f"wrote rows.csv, summary.json, run_meta.json to {outdir} "
          f"({result.wall_clock:.1f}s)")
    return 0


@functools.cache  # once per process: a build takes 1-2 ms of each call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="covlab",
                                description="coverage-threshold laboratory")
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("constants", help="print closed-form constant tables")
    c.add_argument("--d", default="2..5", help="dimension range, e.g. 2..5")
    c.add_argument("--k", default="1..4", help="multiplicity range, e.g. 1..4")
    c.add_argument("--out", default=None)
    c.set_defaults(run=_cmd_constants)

    cv = sub.add_parser("cover", help="threshold estimate for a cloud CSV")
    cv.add_argument("--cloud", required=True)
    cv.add_argument("--spec", required=True)
    cv.add_argument("--region", default=None, help="region JSON")
    cv.add_argument("--k", default="1")
    cv.add_argument("--h", type=float, required=True)
    cv.add_argument("--metric", choices=["geodesic", "euclidean"],
                    default="geodesic")
    cv.add_argument("--refine-to", type=float, default=None, dest="refine_to",
                    help="target bracket width: cells of the --h partition "
                         "are split by branch and bound until hi - lo is at "
                         "most this (default: the --h partition unrefined)")
    cv.set_defaults(run=_cmd_cover)

    for name, mode in (("weak", RunMode.WEAK_BOUNDARY),
                       ("interior", RunMode.WEAK_INTERIOR),
                       ("slln", RunMode.SLLN_TRACE)):
        r = sub.add_parser(name, help=f"run a {mode.value} experiment")
        r.add_argument("--config", required=True)
        r.add_argument("--out", default=None)
        r.add_argument("--seed", default=None)
        r.add_argument("--reps", default=None)
        r.add_argument("--sizes", default=None, help="comma separated")
        r.add_argument("--metric", choices=["geodesic", "euclidean"],
                       default=None)
        r.set_defaults(run=functools.partial(_cmd_run, mode=mode))
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; report 1
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage()
        return 1
    try:
        return args.run(args)
    except ConfigRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
