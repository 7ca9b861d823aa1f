"""Replicated coverage experiments against their limiting laws.

One driver, :func:`run_experiment`, serves every run mode.  It sweeps the
sample sizes; for each it builds one start partition, whose cells are about
the size of the threshold the strong-law limit predicts, takes the mode's
target bracket width, and draws M independent clouds from per-replication
derived seeds (so replications are exchangeable and can execute in any
order or in parallel).  Each cloud gets a certified threshold bracket, and
both bracket ends go through the mode's statistic.  A mode contributes
only its validation, its limit law, its statistic, its target width and
its summary, built in one place:

* ``weak_boundary`` -- the boundary centering, summarised by KS distances
  against the two-term weak limit;
* ``weak_interior`` -- the interior threshold and centering, against the
  interior weak limit (one builder serves both weak modes);
* ``slln_trace`` -- the ratio n theta_d r^d / denom, summarised by
  per-size medians against the strong-law limit.

Both the lo- and hi-based statistics are always reported; consumers
decide how to read the pair.  The convergence in these laws is log-log
slow, so nothing here asserts closeness at a fixed size; summaries expose
KS distances, quantiles and medians and leave directional checks to the
caller.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from enum import Enum

import numpy as np

from . import geometry as geo
from .coverage import coverage_threshold, interior_threshold
from .geometry import (ConfigError, ManifoldSpec, Metric, RegionKind, RegionSpec,
                       check_enum, check_keys, check_number, is_number)
from .grids import build_grid
from .limits import (LimitLaw, Regime, boundary_centering,
                     boundary_law_cdf, interior_centering, interior_law_cdf,
                     strong_law_limit, unit_ball_volume)
from .sampling import (DensitySpec, check_density, density_sample,
                       poisson_sample, uniform_sample)

# desk-scale cap on the sample size, by intrinsic dimension (2, or 3 and up)
MAX_SIZE = {2: 1_000_000, 3: 200_000}

# target image of the bracket width under the centering transform
ZETA_IMAGE = 0.025
# target relative error of the SLLN ratio due to the bracket width
SLLN_REL_IMAGE = 0.0025


class ConfigRefused(RuntimeError):
    """The requested comparison is degenerate and is refused, not faked."""


class RunMode(str, Enum):
    WEAK_BOUNDARY = "weak_boundary"
    WEAK_INTERIOR = "weak_interior"
    SLLN_TRACE = "slln_trace"


class Sampler(str, Enum):
    BINOMIAL = "binomial"
    POISSON = "poisson"


# the one parameter key of each k schedule kind
_SCHEDULE_KEYS = {"constant": "k", "beta_log": "beta", "power": "p"}

# most replications per size of a run whose fields on rings (the disk, the
# cap, the sphere) answer from blocks of start cells.  There the blocks
# only save the import of scipy, most of a one-replication run (0.36 ->
# 0.11 s on the disk at n = 1e4), and a replication on blocks costs more
# than one on the tree (see the coverage module).  A longer run builds its
# trees at once, as before the blocks; the run length up to which a fresh
# process still gains from them is not measured.
_RING_BLOCK_REPS = 1


@dataclass(frozen=True)
class KSchedule:
    """Multiplicity schedule k(n).

    constant: k(n) = k.  beta_log: k(n) = max(1, ceil(beta log n)), so
    k/log n -> beta.  power: k(n) = ceil(n^p) with p < 1, the
    super-logarithmic regime (beta is None there, never a float infinity).
    """

    kind: str
    value: int | float

    def __post_init__(self):
        if self.kind not in list(_SCHEDULE_KEYS):  # compared, not hashed
            raise ConfigError(f"unknown k schedule kind {self.kind!r}")
        # one spelling per value, in every output: a constant k is an int
        what = f"{self.kind} k schedule {_SCHEDULE_KEYS[self.kind]!r}"
        object.__setattr__(self, "value", check_number(
            self.value, what, integral=self.kind == "constant"))
        if self.kind == "constant" and self.value < 1:
            raise ConfigError("constant schedule needs integer k >= 1")
        if self.kind == "beta_log" and self.value <= 0:
            raise ConfigError("beta_log schedule needs beta > 0")
        if self.kind == "power" and not (0.0 < self.value < 1.0):
            raise ConfigError("power schedule needs 0 < p < 1")

    @property
    def beta(self) -> float | None:
        if self.kind == "constant":
            return 0.0
        if self.kind == "beta_log":
            return self.value
        return None

    def k_of(self, n: float) -> int:
        if self.kind == "constant":
            return self.value
        if self.kind == "beta_log":
            return max(1, math.ceil(self.value * math.log(n)))
        return math.ceil(n ** self.value)

    def to_json(self) -> dict:
        return {"kind": self.kind, _SCHEDULE_KEYS[self.kind]: self.value}

    @staticmethod
    def from_json(obj: dict) -> "KSchedule":
        check_keys(obj, {"kind", *_SCHEDULE_KEYS.values()}, "k schedule")
        kind = obj.get("kind")
        key = _SCHEDULE_KEYS.get(kind) if isinstance(kind, str) else None
        if key is not None:
            check_keys(obj, {"kind", key}, f"{kind} k schedule",
                       required=(key,))
        return KSchedule(kind, obj.get(key))


def constant_k(k: int) -> KSchedule:
    return KSchedule("constant", k)


# top-level keys of a JSON experiment config
CONFIG_KEYS = frozenset({"spec", "region", "mode", "metric", "sampler",
                         "sizes", "k", "replications", "grid_h", "base_seed",
                         "density"})


@dataclass(frozen=True)
class ExperimentConfig:
    spec: ManifoldSpec
    region: RegionSpec
    mode: RunMode
    sizes: tuple
    schedule: KSchedule
    replications: int
    metric: Metric = Metric.GEODESIC
    sampler: Sampler = Sampler.BINOMIAL
    grid_h: float | None = None
    base_seed: int = 0
    density: DensitySpec = field(default_factory=DensitySpec.uniform)

    def __post_init__(self):
        for key, kind in (("mode", RunMode), ("metric", Metric),
                          ("sampler", Sampler)):
            object.__setattr__(self, key,
                               check_enum(getattr(self, key), kind, key))
        if not self.sizes:
            raise ConfigError("need at least one size")
        cap = MAX_SIZE[min(self.spec.d, 3)]
        for s in self.sizes:
            if check_number(s, "config 'sizes'") < 16:
                raise ConfigError(f"sizes must be >= 16 (loglog guard), got {s}")
            if s > cap:
                raise ConfigError(f"size {s} exceeds the desk-scale cap {cap} "
                                  f"for d={self.spec.d}")
            if self.sampler is Sampler.BINOMIAL and not float(s).is_integer():
                raise ConfigError(f"binomial size {s} is not a whole number "
                                  "of points")
        # a whole size is an int in every output, the config echo included
        object.__setattr__(self, "sizes", tuple(
            int(s) if float(s).is_integer() else float(s) for s in self.sizes))
        for key in ("replications", "base_seed"):
            object.__setattr__(self, key, check_number(
                getattr(self, key), f"config {key!r}", integral=True))
        if self.replications < 1:
            raise ConfigError("need replications >= 1")
        if self.base_seed < 0:  # numpy's seeds would refuse it mid-run
            raise ConfigError(f"config 'base_seed' must be >= 0, got "
                              f"{self.base_seed}")
        if self.grid_h is not None:
            object.__setattr__(self, "grid_h", check_number(self.grid_h,
                                                            "grid_h"))
            if self.grid_h <= 0:
                raise ConfigError("grid_h must be > 0 when given")
        if self.mode is RunMode.SLLN_TRACE:
            if list(self.sizes) != sorted(set(self.sizes)):
                raise ConfigError("slln_trace sizes must be strictly increasing")
        elif self.schedule.kind != "constant":
            raise ConfigError("weak modes need a constant k schedule")

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "region": self.region.to_json(),
            "mode": self.mode.value,
            "metric": self.metric.value,
            "sampler": self.sampler.value,
            "sizes": list(self.sizes),
            "k": self.schedule.to_json(),
            "replications": self.replications,
            "grid_h": self.grid_h,
            "base_seed": self.base_seed,
            "density": {"kind": self.density.kind},
        }

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        check_keys(obj, CONFIG_KEYS, "config",
                   required=("spec", "mode", "sizes", "k", "replications"))
        sizes = obj["sizes"]
        if not isinstance(sizes, list) or not all(map(is_number, sizes)):
            raise ConfigError(f"sizes must be a list of finite numbers, got "
                              f"{sizes!r}")
        density = obj.get("density", {"kind": "uniform"})
        check_keys(density, {"kind"}, "density")
        if density.get("kind", "uniform") != "uniform":
            raise ConfigError("JSON configs support the uniform density only; "
                              "custom densities go through the Python API")
        return ExperimentConfig(
            spec=ManifoldSpec.from_json(obj["spec"]),
            region=RegionSpec.from_json(obj.get("region", {"kind": "all"})),
            sizes=tuple(sizes),
            schedule=KSchedule.from_json(obj["k"]),
            **{key: obj[key] for key in ("mode", "metric", "sampler",
                                         "replications", "grid_h", "base_seed")
               if key in obj})


@dataclass(frozen=True)
class ReplicationRow:
    """One line of ``rows.csv``: the header is the field names."""

    size: int | float
    rep: int
    k: int
    metric: str
    lo: float
    hi: float
    h: float
    stat_lo: float
    stat_hi: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    law: dict
    rows: list
    summary: dict
    wall_clock: float = 0.0
    workers: int = 1

    def write_rows_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f.name for f in fields(ReplicationRow)])
            w.writerows(map(astuple, self.rows))

    def summary_json(self) -> str:
        doc = {"config": self.config.to_json(), "law": self.law,
               "summary": self.summary}
        return json.dumps(doc, indent=2, sort_keys=True)

    def write_summary_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.summary_json())
            fh.write("\n")

    def write_meta_json(self, path: str) -> None:
        # timing and worker count live outside the deterministic result
        # files
        with open(path, "w") as fh:
            json.dump({"wall_clock_seconds": self.wall_clock,
                       "workers": self.workers}, fh, indent=2)
            fh.write("\n")


def ks_distance(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov sup distance against a CDF callable."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise ConfigError("ks_distance needs a nonempty sample")
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(min(1.0, max(d_plus, d_minus, 0.0)))


# ---------------------------------------------------------------------------
# grid planning


def _predicted_radius(d: int, limit: float, size: float, k_n: int,
                      beta: float | None) -> float:
    """Threshold scale at this size that the strong-law ``limit`` predicts."""
    scale = k_n if beta is None else math.log(size)
    return (limit * scale / (size * unit_ball_volume(d))) ** (1.0 / d)


def _threads() -> int:
    """Worker count: ``COVLAB_THREADS``, a positive integer, when it is set,
    else every core this process may run on."""
    raw = os.environ.get("COVLAB_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"COVLAB_THREADS must be a positive integer, "
                          f"got {raw!r}")
    return n


def _map_reps(fn, tasks, n_workers: int):
    if n_workers == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=n_workers) as ex:
        return list(ex.map(fn, tasks))


def _draw_cloud(config: ExperimentConfig, size: float, size_idx: int, rep: int):
    seed = np.random.SeedSequence(entropy=config.base_seed,
                                  spawn_key=(size_idx, rep))
    if config.sampler is Sampler.POISSON:
        return poisson_sample(config.spec, config.density, float(size), seed)
    if config.density.kind != "uniform":
        return density_sample(config.spec, config.density, int(size), seed)
    return uniform_sample(config.spec, int(size), seed)


def _density_floors(config: ExperimentConfig) -> tuple[float, float | None]:
    """(f0, f1) for the configured density over B; f1=None off the boundary."""
    _, sv_b = geo.region_measures(config.spec, config.region)
    if config.density.kind == "uniform":
        f0 = 1.0 / geo.volume(config.spec)
        f1 = f0 if sv_b > 0.0 else None
        return f0, f1
    if config.density.f0 is None:
        raise ConfigError("custom densities need an explicit f0")
    f1 = config.density.f1 if sv_b > 0.0 else None
    if sv_b > 0.0 and f1 is None:
        raise ConfigError("custom densities need an explicit f1 when B "
                          "touches the boundary")
    return config.density.f0, f1


def _summarize_weak(rows: list, sizes, cdf) -> dict:
    out = {}
    for size in sizes:
        stats_lo = np.array([r.stat_lo for r in rows if r.size == size])
        stats_hi = np.array([r.stat_hi for r in rows if r.size == size])
        order = np.argsort(stats_lo, kind="stable")
        qs = [0.05, 0.25, 0.5, 0.75, 0.95]
        out[str(size)] = {
            "replications": int(len(stats_lo)),
            "ks_lo": ks_distance(stats_lo, cdf),
            "ks_hi": ks_distance(stats_hi, cdf),
            "ecdf_nodes": [float(v) for v in stats_lo[order]],
            "cdf_values": [float(v) for v in np.asarray(cdf(stats_lo[order]))],
            "quantiles_lo": {str(q): float(np.quantile(stats_lo, q)) for q in qs},
            "quantiles_hi": {str(q): float(np.quantile(stats_hi, q)) for q in qs},
        }
    return out


@dataclass(frozen=True)
class _ModeParts:
    """What one run mode adds to the shared driver :func:`run_experiment`."""

    law: LimitLaw
    limit: float            # strong-law limit the start cells are sized from
    interior: bool          # threshold is the max of min(k-NN field, depth)
    width: Callable[[float, float], float]   # target width at (size, r_bar)
    statistic: Callable[[float, float, int], float]   # (radius, size, k)
    summarize: Callable[[list], dict]


def _weak_parts(config: ExperimentConfig) -> _ModeParts:
    """Coverage threshold against a weak limit, boundary or interior.

    The boundary mode centres the full-region threshold against the
    two-term limit, and refuses configurations whose law is degenerate
    (target region carrying no boundary mass while (d, k) != (2, 1)).  The
    interior mode centres the certified max of min(k-NN field, depth)
    against the interior limit; an interior-body region already avoids the
    boundary, so its plain threshold is used directly.  The centering and
    the CDF are looked up when the run starts, so the benchmark's hooks on
    them take effect.
    """
    boundary = config.mode is RunMode.WEAK_BOUNDARY
    if config.density.kind != "uniform":
        raise ConfigError(f"the {'boundary' if boundary else 'interior'} "
                          "weak limit holds for the uniform density")
    spec, d, k = config.spec, config.spec.d, config.schedule.k_of(config.sizes[0])
    f0, f1 = _density_floors(config)
    v_b, sv_b = geo.region_measures(spec, config.region)
    if boundary:
        if sv_b == 0.0 and not (d == 2 and k == 1):
            raise ConfigRefused(
                f"with d={d}, k={k} and a region carrying no boundary mass "
                "the limit law is degenerate (identically 1); use the "
                "interior mode")
        law = LimitLaw(regime=Regime.WEAK_BOUNDARY, d=d, k=k, f0=f0,
                       volume=v_b, boundary_area=sv_b)
        centering, cdf, zeta = boundary_centering, boundary_law_cdf, ZETA_IMAGE
    else:
        law = LimitLaw(regime=Regime.WEAK_INTERIOR, d=d, k=k, f0=f0,
                       volume=v_b)
        centering, cdf, zeta = (interior_centering, interior_law_cdf,
                                ZETA_IMAGE / 2.0)
        f1 = None   # the start cells are sized without the boundary term

    def width(size: float, r_bar: float) -> float:
        # zeta over the boundary centering's derivative at r_bar
        deriv = (0.5 * size * unit_ball_volume(d) * f0 * d
                 * max(r_bar, 1e-12) ** (d - 1))
        return zeta / deriv

    return _ModeParts(
        law, strong_law_limit(d, config.schedule.beta, f0, f1),
        not boundary and config.region.kind is not RegionKind.INTERIOR_BODY,
        width,
        lambda r, size, k: float(centering(r, float(size), d, k, f0)),
        lambda rows: _summarize_weak(rows, config.sizes,
                                     lambda z: cdf(law, z)))


def _slln_parts(config: ExperimentConfig) -> _ModeParts:
    """Strong-law trace: the scaled threshold ratio across a size schedule.

    The statistic is n theta_d r^d / denom, where denom is k(n) in the
    super-logarithmic regime and log n otherwise; the summary sets its
    per-size medians against the almost-sure limit they should drift
    toward.
    """
    spec, d, sched = config.spec, config.spec.d, config.schedule
    theta = unit_ball_volume(d)
    f0, f1 = _density_floors(config)
    beta = sched.beta
    reference = strong_law_limit(d, beta, f0, f1)
    v_b, sv_b = geo.region_measures(spec, config.region)
    law = LimitLaw(regime=Regime.SLLN, d=d, k=max(1, sched.k_of(config.sizes[0])),
                   f0=f0, volume=v_b, boundary_area=sv_b, f1=f1, beta=beta)
    for size in config.sizes:
        if sched.k_of(size) >= size:
            raise ConfigError(f"k({size})={sched.k_of(size)} is not o(n); "
                              "shrink the schedule")

    def ratio(r: float, size: float, k: int) -> float:
        denom = float(k) if beta is None else math.log(size)
        return float(size) * theta * r ** d / denom

    def summarize(rows: list) -> dict:
        per_size = {}
        for size in config.sizes:
            ratios = np.array([r.stat_lo for r in rows if r.size == size])
            ratios_hi = np.array([r.stat_hi for r in rows if r.size == size])
            per_size[str(size)] = {
                "k": sched.k_of(size),
                "median_lo": float(np.median(ratios)),
                "median_hi": float(np.median(ratios_hi)),
                "iqr_lo": [float(np.quantile(ratios, 0.25)),
                           float(np.quantile(ratios, 0.75))],
                "abs_gap_to_reference": float(abs(np.median(ratios) - reference)),
            }
        return {"reference": reference,
                "beta": "infinity" if beta is None else beta,
                "per_size": per_size}

    return _ModeParts(law, reference, False,
                      lambda size, r_bar: SLLN_REL_IMAGE * r_bar, ratio,
                      summarize)


_MODE_PARTS = {RunMode.WEAK_BOUNDARY: _weak_parts,
               RunMode.WEAK_INTERIOR: _weak_parts,
               RunMode.SLLN_TRACE: _slln_parts}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the experiment that ``config.mode`` names.

    Validates the mode and builds its limit law, then for each size builds
    the start partition, plans the target width, and maps the replications
    over them on ``COVLAB_THREADS`` workers (default: every usable core):
    draw a cloud, bracket its threshold, push both bracket ends through
    the mode's statistic.  The mode's summary closes the run.
    """
    t0 = time.monotonic()
    n_workers = min(_threads(), config.replications)
    parts = _MODE_PARTS[config.mode](config)
    check_density(config.spec, config.density)  # fail before any replication
    spec, region, metric = config.spec, config.region, config.metric
    ring_blocks = config.replications <= _RING_BLOCK_REPS
    rows: list[ReplicationRow] = []
    for si, size in enumerate(config.sizes):
        k = config.schedule.k_of(size)
        if config.grid_h is not None:
            h_start, h_target = config.grid_h, None
        else:
            # start from cells about the size of the predicted threshold
            r_bar = _predicted_radius(spec.d, parts.limit, size, k,
                                      config.schedule.beta)
            h_max = geo.intrinsic_diameter(spec) / 8.0
            h_start = min(r_bar, h_max)
            h_target = min(max(parts.width(size, r_bar), 1e-7), h_max)
        grid = build_grid(spec, region, h_start)

        def one(rep: int) -> ReplicationRow:
            cloud = _draw_cloud(config, size, si, rep)
            threshold = (interior_threshold if parts.interior
                         else coverage_threshold)
            est = threshold(cloud, grid, k, metric, refine_to=h_target,
                            ring_blocks=ring_blocks)
            return ReplicationRow(size=size, rep=rep, k=k, metric=metric.value,
                                  lo=est.lo, hi=est.hi, h=est.h,
                                  stat_lo=parts.statistic(est.lo, size, k),
                                  stat_hi=parts.statistic(est.hi, size, k))

        rows.extend(_map_reps(one, list(range(config.replications)),
                              n_workers))
    return ExperimentResult(config, parts.law.to_json(), rows,
                            parts.summarize(rows),
                            wall_clock=time.monotonic() - t0,
                            workers=n_workers)
