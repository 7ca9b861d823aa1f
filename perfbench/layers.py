"""Where the per-layer trace hooks go, and the metrics read from the spans.

The layers are covlab's modules.  Each hook replaces a name that a caller
binds, so the span covers the call as that caller makes it:
``covlab.harness.coverage_threshold`` is the harness's own reference to the
coverage entry point, ``covlab.coverage.refine_nodes`` is coverage's
reference to the grid refinement, and so on.
"""

from __future__ import annotations

from spans import Hook, Span, self_times


HOOKS = (
    Hook("covlab.cli.run_experiment", "harness.run"),
    Hook("covlab.harness.uniform_sample", "sampling",
         lambda b, out: {"points": len(out)}, new_rep=True),
    Hook("covlab.harness.build_grid", "grids.build",
         lambda b, out: {"nodes": len(out)}),
    Hook("covlab.coverage.refine_nodes", "grids.refine",
         lambda b, out: {"centers": len(b["centers"]), "nodes": len(out)}),
    Hook("covlab.harness.coverage_threshold", "coverage.threshold"),
    Hook("covlab.harness.interior_threshold", "coverage.threshold"),
    Hook("covlab.coverage.cKDTree", "coverage.tree"),
    Hook("covlab.coverage.KnnField.__call__", "coverage.query",
         lambda b, out: {"nodes": len(out)}),
    Hook("covlab.coverage.dist_to_boundary_many", "geometry.depth",
         lambda b, out: {"points": len(out)}),
    Hook("covlab.harness.boundary_centering", "limits.transform"),
    Hook("covlab.harness.interior_centering", "limits.transform"),
    Hook("covlab.harness.boundary_law_cdf", "limits.cdf"),
    Hook("covlab.harness.interior_law_cdf", "limits.cdf"),
    Hook("covlab.harness.ks_distance", "harness.ks"),
)

# span the benchmark itself opens around each covlab.cli.main call
CLI_SPAN = "cli"


def layer_metrics(spans: list[Span], reps: int,
                  speed: float = 1.0) -> dict[str, float]:
    """Per-layer totals over one traced CLI call of ``reps`` replications.

    ``*_s`` is the summed duration of the layer's spans, children
    included, except ``*.self_s`` and ``cli.io_s``, which exclude them;
    durations are multiplied by ``speed``.  Counts are exact;
    ``coverage.query_nodes`` is per replication.
    """
    selfs = self_times(spans)

    def total(name, count=None):
        return sum((s.counts.get(count, 0) if count else s.duration * speed)
                   for s in spans if s.name == name)

    def self_total(name):
        return speed * sum(t for s, t in zip(spans, selfs) if s.name == name)

    return {
        "sampling.busy_s": total("sampling"),
        "sampling.points": total("sampling", "points"),
        "grids.build_s": total("grids.build"),
        "grids.build_nodes": total("grids.build", "nodes"),
        "grids.refine_s": total("grids.refine"),
        "grids.refine_calls": sum(s.name == "grids.refine" for s in spans),
        "grids.refine_centers": total("grids.refine", "centers"),
        "grids.refine_nodes": total("grids.refine", "nodes"),
        "coverage.tree_s": total("coverage.tree"),
        "coverage.query_s": total("coverage.query"),
        "coverage.query_nodes": total("coverage.query", "nodes") / reps,
        "coverage.threshold_s": total("coverage.threshold"),
        "coverage.self_s": self_total("coverage.threshold"),
        "geometry.depth_s": total("geometry.depth"),
        "geometry.depth_points": total("geometry.depth", "points"),
        "limits.transform_s": total("limits.transform"),
        "limits.cdf_s": total("limits.cdf"),
        "harness.run_s": total("harness.run"),
        "harness.self_s": self_total("harness.run"),
        "harness.ks_s": total("harness.ks"),
        "cli.total_s": total(CLI_SPAN),
        "cli.io_s": self_total(CLI_SPAN),
    }


def unit(metric: str) -> str:
    if metric == "coverage.query_nodes":
        return "count/rep"
    if metric == "trace.overhead_frac":
        return "fraction"
    return "s" if metric.endswith("_s") else "count"

