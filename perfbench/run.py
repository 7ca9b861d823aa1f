"""covlab benchmark: replications per second at certified bracket width.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a covlab checkout; covlab is imported from ``src/``.
One client drives ``covlab.cli.main`` in this process, in a closed loop:
each call runs the workload's fixed number of replications on a config
derived from ``--seed`` and the call's index, and the next call starts
when the previous one returns.  In order, a run

1. warms up here (import plus a one-replication call), then times the
   same set-up in ``SETUP_PROBES`` fresh interpreters, reporting the
   median time and the median peak memory of those processes;
2. makes call 0 with every hook in ``layers.HOOKS`` installed, for the
   per-layer metrics;
3. repeats calls 0, 1, 2, ... with tracing off for ``--seconds`` (at least
   ``MIN_CALLS`` calls), and reports replications per second from the
   median call and the certified width over the first ``MIN_CALLS`` calls;
4. checks every replication (see ``check.py``), and that the traced call
   wrote the same ``rows.csv`` bytes as the untraced call 0.

Set-up and call times are scaled to reference machine speed by the
kernel in ``reference.py``, timed between them.

The last stdout line is one JSON object; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Exit codes: 0 when
every replication is correct, 1 when one is not, 2 when the benchmark
cannot run (covlab missing, or a traced name gone from the program).
Outputs of the last run go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import (WORKLOADS, base_seed, config, run_cli, setup,
                       write_config)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
MIN_CALLS = 8
CHECKED_REPS = 2

UNITS = {"setup_s": "s", "reps_per_s": "1/s", "stat_width": "stat",
         "peak_rss_mb": "MB"}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _setup_probe(root: str, name: str, seed: int,
                 workdir: str) -> tuple[float, float]:
    """(scaled set-up seconds, peak MB) of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), root, name,
         str(seed), workdir],
        capture_output=True, text=True, timeout=120, check=True)
    seconds, peak_mb = out.stdout.split()
    return float(seconds), float(peak_mb)


def _call(cli, name: str, seed: int, call: int, outdir: str):
    """(seconds, rows.csv bytes or None when the call failed)."""
    os.makedirs(outdir, exist_ok=True)
    cfg_path = os.path.join(outdir, "config.json")
    rows_path = os.path.join(outdir, "rows.csv")
    write_config(config(name, base_seed(seed, call)), cfg_path)
    if os.path.exists(rows_path):
        os.remove(rows_path)
    t0 = time.perf_counter()
    try:
        rc = run_cli(cli, WORKLOADS[name].mode, cfg_path, outdir)
    except Exception:  # a failed call is counted against its replications
        traceback.print_exc()
        rc = -1
    dt = time.perf_counter() - t0
    if rc != 0:
        _log(f"call {call}: covlab exited with code {rc}")
        return dt, None
    with open(rows_path, "rb") as fh:
        return dt, fh.read()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    name, seed = args.workload, args.seed
    if seed < 0:
        ap.error("--seed must be >= 0")
    w = WORKLOADS[name]
    # the program's default thread settings: one worker
    os.environ.pop("COVLAB_THREADS", None)

    root = os.getcwd()
    base = os.path.join(root, ".bench_out", name)
    shutil.rmtree(base, ignore_errors=True)
    seed0 = base_seed(seed, 0)
    try:
        setup(root, name, seed0, os.path.join(base, "warmup"))
    except ImportError as exc:
        _log(f"cannot import covlab from {root}/src: {exc}")
        return 2

    import covlab.cli
    import check
    import layers
    from reference import REF_S, Reference, scaled
    from spans import HookMissing, Tracer

    cli = covlab.cli
    ref = Reference()
    setups, peaks = [], []
    for i in range(SETUP_PROBES):
        seconds, peak_mb = _setup_probe(root, name, seed0,
                                        os.path.join(base, f"probe{i}"))
        setups.append(seconds)
        peaks.append(peak_mb)

    # -- traced call 0
    tracer = Tracer()
    before_traced = ref.seconds()
    gc.collect()
    try:
        with tracer.installed(layers.HOOKS):
            span = tracer.begin(layers.CLI_SPAN)
            traced_s, traced = _call(cli, name, seed, 0,
                                     os.path.join(base, "traced"))
            tracer.end(span)
    except HookMissing as exc:
        _log(f"trace hook target no longer exists: {exc}")
        return 2
    with open(os.path.join(base, "trace.json"), "w") as fh:
        json.dump(tracer.to_json(), fh)

    # -- timed calls, tracing off
    times, outputs, kernels = [], [], [ref.seconds()]
    timed_dir = os.path.join(base, "timed")
    deadline = time.perf_counter() + args.seconds
    while len(times) < MIN_CALLS or time.perf_counter() < deadline:
        gc.collect()
        dt, data = _call(cli, name, seed, len(times), timed_dir)
        times.append(dt)
        outputs.append(data)
        kernels.append(ref.seconds())

    # -- correctness of every replication
    reps = w.reps
    attempted = reps * (len(outputs) + 1)
    failed = 0
    parsed = []
    for call, data in enumerate(outputs):
        rows = _parse(check, data)
        failed += reps if rows is None else len(check.bad_reps(rows, reps))
        parsed.append(rows or {})
    if traced != outputs[0]:
        _log("traced call 0 wrote other rows.csv bytes than untraced call 0")
        rows = _parse(check, traced) or {}
        failed += max(1, sum(rows.get(r) != parsed[0].get(r)
                             for r in range(reps)))
    sample = random.Random(seed).sample(
        [(c, r) for c in range(MIN_CALLS) for r in range(reps)],
        CHECKED_REPS)
    for call, rep in sample:
        rec = parsed[call].get(rep)
        if rec is None:
            continue  # already counted as failed
        ours = (float(rec["lo"]), float(rec["hi"]))
        other = check.independent_bracket(w, base_seed(seed, call), rep)
        if not check.brackets_meet(ours, other):
            _log(f"call {call} rep {rep}: bracket {ours} misses the "
                 f"independent bracket {other}")
            failed += 1
    failed = min(failed, attempted)

    first = [r for rows in parsed[:MIN_CALLS] for r in rows.values() if r]
    e2e = {
        "setup_s": statistics.median(setups),
        "reps_per_s": reps / statistics.median(scaled(times, kernels)),
        "stat_width": check.stat_width(first) if first else float("nan"),
        "peak_rss_mb": statistics.median(peaks),
    }
    # the traced call ran between these two kernel timings
    speed = REF_S * 2.0 / (before_traced + kernels[0])
    per_layer = layers.layer_metrics(tracer.spans, reps, speed)
    per_layer["trace.overhead_frac"] = (
        traced_s * speed / scaled(times, kernels)[0] - 1.0)
    per_layer["machine.ref_s"] = statistics.median(kernels)

    _log(f"{name} seed={seed}: {len(times)} calls x {reps} reps, "
         f"failed/attempted {failed}/{attempted}; unscaled "
         f"{reps / statistics.median(times):.4g} reps/s, kernel "
         f"{statistics.median(kernels):.4g} s (reference {REF_S} s)")
    for k, v in e2e.items():
        _log(f"  {k:<12} {v:.6g} {UNITS[k]}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layers.unit(k)}
                   for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _parse(check, data):
    if data is None:
        return None
    try:
        return check.parse_rows(data)
    except (KeyError, ValueError):
        return None


if __name__ == "__main__":
    sys.exit(main())
