"""Benchmark of legendre_curves: seeded workloads, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up (timed, several times), warms up, then runs operations
back to back for ``--seconds`` and prints the end-to-end metrics: CPU times
divided by the host slowdown that the workload's reference measures around
them (README.md, "Clock").  ``--trace
1`` runs a fixed, seed-determined list of operations twice, untraced and
then with every layer wrapped, and prints the per-layer metrics per
operation.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context.  The package is imported from ``./src``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Set-ups per untraced run: one in this process, the rest in fresh ones.
SETUP_REPEATS = 5
#: Percentiles tried for op_tail_ms when the workload's own has < 10 samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the set-up time (used for setup_s)")
    return p.parse_args(argv)


# -- set-up ------------------------------------------------------------------------


def set_up(name: str, seed: int, root: str, tr=None):
    """Import, build the workload's inputs and warm up; all of it timed.

    Returns (workload, import seconds, set-up CPU seconds, set-up wall
    seconds, warm-up failures).  With a tracer, layers are wrapped right
    after the import.
    """
    t0, c0 = perf_counter(), time.process_time()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import legendre_curves as L

    if not os.path.abspath(L.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {L.__file__}, not the package under {src}")
    t_import = perf_counter() - t0
    if tr is not None:
        tr.install()
    w = workloads.WORKLOADS[name]()
    rng = random.Random(seed)
    if name == "cli":
        w.setup(L, rng, root)
    else:
        w.setup(L, rng)
    warm_failures = [run_checked(w, next(w.ops)) for _ in range(w.warmup)]
    return (w, t_import, w.cpu_time() - c0, perf_counter() - t0,
            [f for f in warm_failures if f])


def setup_in_child(args) -> tuple[float, float]:
    """(CPU, wall) seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    return got["setup_s"], got["setup_wall_s"]


# -- operations ----------------------------------------------------------------------


def run_checked(w, op, **kw):
    """Run one operation; None on success, else the cause of the failure."""
    try:
        w.run(op, **kw)
    except Exception as err:  # every failure is counted, none ends the run
        return f"{type(err).__name__}: {str(err)[:160]}"
    return None


def timed(w, op, **kw):
    """(CPU seconds, wall seconds, failure or None) of one operation."""
    t0, c0 = perf_counter(), w.cpu_time()
    err = run_checked(w, op, **kw)
    return w.cpu_time() - c0, perf_counter() - t0, err


def timed_ops(w, ops, on_start=lambda i: {}):
    return [timed(w, op, **on_start(i)) for i, op in enumerate(ops, 1)]


def good(records, index=0):
    return [r[index] for r in records if r[2] is None]


def closed_loop(w, seconds: float, ref: list):
    """Back-to-back operations until ``seconds`` of wall time have passed.

    Reference samples go to ``ref`` as (operations done so far, seconds):
    one before the first operation, then one after every
    ``w.reference_every_s`` of operation CPU time, outside the operations'
    own timing.  Returns (per-operation records, wall seconds of the loop).
    """
    records = []
    ref.append((0, w.reference()))
    start = perf_counter()
    since_ref = 0.0
    while not records or perf_counter() < start + seconds:
        records.append(timed(w, next(w.ops)))
        since_ref += records[-1][0]
        if since_ref >= w.reference_every_s:
            ref.append((len(records), w.reference()))
            since_ref = 0.0
    return records, perf_counter() - start


def slowdowns(n: int, ref, nominal_ms: float, window: int = 3) -> list[float]:
    """Host slowdown around each of ``n`` timed values: the median of the
    ``window`` reference samples taken on either side of it, over
    ``nominal_ms``.  ``ref`` holds (values done before the sample, seconds)."""
    pos = [p for p, _ in ref]
    out = []
    for i in range(n):
        j = bisect.bisect_right(pos, i)
        near = [sec for _, sec in ref[max(0, j - window):j + window]]
        out.append(statistics.median(near) * 1e3 / nominal_ms)
    return out


def tail(lat_sorted, target: float):
    """(percentile, value, samples beyond): the workload's percentile, or the
    highest one below it that still leaves 10 samples beyond (nearest rank)."""
    n = len(lat_sorted)
    for p in (target,) + tuple(x for x in TAIL_LADDER if x < target):
        k = max(1, math.ceil(p / 100.0 * n))
        if n - k >= 10:
            return p, lat_sorted[k - 1], n - k
    k = max(1, math.ceil(n / 2))
    return 50.0, lat_sorted[k - 1], n - k


# -- context -------------------------------------------------------------------------


def context(root: str, args, w) -> dict:
    numpy = sys.modules.get("numpy")
    git = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        git = got.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "workload": args.workload, "why": w.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 client, 1 process, no threads",
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None), "git_sha": git,
        "src_sha256": digest.hexdigest(),
        "warmup": f"{w.warmup} operations after set-up, untimed, counted in setup_s",
    }


def failure_summary(failures) -> dict:
    return dict(Counter(failures).most_common(5))


# -- the two kinds of run --------------------------------------------------------------


def latency_stats(seconds, target_pct):
    """(p50 ms, tail ms, tail percentile, samples beyond the tail)."""
    if not seconds:
        return 0.0, 0.0, target_pct, 0
    ordered = sorted(seconds)
    pct, value, beyond = tail(ordered, target_pct)
    return statistics.median(ordered) * 1e3, value * 1e3, pct, beyond


def untraced_run(args, root):
    w, _, setup_cpu, setup_wall, warm_failures = set_up(args.workload, args.seed, root)
    setup_ref = [(1, w.reference()) for _ in range(3)]
    samples = [(setup_cpu, setup_wall)]
    for k in range(2, SETUP_REPEATS + 1):
        samples.append(setup_in_child(args))
        setup_ref += [(k, w.reference()) for _ in range(3)]
    ref = []
    records, loop_wall = closed_loop(w, args.seconds, ref)
    failures = warm_failures + [err for _, _, err in records if err]
    attempted = w.warmup + len(records)
    # CPU times divided by the host slowdown measured around each of them
    slow = slowdowns(len(records), ref, w.reference_ms)
    scaled = [(cpu / s, wall, err) for (cpu, wall, err), s in zip(records, slow)]
    cpu, raw_cpu, wall = good(scaled), good(records), good(records, 1)
    p50, tail_ms, pct, beyond = latency_stats(cpu, w.tail_percentile)
    raw_p50, raw_tail, _, _ = latency_stats(raw_cpu, pct)
    wall_p50, wall_tail, _, _ = latency_stats(wall, pct)
    setup_slow = slowdowns(len(samples), setup_ref, w.reference_ms)
    if args.workload == "cli":
        rss_kb = w.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": len(cpu) / sum(r[0] for r in scaled),
        "op_p50_ms": p50,
        "op_tail_ms": tail_ms,
        "ok_frac": (attempted - len(failures)) / attempted,
        "setup_s": statistics.median(c / s for (c, _), s in zip(samples, setup_slow)),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    ctx = context(root, args, w)
    ctx.update({
        "clock": "ops_per_s, op_*_ms and setup_s are CPU time (process_time, plus reaped "
                 "children's user+system time) divided by the host slowdown around each "
                 "value, from the workload's reference; raw CPU and wall figures beside",
        "reference": w.reference.__doc__.strip(), "reference_ms": w.reference_ms,
        "reference_samples": len(ref),
        "slowdown_median": statistics.median(slow),
        "setup_slowdown_median": statistics.median(setup_slow), "ops_timed": len(records),
        "op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
        "op_tail_samples": len(cpu),
        "raw": {"ops_per_s": len(raw_cpu) / sum(r[0] for r in records),
                "op_p50_ms": raw_p50, "op_tail_ms": raw_tail,
                "setup_s": statistics.median(c for c, _ in samples)},
        "wall": {"ops_per_s": len(wall) / loop_wall, "op_p50_ms": wall_p50,
                 "op_tail_ms": wall_tail, "setup_s": statistics.median(t for _, t in samples)},
        "setup_s_samples": [c for c, _ in samples],
        "failed_frac": len(failures) / attempted,
        "failures": failure_summary(failures),
    })
    return ctx, attempted, len(failures), {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(args, root):
    tr = tracer.Tracer()
    w, t_import, _, _, warm_failures = set_up(args.workload, args.seed, root, tr=tr)
    tr.uninstall()
    gallery_ms = tr.top_level_ms("gallery.", op=0)
    n = max(8, round(args.seconds * w.trace_ops_per_s))
    ops = [next(w.ops) for _ in range(n)]
    plain_lat = good(timed_ops(w, ops))

    tr.counts.clear()
    tr.max_residual = 0.0
    children = []
    if args.workload == "cli":
        out_dir = os.path.join(root, workloads.WORK_DIR)

        def on_start(i):
            return {"traced_out": os.path.join(out_dir, f"cli-trace-{i}.json")}

        records = timed_ops(w, ops, on_start)
        totals = Counter()
        for i, (_, wall, _) in enumerate(records, 1):
            path = os.path.join(out_dir, f"cli-trace-{i}.json")
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                child = json.load(fh)
            os.remove(path)
            totals.update(child.pop("totals"))
            tr.max_residual = max(tr.max_residual, child.pop("max_residual"))
            # process wall time not spent importing, tracing or inside cli.run
            child["startup_ms"] = wall * 1e3 - sum(
                child[k] for k in ("import_ms", "install_ms", "run_ms", "post_ms"))
            children.append(child)
    else:
        def on_start(i):
            tr.op_id = i
            return {}

        tr.install()
        records = timed_ops(w, ops, on_start)
        tr.uninstall()
        totals = Counter(tr.layer_totals())
    lat = good(records)
    failures = warm_failures + [err for _, _, err in records if err]

    values = {k: 0.0 for k in tracer.PER_LAYER}
    values.update(tracer.per_op(totals, n))
    values["reconstruction.max_residual"] = tr.max_residual
    values["gallery.build_ms"] = gallery_ms
    if children:
        for key in ("import_ms", "run_ms", "startup_ms"):
            values[f"cli.{key}"] = sum(c[key] for c in children) / len(children)
    else:
        values["cli.import_ms"] = t_import * 1e3
    spans_path = os.path.join(root, workloads.WORK_DIR, f"spans-{args.workload}.npz")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tr.save(spans_path)
    ctx = context(root, args, w)
    ctx.update({
        "ops_traced": n, "spans": len(tr.start), "spans_file": os.path.relpath(spans_path, root),
        "untraced_op_p50_ms": statistics.median(plain_lat) * 1e3 if plain_lat else None,
        "traced_op_p50_ms": statistics.median(lat) * 1e3 if lat else None,
        "failed_frac": len(failures) / (n + w.warmup),
        "failures": failure_summary(failures),
    })
    if plain_lat and lat:
        ctx["tracing_overhead_ms"] = ctx["traced_op_p50_ms"] - ctx["untraced_op_p50_ms"]
    metrics = {k: (values[k], unit) for k, unit in tracer.PER_LAYER.items()}
    return ctx, n + w.warmup, len(failures), metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread throughout, children included: numpy's BLAS pool would
    # otherwise spin up threads whose CPU time is not latency.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "legendre_curves", "__init__.py")):
        print("error: src/legendre_curves not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.setup_only:
        _, _, setup_cpu, setup_wall, _ = set_up(args.workload, args.seed, root)
        print(json.dumps({"setup_s": setup_cpu, "setup_wall_s": setup_wall}))
        return 0
    os.makedirs(os.path.join(root, workloads.WORK_DIR), exist_ok=True)
    run = traced_run if args.trace else untraced_run
    ctx, attempted, failed, metrics = run(args, root)
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
