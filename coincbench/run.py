#!/usr/bin/env python3
"""Benchmark of the multiphoton coincidence engines.

Run from the root of a checkout:

    python3 coincbench/run.py --workload cold-tables --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics (BENCHMARK.json
``end_to_end``); ``--trace 1`` is the separate traced run that gives the
per-layer metrics (``per_layer``, listed with what each should move in
``spans.PER_LAYER``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit, the environment, and the failed
ratio.  A copy of the result, with the environment and every op latency,
is written to ``coincbench_out/``, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One op in flight and no helper threads: keep BLAS single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUT = workloads.ROOT / "coincbench_out"
MIN_OPS = 100
SETUP_REPEATS = {"cold-tables": 5, "warm-ensembles": 3, "cli-figures": 5}

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def environment(mp) -> dict:
    commit = None
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "have_compiled_kernel": bool(mp.HAVE_COMPILED_KERNEL),
        "machine": platform.machine(),
    }


def run_op(ws, i, tracer=None) -> tuple[float, bool]:
    """One op: untimed ``prepare``, timed ``op`` (traced if ``tracer`` is
    given), untimed ``check``.  Returns (latency, passed)."""
    ws.prepare(i)
    if tracer is not None:
        tracer.op = i
        tracer.install()
    start = time.perf_counter()
    try:
        out = ws.op(i)
    except Exception:  # a raising op is a failed op; keep measuring
        out = None
        traceback.print_exc(limit=3)
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return latency, out is not None and ws.check(i, out)


def run_timed(ws, seconds: float) -> tuple[list[float], set[int]]:
    """Closed loop over ops 0, 1, ... until the ops have taken ``seconds``
    in total and at least MIN_OPS ran, stopping only at a multiple of
    ``ws.block`` ops, or until the input pool is used up.  Returns
    (latencies, failed op indices)."""
    latencies: list[float] = []
    failed: set[int] = set()
    busy = 0.0
    i = 0
    while i < ws.pool and (busy < seconds or i < MIN_OPS or i % ws.block):
        latency, passed = run_op(ws, i)
        latencies.append(latency)
        busy += latency
        if not passed:
            failed.add(i)
        i += 1
    return latencies, failed | ws.finish(i)


def timed_setup(ws) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS[ws.name]):
        start = time.perf_counter()
        ws.setup()
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def measure(ws, seconds: float) -> tuple[dict, dict]:
    setup = timed_setup(ws)
    latencies, failed = run_timed(ws, seconds)
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "ok_ratio": (n - len(failed)) / n,
        "peak_rss_mb": peak_rss_mb(children=ws.name == "cli-figures"),
    }
    detail = {
        "setup_s_samples": setup,
        "latencies_s": latencies,
        "failed_ops": sorted(failed),
        "failed_ratio": len(failed) / n,
    }
    return metrics, detail


def kernel_probe(mp, seed: int) -> dict:
    """Median time of the public permanent on Haar-random n x n matrices."""
    rng = np.random.default_rng([seed, 3])
    out = {}
    for n, repeats in ((10, 5), (14, 3), (18, 1)):
        times = []
        for u in workloads.haar_unitaries(rng, repeats, n):
            start = time.perf_counter()
            mp.permanent(u)
            times.append(time.perf_counter() - start)
        out[f"linalg.permanent.n{n}_ms"] = statistics.median(times) * 1e3
    return out


def cli_startup_ms(repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import multiphoton.cli"], cwd=workloads.ROOT, env=workloads.cli_env(), check=True
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def measure_traced(ws) -> tuple[dict, dict, spans.Tracer]:
    """Each of the first ``ws.trace_ops`` ops runs twice, untraced and then
    traced, so a slow phase of the shared machine hits both sides of
    ``trace.overhead_ratio`` alike.  Per-layer metrics come from the traced
    runs of the ops."""
    ws.setup()
    cli = ws.name == "cli-figures"
    if cli:
        ws.in_process = True
    cached = {ws.circuit.u.tobytes()} if ws.name == "warm-ensembles" else set()
    tracer = spans.Tracer()
    untraced, traced, failed = [], [], set()
    for i in range(ws.trace_ops):
        for times, who in ((untraced, None), (traced, tracer)):
            latency, passed = run_op(ws, i, who)
            times.append(latency)
            if not passed:
                failed.add(i)
            ws.reset()
    failed |= ws.finish(ws.trace_ops)

    metrics = spans.aggregate(ws.mp, tracer, cached, scope_per_op=cli)
    metrics.update(kernel_probe(ws.mp, ws.seed))
    metrics["cli.startup_ms"] = cli_startup_ms()
    metrics["trace.ops"] = len(traced)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    if cli:
        metrics["cli.stdout_bytes"] = sum(ws.stdout_bytes.values())
        for key in spans.CLI_KEYS:
            times = [t for t, (k, _) in zip(untraced, ws.inputs) if k == key]
            metrics[f"cli.cmd.{key}.ms"] = statistics.median(times) * 1e3
    detail = {
        "latencies_untraced_s": untraced,
        "latencies_traced_s": traced,
        "failed_ops": sorted(failed),
        "failed_ratio": len(failed) / len(traced),
    }
    return metrics, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "multiphoton" / "__init__.py").is_file():
        print(f"error: no multiphoton sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    origin = Path(importlib.util.find_spec("multiphoton").origin).resolve()
    if not origin.is_relative_to(workloads.SRC):
        print(f"error: multiphoton resolves to {origin}, not {workloads.SRC}", file=sys.stderr)
        return 2

    ws = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, detail, tracer = measure_traced(ws)
        catalogue = {k: v[0] for k, v in spans.PER_LAYER.items()}
        attempted = len(detail["latencies_traced_s"])
    else:
        metrics, detail = measure(ws, args.seconds)
        catalogue = {k: v[0] for k, v in END_TO_END.items()}
        attempted = len(detail["latencies_s"])
    assert set(metrics) == set(catalogue), sorted(set(metrics) ^ set(catalogue))

    env = environment(ws.mp)
    failed = len(detail["failed_ops"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": catalogue[k]} for k in catalogue},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"args": vars(args), "environment": env, **result, "detail": detail}) + "\n",
        encoding="utf-8",
    )
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl.gz")

    print(f"environment {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, {failed} failed")
    print(f"  {'failed_ratio':40s} {detail['failed_ratio']:.6g} ratio")
    for name, entry in result["metrics"].items():
        moves = f"  moves: {spans.PER_LAYER[name][2]}" if args.trace else ""
        print(f"  {name:40s} {entry['value']:<12.6g} {entry['unit']:6s}{moves}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
