"""One workload in a fresh process: set up, timed passes, checks, one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. With ``--setup-only`` it stops right after set-up and reports the
moment set-up ended, on the system-wide monotonic clock, and the reference
kernel's time just after it (see ``reference.py``).
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import aesmc
from aesmc.models import FellerWarning

import reference
import workloads
from spans import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
# Peak RSS is read after this many passes. Later passes raise it by 0-7 MB,
# by an amount that depends on the heap's layout, so a reading at the end of
# the run would depend on the seed and on how many passes the host let in.
RSS_PASSES = 1


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timed_passes(workload, seconds, out_dir, tracer=None):
    """Run whole passes, each between two runs of the reference kernel,
    until ``seconds`` are used.

    With a tracer, passes alternate untraced and traced, so that both see
    the same state of the host. Returns, for untraced and traced passes,
    the wall times and the times at nominal host speed; the prices of every
    pass; the peak RSS after ``RSS_PASSES`` passes (or all, if fewer); and
    the per-layer values and spans of the fastest traced pass.
    """
    walls = {False: [], True: []}
    scaled = {False: [], True: []}
    results, best = [], None
    started = time.perf_counter()
    kernel = reference.kernel_seconds()
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        if traced:
            tracer.reset()
            workloads.install_hooks(tracer)
        try:
            t0 = time.perf_counter()
            raw = workload.run(out_dir)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        after = reference.kernel_seconds()
        walls[traced].append(wall)
        scaled[traced].append(reference.at_nominal_speed(wall, (kernel + after) / 2))
        kernel = after
        results.append(workload.prices(raw))
        if len(results) <= RSS_PASSES:
            rss = peak_rss_mb()
        if traced and wall == min(walls[True]):
            best = workloads.layer_values(tracer, workload.emitted_bytes(raw)), tracer.snapshot()
        used = time.perf_counter() - started
        if used + statistics.median(walls[False] + walls[True]) + kernel > seconds and (tracer is None or best):
            return walls, scaled, results, rss, best


def settled_kernel_seconds() -> float:
    """The reference kernel's time right now: one warm-up run, then the median of three."""
    reference.kernel_seconds()
    return statistics.median(reference.kernel_seconds() for _ in range(3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", FellerWarning)

    workload = workloads.build(args.workload, args.seed, args.scale)
    ready = time.monotonic()
    kernel_s = settled_kernel_seconds()
    if args.setup_only:
        print(json.dumps({"ready": ready, "kernel_s": kernel_s}))
        return 0

    out_dir = OUT_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        walls, scaled, results, rss, best = timed_passes(workload, args.seconds, out_dir, tracer)
        cases = workload.cases()
        failures, rse = workloads.check_cases(cases, results[0])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for prices in results[1:]:
        for key, price in results[0].items():
            if prices.get(key) != price:
                failures.setdefault(key, []).append("bit-identical")
    for key in results[0]:
        failures.setdefault(key, [])
    failed_keys = sorted({k for k, f in failures.items() if f})
    for key in failed_keys:
        print(f"FAILED {key}: {', '.join(sorted(set(failures[key])))}", file=sys.stderr)

    # The median over passes at nominal host speed; the first pass, which
    # fills caches and finishes lazy set-up, is left out when there are more.
    timed = scaled[False][1:] or scaled[False]
    wall = statistics.median(timed)
    out = {
        "ready": ready,
        "kernel_s": kernel_s,
        "aesmc": aesmc.__file__,
        "passes": len(results),
        "attempted": len(failures) * len(results),
        "failed": len(failed_keys) * len(results),
        "norm_wall_s": wall,
        "walls": walls[False],
        "scaled": scaled[False],
        "norm_time_to_rse_s": wall * (max(rse.values()) / workloads.TARGET_RSE) ** 2,
        "peak_rss_mb": rss,
    }
    if args.trace:
        layers, spans = best
        spans.write(OUT_DIR / f"spans-{args.workload}.json")
        layers["trace.overhead_s"] = min(walls[True]) - min(walls[False])
        out["layers"] = {k: {"value": v, "unit": workloads.PER_LAYER[k][0]} for k, v in layers.items()}
        out["traced_walls"] = walls[True]
        for missing in tracer.missing:
            print(f"UNMEASURED {missing}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
