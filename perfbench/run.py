"""Pricing benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload heston-tables --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's ``src`` as shipped: no worker
count is passed and ``AESMC_WORKERS`` is cleared. BLAS runs one thread, as
the library's own code does. The workload runs in a fresh process, so its
set-up time and peak RSS are its own; set-up is also timed in
``SETUP_PROBES`` further fresh processes and reported as the median. Every
time is reported at a fixed host speed (``reference.py``). The last line of standard output is one JSON object with the
operation counts and the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics; diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import at_nominal_speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("heston-tables", "double-heston-american")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 160


def child(args, env, extra=()):
    """Run worker.py; return (spawn time, parsed last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="path-count multiplier (below 1 for smoke runs)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--seed must be >= 0; --seconds and --scale must be > 0")

    src = Path.cwd() / "src"
    if not (src / "aesmc" / "__init__.py").is_file():
        print(f"no aesmc sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("AESMC_WORKERS", None)
    # A second BLAS thread on a host of two shared cores measures the scheduler.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])

    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            spawned, probe = child(args, env, ["--setup-only"])
            setups.append((probe["ready"] - spawned, probe["kernel_s"]))
        spawned, result = child(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append((result["ready"] - spawned, result["kernel_s"]))
    if not Path(result["aesmc"]).resolve().is_relative_to(src.resolve()):
        print(f"imported aesmc from {result['aesmc']}, not from {src}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "norm_wall_s": {"value": result["norm_wall_s"], "unit": "s"},
            "norm_time_to_rse_s": {"value": result["norm_time_to_rse_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(at_nominal_speed(*s) for s in setups), "unit": "s"},
        }
    print(f"{args.workload} seed {args.seed}: {result['passes']} passes, "
          f"walls {', '.join(f'{w:.3f}' for w in result['walls'] + result.get('traced_walls', []))} s, "
          f"at nominal speed {', '.join(f'{w:.3f}' for w in result['scaled'])} s, "
          f"setups {', '.join(f'{s:.3f}' for s, _ in setups)} s, "
          f"kernel {', '.join(f'{k:.3f}' for _, k in setups)} s", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
