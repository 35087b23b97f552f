#!/usr/bin/env python3
"""AES(M) vs truncated Euler(2M) across step counts: accuracy, time, memory.

Prices the 20-date Bermudan put of the Feller-violating preset with both
schemes and prints the per-M comparison the efficiency claims rest on.

    python scripts/scheme_comparison.py --paths 100000 --runs 5
"""
import argparse
import sys

from aesmc.experiments import ExperimentSpec, run_experiment
from aesmc.models import preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--preset", default="feller-violating")
    parser.add_argument("--spot", type=float, default=100.0)
    parser.add_argument("--dates", type=int, default=20)
    parser.add_argument("--steps", type=int, nargs="+", default=[20, 40, 80])
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    p = preset(args.preset)
    print(f"{'M':>5} {'aes price':>12} {'euler(2M)':>12} {'gap':>9} "
          f"{'t_aes':>7} {'t_eul':>7} {'mem ratio':>9}")
    for m in args.steps:
        if m % args.dates:
            parser.error(f"steps {m} not divisible by --dates {args.dates}")
        results = {}
        for scheme, steps in (("aes", m), ("euler", 2 * m)):
            spec = ExperimentSpec(
                name=f"{scheme}-{steps}", model=p.params, scheme=scheme,
                n_paths=args.paths, n_steps=steps, schedule=args.dates,
                vary="spot", values=(args.spot,), strike=p.strike,
                maturity=p.maturity, runs=args.runs, base_seed=args.seed,
            )
            results[scheme] = run_experiment(spec).cases[0]
        aes, eul = results["aes"], results["euler"]
        gap = abs(eul.mean_price - aes.mean_price) / aes.mean_price
        print(f"{m:>5} {aes.mean_price:>12.5f} {eul.mean_price:>12.5f} {gap:>8.3%} "
              f"{aes.elapsed_s:>7.2f} {eul.elapsed_s:>7.2f} "
              f"{eul.memory_bytes / aes.memory_bytes:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
