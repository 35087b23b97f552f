#!/usr/bin/env python3
"""Reproduce every catalog table (and optionally the figure datasets).

Desk scale by default (paths / 10, 10 runs). Full scale (--scale 1) matches
the source protocol of 1,000,000 paths and 20 runs per case and takes hours.

    python scripts/run_all_tables.py --scale 10 --out reports/
    python scripts/run_all_tables.py --ids 1,2,5 --scale 100
"""
import argparse
import sys
import time

from aesmc import catalog


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ids", default="1,2,3,4,5,6",
                        help="comma-separated catalog ids (tables 1-6, fig1-fig3)")
    parser.add_argument("--scale", type=int, default=10)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="reports")
    args = parser.parse_args()

    for catalog_id in args.ids.split(","):
        catalog_id = catalog_id.strip()
        started = time.perf_counter()
        files = catalog.run_catalog_id(
            catalog_id, scale=args.scale, runs=args.runs, seed=args.seed,
            out_dir=args.out,
        )
        print(f"[{catalog_id}] {len(files)} files in {time.perf_counter() - started:.1f}s")
        for path in files:
            print(f"    {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
