"""Command line front end: price, bench, tables, paths.

Every subcommand honors --seed, --out and --workers and is deterministic
given its flags. Thread/process count never changes numbers (block-keyed
streams); without --workers, ``simulation.resolve_workers`` picks the count
(AESMC_WORKERS, else 1).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import catalog, experiments
from .lsm import ExerciseSchedule, lsm_price
from .models import DoubleHestonParams, HestonParams, PRESETS, PutPayoff, preset
from .simulation import TimeGrid, dump_paths_csv, simulate

HESTON_FIELDS = ("s0", "v0", "r", "kappa", "nu_bar", "gamma", "rho")
DOUBLE_HESTON_FIELDS = (
    "s0", "r",
    "v0_1", "kappa_1", "nu_bar_1", "gamma_1",
    "v0_2", "kappa_2", "nu_bar_2", "gamma_2",
    "rho_13", "rho_24",
)
WORKERS_HELP = "simulation worker processes; if unset, AESMC_WORKERS, else 1"


def _add_model_flags(parser):
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set (supplies model, strike, maturity)")
    parser.add_argument("--model", choices=["heston", "double-heston"],
                        help="model kind when specifying parameters inline")
    for name in sorted(set(HESTON_FIELDS + DOUBLE_HESTON_FIELDS)):
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=float, default=None, help=f"model parameter {name}")
    parser.add_argument("--spot", type=float, default=None, help="initial asset price (overrides preset s0)")
    parser.add_argument("--strike", type=float, default=None, help="put strike")
    parser.add_argument("--maturity", type=float, default=None, help="maturity in years")


def _resolve_model(args, parser):
    """Build (model, strike, maturity) from preset and/or inline flags."""
    model = strike = maturity = None
    if args.preset:
        p = preset(args.preset)
        model, strike, maturity = p.params, p.strike, p.maturity
    if args.model or (model is None):
        kind = args.model
        if kind is None:
            parser.error("either --preset or --model with inline parameters is required")
        fields = HESTON_FIELDS if kind == "heston" else DOUBLE_HESTON_FIELDS
        values = {}
        for name in fields:
            value = getattr(args, name)
            if value is None and model is not None and hasattr(model, name):
                value = getattr(model, name)
            if value is None:
                parser.error(f"missing --{name.replace('_', '-')} for inline {kind} model")
            values[name] = value
        model = HestonParams(**values) if kind == "heston" else DoubleHestonParams(**values)
    else:
        overrides = {
            name: getattr(args, name)
            for name in (HESTON_FIELDS if isinstance(model, HestonParams) else DOUBLE_HESTON_FIELDS)
            if getattr(args, name) is not None
        }
        if overrides:
            model = replace(model, **overrides)
    if args.spot is not None:
        model = replace(model, s0=args.spot)
    strike = args.strike if args.strike is not None else strike
    maturity = args.maturity if args.maturity is not None else maturity
    if strike is None:
        parser.error("--strike is required (or use --preset)")
    if maturity is None:
        parser.error("--maturity is required (or use --preset)")
    return model, strike, maturity


def _schedule_args(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dates", type=int, default=None,
                       help="number of exercise dates (default: every step)")
    group.add_argument("--american", action="store_true",
                       help="exercise at every grid step (American proxy)")


def _price_config_defaults(args, parser):
    """Seed price flags from a config file entry; explicit flags win."""
    payload = catalog.load_config(args.config)
    entries = payload.get("experiments", [payload])
    entry = entries[0]
    if args.preset is None and "preset" in entry:
        args.preset = entry["preset"]
    if args.model is None and "model" in entry:
        kind = entry["model"].get("kind", "heston")
        args.model = "double-heston" if kind.startswith("double") else "heston"
        for name, value in entry["model"].items():
            if name != "kind" and getattr(args, name, None) is None:
                setattr(args, name, float(value))
    for flag, key in (("strike", "strike"), ("maturity", "maturity")):
        if getattr(args, flag) is None and key in entry:
            setattr(args, flag, float(entry[key]))
    if args.spot is None and entry.get("vary") == "spot" and entry.get("values"):
        args.spot = float(entry["values"][0])
    defaults = args.subparser.get_default
    if args.steps == defaults("steps") and "n_steps" in entry:
        args.steps = int(entry["n_steps"])
    if args.paths == defaults("paths") and "n_paths" in entry:
        args.paths = int(entry["n_paths"])
    if args.runs == defaults("runs") and "runs" in entry:
        args.runs = int(entry["runs"])
    if args.seed == defaults("seed") and "base_seed" in entry:
        args.seed = int(entry["base_seed"])
    if args.dates is None and not args.american and "schedule" in entry:
        if entry["schedule"] == "american":
            args.american = True
        else:
            args.dates = int(entry["schedule"])


def cmd_price(args, parser) -> int:
    if args.config:
        _price_config_defaults(args, parser)
    for flag in ("runs", "paths"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1")
    model, strike, maturity = _resolve_model(args, parser)
    grid = TimeGrid(maturity=maturity, steps=args.steps)
    if args.dates:
        schedule = (ExerciseSchedule.evenly_spaced(grid, args.dates)
                    if grid.steps % args.dates == 0
                    else ExerciseSchedule.nearest(grid, args.dates))
    else:
        schedule = ExerciseSchedule.every_step(grid)
    payoff = PutPayoff(strike)
    prices, errors = [], []
    started = time.perf_counter()
    for run in range(args.runs):
        paths = simulate(args.scheme, model, grid, args.paths, args.seed + run, args.workers)
        result = lsm_price(paths, payoff, schedule, model.r)
        prices.append(result.price)
        errors.append(result.std_error)
    elapsed = time.perf_counter() - started
    mean_price = float(np.mean(prices))
    run_std = float(np.std(prices, ddof=1)) if args.runs > 1 else 0.0
    payload = {
        "price": mean_price,
        "run_std": run_std,
        "mc_std_error": float(np.mean(errors)),
        "runs": args.runs,
        "n_paths": args.paths,
        "n_steps": args.steps,
        "n_exercise_dates": schedule.n_dates,
        "scheme": args.scheme,
        "elapsed_s": elapsed,
        "memory_bytes": result.memory_bytes,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"price          {mean_price:.6f}")
        print(f"run std        {run_std:.6f}  ({args.runs} runs)")
        print(f"mc std error   {payload['mc_std_error']:.6f}")
        print(f"elapsed        {elapsed:.3f} s")
        print(f"memory proxy   {payload['memory_bytes']} bytes")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_tables(args, parser) -> int:
    if bool(args.id) == bool(args.config):
        parser.error("provide exactly one of --id or --config")
    run = catalog.run_catalog_id if args.id else catalog.run_table
    try:
        written = run(
            args.id or args.config, scale=args.scale, runs=args.runs, seed=args.seed,
            out_dir=args.out, formats=tuple(args.format.split(",")), n_workers=args.workers,
        )
    except ValueError as exc:
        parser.error(str(exc))
    for path in written:
        print(path)
    return 0


def cmd_bench(args, parser) -> int:
    model, strike, maturity = _resolve_model(args, parser)
    aes_steps = args.steps
    euler_steps = args.euler_steps or 2 * aes_steps
    dates = args.dates or aes_steps
    rows = []
    for scheme, steps in (("aes", aes_steps), ("euler", euler_steps)):
        spec = experiments.ExperimentSpec(
            name=f"bench-{scheme}-m{steps}",
            model=model, scheme=scheme, n_paths=args.paths, n_steps=steps,
            schedule=dates, vary="spot", values=(model.s0,), strike=strike,
            maturity=maturity, runs=args.runs, base_seed=args.seed,
        )
        report = experiments.run_experiment(spec, n_workers=args.workers)
        rows.append((scheme, steps, report.cases[0]))
        print(f"{scheme:6s} M={steps:<4d} price={report.cases[0].mean_price:.6f} "
              f"run_std={report.cases[0].run_std:.6f} "
              f"time={report.cases[0].elapsed_s:.3f}s mem={report.cases[0].memory_bytes}")
    aes_case, euler_case = rows[0][2], rows[1][2]
    time_ratio = euler_case.elapsed_s / aes_case.elapsed_s
    mem_ratio = euler_case.memory_bytes / aes_case.memory_bytes
    rel_gap = abs(euler_case.mean_price - aes_case.mean_price) / aes_case.mean_price
    print(f"euler/aes time ratio   {time_ratio:.3f}")
    print(f"euler/aes memory ratio {mem_ratio:.3f}")
    print(f"price gap |e-a|/a      {rel_gap:.6f}")
    if args.out:
        payload = {
            "aes": {"steps": aes_steps, "price": aes_case.mean_price,
                    "elapsed_s": aes_case.elapsed_s, "memory_bytes": aes_case.memory_bytes},
            "euler": {"steps": euler_steps, "price": euler_case.mean_price,
                      "elapsed_s": euler_case.elapsed_s, "memory_bytes": euler_case.memory_bytes},
            "time_ratio": time_ratio, "memory_ratio": mem_ratio, "rel_gap": rel_gap,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_paths(args, parser) -> int:
    model, _, maturity = _resolve_model(args, parser)
    grid = TimeGrid(maturity=maturity, steps=args.steps)
    paths = simulate(args.scheme, model, grid, args.paths, args.seed, args.workers)
    if args.out:
        dump_paths_csv(paths, args.out)
        print(args.out)
    else:
        dump_paths_csv(paths, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aesmc",
        description="Bermudan/American put pricing under Heston-type models "
                    "(almost-exact and truncated-Euler simulation, LSM pricing).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("price", formatter_class=fmt, help="price one option configuration")
    _add_model_flags(p)
    p.add_argument("--config", default=None,
                   help="experiment config file supplying defaults (flags override)")
    p.add_argument("--scheme", choices=["aes", "euler"], default="aes")
    p.add_argument("--steps", type=int, default=12, help="time steps M")
    _schedule_args(p)
    p.add_argument("--paths", type=int, default=100_000, help="paths per run")
    p.add_argument("--runs", type=int, default=1, help="independent runs to average")
    p.add_argument("--seed", type=int, default=0, help="base seed; run r uses seed+r")
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    p.add_argument("--json", action="store_true", help="print machine-readable JSON")
    p.add_argument("--out", default=None, help="also write the JSON result here")
    p.set_defaults(func=cmd_price, subparser=p)

    t = sub.add_parser("tables", formatter_class=fmt,
                       help="reproduce a source table or figure dataset")
    t.add_argument("--id", default=None, help=f"one of: {', '.join(catalog.available_ids())}")
    t.add_argument("--config", default=None, help="run experiments from a YAML config file instead")
    t.add_argument("--scale", type=int, default=10,
                   help="divide paper n_paths by this (1 = full scale)")
    t.add_argument("--runs", type=int, default=None, help="override run count")
    t.add_argument("--seed", type=int, default=None, help="override base seed")
    t.add_argument("--out", default="reports", help="output directory")
    t.add_argument("--format", default="csv,json", help="comma-separated: csv,json")
    t.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    t.set_defaults(func=cmd_tables, subparser=t)

    b = sub.add_parser("bench", formatter_class=fmt,
                       help="compare AES vs Euler accuracy/time/memory")
    _add_model_flags(b)
    b.add_argument("--steps", type=int, default=20, help="AES time steps M")
    b.add_argument("--euler-steps", type=int, default=None, help="Euler steps (default 2*M)")
    b.add_argument("--dates", type=int, default=None, help="exercise dates (default M)")
    b.add_argument("--paths", type=int, default=100_000)
    b.add_argument("--runs", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    b.add_argument("--out", default=None, help="write a JSON summary here")
    b.set_defaults(func=cmd_bench, subparser=b)

    d = sub.add_parser("paths", formatter_class=fmt, help="dump simulated paths as CSV")
    _add_model_flags(d)
    d.add_argument("--scheme", choices=["aes", "euler"], default="aes")
    d.add_argument("--steps", type=int, default=12)
    d.add_argument("--paths", type=int, default=16, help="paths to dump")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    d.add_argument("--out", default=None, help="CSV file (default: stdout)")
    d.set_defaults(func=cmd_paths, subparser=d)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
