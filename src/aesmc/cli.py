"""Command line front end: price, tables, paths.

Every subcommand honors --seed and --out, runs in one process and is
deterministic given its flags. ``price`` and ``paths`` turn their flags into
one catalog entry, so a flag means what the same YAML key means in a config
file. ``price`` builds the entry's spec with ``catalog.experiment_from_entry``;
``paths`` reads only its model and maturity.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import catalog, experiments
from .models import PRESETS
from .sampling import UINT64_LIMIT
from .simulation import SCHEMES, TimeGrid, dump_paths_csv, simulate

# Model fields with one flag each; the model's s0 is set by --spot.
MODEL_FIELDS = sorted({f.name for cls in catalog.MODEL_KINDS.values() for f in fields(cls)} - {"s0"})
# Flags that each set one key of the catalog entry.
ENTRY_KEYS = {
    "preset": "preset", "scheme": "scheme", "steps": "n_steps", "paths": "n_paths",
    "runs": "runs", "seed": "base_seed", "strike": "strike", "maturity": "maturity",
    "dates": "schedule",
}


def _add_model_flags(parser):
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set (supplies model, strike, maturity)")
    parser.add_argument("--model", choices=list(catalog.MODEL_KINDS),
                        help="model kind when specifying parameters inline")
    for name in MODEL_FIELDS:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=float, default=None, help=f"model parameter {name}")
    parser.add_argument("--spot", type=float, default=None, help="initial asset price: the model's s0")
    parser.add_argument("--strike", type=float, default=None, help="put strike")
    parser.add_argument("--maturity", type=float, default=None, help="maturity in years")


def _schedule_args(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dates", type=int, default=None,
                       help="number of exercise dates (default: every step)")
    group.add_argument("--american", action="store_true",
                       help="exercise at every grid step (American proxy)")


def _entry_keys(flags: dict) -> dict:
    """The catalog entry keys that the flags in ``flags`` set; None sets nothing."""
    entry = {ENTRY_KEYS[k]: v for k, v in flags.items() if k in ENTRY_KEYS and v is not None}
    model = {k: v for k, v in flags.items() if k in MODEL_FIELDS and v is not None}
    if flags.get("spot") is not None:
        model["s0"] = flags["spot"]
    if flags.get("model"):
        model["kind"] = flags["model"]
    if model:
        entry["model"] = model
    if flags.get("american"):
        entry["schedule"] = "american"
    return entry


def _require_spot(entry: dict) -> dict:
    """``entry``; a ValueError naming --spot when its inline model has no s0 and no preset gives one."""
    if "model" in entry and "preset" not in entry and "s0" not in entry["model"]:
        raise ValueError("an inline --model needs --spot, the initial asset price (the model's s0)")
    return entry


def _entry(args) -> dict:
    """The one catalog entry the flags describe.

    Built-in defaults, then the first entry of --config, then every flag
    given, each layer overriding the one before; inline model fields merge
    field by field. The entry keeps one case: the --spot or --strike its
    ``vary`` names, else its first value, else its model's spot or strike.
    """
    flags = vars(args)
    entry = {"name": args.command, "scheme": "aes", "schedule": "american", "vary": "spot",
             **_entry_keys({k: v for k, v in flags.items() if k not in args.given})}
    if getattr(args, "config", None):
        entry.update(catalog.table_entries(args.config)[0])
        entry.pop("reference", None)
    given = _entry_keys({k: flags[k] for k in args.given})
    if "model" in given:
        given["model"] = {**entry.get("model", {}), **given["model"]}
    entry.update(given)
    _require_spot(entry)
    spot = entry["vary"] == "spot"
    if flags.get("spot" if spot else "strike") is not None or "values" not in entry:
        model, strike, _ = catalog._model_from_entry(entry)
        entry["values"] = [model.s0 if spot else strike]
    entry["values"] = list(catalog.number_list("values", entry["values"])[:1])
    return entry


def _spec(args, parser) -> experiments.ExperimentSpec:
    try:
        return catalog.experiment_from_entry(_entry(args))
    except ValueError as exc:
        parser.error(str(exc))


def _refuse_below_one(args, parser, flags):
    """Usage error for any given count flag below 1; None means not given."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(f"--{flag.replace('_', '-')} must be >= 1")


def cmd_price(args, parser) -> int:
    _refuse_below_one(args, parser, ("runs", "paths", "dates"))
    spec = _spec(args, parser)
    started = time.perf_counter()
    report = experiments.run_experiment(spec)
    elapsed = time.perf_counter() - started
    case = report.cases[0]
    payload = {
        "price": case.mean_price,
        "run_std": case.run_std,
        "mc_std_error": float(np.mean(case.std_errors)),
        "runs": spec.runs,
        "n_paths": spec.n_paths,
        "n_steps": spec.n_steps,
        "n_exercise_dates": len(report.schedule_indices),
        "scheme": spec.scheme,
        "elapsed_s": elapsed,
        "memory_bytes": case.memory_bytes,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"price          {case.mean_price:.6f}")
        print(f"run std        {case.run_std:.6f}  ({spec.runs} runs)")
        print(f"mc std error   {payload['mc_std_error']:.6f}")
        print(f"elapsed        {elapsed:.3f} s")
        print(f"memory proxy   {payload['memory_bytes']} bytes")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_tables(args, parser) -> int:
    if bool(args.id) == bool(args.config):
        parser.error("provide exactly one of --id or --config")
    sources = [args.config]
    if args.id:
        sources = [i.strip() for i in args.id.split(",")]
        unknown = [i for i in sources if i not in catalog.IDS]
        if unknown:
            parser.error(f"unknown id(s) {', '.join(map(repr, unknown))}; "
                         f"valid ids: {', '.join(catalog.IDS)}")
    try:
        for source in sources:
            run = catalog.run_figure if source in catalog.FIGURE_IDS else catalog.run_table
            for path in run(source, scale=args.scale, runs=args.runs, seed=args.seed, out_dir=args.out):
                print(path)
    except ValueError as exc:
        parser.error(str(exc))
    return 0


def cmd_paths(args, parser) -> int:
    # paths price nothing, so they need the entry's model and maturity but no strike
    _refuse_below_one(args, parser, ("steps", "paths"))
    try:
        model, _, maturity = catalog._model_from_entry(_require_spot(_entry_keys(vars(args))))
        if not 0 <= args.seed < UINT64_LIMIT:
            raise ValueError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
    except ValueError as exc:
        parser.error(str(exc))
    paths = simulate(args.scheme, model, TimeGrid(maturity, args.steps), args.paths, args.seed)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            dump_paths_csv(paths, fh)
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
    p.add_argument("--scheme", choices=SCHEMES, default="aes")
    p.add_argument("--steps", type=int, default=12, help="time steps M")
    _schedule_args(p)
    p.add_argument("--paths", type=int, default=100_000, help="paths per run")
    p.add_argument("--runs", type=int, default=1, help="independent runs to average")
    p.add_argument("--seed", type=int, default=0, help="base seed; run r uses seed+r")
    p.add_argument("--json", action="store_true", help="print machine-readable JSON")
    p.add_argument("--out", default=None, help="also write the JSON result here")
    p.set_defaults(func=cmd_price, subparser=p)

    t = sub.add_parser("tables", formatter_class=fmt,
                       help="reproduce a source table or figure dataset")
    t.add_argument("--id", default=None,
                   help=f"comma list of: {', '.join(catalog.IDS)}")
    t.add_argument("--config", default=None, help="run experiments from a YAML config file instead")
    t.add_argument("--scale", type=int, default=10,
                   help="divide paper n_paths by this (1 = full scale)")
    t.add_argument("--runs", type=int, default=None, help="override run count")
    t.add_argument("--seed", type=int, default=None, help="override base seed")
    t.add_argument("--out", default="reports", help="output directory")
    t.set_defaults(func=cmd_tables, subparser=t)

    d = sub.add_parser("paths", formatter_class=fmt, help="dump simulated paths as CSV")
    _add_model_flags(d)
    d.add_argument("--scheme", choices=SCHEMES, default="aes")
    d.add_argument("--steps", type=int, default=12)
    d.add_argument("--paths", type=int, default=16, help="paths to dump")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None, help="CSV file (default: stdout)")
    d.set_defaults(func=cmd_paths, subparser=d)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    # argparse stores every default; parsing the subcommand's flags again into
    # a namespace that already holds each dest leaves only the given ones set
    unset = object()
    again = args.subparser.parse_args(argv[1:], argparse.Namespace(**dict.fromkeys(vars(args), unset)))
    args.given = {dest for dest, value in vars(again).items() if value is not unset}
    try:
        return args.func(args, args.subparser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
