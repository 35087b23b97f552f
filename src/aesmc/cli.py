"""Command line front end: price, tables.

Every subcommand honors --seed and --out, runs in one process and is
deterministic given its flags. ``price`` takes its model from --preset or
from the first entry of --config, and turns its flags into one catalog
entry: each flag's dest is the entry key it sets (``--steps`` is
``n_steps``, ``--spot`` the model's ``s0``), so a flag means what the
same YAML key means in a config file, and a flag is given when its value is
not None. ``price`` starts from ``PRICE_ENTRY``, checks the whole entry with
``catalog.experiment_from_entry`` before it takes one case, and its --json
and --out give the run's report through ``experiments.report_json`` and
``emit_report``, as ``tables`` does.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import catalog, experiments
from .models import PRESETS
from .simulation import SCHEMES

# price's built-in entry; the first --config entry, then every flag given, override it.
PRICE_ENTRY = {"scheme": "aes", "n_steps": 12, "schedule": "american", "n_paths": 100_000,
               "runs": 1, "base_seed": 0, "vary": "spot"}
# Dests of price that are not entry keys; every other dest is one.
OWN_DESTS = {"command", "func", "subparser", "config", "json", "out"}


def _spec(args, parser) -> experiments.ExperimentSpec:
    """The checked spec of the entry the flags describe, narrowed to its one case.

    The entry is ``PRICE_ENTRY``, then the first entry of --config, then every
    flag given (even one given at its built-in value), each layer overriding
    the one before; --spot overrides the model's s0 alone, and an entry with
    no values takes its model's spot or strike. The whole entry is checked as
    ``tables --config`` checks it; its one case is then the --spot or --strike
    its ``vary`` names, else its first value, and it keeps no reference.
    """
    entry = {"name": "price", **PRICE_ENTRY}
    try:
        if args.config:
            entry.update(catalog.table_entries(args.config)[0])
        given = {k: v for k, v in vars(args).items() if v is not None and k not in OWN_DESTS}
        if "s0" in given and isinstance(entry.get("model", {}), dict):  # catalog refuses any other model
            given["model"] = {**entry.get("model", {}), "s0": given.pop("s0")}
        entry.update(given)
        if "values" not in entry:
            model, strike, _ = catalog._model_from_entry(entry)
            entry["values"] = [model.s0 if entry["vary"] == "spot" else strike]
        spec = catalog.experiment_from_entry(entry)
        chosen = args.s0 if spec.vary == "spot" else args.strike
        return replace(spec, values=[spec.values[0] if chosen is None else chosen],
                       reference_prices=None, reference_source="")
    except ValueError as exc:
        parser.error(str(exc))


def _refuse_below_one(parser, counts: dict):
    """Usage error for the first count below 1; ``counts`` maps each flag to its value.

    None (not given) and the schedule "american" are not counts.
    """
    for flag, value in counts.items():
        if isinstance(value, int) and value < 1:
            parser.error(f"{flag} must be >= 1")


def cmd_price(args, parser) -> int:
    _refuse_below_one(parser, {"--runs": args.runs, "--steps": args.n_steps, "--paths": args.n_paths,
                               "--dates": args.schedule})
    spec = _spec(args, parser)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    report = experiments.run_experiment(spec)
    if args.out:
        experiments.emit_report(report, Path(args.out) / report.experiment)
    case = report.cases[0]
    if args.json:
        sys.stdout.write(experiments.report_json(report))
    else:
        print(f"price          {case.mean_price:.6f}")
        print(f"run std        {case.run_std:.6f}  ({report.runs} runs)")
        print(f"mc std error   {np.mean(case.std_errors):.6f}")
        print(f"elapsed        {case.elapsed_s:.3f} s")
        print(f"memory proxy   {case.memory_bytes} bytes")
    return 0


def cmd_tables(args, parser) -> int:
    if bool(args.id) == bool(args.config):
        parser.error("provide exactly one of --id or --config")
    _refuse_below_one(parser, {"--runs": args.runs, "--scale": args.scale})
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aesmc",
        description="Bermudan/American put pricing under Heston-type models "
                    "(almost-exact and truncated-Euler simulation, LSM pricing).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No flag is read from a prefix of its name, so an unknown flag such as
    # --r is refused, never taken for --runs. Each flag that sets an entry key
    # has that key (--spot: the model's s0) as its dest and None as its
    # default, so it is given exactly when not None.
    p = sub.add_parser("price", help="price one option configuration", allow_abbrev=False,
                       epilog="built-in values: " + ", ".join(f"{k}: {v}" for k, v in PRICE_ENTRY.items()))
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named parameter set (supplies model, strike, maturity)")
    p.add_argument("--spot", dest="s0", type=float, help="initial asset price: the model's s0")
    p.add_argument("--maturity", type=float, help="maturity in years")
    p.add_argument("--scheme", choices=SCHEMES, help="simulation scheme")
    p.add_argument("--steps", dest="n_steps", type=int, help="time steps M")
    p.add_argument("--paths", dest="n_paths", type=int, help="paths per run")
    p.add_argument("--seed", dest="base_seed", type=int, help="base seed; run r uses base_seed + r")
    p.add_argument("--strike", type=float, help="put strike")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dates", dest="schedule", type=int, help="number of exercise dates")
    group.add_argument("--american", dest="schedule", action="store_const", const="american",
                       help="exercise at every grid step (American proxy)")
    p.add_argument("--runs", type=int, help="independent runs to average")
    p.add_argument("--config", help="experiment config file whose first entry supplies the model "
                                    "and defaults (flags override)")
    p.add_argument("--json", action="store_true", help="print the experiment report as JSON")
    p.add_argument("--out", help="also write the report's CSV and JSON into this directory, as tables does")
    p.set_defaults(func=cmd_price, subparser=p)

    t = sub.add_parser("tables", help="reproduce a source table or figure dataset", allow_abbrev=False)
    t.add_argument("--id", help=f"comma list of: {', '.join(catalog.IDS)}")
    t.add_argument("--config", help="run experiments from a YAML config file instead")
    t.add_argument("--scale", type=int, default=10,
                   help="divide paper n_paths by this (1 = full scale; default: 10)")
    t.add_argument("--runs", type=int, help="override run count (default: the config's, "
                                             f"capped at {experiments.DESK_RUNS} below full scale)")
    t.add_argument("--seed", type=int, help="override base seed (default: the config's)")
    t.add_argument("--out", default="reports", help="output directory (default: reports)")
    t.set_defaults(func=cmd_tables, subparser=t)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, args.subparser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
