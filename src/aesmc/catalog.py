"""Built-in experiment catalog: table/figure configs and their runners.

Config files are YAML (see ``configs/``); user-supplied files via
``--config`` use the same schema. ``run_table`` executes every experiment of
a table config, built-in or from a file, and writes one CSV and one JSON
report per experiment.
Figure runners produce the data behind the relative-error/time/memory
figures, generating high-resolution Euler references on the fly when the
config asks for ``source: self-euler``.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .experiments import (
    ExperimentReport,
    ExperimentSpec,
    attach_references,
    emit_report,
    report_to_dict,
    reports_csv,
    run_experiment,
    scaled,
)
from .lsm import ExerciseSchedule, lsm_price
from .models import DoubleHestonParams, HestonParams, PutPayoff, preset
from .simulation import TimeGrid, simulate

TABLE_IDS = ("1", "2", "3", "4", "5", "6")
FIGURE_IDS = ("fig1", "fig2", "fig3")


def available_ids() -> tuple[str, ...]:
    return TABLE_IDS + FIGURE_IDS


def load_config(source) -> dict:
    """Load a catalog id ('1'..'6', 'fig1'..'fig3') or a YAML file path."""
    source = str(source)
    if source in TABLE_IDS:
        name = f"table{source}.yaml"
    elif source in FIGURE_IDS:
        name = f"{source}.yaml"
    else:
        with open(source) as fh:
            return yaml.safe_load(fh)
    text = resources.files("aesmc.configs").joinpath(name).read_text()
    return yaml.safe_load(text)


# Inline model kinds of a config entry ("double_heston" is accepted too).
MODEL_KINDS = {"heston": HestonParams, "double-heston": DoubleHestonParams}
# Keys every experiment entry must give.
REQUIRED_KEYS = ("name", "scheme", "n_paths", "n_steps", "schedule", "vary", "values")


def _model_from_entry(entry: dict):
    """Resolve (model, strike, maturity) from a preset name and/or inline fields.

    Inline ``model`` fields override the preset's, and fields not given are
    taken from the preset where the names match; ``kind`` defaults to the
    preset's model kind, else heston. A missing or unknown preset, kind or
    field, or a field that is not a number, raises a ValueError that names it.
    """
    model = strike = maturity = None
    if "preset" in entry:
        try:
            p = preset(entry["preset"])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        model, strike, maturity = p.params, p.strike, p.maturity
    if "model" in entry:
        inline = dict(entry["model"])
        kind = inline.pop("kind", None)
        default = HestonParams if model is None else type(model)
        cls = default if kind is None else MODEL_KINDS.get(str(kind).replace("_", "-"))
        if cls is None:
            raise ValueError(f"unknown model kind {kind!r}")
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(inline) - set(names))
        if unknown:
            raise ValueError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
        non_numeric = sorted(n for n, v in inline.items()
                             if isinstance(v, bool) or not isinstance(v, numbers.Real))
        if non_numeric:
            raise ValueError(f"{cls.__name__} field(s) must be numbers: {', '.join(non_numeric)}")
        if model is not None:
            inline = {**{n: getattr(model, n) for n in names if hasattr(model, n)}, **inline}
        missing = [n for n in names if n not in inline]
        if missing:
            raise ValueError(f"inline model is missing {cls.__name__} field(s): {', '.join(missing)}")
        model = cls(**inline)
    if model is None:
        raise ValueError("experiment entry needs a 'preset' or an inline 'model'")
    strike = entry.get("strike", strike)
    maturity = entry.get("maturity", maturity)
    for key, value in (("strike", strike), ("maturity", maturity)):
        if value is None:
            raise ValueError(f"missing {key!r}: give it in the entry or through a preset")
    return model, float(strike), float(maturity)


def experiment_from_entry(entry: dict) -> ExperimentSpec:
    """The spec of one config entry; a missing key is a ValueError naming it."""
    missing = [key for key in REQUIRED_KEYS if key not in entry]
    if missing:
        raise ValueError(f"experiment entry {entry.get('name', '')!r} is missing "
                         f"key(s): {', '.join(missing)}")
    model, strike, maturity = _model_from_entry(entry)
    reference = entry.get("reference") or {}
    return ExperimentSpec(
        name=entry["name"],
        model=model,
        scheme=entry["scheme"],
        n_paths=int(entry["n_paths"]),
        n_steps=int(entry["n_steps"]),
        schedule=entry["schedule"],
        vary=entry["vary"],
        values=tuple(entry["values"]),
        strike=strike,
        maturity=maturity,
        runs=int(entry.get("runs", 20)),
        base_seed=int(entry.get("base_seed", 0)),
        reference_prices=tuple(reference["prices"]) if reference.get("prices") else None,
        reference_source=reference.get("source", ""),
    )


def table_specs(table_id) -> list[ExperimentSpec]:
    payload = load_config(table_id)
    if payload.get("kind", "table") != "table":
        raise ValueError(f"config {table_id!r} is not a table config")
    return [experiment_from_entry(e) for e in payload["experiments"]]


def run_table(table_id, scale=1, runs=None, seed=None, out_dir="reports",
              formats=("csv", "json")) -> list[Path]:
    """Run one table's experiments and write a report file per experiment.

    ``table_id`` is a catalog id ('1'..'6') or the path of a table config file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in table_specs(table_id):
        spec = scaled(spec, scale, runs)
        if seed is not None:
            spec = replace(spec, base_seed=int(seed))
        report = run_experiment(spec)
        for fmt in formats:
            path = out_dir / f"{report.experiment}.{fmt}"
            emit_report(report, fmt, path)
            written.append(path)
    return written


def _self_euler_references(model, strike, maturity, ref_steps, date_counts,
                           n_paths, runs, base_seed) -> dict[int, tuple[float, float]]:
    """Euler reference prices for several schedules off shared paths.

    Simulates the high-resolution Euler grid once per run and prices every
    requested date count on the same paths. Returns
    {date_count: (mean_price, across_run_std)}.
    """
    grid = TimeGrid(maturity=maturity, steps=ref_steps)
    schedules = {d: ExerciseSchedule.nearest(grid, d) for d in date_counts}
    payoff = PutPayoff(strike)
    prices = {d: [] for d in date_counts}
    for run in range(runs):
        paths = simulate("euler", model, grid, n_paths, base_seed + run)
        for d, schedule in schedules.items():
            prices[d].append(lsm_price(paths, payoff, schedule, model.r).price)
    return {
        d: (float(np.mean(p)), float(np.std(p, ddof=1)) if runs > 1 else 0.0)
        for d, p in prices.items()
    }


def _figure_case_specs(payload, scale, runs, seed):
    """Expand a figure config into per-(value, date_count, scheme) specs."""
    model, strike, maturity_fixed = _model_from_entry(payload)
    period_years = None
    if "period_weeks" in payload:
        period_years = payload["period_weeks"] / payload.get("weeks_per_year", 52)
    base_seed = int(payload["base_seed"] if seed is None else seed)
    for value in payload["values"]:
        for dates in payload["date_counts"]:
            maturity = dates * period_years if period_years else maturity_fixed
            for scheme in payload["schemes"]:
                steps = 2 * dates if scheme == "euler2x" else dates
                spec = ExperimentSpec(
                    name=f"{payload['name']}-{scheme}-d{dates}",
                    model=model,
                    scheme="euler" if scheme == "euler2x" else scheme,
                    n_paths=int(payload["n_paths"]),
                    n_steps=steps,
                    schedule=dates,
                    vary=payload["vary"],
                    values=(value,),
                    strike=strike,
                    maturity=maturity,
                    runs=int(payload.get("runs", 20)),
                    base_seed=base_seed,
                )
                yield value, dates, scheme, scaled(spec, scale, runs), maturity


def run_figure(fig_id, scale=1, runs=None, seed=None, out_dir="reports") -> list[Path]:
    """Produce the data files behind one figure (CSV + JSON per value)."""
    payload = load_config(fig_id)
    if payload.get("kind") != "figure":
        raise ValueError(f"config {fig_id!r} is not a figure config")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, strike, _ = _model_from_entry(payload)
    ref_cfg = payload.get("reference") or {}
    ref_steps = int(ref_cfg.get("n_steps", 750))
    period_years = None
    if "period_weeks" in payload:
        period_years = payload["period_weeks"] / payload.get("weeks_per_year", 52)

    cases = list(_figure_case_specs(payload, scale, runs, seed))
    example = cases[0][3]
    ref_runs, ref_paths, ref_seed = example.runs, example.n_paths, example.base_seed

    # Reference prices share simulated paths across date counts (same grid),
    # so group them by maturity.
    references: dict[tuple[float, float], dict[int, tuple[float, float]]] = {}
    if ref_cfg.get("source") == "self-euler":
        by_maturity: dict[tuple[float, float], set[int]] = {}
        for value, dates, _, _, maturity in cases:
            by_maturity.setdefault((value, maturity), set()).add(dates)
        for (value, maturity), date_set in by_maturity.items():
            model_case = replace(model, s0=value) if payload["vary"] == "spot" else model
            strike_case = strike if payload["vary"] == "spot" else value
            references[(value, maturity)] = _self_euler_references(
                model_case, strike_case, maturity, ref_steps, sorted(date_set),
                ref_paths, ref_runs, ref_seed + 10_000,
            )

    written: list[Path] = []
    for value in payload["values"]:
        value_reports: list[ExperimentReport] = []
        rows_by_dates: dict[int, dict[str, ExperimentReport]] = {}
        for case_value, dates, scheme, spec, maturity in cases:
            if case_value != value:
                continue
            report = run_experiment(spec)
            key = (value, maturity)
            if key in references:
                ref_price = references[key][dates][0]
                attach_references(report, [ref_price], f"self-euler-m{ref_steps}")
            value_reports.append(report)
            rows_by_dates.setdefault(dates, {})[scheme] = report
        tag = f"{payload['name']}-{'s' if payload['vary'] == 'spot' else 'k'}{value:g}"
        csv_path = out_dir / f"{tag}.csv"
        csv_path.write_text(reports_csv(value_reports))
        json_path = out_dir / f"{tag}.json"
        json_path.write_text(json.dumps([report_to_dict(r) for r in value_reports], indent=2) + "\n")
        written.extend([csv_path, json_path])
        if "euler2x" in payload["schemes"]:
            written.append(_emit_scheme_diff(rows_by_dates, out_dir, tag, period_years))
    return written


def _emit_scheme_diff(rows_by_dates, out_dir: Path, tag: str, period_years) -> Path:
    """Euler(2M) minus AES(M) differences: relative error, time, memory."""
    lines = ["dates,maturity,aes_rel_error,euler2x_rel_error,err_diff,time_diff_s,mem_diff_bytes"]
    for dates in sorted(rows_by_dates):
        pair = rows_by_dates[dates]
        if "aes" not in pair or "euler2x" not in pair:
            continue
        aes, eul = pair["aes"].cases[0], pair["euler2x"].cases[0]
        maturity = dates * period_years if period_years else ""
        err_diff = (
            eul.rel_error - aes.rel_error
            if (eul.rel_error is not None and aes.rel_error is not None)
            else None
        )
        cells = [
            str(dates), repr(maturity) if maturity != "" else "",
            "" if aes.rel_error is None else repr(aes.rel_error),
            "" if eul.rel_error is None else repr(eul.rel_error),
            "" if err_diff is None else repr(err_diff),
            repr(eul.elapsed_s - aes.elapsed_s),
            str(eul.memory_bytes - aes.memory_bytes),
        ]
        lines.append(",".join(cells))
    path = out_dir / f"{tag}-diff.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def run_catalog_id(catalog_id, scale=1, runs=None, seed=None, out_dir="reports",
                   formats=("csv", "json")) -> list[Path]:
    catalog_id = str(catalog_id)
    if catalog_id in TABLE_IDS:
        return run_table(catalog_id, scale, runs, seed, out_dir, formats)
    if catalog_id in FIGURE_IDS:
        return run_figure(catalog_id, scale, runs, seed, out_dir)
    raise ValueError(f"unknown id {catalog_id!r}; valid ids: {', '.join(available_ids())}")
