"""Built-in experiment catalog: table/figure configs and their runners.

Config files are YAML (see ``configs/``); user-supplied files via
``--config`` use the same schema. ``run_table`` executes every experiment of
a table config, built-in or from a file, through ``run_experiment`` and
writes one CSV and one JSON report per experiment.
``run_figure`` produces the data behind the relative-error/time/memory
figures the same way: each (date count, scheme) is one experiment over all
of the figure's spots, so every spot of a run prices the same paths. The
reference prices come from a high-resolution Euler grid priced through
``price_runs`` once per maturity, and go into each experiment's
``reference_prices``.
"""
from __future__ import annotations

from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import yaml

from .experiments import (
    ExperimentReport,
    ExperimentSpec,
    emit_report,
    price_runs,
    run_experiment,
    scaled,
    write_csv,
)
from .lsm import ExerciseSchedule
from .models import DoubleHestonParams, HestonParams, check_values, preset

TABLE_IDS = ("1", "2", "3", "4", "5", "6")
FIGURE_IDS = ("fig1", "fig2", "fig3")
IDS = TABLE_IDS + FIGURE_IDS
# A figure's reference runs use seeds base_seed + REFERENCE_SEED_OFFSET + r.
REFERENCE_SEED_OFFSET = 10_000


# libyaml's safe loader when PyYAML was built with it: the same objects, parsed in C.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(source) -> dict:
    """Load a catalog id ('1'..'6', 'fig1'..'fig3') or a YAML file path.

    A file that is not valid YAML is a ValueError that names it.
    """
    source = str(source)
    if source in TABLE_IDS:
        name = f"table{source}.yaml"
    elif source in FIGURE_IDS:
        name = f"{source}.yaml"
    else:
        with open(source) as fh:
            try:
                return yaml.load(fh, Loader=YAML_LOADER)
            except yaml.YAMLError as exc:
                raise ValueError(f"config {source!r} is not valid YAML: {exc}") from None
    text = resources.files("aesmc.configs").joinpath(name).read_text()
    return yaml.load(text, Loader=YAML_LOADER)


# Inline model kinds of a config entry.
MODEL_KINDS = {"heston": HestonParams, "double-heston": DoubleHestonParams}
# Keys every experiment entry must give.
REQUIRED_KEYS = ("name", "scheme", "n_paths", "n_steps", "schedule", "vary", "values")


def _model_from_entry(entry: dict):
    """Resolve (model, strike, maturity) from a preset name and/or inline fields.

    Inline ``model`` fields override the preset's, and fields not given are
    taken from the preset where the names match; ``kind`` defaults to the
    preset's model kind, else heston. A ``preset`` that is not a name, a
    ``model`` that is not a mapping, a missing or unknown preset, kind or
    field, a field that ``check_values`` refuses, or a missing maturity
    raises a ValueError that names it. The Feller condition is left to
    ``simulate``, which warns. The strike is None when neither gives one.
    """
    model = strike = maturity = None
    if "preset" in entry:
        if not isinstance(entry["preset"], str):
            raise ValueError(f"'preset' must be a preset name, got {entry['preset']!r}")
        try:
            p = preset(entry["preset"])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        model, strike, maturity = p.params, p.strike, p.maturity
    if "model" in entry:
        if not isinstance(entry["model"], dict):
            raise ValueError(f"'model' must be a mapping, got {entry['model']!r}")
        inline = dict(entry["model"])
        kind = inline.pop("kind", None)
        default = HestonParams if model is None else type(model)
        cls = default if kind is None else MODEL_KINDS.get(str(kind))
        if cls is None:
            raise ValueError(f"unknown model kind {kind!r}")
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(inline) - set(names))
        if unknown:
            raise ValueError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
        if model is not None:
            inline = {**{n: getattr(model, n) for n in names if hasattr(model, n)}, **inline}
        missing = [n for n in names if n not in inline]
        if missing:
            raise ValueError(f"inline model is missing {cls.__name__} field(s): {', '.join(missing)}")
        model = check_values(cls(**inline))
    if model is None:
        raise ValueError("experiment entry needs a 'preset' or an inline 'model'")
    strike = entry.get("strike", strike)
    maturity = entry.get("maturity", maturity)
    if maturity is None:
        raise ValueError("missing 'maturity': give it in the entry or through a preset")
    return model, strike, maturity


def experiment_from_entry(entry: dict) -> ExperimentSpec:
    """The spec of one config entry; a missing or mistyped key is a ValueError naming it."""
    missing = [key for key in REQUIRED_KEYS if key not in entry]
    if missing:
        raise ValueError(f"experiment entry {entry.get('name', '')!r} is missing "
                         f"key(s): {', '.join(missing)}")
    model, strike, maturity = _model_from_entry(entry)
    if strike is None:
        raise ValueError("missing 'strike': give it in the entry or through a preset")
    reference = entry.get("reference") or {}
    if not isinstance(reference, dict):
        raise ValueError(f"'reference' must be a mapping, got {reference!r}")
    return ExperimentSpec(
        name=entry["name"],
        model=model,
        scheme=entry["scheme"],
        n_paths=entry["n_paths"],
        n_steps=entry["n_steps"],
        schedule=entry["schedule"],
        vary=entry["vary"],
        values=entry["values"],
        strike=strike,
        maturity=maturity,
        **{key: entry[key] for key in ("runs", "base_seed") if key in entry},
        reference_prices=reference.get("prices") or None,
        reference_source=reference.get("source", ""),
    )


def table_entries(source) -> list[dict]:
    """The entries of a table config (catalog id or file path): a nonempty list of mappings.

    Any other config is a ValueError that names ``source``.
    """
    payload = load_config(source)
    if not isinstance(payload, dict) or payload.get("kind", "table") != "table":
        raise ValueError(f"config {str(source)!r} is not a table config")
    entries = payload.get("experiments")
    if not (isinstance(entries, list) and entries and all(isinstance(e, dict) for e in entries)):
        raise ValueError(f"config {str(source)!r} needs 'experiments': a nonempty list of entries")
    return entries


def table_specs(table_id) -> list[ExperimentSpec]:
    return [experiment_from_entry(e) for e in table_entries(table_id)]


def _at_scale(spec: ExperimentSpec, scale, runs, seed) -> ExperimentSpec:
    """``spec`` at the given scale and run count, and with ``seed`` as its base seed when given."""
    spec = scaled(spec, scale, runs)
    return spec if seed is None else replace(spec, base_seed=seed)


def run_table(table_id, *, scale, runs, seed=None, out_dir) -> list[Path]:
    """Run one table's experiments and write a CSV and a JSON report per experiment.

    ``table_id`` is a catalog id ('1'..'6') or the path of a table config file.
    Every spec is built and checked before ``out_dir`` is created.
    """
    specs = [_at_scale(spec, scale, runs, seed) for spec in table_specs(table_id)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in specs:
        report = run_experiment(spec)
        written.extend(emit_report(report, out_dir / report.experiment))
    return written


def run_figure(fig_id, *, scale, runs, seed=None, out_dir) -> list[Path]:
    """Produce the data files behind one figure: a CSV and a JSON file per value.

    ``fig_id`` is a built-in figure id (``FIGURE_IDS``); any other id or
    path is a ValueError that names it. Each (date count, scheme) is one
    experiment over all of the figure's values. With ``period_weeks`` the
    maturity is the date count times the period, else the preset's.
    ``euler2x`` is Euler at twice the date count's steps, and adds a
    ``-diff.csv`` per value. The reference prices come from an Euler grid of
    ``reference.n_steps`` steps, priced by one ``price_runs`` per maturity
    with base seed base_seed + ``REFERENCE_SEED_OFFSET``. Every spec is built
    and checked before ``out_dir`` is created.
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure {str(fig_id)!r}; figure ids: {', '.join(FIGURE_IDS)}")
    payload = load_config(fig_id)
    ref_steps = payload["reference"]["n_steps"]
    # the reference experiment; each figure experiment differs from it only
    # in name, scheme, steps, schedule, maturity and reference prices
    entry = {**payload, "scheme": "euler", "n_steps": ref_steps, "schedule": "american"}
    ref_spec = _at_scale(experiment_from_entry(entry), scale, runs, seed)
    period_years = None
    if "period_weeks" in payload:
        period_years = payload["period_weeks"] / payload["weeks_per_year"]
    maturities = {d: d * period_years if period_years else ref_spec.maturity
                  for d in payload["date_counts"]}

    ref_seed = ref_spec.base_seed + REFERENCE_SEED_OFFSET
    try:
        ref_specs = {maturity: replace(ref_spec, maturity=maturity, base_seed=ref_seed)
                     for maturity in dict.fromkeys(maturities.values())}
    except ValueError as exc:
        raise ValueError(f"the reference runs of {payload['name']!r} use base_seed + "
                         f"{REFERENCE_SEED_OFFSET}: {exc}") from None
    specs = {(dates, scheme): replace(
                 ref_spec, name=f"{payload['name']}-{scheme}-d{dates}",
                 scheme="euler" if scheme == "euler2x" else scheme,
                 n_steps=2 * dates if scheme == "euler2x" else dates, schedule=dates,
                 maturity=maturity, reference_source=f"self-euler-m{ref_steps}")
             for dates, maturity in maturities.items() for scheme in payload["schemes"]}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ref_prices: dict[int, tuple[float, ...]] = {}
    for maturity, spec in ref_specs.items():
        counts = [d for d, m in maturities.items() if m == maturity]
        prices = price_runs(spec, [ExerciseSchedule.nearest(spec.grid(), d) for d in counts])[0]
        ref_prices.update({d: tuple(float(row.mean()) for row in p) for d, p in zip(counts, prices)})
    reports: dict[tuple[int, str], ExperimentReport] = {
        key: run_experiment(replace(spec, reference_prices=ref_prices[key[0]]))
        for key, spec in specs.items()}

    written: list[Path] = []
    for i, value in enumerate(ref_spec.values):
        tag = f"{payload['name']}-{'s' if ref_spec.vary == 'spot' else 'k'}{value:g}"
        value_reports = {key: replace(r, cases=[r.cases[i]]) for key, r in reports.items()}
        written.extend(emit_report(list(value_reports.values()), out_dir / tag))
        if "euler2x" in payload["schemes"]:
            written.append(_emit_scheme_diff(value_reports, maturities, out_dir / f"{tag}-diff.csv"))
    return written


def _emit_scheme_diff(reports, maturities, path: Path) -> Path:
    """Euler(2M) minus AES(M) per date count: relative error, time, memory.

    ``reports`` maps (date count, scheme) to a report of one case, and
    ``maturities`` each date count to its maturity.
    """
    rows = []
    for dates in sorted({d for d, _ in reports}):
        aes, eul = reports[dates, "aes"].cases[0], reports[dates, "euler2x"].cases[0]
        rows.append([dates, maturities[dates], aes.rel_error, eul.rel_error,
                     eul.rel_error - aes.rel_error, eul.elapsed_s - aes.elapsed_s,
                     eul.memory_bytes - aes.memory_bytes])
    header = "dates,maturity,aes_rel_error,euler2x_rel_error,err_diff,time_diff_s,mem_diff_bytes"
    return write_csv(path, header.split(","), rows)
