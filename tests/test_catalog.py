import json
import re
from dataclasses import replace
from importlib import resources

import pytest
import yaml

from aesmc import experiments
from aesmc.catalog import (
    IDS,
    YAML_LOADER,
    experiment_from_entry,
    load_config,
    run_figure,
    run_table,
    table_specs,
)
from aesmc.models import DoubleHestonParams, HestonParams, preset
from aesmc.simulation import simulate

pytestmark = pytest.mark.filterwarnings("ignore::aesmc.models.FellerWarning")


def test_available_ids():
    assert IDS == ("1", "2", "3", "4", "5", "6", "fig1", "fig2", "fig3")


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml: "
                    "load_config uses SafeLoader itself, so there is nothing to compare")
@pytest.mark.parametrize("config_id", IDS)
def test_yaml_loaders_agree(config_id):
    assert YAML_LOADER is yaml.CSafeLoader
    name = f"{config_id}.yaml" if config_id.startswith("fig") else f"table{config_id}.yaml"
    text = resources.files("aesmc.configs").joinpath(name).read_text()
    assert load_config(config_id) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("table_id,n_specs", [("1", 2), ("2", 2), ("3", 2), ("4", 6), ("5", 2), ("6", 4)])
def test_builtin_tables_load(table_id, n_specs):
    specs = table_specs(table_id)
    assert len(specs) == n_specs
    for spec in specs:
        assert spec.n_paths == 1_000_000 and spec.runs == 20
        assert spec.reference_prices is not None
        assert len(spec.reference_prices) == len(spec.values)


def test_table1_embeds_source_reference_prices():
    aes, euler = table_specs("1")
    assert aes.reference_prices == (9.978, 3.205, 0.927)
    assert aes.reference_source == "paper"
    assert aes.n_steps == 20 and euler.n_steps == 40
    assert euler.schedule == 20


def test_table5_models_are_two_factor():
    for spec in table_specs("5"):
        assert isinstance(spec.model, DoubleHestonParams)
        assert spec.vary == "strike"


def test_figure_configs_load():
    for fig_id in ("fig1", "fig2", "fig3"):
        payload = load_config(fig_id)
        assert payload["kind"] == "figure"
        assert payload["reference"]["n_steps"] == 750
    assert len(load_config("fig2")["date_counts"]) == 13


def test_entry_requires_model_or_preset():
    with pytest.raises(ValueError, match="preset"):
        experiment_from_entry({
            "name": "x", "scheme": "aes", "n_paths": 10, "n_steps": 2,
            "schedule": "american", "vary": "spot", "values": [1.0],
        })


def test_inline_model_entry():
    spec = experiment_from_entry({
        "name": "inline", "scheme": "euler", "n_paths": 10, "n_steps": 2,
        "schedule": "american", "vary": "spot", "values": [95.0],
        "strike": 100.0, "maturity": 0.5,
        "model": {"kind": "heston", "s0": 95.0, "v0": 0.04, "r": 0.02,
                  "kappa": 1.5, "nu_bar": 0.04, "gamma": 0.3, "rho": -0.7},
    })
    assert isinstance(spec.model, HestonParams)
    assert spec.model.kappa == 1.5 and spec.strike == 100.0


def test_inline_fields_fill_from_preset():
    entry = {"name": "x", "scheme": "aes", "n_paths": 10, "n_steps": 2, "schedule": "american",
             "vary": "spot", "values": [1.0], "preset": "feller-violating", "model": {"gamma": 0.5}}
    spec = experiment_from_entry(entry)
    assert spec.model == replace(preset("feller-violating").params, gamma=0.5)
    with pytest.raises(ValueError, match="gamma_1"):
        experiment_from_entry({**entry, "model": {"gamma_1": 0.5}})


def test_entry_integral_float_count_prices_as_its_int():
    # YAML reads 12.0 as a float; every count takes it as 12, as ExperimentSpec does
    text = ("name: steps\npreset: feller-violating\nscheme: aes\nn_paths: 500\nn_steps: {}\n"
            "schedule: 6\nvary: spot\nvalues: [95.0, 105.0]\nruns: 2\nbase_seed: 3\n")
    as_float, as_int = (experiment_from_entry(yaml.load(text.format(steps), Loader=YAML_LOADER))
                        for steps in ("12.0", "12"))
    assert as_float.n_steps == 12 and type(as_float.n_steps) is int
    assert ([c.mean_price for c in experiments.run_experiment(as_float).cases]
            == [c.mean_price for c in experiments.run_experiment(as_int).cases])

def test_run_table_writes_csv_and_json(tmp_path):
    files = run_table("3", scale=1000, runs=1, out_dir=tmp_path)
    names = sorted(p.name for p in files)
    assert names == ["table3-aes.csv", "table3-aes.json", "table3-euler.csv", "table3-euler.json"]
    payload = json.loads((tmp_path / "table3-aes.json").read_text())
    assert payload["n_paths"] == 1000 and len(payload["cases"]) == 3


def test_run_table_refuses_a_fractional_seed(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="base_seed must be an integer, got 8000.7"):
        run_table("3", scale=1000, runs=1, seed=8000.7, out_dir=out)
    assert not out.exists()


def test_run_figure_fig1_smoke(tmp_path):
    files = run_figure("fig1", scale=1000, runs=1, out_dir=tmp_path)
    csvs = [p for p in files if p.suffix == ".csv"]
    assert sorted(p.name for p in csvs) == ["fig1-s100.csv", "fig1-s110.csv", "fig1-s90.csv"]
    lines = (tmp_path / "fig1-s90.csv").read_text().strip().splitlines()
    assert len(lines) == 3                      # header + 40-date and 60-date rows
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[8] != "" and cells[9] != ""   # self-generated references attached
    payload = json.loads((tmp_path / "fig1-s90.json").read_text())
    assert payload[0]["reference_source"] == "self-euler-m750"


@pytest.mark.parametrize("source", ["empty-file", "1"])
def test_run_figure_takes_only_a_built_in_figure_id(source, tmp_path):
    if source == "empty-file":
        source = tmp_path / "empty.yaml"
        source.write_text("")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(f"unknown figure '{source}'; figure ids: fig1, fig2, fig3")):
        run_figure(source, scale=1, runs=1, out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("fig_id, calls", [("fig1", 3), ("fig2", 39), ("fig3", 39)])
def test_run_figure_shares_paths_across_spots(fig_id, calls, tmp_path, monkeypatch):
    # one simulation per run of each (date count, scheme), plus one 750-step
    # reference per run and maturity, whatever the number of spots
    simulated = []

    def counting(*args, **kwargs):
        simulated.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiments, "simulate", counting)
    run_figure(fig_id, scale=10_000, runs=1, out_dir=tmp_path)
    assert len(simulated) == calls


def test_run_figure_stores_only_exercise_dates(tmp_path, monkeypatch):
    # the 750-step reference asks for the union of its 40- and 60-date
    # schedules, 80 of its 751 grid indices; each AES experiment for its dates
    stored = {}

    def recording(scheme, model, grid, n_paths, seed, columns=None):
        stored[grid.steps] = tuple(columns or ())
        return simulate(scheme, model, grid, n_paths, seed, columns)

    monkeypatch.setattr(experiments, "simulate", recording)
    run_figure("fig1", scale=10_000, runs=1, out_dir=tmp_path)
    assert {steps: len(columns) for steps, columns in stored.items()} == {750: 80, 40: 40, 60: 60}
    assert stored[40] == tuple(range(1, 41)) and stored[60] == tuple(range(1, 61))
    assert stored[750][-1] == 750 and list(stored[750]) == sorted(set(stored[750]))


def test_run_figure_fig2_one_csv_per_spot(tmp_path):
    files = run_figure("fig2", scale=2000, runs=1, out_dir=tmp_path)
    csvs = sorted(p.name for p in files if p.suffix == ".csv")
    assert csvs == ["fig2-s100.csv", "fig2-s110.csv", "fig2-s90.csv"]
    lines = (tmp_path / "fig2-s90.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 13 * 2             # 13 maturities, aes + euler rows


def test_run_figure_fig3_smoke_emits_diff(tmp_path):
    files = run_figure("fig3", scale=2000, runs=1, out_dir=tmp_path)
    diff = tmp_path / "fig3-s90-diff.csv"
    assert diff in files
    lines = diff.read_text().strip().splitlines()
    assert lines[0].startswith("dates,maturity,aes_rel_error")
    assert len(lines) == 1 + 13
    # euler2x doubles the step count: memory difference is positive
    assert all(int(line.split(",")[-1]) > 0 for line in lines[1:])
