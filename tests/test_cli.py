import argparse
import json
import re
import shlex
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from test_golden import untimed_text

from aesmc.catalog import TABLE_IDS
from aesmc.cli import build_parser, main
from aesmc.experiments import DESK_RUNS
from aesmc.models import FellerWarning

pytestmark = pytest.mark.filterwarnings("ignore::aesmc.models.FellerWarning")

VARY_SPOT_CONFIG = (
    "experiments:\n"
    "  - name: from-config\n"
    "    preset: feller-violating\n"
    "    scheme: aes\n"
    "    n_paths: 1500\n"
    "    n_steps: 3\n"
    "    schedule: american\n"
    "    vary: spot\n"
    "    values: [95.0]\n"
    "    runs: 1\n"
    "    base_seed: 11\n"
)

# a price config whose one entry gives its model inline; price's built-in entry gives the rest
INLINE_HESTON = ("experiments:\n  - model: {kind: heston, s0: 100.0, v0: 0.04, r: 0.05, kappa: 2.0,"
                 " nu_bar: 0.04, gamma: 0.5, rho: -0.5}\n    strike: 100.0\n    maturity: 0.25\n")

PRICE_SMOKE = [
    "price", "--preset", "feller-violating", "--scheme", "aes",
    "--steps", "4", "--paths", "2000", "--runs", "1", "--seed", "42",
]


def test_price_smoke(capsys):
    assert main(PRICE_SMOKE) == 0
    out = capsys.readouterr().out
    assert "price" in out and "elapsed" in out


def test_price_deterministic_given_seed(capsys):
    main(PRICE_SMOKE)
    first = capsys.readouterr().out
    main(PRICE_SMOKE)
    second = capsys.readouterr().out

    def strip_timing(text):
        return [l for l in text.splitlines() if not l.startswith("elapsed")]

    assert strip_timing(first) == strip_timing(second)


def test_price_json_output(capsys):
    assert main(PRICE_SMOKE + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheme"] == "aes"
    assert payload["n_paths"] == 2000
    assert payload["cases"][0]["mean_price"] >= 0.0


def test_price_desk_scale_bermudan_case(capsys):
    # desk-scale rerun of the 20-date Bermudan ITM case lands near 9.97
    argv = ["price", "--preset", "feller-violating", "--scheme", "aes",
            "--steps", "20", "--dates", "20", "--spot", "90",
            "--paths", "100000", "--runs", "5", "--seed", "7000", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["cases"][0]["mean_price"] - 9.966) / 9.966 < 0.01


def test_price_inline_model_missing_strike_errors(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(INLINE_HESTON.replace("    strike: 100.0\n", ""))
    with pytest.raises(SystemExit) as exc:
        main(["price", "--config", str(cfg), "--steps", "2", "--paths", "500", "--runs", "1"])
    assert exc.value.code == 2
    assert "missing 'strike'" in capsys.readouterr().err


def test_price_requires_preset_or_model(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--steps", "2", "--paths", "100"])
    assert exc.value.code == 2
    assert "experiment entry needs a 'preset' or an inline 'model'" in capsys.readouterr().err


# one per inline model field, none of them a flag: a model comes from --preset
# or a --config entry, and --spot sets only its s0
REMOVED_MODEL_FLAGS = ["--model", "--v0", "--r", "--kappa", "--nu-bar", "--gamma", "--rho", "--v0-1",
                       "--kappa-1", "--nu-bar-1", "--gamma-1", "--v0-2", "--kappa-2", "--nu-bar-2",
                       "--gamma-2", "--rho-13", "--rho-24"]


@pytest.mark.parametrize("flag", REMOVED_MODEL_FLAGS)
def test_inline_model_flags_are_refused(flag, monkeypatch, capsys):
    _refuse_simulating(monkeypatch)
    value = "heston" if flag == "--model" else "0.5"
    with pytest.raises(SystemExit) as exc:
        main(["price", "--preset", "feller-violating", "--paths", "100", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_flag_counts_are_pinned():
    # the CLI's flag count, help aside; edit this test to add or remove a flag
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    counts = {name: sum(1 for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction))
              for name, p in subparsers.choices.items()}
    assert counts == {"price": 14, "tables": 6}


PRICE_COUNTS = ["price", "--preset", "feller-violating", "--steps", "2", "--paths", "1000", "--runs", "1"]


@pytest.mark.parametrize("argv", [
    *([*PRICE_COUNTS, flag, "0"] for flag in ("--runs", "--steps", "--paths", "--dates")),
    *(["tables", "--id", "1", flag, "0"] for flag in ("--runs", "--scale")),
], ids=["--runs", "--steps", "--paths", "--dates", "tables--runs", "tables--scale"])
def test_price_rejects_nonpositive_runs_and_paths(argv, capsys):
    # price and tables refuse a count below 1 by the flag that gave it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-2]} must be >= 1" in capsys.readouterr().err


def test_price_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(VARY_SPOT_CONFIG)
    assert main(["price", "--config", str(cfg), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_paths"] == 1500 and payload["n_steps"] == 3
    # explicit flag beats the config value
    assert main(["price", "--config", str(cfg), "--paths", "800", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_paths"] == 800


def _price_json(argv, capsys) -> dict:
    """The experiment report that ``price --json`` prints."""
    assert main(["price", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _price(argv, capsys) -> float:
    return _price_json(argv, capsys)["cases"][0]["mean_price"]


def test_price_config_scheme_used_unless_flag_given(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(VARY_SPOT_CONFIG.replace("scheme: aes", "scheme: euler"))
    from_config = _price_json(["--config", str(cfg)], capsys)
    flags = _price(["--preset", "feller-violating", "--scheme", "euler", "--spot", "95",
                    "--steps", "3", "--american", "--paths", "1500", "--seed", "11"], capsys)
    assert from_config["scheme"] == "euler" and from_config["cases"][0]["mean_price"] == flags
    overridden = _price_json(["--config", str(cfg), "--scheme", "aes"], capsys)
    assert overridden["scheme"] == "aes" and overridden["cases"][0]["mean_price"] == 5.912835459192022


def test_spot_is_the_only_spot_flag(tmp_path, capsys):
    # a config's values name the spot to price, and --spot is the one flag that overrides them
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(VARY_SPOT_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["price", "--config", str(cfg), "--s0", "97"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --s0 97" in capsys.readouterr().err
    from_config = _price_json(["--config", str(cfg), "--spot", "97"], capsys)
    flags = _price_json(["--preset", "feller-violating", "--spot", "97", "--steps", "3",
                         "--american", "--paths", "1500", "--seed", "11"], capsys)
    assert golden_view(from_config) == golden_view(flags)


def test_s0_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--preset", "feller-violating", "--s0", "97"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --s0 97" in capsys.readouterr().err


def _refuse_simulating(monkeypatch):
    """Make every simulation the CLI could start fail the test."""
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    from aesmc import experiments
    monkeypatch.setattr(experiments, "simulate", simulate)


@pytest.mark.parametrize("command, flags, named", [
    ("price", ["--strike", "-5"], "strike must be finite and > 0, got -5.0"),
    ("price", ["--strike", "nan"], "strike must be finite and > 0, got nan"),
    ("price", ["--maturity", "0"], "maturity must be finite and > 0, got 0.0"),
    ("price", ["--seed", "-1"], "base_seed -1 puts some run's seed"),
    ("price", ["--seed", str(2**64 - 1), "--runs", "2"], f"base_seed {2**64 - 1} puts some run's seed"),
    ("tables", ["--id", "1", "--seed", "-1"], "base_seed -1 puts some run's seed"),
    ("tables", ["--id", "1", "--scale", "0"], "scale must be >= 1"),
    ("tables", ["--id", "fig1", "--seed", "-1"], "base_seed -1 puts some run's seed"),
    # the figure's own runs fit, but its reference runs at base_seed + 10_000 do not
    ("tables", ["--id", "fig1", "--seed", str(2**64 - 10_000)],
     f"the reference runs of 'fig1' use base_seed + 10000: invalid experiment 'fig1': base_seed {2**64} "
     "puts some run's seed"),
], ids=["price-strike", "price-strike-nan", "price-maturity", "price-seed", "price-last-run-seed",
        "tables-seed", "tables-scale", "tables-fig1-seed", "tables-fig1-reference-seed"])
def test_bad_experiment_is_refused_before_anything_runs(command, flags, named, tmp_path,
                                                        monkeypatch, capsys):
    _refuse_simulating(monkeypatch)
    model = [] if command == "tables" else ["--preset", "feller-violating", "--steps", "2",
                                            "--paths", "1000"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *model, *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_price_explicit_flag_equal_to_default_beats_config(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(VARY_SPOT_CONFIG)
    seed0 = tmp_path / "seed0.yaml"
    seed0.write_text(VARY_SPOT_CONFIG.replace("base_seed: 11", "base_seed: 0"))
    assert _price_json(["--config", str(cfg), "--paths", "100000"], capsys)["n_paths"] == 100_000
    explicit = _price(["--config", str(cfg), "--seed", "0"], capsys)
    assert explicit == _price(["--config", str(seed0)], capsys)
    assert explicit != _price(["--config", str(cfg)], capsys)


def test_price_vary_strike_config_prices_first_strike(capsys):
    # table5: double-heston-zhang, AES, M=12, American, strikes 56.9/61.9/66.9, seed 8800
    cfg = str(resources.files("aesmc.configs").joinpath("table5.yaml"))
    small = ["--paths", "2000", "--runs", "1"]
    flags = ["--preset", "double-heston-zhang", "--steps", "12", "--american", "--seed", "8800", *small]
    first = _price(["--config", cfg, *small], capsys)
    assert first == _price([*flags, "--strike", "56.9"], capsys)
    chosen = _price(["--config", cfg, "--strike", "66.9", *small], capsys)
    assert chosen == _price([*flags, "--strike", "66.9"], capsys)


ENTRY = ("experiments:\n  - name: bad\n    scheme: aes\n    n_paths: 100\n    n_steps: 2\n"
         "    schedule: american\n    vary: spot\n    values: [9.0]\n    runs: 1\n")


NON_NUMERIC_RHO = (ENTRY + "    strike: 10.0\n    maturity: 0.25\n    model: {kind: heston, s0: 10.0,"
                   " v0: 0.04, r: 0.1, kappa: 5.0, nu_bar: 0.16, gamma: 0.9, rho: '-0.5'}\n")
# a scalar where a list of numbers belongs
VALUES_NOT_A_LIST = ENTRY.replace("values: [9.0]", "values: 9.0") + "    preset: feller-holding\n"
PRICES_NOT_A_LIST = ENTRY + "    preset: feller-holding\n    reference: {prices: 1.0}\n"
REFERENCE_NOT_A_MAPPING = ENTRY + "    preset: feller-holding\n    reference: 1.0\n"
# a count or seed that is not a YAML integer
RUNS_NOT_AN_INTEGER = ENTRY.replace("runs: 1", "runs: [1]") + "    preset: feller-holding\n"
PATHS_NOT_AN_INTEGER = ENTRY.replace("n_paths: 100", "n_paths: 100.5") + "    preset: feller-holding\n"
STEPS_NOT_AN_INTEGER = ENTRY.replace("n_steps: 2", "n_steps: '2'") + "    preset: feller-holding\n"
SEED_NOT_AN_INTEGER = ENTRY + "    preset: feller-holding\n    base_seed: [0]\n"
# a date count that YAML reads as a float or a bool
SCHEDULE_NOT_AN_INTEGER = ENTRY.replace("schedule: american", "schedule: 1.5") + "    preset: feller-holding\n"
SCHEDULE_BOOL = ENTRY.replace("schedule: american", "schedule: true") + "    preset: feller-holding\n"
# a first entry that is valid, then one with more exercise dates than steps
DATES_ABOVE_STEPS = (ENTRY + "    preset: feller-holding\n"
                     + ENTRY.split("experiments:\n")[1].replace("schedule: american", "schedule: 3")
                     + "    preset: feller-holding\n")
# an entry with a model value out of range; and a valid first entry, then that one
GAMMA_NEGATIVE_FIRST = ENTRY + "    preset: feller-holding\n    model: {gamma: -1.0}\n"
GAMMA_NEGATIVE = (ENTRY + "    preset: feller-holding\n"
                  + GAMMA_NEGATIVE_FIRST.split("experiments:\n")[1])
# a number where YAML gives a list, a bool or a string
VALUES_ITEM_A_LIST = ENTRY.replace("values: [9.0]", "values: [[1]]") + "    preset: feller-holding\n"
VALUES_ITEM_A_BOOL = ENTRY.replace("values: [9.0]", "values: [true]") + "    preset: feller-holding\n"
STRIKE_A_LIST = ENTRY + "    preset: feller-holding\n    strike: [1]\n"
STRIKE_A_STRING = ENTRY + "    preset: feller-holding\n    strike: '100'\n"
MATURITY_A_STRING = ENTRY + "    preset: feller-holding\n    maturity: 'x'\n"
PRICES_ITEM_A_LIST = ENTRY + "    preset: feller-holding\n    reference: {prices: [[1]]}\n"
# an experiment name that is not one file name
NAME_AN_INTEGER = ENTRY.replace("name: bad", "name: 5") + "    preset: feller-holding\n"
NAME_A_PATH = ENTRY.replace("name: bad", "name: a/b") + "    preset: feller-holding\n"
NAME_DOTDOT = ENTRY.replace("name: bad", "name: '..'") + "    preset: feller-holding\n"
# a model that is not a mapping, and a preset that is not a name
MODEL_AN_INTEGER = ENTRY + "    strike: 10.0\n    maturity: 0.25\n    model: 5\n"
MODEL_NULL = ENTRY + "    preset: feller-holding\n    model: null\n"
PRESET_A_LIST = ENTRY + "    preset: [1]\n"
# a falsy reference or reference.prices, never read as "no reference", and a source that is no string
BAD_REFERENCES = [
    ("reference-false", "reference: false", "'reference' must be a mapping, got False"),
    ("reference-zero", "reference: 0", "'reference' must be a mapping, got 0"),
    ("reference-empty-list", "reference: []", "'reference' must be a mapping, got []"),
    ("reference-empty-string", "reference: ''", "'reference' must be a mapping, got ''"),
    ("reference-null", "reference: null", "'reference' must be a mapping, got None"),
    ("reference-prices-false", "reference: {prices: false}",
     "'reference.prices' must be a list of numbers, got False"),
    ("reference-prices-zero", "reference: {prices: 0}",
     "'reference.prices' must be a list of numbers, got 0"),
    ("reference-prices-empty-string", "reference: {prices: ''}",
     "'reference.prices' must be a list of numbers, got ''"),
    ("reference-prices-null", "reference: {prices: null}",
     "'reference.prices' must be a list of numbers, got None"),
    ("reference-prices-empty-list", "reference: {prices: []}",
     "reference_prices length must match values"),
    ("reference-source-an-integer", "reference: {source: 5, prices: [1.0]}",
     "'reference.source' must be a string, got 5"),
]
# a misspelled key, refused by name instead of run at its default
UNKNOWN_ENTRY_KEYS = [
    ("unknown-key-run", "run: 1", "unknown key(s) in experiment entry 'bad': run"),
    ("unknown-key-base-sed", "base_sed: 5", "unknown key(s) in experiment entry 'bad': base_sed"),
]
UNKNOWN_REFERENCE_KEY = ("unknown-reference-key", "reference: {price: [1.0]}",
                         "unknown key(s) in 'reference': price")
# an entry whose first value is sound and whose second is not
SECOND_VALUE_BROKEN = [
    ("second-value-a-string", "values: [9.0, 'x']", "'values' must be a list of numbers, got [9.0, 'x']"),
    ("second-value-a-bool", "values: [9.0, true]", "'values' must be a list of numbers, got [9.0, True]"),
    ("second-value-negative", "values: [9.0, -5.0]", "values must be positive"),
]
# files that are not a table config: each is refused by the file's name
BARE_ENTRY = ("name: bad\npreset: feller-holding\nscheme: aes\nn_paths: 100\nn_steps: 2\n"
              "schedule: american\nvary: spot\nvalues: [9.0]\nruns: 1\n")
FIG1 = resources.files("aesmc.configs").joinpath("fig1.yaml").read_text()
NOT_A_TABLE = [
    ("experiments: [\n", "bad.yaml' is not valid YAML"),
    ("", "bad.yaml' is not a table config"),
    (BARE_ENTRY, "bad.yaml' needs 'experiments': a nonempty list of entries"),
    ("experiments: []\n", "bad.yaml' needs 'experiments': a nonempty list of entries"),
    ("experiments: [1]\n", "bad.yaml' needs 'experiments': a nonempty list of entries"),
    (FIG1, "bad.yaml' is not a table config"),
]
NOT_A_TABLE_IDS = ["invalid-yaml", "empty-file", "bare-entry", "no-entries", "entry-not-a-mapping",
                   "figure-config"]


@pytest.mark.parametrize("broken, named", [
    (ENTRY + "    strike: 10.0\n    maturity: 0.25\n    model: {kind: heston, s0: 10.0, v0: 0.04,"
     " r: 0.1, kappa: 5.0, nu_bar: 0.16, gamma: 0.9}\n", "rho"),
    (ENTRY + "    preset: nope\n", "nope"),
    (ENTRY.replace("    scheme: aes\n", "") + "    preset: feller-holding\n", "scheme"),
    (NON_NUMERIC_RHO, "must be numbers: rho"),
    (DATES_ABOVE_STEPS, "date count 3 exceeds n_steps 2"),
    (VALUES_NOT_A_LIST, "'values' must be a list of numbers"),
    (PRICES_NOT_A_LIST, "'reference.prices' must be a list of numbers"),
    (REFERENCE_NOT_A_MAPPING, "'reference' must be a mapping"),
    (RUNS_NOT_AN_INTEGER, "runs must be an integer"),
    (PATHS_NOT_AN_INTEGER, "n_paths must be an integer"),
    (STEPS_NOT_AN_INTEGER, "n_steps must be an integer"),
    (SEED_NOT_AN_INTEGER, "base_seed must be an integer"),
    (SCHEDULE_NOT_AN_INTEGER, "schedule must be a date count or 'american', got 1.5"),
    (SCHEDULE_BOOL, "schedule must be a date count or 'american', got True"),
    (GAMMA_NEGATIVE, "gamma must be positive"),
    (ENTRY + "    preset: feller-holding\n    model: {kind: double_heston}\n",
     "unknown model kind 'double_heston'"),
    (VALUES_ITEM_A_LIST, "'values' must be a list of numbers, got [[1]]"),
    (VALUES_ITEM_A_BOOL, "'values' must be a list of numbers, got [True]"),
    (STRIKE_A_LIST, "'strike' must be a number, got [1]"),
    (STRIKE_A_STRING, "'strike' must be a number, got '100'"),
    (MATURITY_A_STRING, "'maturity' must be a number, got 'x'"),
    (PRICES_ITEM_A_LIST, "'reference.prices' must be a list of numbers, got [[1]]"),
    (NAME_AN_INTEGER, "name must be a nonempty file name with no '/', got 5"),
    (NAME_A_PATH, "name must be a nonempty file name with no '/', got 'a/b'"),
    (NAME_DOTDOT, "name must be a nonempty file name with no '/', got '..'"),
    (MODEL_AN_INTEGER, "'model' must be a mapping, got 5"),
    (MODEL_NULL, "'model' must be a mapping, got None"),
    (PRESET_A_LIST, "'preset' must be a preset name, got [1]"),
    *((ENTRY + f"    preset: feller-holding\n    {reference}\n", named) for _, reference, named in BAD_REFERENCES),
    *((ENTRY + f"    preset: feller-holding\n    {key}\n", named)
      for _, key, named in [*UNKNOWN_ENTRY_KEYS, UNKNOWN_REFERENCE_KEY]),
    *NOT_A_TABLE,
], ids=["missing-model-field", "unknown-preset", "missing-key", "non-numeric-model-field",
        "dates-above-steps", "values-not-a-list", "reference-prices-not-a-list",
        "reference-not-a-mapping", "runs-not-an-integer", "n-paths-not-an-integer",
        "n-steps-not-an-integer", "base-seed-not-an-integer", "schedule-not-an-integer",
        "schedule-bool", "gamma-negative",
        "double-heston-underscore-kind", "values-item-a-list", "values-item-a-bool",
        "strike-a-list", "strike-a-string", "maturity-a-string", "reference-prices-item-a-list",
        "name-an-integer", "name-a-path", "name-dotdot", "model-an-integer", "model-null",
        "preset-a-list", *(case_id for case_id, _, _ in BAD_REFERENCES),
        *(case_id for case_id, _, _ in [*UNKNOWN_ENTRY_KEYS, UNKNOWN_REFERENCE_KEY]), *NOT_A_TABLE_IDS])
def test_tables_config_entry_errors_are_usage_errors(broken, named, tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(broken)
    reports = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--config", str(cfg), "--out", str(reports)])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not reports.exists()


@pytest.mark.parametrize("argv, config, named", [
    (["--preset", "feller-violating", "--dates", "30", "--paths", "100"], NON_NUMERIC_RHO,
     "date count 30 exceeds n_steps 12"),
    (["--config", "{config}"], NON_NUMERIC_RHO, "must be numbers: rho"),
    (["--config", "{config}"], VALUES_NOT_A_LIST, "'values' must be a list of numbers"),
    (["--config", "{config}"], GAMMA_NEGATIVE_FIRST, "gamma must be positive"),
    # an inline model with no s0 and no preset to give one
    (["--config", "{config}"], INLINE_HESTON.replace(" s0: 100.0,", ""),
     "inline model is missing HestonParams field(s): s0"),
    # --spot writes into the entry's model, which must be a mapping
    (["--config", "{config}", "--spot", "95"], MODEL_AN_INTEGER, "'model' must be a mapping, got 5"),
    *((["--config", "{config}"], config, named) for config, named in NOT_A_TABLE),
    # the whole first entry is checked before price takes its one case
    *((["--config", "{config}"], ENTRY + f"    preset: feller-holding\n    {reference}\n", named)
      for _, reference, named in [*BAD_REFERENCES, UNKNOWN_REFERENCE_KEY]),
    *((["--config", "{config}"], ENTRY.replace("values: [9.0]", values) + "    preset: feller-holding\n",
       named) for _, values, named in SECOND_VALUE_BROKEN),
    (["--config", "{config}"], ENTRY.replace("values: [9.0]", "values: [9.0, 11.0]")
     + "    preset: feller-holding\n    reference: {prices: [1.0]}\n",
     "reference_prices length must match values"),
], ids=["dates-above-steps", "non-numeric-model-field", "values-not-a-list", "gamma-negative",
        "inline-model-without-s0", "model-an-integer-with-spot", *NOT_A_TABLE_IDS,
        *(case_id for case_id, _, _ in [*BAD_REFERENCES, UNKNOWN_REFERENCE_KEY]),
        *(case_id for case_id, _, _ in SECOND_VALUE_BROKEN), "reference-prices-fewer-than-values"])
def test_price_entry_errors_are_usage_errors(argv, config, named, tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(config)
    with pytest.raises(SystemExit) as exc:
        main(["price", *(str(cfg) if a == "{config}" else a for a in argv)])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key, named", [(key, named) for _, key, named in UNKNOWN_ENTRY_KEYS],
                         ids=[case_id for case_id, _, _ in UNKNOWN_ENTRY_KEYS])
def test_price_config_unknown_key_is_a_usage_error(key, named, tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(ENTRY + f"    preset: feller-holding\n    {key}\n")
    reports = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        main(["price", "--config", str(cfg), "--out", str(reports)])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not reports.exists()


def test_price_makes_out_before_it_simulates(tmp_path, monkeypatch, capsys):
    # an --out that cannot be a directory costs no run, as with tables --out
    from aesmc import experiments
    calls = []
    real_simulate = experiments.simulate

    def simulate(*args, **kwargs):
        calls.append(args)
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(experiments, "simulate", simulate)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["price", "--preset", "feller-holding", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("table", TABLE_IDS)
def test_price_config_prices_each_built_in_table_entry(table, capsys):
    # the whole-entry check refuses nothing a shipped table config holds, references included
    cfg = str(resources.files("aesmc.configs").joinpath(f"table{table}.yaml"))
    assert main(["price", "--config", cfg, "--paths", "200", "--runs", "1"]) == 0
    assert capsys.readouterr().out.startswith("price ")


def test_feller_violation_warns_once_per_simulation(tmp_path, capsys):
    # checking the entry's model values adds no Feller warning to simulate's
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("experiments:\n  - preset: feller-violating\n    model: {gamma: 0.9}\n")
    argv = ["price", "--config", str(cfg), "--steps", "2", "--paths", "100", "--runs", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [type(w.message) for w in caught] == [FellerWarning] * 3


def test_tables_unknown_id_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--id", "99"])
    assert exc.value.code != 0
    assert "fig2" in capsys.readouterr().err


def test_tables_id_list_runs_each_id(tmp_path, capsys):
    argv = ["tables", "--id", "3,fig1", "--scale", "10000", "--runs", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    expected = sorted([f"table3-{s}.{ext}" for s in ("aes", "euler") for ext in ("csv", "json")]
                      + [f"fig1-s{s}.{ext}" for s in (90, 100, 110) for ext in ("csv", "json")])
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    assert sorted(Path(line).name for line in capsys.readouterr().out.split()) == expected


def test_tables_id_list_checked_before_running(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--id", "3,7", "--scale", "10000", "--runs", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "'7'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_tables_requires_id_or_config(capsys):
    with pytest.raises(SystemExit):
        main(["tables"])
    assert "--id" in capsys.readouterr().err


def test_tables_smoke_writes_reports(tmp_path, capsys):
    argv = ["tables", "--id", "1", "--scale", "1000", "--runs", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    csv_path = tmp_path / "table1-aes.csv"
    json_path = tmp_path / "table1-aes.json"
    assert csv_path.exists() and json_path.exists()
    assert (tmp_path / "table1-euler.csv").exists()
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4                                  # header + 3 spots
    rel_errors = [line.split(",")[9] for line in lines[1:]]
    assert all(cell for cell in rel_errors)
    payload = json.loads(json_path.read_text())
    assert payload["runs"] == 1 and payload["n_paths"] == 1000


def test_tables_config_file(tmp_path, capsys):
    cfg = tmp_path / "mini.yaml"
    cfg.write_text(
        "name: mini\n"
        "kind: table\n"
        "experiments:\n"
        "  - name: mini-aes\n"
        "    preset: feller-holding\n"
        "    scheme: aes\n"
        "    n_paths: 1000\n"
        "    n_steps: 3\n"
        "    schedule: american\n"
        "    vary: spot\n"
        "    values: [9.0, 10.0]\n"
        "    runs: 1\n"
        "    base_seed: 3\n"
    )
    out = tmp_path / "reports"
    assert main(["tables", "--config", str(cfg), "--scale", "1", "--out", str(out)]) == 0
    lines = (out / "mini-aes.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_price_reports_through_the_tables_writer(tmp_path, capsys):
    # one serialiser: price --json prints the file price --out writes, and both
    # files match what tables writes for the same entry, timing fields aside
    cfg = tmp_path / "one.yaml"
    cfg.write_text(VARY_SPOT_CONFIG)
    priced, tabled = tmp_path / "price", tmp_path / "tables"
    assert main(["price", "--config", str(cfg), "--json", "--out", str(priced)]) == 0
    printed = capsys.readouterr().out
    assert main(["tables", "--config", str(cfg), "--scale", "1", "--out", str(tabled)]) == 0
    names = ["from-config.csv", "from-config.json"]
    assert sorted(p.name for p in priced.iterdir()) == sorted(p.name for p in tabled.iterdir()) == names
    assert printed == (priced / "from-config.json").read_text()
    for name in names:
        assert untimed_text(priced / name) == untimed_text(tabled / name)


@pytest.mark.parametrize("command", ["price", "tables"])
def test_help_exits_cleanly(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


@pytest.mark.parametrize("command, states", [
    ("price", ["built-in values: scheme: aes, n_steps: 12, schedule: american, n_paths: 100000, "
               "runs: 1, base_seed: 0, vary: spot"]),
    ("tables", ["(1 = full scale; default: 10)", "base seed (default: the config's)", "(default: reports)",
                f"run count (default: the config's, capped at {DESK_RUNS} below full scale)"]),
], ids=["price", "tables"])
def test_help_states_the_defaults(command, states, capsys):
    # no flag shows argparse's None: price lists its built-in entry, tables each real default
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for text in states:
        assert text in out
    assert "default: None" not in out


def test_bench_is_not_a_command(capsys):
    # the AES(M) vs Euler(2M) comparison is `tables --id fig3`, and simulated
    # paths are the arrays of the PathSet that `simulation.simulate` returns
    for command in ("bench", "paths"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "feller-violating"])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_readme_commands_parse():
    # every `aesmc` line of README's bash blocks, continuations joined, names a
    # subcommand and flags that exist; the parser only parses, nothing runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```bash\n(.*?)```", readme, re.S)).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("aesmc ")]
    assert {argv[1] for argv in commands} == {"price", "tables"}
    for argv in commands:
        build_parser().parse_args(argv[1:])



def test_readme_config_example_prices(tmp_path, capsys):
    # README's model.yaml, run as README runs it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [example] = re.findall(r"this `model.yaml`.*?```yaml\n(.*?)```", readme, re.S)
    cfg = tmp_path / "model.yaml"
    cfg.write_text(example)
    payload = _price_json(["--config", str(cfg), "--spot", "95", "--paths", "200"], capsys)
    assert [case["case"] for case in payload["cases"]] == ["S0=95"]

# Golden CLI outputs at pinned seeds. A refactor of how flags become a
# priced case must reproduce them exactly; timing fields are left out.
SMALL = ["--paths", "2000", "--runs", "2", "--seed", "42"]
# a preset with one model field overridden
PRESET_GAMMA = "experiments:\n  - preset: feller-violating\n    model: {gamma: 0.5}\n"
# the config file each placeholder of a golden's flags stands for
GOLDEN_CONFIGS = {"{config}": VARY_SPOT_CONFIG, "{inline-heston}": INLINE_HESTON,
                  "{preset-gamma}": PRESET_GAMMA}

# (id, price flags, expected untimed view of the --json report; see golden_view);
# each key of GOLDEN_CONFIGS stands for a file holding its config
GOLDEN_PRICE = [
    ("preset-defaults", ["--preset", "feller-violating"],
     {"mean_price": 3.162065381235175, "run_std": 0.0, "mean(std_errors)": 0.015033577110718618,
      "runs": 1, "n_paths": 100000, "n_steps": 12, "len(schedule_indices)": 12, "scheme": "aes",
      "memory_bytes": 20800000}),
    ("preset-gamma", ["--config", "{preset-gamma}", *SMALL],
     {"mean_price": 3.2146661157157777, "run_std": 0.13823346499795466,
      "mean(std_errors)": 0.12056934614739066, "runs": 2, "n_paths": 2000, "n_steps": 12,
      "len(schedule_indices)": 12, "scheme": "aes", "memory_bytes": 416000}),
    ("inline-heston", ["--config", "{inline-heston}", *SMALL],
     {"mean_price": 3.492986301482149, "run_std": 0.1370433337234062,
      "mean(std_errors)": 0.11747792748143315, "runs": 2, "n_paths": 2000, "n_steps": 12,
      "len(schedule_indices)": 12, "scheme": "aes", "memory_bytes": 416000}),
    ("spot-dates", ["--preset", "feller-violating", "--spot", "90", "--dates", "20",
                    "--steps", "20", *SMALL],
     {"mean_price": 10.179052656853727, "run_std": 0.07656701774540717,
      "mean(std_errors)": 0.10752072631319479, "runs": 2, "n_paths": 2000, "n_steps": 20,
      "len(schedule_indices)": 20, "scheme": "aes", "memory_bytes": 672000}),
    ("double-heston-american", ["--preset", "double-heston-zhang", "--american", *SMALL],
     {"mean_price": 9.555661049307291, "run_std": 0.36091251303816935,
      "mean(std_errors)": 0.2410774276309986, "runs": 2, "n_paths": 2000, "n_steps": 12,
      "len(schedule_indices)": 12, "scheme": "aes", "memory_bytes": 624000}),
    ("config-vary-spot", ["--config", "{config}"],
     {"mean_price": 5.912835459192022, "run_std": 0.0, "mean(std_errors)": 0.14330565363221695,
      "runs": 1, "n_paths": 1500, "n_steps": 3, "len(schedule_indices)": 3, "scheme": "aes",
      "memory_bytes": 96000}),
    ("config-vary-spot-paths", ["--config", "{config}", "--paths", "800"],
     {"mean_price": 5.742657571377334, "run_std": 0.0, "mean(std_errors)": 0.20703363018540974,
      "runs": 1, "n_paths": 800, "n_steps": 3, "len(schedule_indices)": 3, "scheme": "aes",
      "memory_bytes": 51200}),
]


def golden_view(report: dict) -> dict:
    """The report's one case and its run settings, keyed as the goldens pin them."""
    (case,) = report["cases"]
    return {"mean_price": case["mean_price"], "run_std": case["run_std"],
            "mean(std_errors)": float(np.mean(case["std_errors"])),
            **{key: report[key] for key in ("runs", "n_paths", "n_steps")},
            "len(schedule_indices)": len(report["schedule_indices"]), "scheme": report["scheme"],
            "memory_bytes": case["memory_bytes"]}


@pytest.mark.parametrize("flags, expected", [g[1:] for g in GOLDEN_PRICE],
                         ids=[g[0] for g in GOLDEN_PRICE])
def test_golden_price_json(flags, expected, tmp_path, capsys):
    files = {}
    for i, (key, text) in enumerate(GOLDEN_CONFIGS.items()):
        files[key] = tmp_path / f"exp{i}.yaml"
        files[key].write_text(text)
    report = _price_json([str(files.get(f, f)) for f in flags], capsys)
    case = report["cases"][0]
    assert case["elapsed_s"] > 0.0 and case["sim_s"] > 0.0 and case["price_s"] > 0.0
    assert len(case["std_errors"]) == report["runs"]
    assert golden_view(report) == expected
