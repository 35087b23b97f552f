import json

import pytest

from aesmc.cli import build_parser, main

pytestmark = pytest.mark.filterwarnings("ignore::aesmc.models.FellerWarning")

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
    assert payload["price"] >= 0.0


def test_price_desk_scale_bermudan_case(capsys):
    # desk-scale rerun of the 20-date Bermudan ITM case lands near 9.97
    argv = ["price", "--preset", "feller-violating", "--scheme", "aes",
            "--steps", "20", "--dates", "20", "--spot", "90",
            "--paths", "100000", "--runs", "5", "--seed", "7000", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["price"] - 9.966) / 9.966 < 0.01


def test_price_inline_model_missing_strike_errors(capsys):
    argv = [
        "price", "--model", "heston", "--s0", "100", "--v0", "0.04", "--r", "0.05",
        "--kappa", "2", "--nu-bar", "0.04", "--gamma", "0.5", "--rho", "-0.5",
        "--maturity", "0.25", "--steps", "2", "--paths", "500", "--runs", "1",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code != 0
    assert "strike" in capsys.readouterr().err


def test_price_requires_preset_or_model(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--steps", "2", "--paths", "100"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "--preset" in err or "--model" in err


@pytest.mark.parametrize("flag", ["--runs", "--paths"])
def test_price_rejects_nonpositive_runs_and_paths(flag, capsys):
    argv = ["price", "--preset", "feller-violating", "--steps", "2",
            "--paths", "1000", "--runs", "1", flag, "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{flag} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["price", "tables", "bench", "paths"])
def test_workers_default_is_left_to_the_simulator(command):
    # None lets simulation.resolve_workers apply AESMC_WORKERS, else 1
    assert build_parser().parse_args([command]).workers is None


def test_price_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
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
    assert main(["price", "--config", str(cfg), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_paths"] == 1500 and payload["n_steps"] == 3
    # explicit flag beats the config value
    assert main(["price", "--config", str(cfg), "--paths", "800", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_paths"] == 800


def test_tables_unknown_id_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--id", "99"])
    assert exc.value.code != 0
    assert "fig2" in capsys.readouterr().err


def test_tables_requires_id_or_config(capsys):
    with pytest.raises(SystemExit):
        main(["tables"])
    assert "--id" in capsys.readouterr().err


def test_tables_smoke_writes_reports(tmp_path, capsys):
    argv = ["tables", "--id", "1", "--scale", "1000", "--runs", "1",
            "--out", str(tmp_path), "--workers", "1"]
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


def test_paths_dump_heston(tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = ["paths", "--preset", "feller-violating", "--scheme", "aes",
            "--steps", "4", "--paths", "3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,step,asset,var1"
    assert len(lines) == 1 + 3 * 5


def test_paths_dump_double_heston_stdout(capsys):
    argv = ["paths", "--preset", "double-heston-zhang", "--steps", "2", "--paths", "2", "--seed", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "path,step,asset,var1,var2"
    assert len(lines) == 1 + 2 * 3


def test_bench_smoke(capsys):
    argv = ["bench", "--preset", "feller-violating", "--steps", "4",
            "--paths", "2000", "--runs", "1", "--seed", "0", "--dates", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "memory ratio" in out
    # euler runs 2*M steps by default: memory (2M+1)/(M+1)
    ratio = [l for l in out.splitlines() if "memory ratio" in l][0].split()[-1]
    assert float(ratio) == pytest.approx(9 / 5)


@pytest.mark.parametrize("command", ["price", "tables", "bench", "paths"])
def test_help_exits_cleanly(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out
