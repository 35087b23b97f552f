"""Tests of the benchmark's price oracle, its tracer and a smoke run of each workload.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import Factor, black_scholes_put, call_price, mean_variance, put_price  # noqa: E402
from spans import Tracer  # noqa: E402

HOLDING = Factor(kappa=5.0, nu_bar=0.16, gamma=0.9, v0=0.0625, rho=0.1)
VIOLATING = Factor(kappa=1.15, nu_bar=0.0348, gamma=0.39, v0=0.0348, rho=-0.64)
ZHANG = [Factor(0.9, 0.1, 0.1, 0.2, -0.5), Factor(1.2, 0.15, 0.2, 0.49, -0.5)]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_oracle_tends_to_black_scholes_as_vol_of_vol_vanishes():
    for strike in (8.0, 10.0, 12.0):
        errors = []
        for gamma in (1e-1, 1e-2, 1e-3):
            factors = [replace(HOLDING, gamma=gamma)]
            bs = black_scholes_put(10.0, strike, 0.1, 0.25, mean_variance(factors, 0.25))
            errors.append(abs(put_price(10.0, strike, 0.1, 0.25, factors) - bs))
        assert errors[0] > 5 * errors[1] > 25 * errors[2]
        assert errors[2] < 2e-5


@pytest.mark.parametrize("s0, factors, r", [(10.0, [HOLDING], 0.1), (100.0, [VIOLATING], 0.04),
                                            (61.9, ZHANG, 0.03)])
def test_oracle_put_call_parity(s0, factors, r):
    for strike in (0.8 * s0, s0, 1.2 * s0):
        call = call_price(s0, strike, r, 0.25, factors)
        put = put_price(s0, strike, r, 0.25, factors)
        assert call - put == pytest.approx(s0 - strike * math.exp(-r * 0.25), abs=1e-8)


def test_double_heston_oracle_reduces_to_heston_when_a_factor_vanishes():
    vanished = Factor(kappa=1.2, nu_bar=0.0, gamma=0.2, v0=0.0, rho=-0.5)
    for strike in (56.9, 61.9, 66.9):
        double = put_price(61.9, strike, 0.03, 0.25, [ZHANG[0], vanished])
        single = put_price(61.9, strike, 0.03, 0.25, [ZHANG[0]])
        assert double == pytest.approx(single, rel=1e-12)


def test_tracer_self_time_and_missing_hook():
    module = types.SimpleNamespace(outer=None, inner=lambda: sum(range(1000)))
    module.outer = lambda: module.inner() + module.inner()
    tracer = Tracer()
    tracer.hook(module, "inner", "inner")
    tracer.hook(module, "outer", "outer")
    tracer.hook(module, "gone", "gone")
    module.outer()
    tracer.uninstall()
    totals = tracer.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert totals["outer"][2] == pytest.approx(totals["outer"][1] - totals["inner"][1])
    assert tracer.missing == ["gone (gone)"]
    assert not hasattr(module, "gone") and module.inner.__name__ == "<lambda>"


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_and_counts(workload, trace):
    proc = _run(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "heston-tables", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
