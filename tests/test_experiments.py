import json
import math
import re
from dataclasses import replace

import pytest

from aesmc import experiments
from aesmc.experiments import (
    CSV_COLUMNS,
    CaseResult,
    ExperimentReport,
    ExperimentSpec,
    emit_report,
    run_experiment,
    scaled,
)
from aesmc.lsm import ExerciseSchedule, lsm_price
from aesmc.models import PutPayoff, preset
from aesmc.simulation import simulate

EQ5 = preset("feller-violating")
EQ4 = preset("feller-holding")

pytestmark = pytest.mark.filterwarnings("ignore::aesmc.models.FellerWarning")


def smoke_spec(**overrides):
    base = dict(
        name="smoke",
        model=EQ5.params,
        scheme="aes",
        n_paths=1000,
        n_steps=4,
        schedule="american",
        vary="spot",
        values=(90.0, 100.0, 110.0),
        strike=EQ5.strike,
        maturity=EQ5.maturity,
        runs=1,
        base_seed=123,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_smoke_run_produces_wellformed_report():
    report = run_experiment(smoke_spec())
    assert report.experiment == "smoke"
    assert len(report.cases) == 3
    assert report.schedule_indices == (1, 2, 3, 4)
    for case in report.cases:
        assert case.mean_price >= 0.0
        assert case.elapsed_s > 0.0
        assert case.memory_bytes == 8 * 1000 * 5 * 2
        assert case.ref_price is None and case.rel_error is None


def test_spec_validation_collects_errors():
    with pytest.raises(ValueError, match="scheme"):
        smoke_spec(scheme="exact")
    with pytest.raises(ValueError, match="runs"):
        smoke_spec(runs=0)
    with pytest.raises(ValueError, match="reference_prices"):
        smoke_spec(reference_prices=(1.0,))
    with pytest.raises(ValueError, match="schedule"):
        smoke_spec(schedule="weekly")
    with pytest.raises(ValueError, match="values must be positive"):
        smoke_spec(values=(90.0, 0.0))


@pytest.mark.parametrize("overrides, named", [
    (dict(strike=-5.0), "strike must be finite and > 0, got -5.0"),
    (dict(strike=0.0), "strike must be finite and > 0, got 0.0"),
    (dict(strike=math.inf), "strike must be finite and > 0, got inf"),
    (dict(strike=math.nan), "strike must be finite and > 0, got nan"),
    (dict(maturity=0.0), "maturity must be finite and > 0, got 0.0"),
    (dict(maturity=-0.25), "maturity must be finite and > 0, got -0.25"),
    (dict(maturity=math.nan), "maturity must be finite and > 0, got nan"),
    (dict(base_seed=-1), "base_seed -1 puts some run's seed outside 0..2"),
    (dict(base_seed=2**64 - 1, runs=2), "base_seed 18446744073709551615 puts some run's seed"),
    (dict(base_seed=2**64), "base_seed 18446744073709551616 puts some run's seed"),
    # a count or seed is refused by name, never truncated to its int
    (dict(runs=2.5), "runs must be an integer, got 2.5"),
    (dict(runs=True), "runs must be an integer, got True"),
    (dict(n_paths=300.5), "n_paths must be an integer, got 300.5"),
    (dict(n_steps=3.5), "n_steps must be an integer, got 3.5"),
    (dict(base_seed=8000.7), "base_seed must be an integer, got 8000.7"),
    (dict(base_seed=math.nan), "base_seed must be an integer, got nan"),
    (dict(schedule=2.5), "schedule must be a date count or 'american', got 2.5"),
    (dict(schedule=True), "schedule must be a date count or 'american', got True"),
    # the name is the stem of the report files: one path component
    (dict(name=5), "name must be a nonempty file name with no '/', got 5"),
    (dict(name=""), "name must be a nonempty file name with no '/', got ''"),
    (dict(name="a/b"), "name must be a nonempty file name with no '/', got 'a/b'"),
    (dict(name="."), "name must be a nonempty file name with no '/', got '.'"),
    (dict(name=".."), "name must be a nonempty file name with no '/', got '..'"),
    # a number is a real number and not a bool, never a string read as one
    (dict(strike="10"), "'strike' must be a number, got '10'"),
    (dict(maturity="0.25"), "'maturity' must be a number, got '0.25'"),
    (dict(values=(True,)), re.escape("'values' must be a list of numbers, got (True,)")),
    (dict(values=("8",)), re.escape("'values' must be a list of numbers, got ('8',)")),
    (dict(reference_prices=(1.0, "2.0", 3.0)),
     re.escape("'reference.prices' must be a list of numbers, got (1.0, '2.0', 3.0)")),
], ids=["strike-negative", "strike-zero", "strike-inf", "strike-nan", "maturity-zero",
        "maturity-negative", "maturity-nan", "seed-negative", "last-run-seed-past-2**64",
        "seed-2**64", "runs-fraction", "runs-bool", "n-paths-fraction", "n-steps-fraction",
        "seed-fraction", "seed-nan", "schedule-fraction", "schedule-bool", "name-an-integer",
        "name-empty", "name-a-path", "name-dot", "name-dotdot", "strike-a-string",
        "maturity-a-string", "values-item-a-bool", "values-item-a-string",
        "reference-prices-item-a-string"])
def test_spec_refuses_bad_strike_maturity_and_seed(overrides, named):
    with pytest.raises(ValueError, match=named):
        smoke_spec(**overrides)


def test_spec_integral_floats_price_as_their_ints():
    as_floats = smoke_spec(n_paths=300.0, n_steps=4.0, schedule=3.0, runs=2.0, base_seed=5.0)
    as_ints = smoke_spec(n_paths=300, n_steps=4, schedule=3, runs=2, base_seed=5)
    assert ([c.mean_price for c in run_experiment(as_floats).cases]
            == [c.mean_price for c in run_experiment(as_ints).cases])


def test_spec_seed_range_edges_and_strike_of_strike_experiments():
    # the last run's seed may be 2**64 - 1 itself
    assert smoke_spec(base_seed=2**64 - 2, runs=2).base_seed == 2**64 - 2
    assert smoke_spec(base_seed=0).base_seed == 0
    # a strike experiment prices its values as strikes and never reads ``strike``
    assert smoke_spec(vary="strike", strike=-5.0).cases()[0] == (EQ5.params.s0, 90.0)


def test_spec_refuses_more_dates_than_steps():
    with pytest.raises(ValueError, match="date count 5 exceeds n_steps 4"):
        smoke_spec(schedule=5)
    assert len(smoke_spec(schedule=4).resolve_schedule().exercise_indices) == 4


def test_reference_prices_and_relative_errors():
    spec = smoke_spec(reference_prices=(10.0, 3.0, 1.0), reference_source="paper")
    report = run_experiment(spec)
    for case, ref in zip(report.cases, (10.0, 3.0, 1.0)):
        assert case.ref_price == ref
        assert case.rel_error == abs(case.mean_price - ref) / ref
    assert report.reference_source == "paper"


def test_runs_use_base_seed_plus_run_index():
    per_run: dict = {}
    spec = smoke_spec(values=(100.0,), runs=2, base_seed=42)
    run_experiment(spec, run_prices_out=per_run)
    first = run_experiment(smoke_spec(values=(100.0,), runs=1, base_seed=42))
    second = run_experiment(smoke_spec(values=(100.0,), runs=1, base_seed=43))
    assert per_run["S0=100"] == [first.cases[0].mean_price, second.cases[0].mean_price]


def test_determinism_and_seed_sensitivity():
    a = run_experiment(smoke_spec())
    b = run_experiment(smoke_spec())
    assert [c.mean_price for c in a.cases] == [c.mean_price for c in b.cases]
    c = run_experiment(smoke_spec(base_seed=999))
    assert [x.mean_price for x in a.cases] != [x.mean_price for x in c.cases]


def test_strike_variation_cases():
    zh = preset("double-heston-zhang")
    spec = ExperimentSpec(
        name="dh-smoke", model=zh.params, scheme="aes", n_paths=500, n_steps=3,
        schedule="american", vary="strike", values=(56.9, 61.9), strike=zh.strike,
        maturity=zh.maturity, runs=1, base_seed=7,
    )
    report = run_experiment(spec)
    assert [c.case for c in report.cases] == ["K=56.9", "K=61.9"]
    # higher strike, higher put price
    assert report.cases[1].mean_price > report.cases[0].mean_price


def _count_simulate(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(experiments, "simulate", counted)
    return calls


def test_strikes_share_one_path_set_per_run(monkeypatch):
    zh = preset("double-heston-zhang")
    spec = ExperimentSpec(
        name="dh-share", model=zh.params, scheme="aes", n_paths=800, n_steps=4,
        schedule="american", vary="strike", values=(56.9, 61.9, 66.9), strike=zh.strike,
        maturity=zh.maturity, runs=2, base_seed=31,
    )
    calls = _count_simulate(monkeypatch)
    per_run: dict = {}
    report = run_experiment(spec, run_prices_out=per_run)
    assert len(calls) == 2
    schedule = spec.resolve_schedule()
    for run in range(2):
        paths = simulate("aes", zh.params, spec.grid(), 800, 31 + run)
        for case, strike in zip(report.cases, spec.values):
            alone = lsm_price(paths, PutPayoff(strike), schedule, zh.params.r)
            assert per_run[case.case][run] == alone.price
            assert case.std_errors[run] == alone.std_error


def test_spots_share_one_path_set_per_run(monkeypatch):
    spec = smoke_spec(runs=2)
    calls = _count_simulate(monkeypatch)
    per_run: dict = {}
    report = run_experiment(spec, run_prices_out=per_run)
    assert len(calls) == 2
    schedule = spec.resolve_schedule()
    for run in range(2):
        for case, spot in zip(report.cases, spec.values):
            model = replace(EQ5.params, s0=spot)
            paths = simulate("aes", model, spec.grid(), 1000, 123 + run)
            alone = lsm_price(paths, PutPayoff(EQ5.strike), schedule, model.r)
            assert per_run[case.case][run] == alone.price
            assert case.std_errors[run] == alone.std_error


def test_price_runs_prices_each_schedule_as_its_own_experiment(monkeypatch):
    # fig1's 40 and 60 dates on a 750-step grid: each run's one path set
    # stores the union of both schedules' dates (80 columns), an experiment
    # with one schedule only its own, and the per-run prices agree bit for bit
    spec = smoke_spec(scheme="euler", n_steps=750, n_paths=300, runs=2)
    schedules = [ExerciseSchedule.nearest(spec.grid(), d) for d in (40, 60)]
    calls = _count_simulate(monkeypatch)
    prices, std_errors, sim_s, price_s, memory_bytes = experiments.price_runs(spec, schedules)
    assert prices.shape == std_errors.shape == price_s.shape == (2, 3, 2)
    assert sim_s.shape == (2,) and memory_bytes == 8 * 300 * 751 * 2
    for k, dates in enumerate((40, 60)):
        per_run: dict = {}
        report = run_experiment(replace(spec, schedule=dates), run_prices_out=per_run)
        assert [per_run[case.case] for case in report.cases] == prices[k].tolist()
        assert [case.std_errors for case in report.cases] == std_errors[k].tolist()
    assert [len(args[5]) for args in calls] == [80, 80, 40, 40, 60, 60]


def test_case_timings_and_run_std_errors():
    report = run_experiment(smoke_spec(runs=2))
    for case in report.cases:
        assert case.sim_s > 0.0 and case.price_s > 0.0
        assert case.elapsed_s == pytest.approx(case.sim_s + case.price_s)
        assert len(case.std_errors) == 2 and all(se > 0.0 for se in case.std_errors)


def test_scaled_divides_paths_and_caps_runs():
    spec = smoke_spec(n_paths=1_000_000, runs=20)
    desk = scaled(spec, 10)
    assert desk.n_paths == 100_000 and desk.runs == 10
    full = scaled(spec, 1)
    assert full.n_paths == 1_000_000 and full.runs == 20
    custom = scaled(spec, 100, runs=3)
    assert custom.n_paths == 10_000 and custom.runs == 3
    assert scaled(spec, 10.0) == desk
    # a scale or run count is refused by name, never truncated to its int
    for scale in (0, 2.5, True):
        with pytest.raises(ValueError, match=f"scale must be a positive integer, got {scale!r}"):
            scaled(spec, scale)
    for runs in (2.5, True):
        with pytest.raises(ValueError, match=f"runs must be an integer, got {runs!r}"):
            scaled(spec, 10, runs=runs)


def test_emit_csv_schema_and_missing_reference(tmp_path):
    report = run_experiment(smoke_spec())
    path, _ = emit_report(report, tmp_path / "smoke")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4                       # header + 3 cases
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "smoke"
        assert cells[8] == "" and cells[9] == ""  # ref_price, rel_error empty


def test_emit_csv_with_reference(tmp_path):
    spec = smoke_spec(reference_prices=(10.0, 3.0, 1.0), reference_source="paper")
    report = run_experiment(spec)
    path, _ = emit_report(report, tmp_path / "ref")
    rows = path.read_text().strip().splitlines()[1:]
    assert all(row.split(",")[8] not in ("", None) for row in rows)


def _load_report_json(path) -> ExperimentReport:
    """The report of a one-report JSON file, as ``emit_report`` writes it for a table."""
    payload = json.loads(path.read_text())
    return ExperimentReport(**{**payload, "schedule_indices": tuple(payload["schedule_indices"]),
                               "cases": [CaseResult(**c) for c in payload["cases"]]})


def test_json_round_trip_identity(tmp_path):
    spec = smoke_spec(reference_prices=(10.0, 3.0, 1.0), reference_source="paper")
    report = run_experiment(spec)
    written = emit_report(report, tmp_path / "report")
    assert written == (tmp_path / "report.csv", tmp_path / "report.json")
    path = written[1]
    assert _load_report_json(path) == report
    case = json.loads(path.read_text())["cases"][0]
    assert case["sim_s"] > 0.0 and case["price_s"] > 0.0 and len(case["std_errors"]) == 1


def test_json_contains_schedule_mapping(tmp_path):
    spec = smoke_spec(n_steps=10, schedule=3)    # 10 not divisible by 3: nearest mapping
    report = run_experiment(spec)
    assert report.schedule_indices == (3, 7, 10)
    _, path = emit_report(report, tmp_path / "map")
    assert json.loads(path.read_text())["schedule_indices"] == [3, 7, 10]


def test_emit_list_of_reports_keeps_dotted_stem(tmp_path):
    # a figure writes one file pair per spot, and a spot of 92.5 puts a dot in the stem
    reports = [run_experiment(smoke_spec()), run_experiment(smoke_spec(name="other"))]
    csv_path, json_path = emit_report(reports, tmp_path / "fig-s92.5")
    assert (csv_path.name, json_path.name) == ("fig-s92.5.csv", "fig-s92.5.json")
    assert [r["experiment"] for r in json.loads(json_path.read_text())] == ["smoke", "other"]
    rows = [line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]]
    assert rows == ["smoke"] * 3 + ["other"] * 3


def test_emit_reports_io_failure_with_path():
    report = run_experiment(smoke_spec())
    with pytest.raises(OSError, match="no/such/dir"):
        emit_report(report, "no/such/dir/report")


def test_reference_ladder_monotone_and_seed_consistent():
    # biweekly ladder: maturity grows with the date count; prices must not decrease
    def ladder_spec(dates, base_seed):
        return ExperimentSpec(
            name=f"ref-{dates}", model=replace(EQ5.params, s0=90.0), scheme="euler",
            n_paths=20_000, n_steps=150, schedule=dates, vary="spot", values=(90.0,),
            strike=EQ5.strike, maturity=dates * 2 / 52, runs=3, base_seed=base_seed,
        )

    reports = [run_experiment(ladder_spec(d, 100)) for d in (2, 6, 10)]
    prices = [r.cases[0].mean_price for r in reports]
    errs = [r.case_std_errors[0] for r in reports]
    for (p1, e1), (p2, e2) in zip(zip(prices, errs), zip(prices[1:], errs[1:])):
        assert p2 >= p1 - 3 * math.hypot(e1, e2)

    # disjoint seed ranges agree within combined Monte Carlo error
    again = run_experiment(ladder_spec(6, 100 + 1000))
    base = reports[1]
    gap = abs(again.cases[0].mean_price - base.cases[0].mean_price)
    assert gap <= 3 * math.hypot(again.case_std_errors[0], base.case_std_errors[0])


def test_aes_euler_gap_shrinks_with_doubled_steps():
    # |AES(M) - Euler(2M)| on a fixed 20-date Bermudan shrinks as M doubles
    def pair_gap(m, seed):
        common = dict(model=EQ5.params, n_paths=50_000, schedule=20, vary="spot",
                      values=(90.0, 100.0, 110.0), strike=EQ5.strike,
                      maturity=EQ5.maturity, runs=3, base_seed=seed)
        aes = run_experiment(ExperimentSpec(name=f"aes-{m}", scheme="aes", n_steps=m, **common))
        eul = run_experiment(ExperimentSpec(name=f"eul-{2*m}", scheme="euler", n_steps=2 * m, **common))
        gaps = [abs(a.mean_price - e.mean_price) for a, e in zip(aes.cases, eul.cases)]
        slack = [3 * math.hypot(sa, se) for sa, se in zip(aes.case_std_errors, eul.case_std_errors)]
        return gaps, slack

    gaps_20, slack_20 = pair_gap(20, 2024)
    gaps_40, slack_40 = pair_gap(40, 2024)
    for g20, g40, s20, s40 in zip(gaps_20, gaps_40, slack_20, slack_40):
        assert g40 <= g20 + math.hypot(s20, s40)
