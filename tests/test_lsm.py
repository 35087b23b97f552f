from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import EXPERIMENT_PATHS, EXPERIMENT_RUNS, GOLDEN_EXPERIMENTS

from aesmc import experiments, lsm
from aesmc.catalog import table_specs
from aesmc.lsm import (
    GRAM_ROWS,
    RCOND,
    ExerciseSchedule,
    backward_induction,
    build_features,
    lsm_price,
    regress_continuation,
)
from aesmc.models import PutPayoff, preset
from aesmc.simulation import PathSet, TimeGrid, simulate

EQ5 = preset("feller-violating").params
ZHANG = preset("double-heston-zhang").params

pytestmark = pytest.mark.filterwarnings("ignore::aesmc.models.FellerWarning")


@pytest.fixture(scope="module")
def eq5_paths():
    return simulate("aes", EQ5, TimeGrid(0.25, 20), 50_000, seed=555)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_invariants():
    grid = TimeGrid(0.25, 10)
    with pytest.raises(ValueError, match="t=0 is not an exercise date"):
        ExerciseSchedule(grid, (0, 5, 10))          # t=0 excluded
    with pytest.raises(ValueError):
        ExerciseSchedule(grid, (5, 5, 10))          # strictly increasing
    with pytest.raises(ValueError):
        ExerciseSchedule(grid, (2, 5))              # maturity missing
    with pytest.raises(ValueError):
        ExerciseSchedule(grid, ())
    s = ExerciseSchedule(grid, (2, 5, 10))
    assert len(s.exercise_indices) == 3


@pytest.mark.parametrize("indices", [
    (3, 2, 6), (2, 2, 6), (2, 7), (-1, 6), (1, 2), (), (3.7, 6.0),
], ids=["unsorted", "duplicate", "past-maturity", "negative", "maturity-missing", "empty", "fraction"])
def test_schedule_and_simulate_share_one_index_rule(indices):
    grid = TimeGrid(0.25, 6)
    with pytest.raises(ValueError) as by_schedule:
        ExerciseSchedule(grid, indices)
    with pytest.raises(ValueError) as by_simulate:
        simulate("aes", EQ5, grid, 10, seed=1, columns=indices)
    assert str(by_schedule.value) == str(by_simulate.value)


def test_every_step_and_evenly_spaced():
    grid = TimeGrid(0.25, 20)
    assert ExerciseSchedule.nearest(grid, grid.steps).exercise_indices == tuple(range(1, 21))
    assert ExerciseSchedule.nearest(grid, 5).exercise_indices == (4, 8, 12, 16, 20)
    for steps in (1, 2, 3, 12, 60, 120, 750):
        indices = ExerciseSchedule.nearest(TimeGrid(0.25, steps), steps).exercise_indices
        assert indices == tuple(range(1, steps + 1))


def test_nearest_mapping_750_26():
    grid = TimeGrid(1.0, 750)
    idx = ExerciseSchedule.nearest(grid, 26).exercise_indices
    assert idx == (29, 58, 87, 115, 144, 173, 202, 231, 260, 288, 317, 346, 375,
                   404, 433, 462, 490, 519, 548, 577, 606, 635, 663, 692, 721, 750)
    assert len(set(idx)) == 26 and idx[-1] == 750


@pytest.mark.parametrize("n_dates, message", [
    (6, "cannot place more dates than grid steps"),
    (0, "n_dates must be >= 1, got 0"),
    (-3, "n_dates must be >= 1, got -3"),
    (True, "n_dates must be an integer, got True"),
    (2.5, "n_dates must be an integer, got 2.5"),
], ids=["6", "0", "-3", "bool", "fraction"])
def test_nearest_rejects_more_dates_than_steps(n_dates, message):
    with pytest.raises(ValueError, match=message):
        ExerciseSchedule.nearest(TimeGrid(1.0, 5), n_dates)


def test_nearest_takes_an_integral_date_count_as_its_int():
    grid = TimeGrid(1.0, 6)
    for n_dates in (3.0, np.int64(3), np.float64(3.0)):
        assert ExerciseSchedule.nearest(grid, n_dates) == ExerciseSchedule.nearest(grid, 3)


# ---------------------------------------------------------------------------
# features and regression
# ---------------------------------------------------------------------------

def test_build_features_heston_example():
    row = build_features(np.array([90.0]), 100.0, [np.array([0.04])])
    assert np.allclose(row, [[1.0, 0.9, 0.81, 0.04, 0.0016, 0.036]], rtol=1e-12)
    assert row.shape == (1, 6)


def test_build_features_double_heston_zero_variance():
    row = build_features(np.array([100.0]), 100.0, [np.zeros(1), np.zeros(1)])
    assert np.array_equal(row, [[1, 1, 1, 0, 0, 0, 0, 0, 0, 0]])


def test_build_features_writes_into_buffer():
    rng = np.random.default_rng(4)
    s, v1, v2 = rng.uniform(50.0, 150.0, 9), rng.uniform(0.0, 0.1, 9), rng.uniform(0.0, 0.1, 9)
    buffer = np.full((12, 10), np.nan, order="F")
    out = build_features(s, 61.9, [v1, v2], out=buffer[:9])
    assert np.shares_memory(out, buffer) and out.strides[0] == 8   # each feature column is contiguous
    fresh = build_features(s, 61.9, [v1, v2])
    assert fresh.flags.f_contiguous and out.tobytes() == fresh.tobytes()
    assert np.isnan(buffer[9:]).all()


def test_regress_intercept_only_is_mean():
    coef = regress_continuation(np.ones((2, 1)), np.array([2.0, 4.0]))
    assert coef == pytest.approx([3.0])


def test_regress_collinear_matches_reduced_design():
    rng = np.random.default_rng(0)
    s = rng.uniform(0.5, 1.5, 200)
    y = 1.0 + 2.0 * s + rng.normal(0, 0.1, 200)
    full = np.column_stack([np.ones(200), s, s])      # duplicated column
    reduced = np.column_stack([np.ones(200), s])
    fitted_full = full @ regress_continuation(full, y)
    fitted_reduced = reduced @ regress_continuation(reduced, y)
    assert np.all(np.isfinite(fitted_full))
    assert np.allclose(fitted_full, fitted_reduced, rtol=1e-10, atol=1e-12)


def test_regress_exact_reproduction_in_column_space():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 4))
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    y = X @ beta
    fitted = X @ regress_continuation(X, y)
    assert np.max(np.abs(fitted - y)) <= 1e-10 * max(1.0, np.max(np.abs(y)))


def test_regress_shape_mismatch():
    with pytest.raises(ValueError):
        regress_continuation(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        regress_continuation(np.ones((0, 2)), np.ones(0))


def test_regress_falls_back_to_lstsq_when_underdetermined_or_singular():
    rng = np.random.default_rng(2)
    wide = rng.normal(size=(3, 10))                   # fewer rows than columns
    X = rng.normal(size=(40, 10))
    duplicated = np.column_stack([X[:, :9], X[:, 8]])  # singular Gram matrix
    for design in (wide, duplicated, np.asfortranarray(duplicated)):
        y = rng.normal(size=design.shape[0])
        expected = np.linalg.lstsq(design, y, rcond=RCOND)[0]
        assert np.array_equal(regress_continuation(design, y), expected)


@pytest.mark.parametrize("rows", [500, GRAM_ROWS - 1, GRAM_ROWS, GRAM_ROWS + 1, 2 * GRAM_ROWS + 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_regress_well_conditioned_matches_lstsq(order, rows):
    # rows straddle the Gram matrix's row blocks; either memory order of the design
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(rows), rng.normal(size=(rows, 9))])
    y = X @ rng.normal(size=10) + rng.normal(0, 0.1, rows)
    X = np.asarray(X, order=order)
    expected = np.linalg.lstsq(X, y, rcond=RCOND)[0]
    assert np.allclose(regress_continuation(X, y), expected, rtol=1e-10, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_regress_single_path_is_exact(n):
    # one ITM path: minimal-norm solve still fits it exactly
    X = np.linspace(1.0, 2.0, n)[:, None]
    y = 3.0 * X[:, 0]
    fitted = X @ regress_continuation(X, y)
    assert np.allclose(fitted, y, rtol=1e-10)


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def test_european_degeneration_exact(eq5_paths):
    grid = eq5_paths.grid
    schedule = ExerciseSchedule(grid, (grid.steps,))
    payoff = PutPayoff(100.0)
    res = lsm_price(eq5_paths, payoff, schedule, EQ5.r)
    terminal_index = np.full(eq5_paths.n_paths, grid.steps)
    discounted = np.exp(-EQ5.r * grid.dt * terminal_index) * payoff(eq5_paths.asset[:, -1])
    assert res.price == discounted.mean()
    assert res.std_error == discounted.std(ddof=1) / np.sqrt(eq5_paths.n_paths)


def test_monotonicity_in_exercise_rights(eq5_paths):
    grid = eq5_paths.grid
    payoff = PutPayoff(100.0)
    nested = [
        ExerciseSchedule(grid, (grid.steps,)),
        ExerciseSchedule.nearest(grid, 5),
        ExerciseSchedule.nearest(grid, 10),
        ExerciseSchedule.nearest(grid, grid.steps),
    ]
    results = [lsm_price(eq5_paths, payoff, s, EQ5.r) for s in nested]
    for a, b in zip(results, results[1:]):
        assert b.price >= a.price - 3 * a.std_error


def test_price_bounds(eq5_paths):
    payoff = PutPayoff(100.0)
    res = lsm_price(eq5_paths, payoff, ExerciseSchedule.nearest(eq5_paths.grid, eq5_paths.grid.steps), EQ5.r)
    assert 0.0 <= res.price <= 100.0
    intrinsic = max(100.0 - EQ5.s0, 0.0)
    assert intrinsic <= res.price + 3 * res.std_error


@pytest.mark.parametrize("dates", [None, 5], ids=["every-step", "nearest-5"])
def test_price_is_the_mean_of_per_path_discounted_cashflows(eq5_paths, dates):
    # the discount table lookup equals a per-path exp(-r dt j), bit for bit
    grid = eq5_paths.grid
    schedule = ExerciseSchedule.nearest(grid, grid.steps) if dates is None else ExerciseSchedule.nearest(grid, dates)
    payoff = PutPayoff(100.0)
    cashflow, exercise_index = backward_induction(eq5_paths, payoff, schedule, EQ5.r)
    discounted = np.exp(-EQ5.r * grid.dt * exercise_index) * cashflow
    assert lsm_price(eq5_paths, payoff, schedule, EQ5.r).price == float(discounted.mean())


def test_currency_scaling_invariance(eq5_paths):
    # power-of-two currency rescale: identical exercise decisions, exact price scaling
    schedule = ExerciseSchedule.nearest(eq5_paths.grid, eq5_paths.grid.steps)
    cash1, idx1 = backward_induction(eq5_paths, PutPayoff(100.0), schedule, EQ5.r)
    scaled = replace(eq5_paths, s0=1024 * eq5_paths.s0)
    cash2, idx2 = backward_induction(scaled, PutPayoff(100.0 * 1024.0), schedule, EQ5.r)
    assert np.array_equal(idx1, idx2)
    assert np.array_equal(cash2, cash1 * 1024.0)
    res1 = lsm_price(eq5_paths, PutPayoff(100.0), schedule, EQ5.r)
    res2 = lsm_price(scaled, PutPayoff(100.0 * 1024.0), schedule, EQ5.r)
    assert res2.price == 1024.0 * res1.price


def test_determinism_identical_inputs(eq5_paths):
    schedule = ExerciseSchedule.nearest(eq5_paths.grid, eq5_paths.grid.steps)
    a = lsm_price(eq5_paths, PutPayoff(100.0), schedule, EQ5.r)
    b = lsm_price(eq5_paths, PutPayoff(100.0), schedule, EQ5.r)
    assert a.price == b.price and a.std_error == b.std_error


def test_empty_regression_dates_are_skipped(eq5_paths):
    # strike far below every simulated price: never in the money, price 0
    schedule = ExerciseSchedule.nearest(eq5_paths.grid, eq5_paths.grid.steps)
    res = lsm_price(eq5_paths, PutPayoff(1e-6), schedule, EQ5.r)
    assert res.price == 0.0


def test_path_at_the_strike_is_out_of_the_money(monkeypatch):
    # date 1: path 0 sits exactly at the strike, path 1 one ulp below it,
    # paths 2..9 deeper in the money; every path ends in the money at date 2
    grid = TimeGrid(0.5, 2)
    rng = np.random.default_rng(7)
    at_date_1 = np.concatenate([[1.0, np.nextafter(1.0, 0.0)], np.linspace(0.6, 0.95, 8)])
    growth = np.column_stack([np.ones(10), at_date_1, np.linspace(0.5, 0.9, 10)])
    variance = rng.uniform(0.01, 0.1, size=(10, 3))
    paths = PathSet(grid, 100.0, growth, variance[None])
    regressed = []

    def counting(features, target):
        regressed.append(features[:, 1].copy())   # the column s = S/K
        return regress_continuation(features, target)

    monkeypatch.setattr(lsm, "regress_continuation", counting)
    cashflow, exercise_index = backward_induction(paths, PutPayoff(100.0),
                                                  ExerciseSchedule.nearest(grid, grid.steps), 0.0)
    (s,) = regressed
    assert s.size == 9                        # path 1 and paths 2..9; not path 0
    assert s[0] == np.nextafter(1.0, 0.0)
    assert exercise_index[0] == 2 and cashflow[0] == 100.0 * (1.0 - 0.5)


def test_rank_deficient_designs_of_the_golden_table2_experiment(monkeypatch):
    # Characterizes the rank-deficient region at a pinned seed: the table2-aes
    # golden experiment (S0 in {11, 12}, 20,000 paths, 2 runs, 12 American
    # dates) regresses on 42 designs of 6 columns. Each sweep runs from date 11
    # down to date 1; at S0=12 date 1 has no in-the-money path and is skipped,
    # and date 2, the sweep's last regression, has 5 rows in both runs.
    table, name, overrides, _ = next(g for g in GOLDEN_EXPERIMENTS if g[1] == "table2-aes")
    (spec,) = [s for s in table_specs(table) if s.name == name]
    spec = replace(spec, n_paths=EXPERIMENT_PATHS, runs=EXPERIMENT_RUNS, **overrides)
    sweeps = []                                   # (spot, [(rows, columns) per design]) per price

    def pricing(paths, *args):
        sweeps.append((paths.s0, []))
        return lsm_price(paths, *args)

    def regressing(features, target):
        sweeps[-1][1].append(features.shape)
        return regress_continuation(features, target)

    monkeypatch.setattr(experiments, "lsm_price", pricing)
    monkeypatch.setattr(lsm, "regress_continuation", regressing)
    experiments.run_experiment(spec)
    assert [(spot, len(designs)) for spot, designs in sweeps] == [(11.0, 11), (12.0, 10)] * EXPERIMENT_RUNS
    assert sum(len(designs) for _, designs in sweeps) == 42
    assert {cols for _, designs in sweeps for _, cols in designs} == {6}
    deficient = [(spot, i, shape) for spot, designs in sweeps for i, shape in enumerate(designs)
                 if shape[0] < shape[1]]
    assert deficient == [(12.0, 9, (5, 6))] * EXPERIMENT_RUNS


def test_schedule_grid_mismatch_rejected(eq5_paths):
    other = ExerciseSchedule.nearest(TimeGrid(0.25, 10), 10)
    with pytest.raises(ValueError, match="grid"):
        lsm_price(eq5_paths, PutPayoff(100.0), other, EQ5.r)


@pytest.mark.parametrize("scheme", ["aes", "euler"])
@pytest.mark.parametrize("params, strike", [(EQ5, 100.0), (ZHANG, 61.9)], ids=["heston", "double-heston"])
def test_sweep_on_stored_dates_equals_full_set(scheme, params, strike):
    grid = TimeGrid(0.25, 12)
    schedule = ExerciseSchedule.nearest(grid, 4)
    full = simulate(scheme, params, grid, 5000, seed=557)
    part = simulate(scheme, params, grid, 5000, seed=557, columns=schedule.exercise_indices)
    got = backward_induction(part, PutPayoff(strike), schedule, params.r)
    want = backward_induction(full, PutPayoff(strike), schedule, params.r)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert (got[1] < grid.steps).any()   # some paths exercise early


def test_sweep_refuses_a_date_not_stored():
    grid = TimeGrid(0.25, 12)
    paths = simulate("aes", EQ5, grid, 200, seed=558, columns=(3, 6, 9, 12))
    with pytest.raises(ValueError, match="grid index 4 is not stored"):
        lsm_price(paths, PutPayoff(100.0), ExerciseSchedule(grid, (4, 12)), EQ5.r)


def test_double_heston_pricing_and_basis_toggle():
    paths = simulate("aes", ZHANG, TimeGrid(0.25, 6), 20_000, seed=556)
    schedule = ExerciseSchedule.nearest(paths.grid, paths.grid.steps)
    full = lsm_price(paths, PutPayoff(61.9), schedule, ZHANG.r)
    assert 0.0 < full.price < 61.9
