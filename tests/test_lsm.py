import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesmc.lsm import (
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
    with pytest.raises(ValueError):
        ExerciseSchedule(grid, (0, 5, 10))          # t=0 excluded
    with pytest.raises(ValueError):
        ExerciseSchedule(grid, (5, 5, 10))          # strictly increasing
    with pytest.raises(ValueError):
        ExerciseSchedule(grid, (2, 5))              # maturity missing
    with pytest.raises(ValueError):
        ExerciseSchedule(grid, ())
    s = ExerciseSchedule(grid, (2, 5, 10))
    assert s.n_dates == 3
    assert np.allclose(s.times(), [0.05, 0.125, 0.25])


def test_every_step_and_evenly_spaced():
    grid = TimeGrid(0.25, 20)
    assert ExerciseSchedule.every_step(grid).exercise_indices == tuple(range(1, 21))
    assert ExerciseSchedule.evenly_spaced(grid, 5).exercise_indices == (4, 8, 12, 16, 20)
    with pytest.raises(ValueError, match="divisible"):
        ExerciseSchedule.evenly_spaced(grid, 3)


def test_nearest_mapping_750_26():
    grid = TimeGrid(1.0, 750)
    idx = ExerciseSchedule.nearest(grid, 26).exercise_indices
    assert idx == (29, 58, 87, 115, 144, 173, 202, 231, 260, 288, 317, 346, 375,
                   404, 433, 462, 490, 519, 548, 577, 606, 635, 663, 692, 721, 750)
    assert len(set(idx)) == 26 and idx[-1] == 750


def test_nearest_rejects_more_dates_than_steps():
    with pytest.raises(ValueError):
        ExerciseSchedule.nearest(TimeGrid(1.0, 5), 6)


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
        ExerciseSchedule.evenly_spaced(grid, 5),
        ExerciseSchedule.evenly_spaced(grid, 10),
        ExerciseSchedule.every_step(grid),
    ]
    results = [lsm_price(eq5_paths, payoff, s, EQ5.r) for s in nested]
    for a, b in zip(results, results[1:]):
        assert b.price >= a.price - 3 * a.std_error


def test_price_bounds(eq5_paths):
    payoff = PutPayoff(100.0)
    res = lsm_price(eq5_paths, payoff, ExerciseSchedule.every_step(eq5_paths.grid), EQ5.r)
    assert 0.0 <= res.price <= 100.0
    intrinsic = max(100.0 - EQ5.s0, 0.0)
    assert intrinsic <= res.price + 3 * res.std_error


def test_currency_scaling_invariance(eq5_paths):
    # power-of-two currency rescale: identical exercise decisions, exact price scaling
    schedule = ExerciseSchedule.every_step(eq5_paths.grid)
    cash1, idx1 = backward_induction(eq5_paths, PutPayoff(100.0), schedule, EQ5.r)
    scaled = PathSet(grid=eq5_paths.grid, asset=eq5_paths.asset * 1024.0,
                     variance_1=eq5_paths.variance_1)
    cash2, idx2 = backward_induction(scaled, PutPayoff(100.0 * 1024.0), schedule, EQ5.r)
    assert np.array_equal(idx1, idx2)
    assert np.array_equal(cash2, cash1 * 1024.0)
    res1 = lsm_price(eq5_paths, PutPayoff(100.0), schedule, EQ5.r)
    res2 = lsm_price(scaled, PutPayoff(100.0 * 1024.0), schedule, EQ5.r)
    assert res2.price == 1024.0 * res1.price


def test_determinism_identical_inputs(eq5_paths):
    schedule = ExerciseSchedule.every_step(eq5_paths.grid)
    a = lsm_price(eq5_paths, PutPayoff(100.0), schedule, EQ5.r)
    b = lsm_price(eq5_paths, PutPayoff(100.0), schedule, EQ5.r)
    assert a.price == b.price and a.std_error == b.std_error


def test_empty_regression_dates_are_skipped(eq5_paths):
    # strike far below every simulated price: never in the money, price 0
    schedule = ExerciseSchedule.every_step(eq5_paths.grid)
    res = lsm_price(eq5_paths, PutPayoff(1e-6), schedule, EQ5.r)
    assert res.price == 0.0


def test_result_metadata(eq5_paths):
    res = lsm_price(eq5_paths, PutPayoff(100.0), ExerciseSchedule.every_step(eq5_paths.grid), EQ5.r)
    assert res.n_paths == eq5_paths.n_paths
    assert res.n_steps == eq5_paths.grid.steps
    assert res.memory_bytes == eq5_paths.memory_bytes
    assert res.elapsed_seconds > 0.0


def test_schedule_grid_mismatch_rejected(eq5_paths):
    other = ExerciseSchedule.every_step(TimeGrid(0.25, 10))
    with pytest.raises(ValueError, match="grid"):
        lsm_price(eq5_paths, PutPayoff(100.0), other, EQ5.r)


def test_double_heston_pricing_and_basis_toggle():
    paths = simulate("aes", ZHANG, TimeGrid(0.25, 6), 20_000, seed=556)
    schedule = ExerciseSchedule.every_step(paths.grid)
    full = lsm_price(paths, PutPayoff(61.9), schedule, ZHANG.r)
    assert 0.0 < full.price < 61.9
