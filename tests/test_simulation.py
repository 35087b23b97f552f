import math
from dataclasses import replace

import numpy as np
import pytest

from aesmc.models import ParameterError, preset
from aesmc.sampling import RngStream
from aesmc.simulation import (
    cir_conditional_moments,
    cir_exact_step,
    cir_transition_params,
    dump_paths_csv,
    log_price_constants,
    simulate,
    truncated_euler_variance_step,
    PathSet,
    TimeGrid,
)
from conftest import ncx2_moment_se

EQ4 = preset("feller-holding").params
EQ5 = preset("feller-violating").params
ZHANG = preset("double-heston-zhang").params

pytestmark = pytest.mark.filterwarnings("ignore::aesmc.models.FellerWarning")


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------

def test_time_grid_dt_times_steps_is_maturity():
    for steps in (1, 3, 12, 26, 750):
        grid = TimeGrid(0.25, steps)
        assert abs(grid.dt * steps - 0.25) <= 2 * math.ulp(0.25)
        assert grid.times()[0] == 0.0
        assert grid.times().size == steps + 1


def test_time_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 5)


# ---------------------------------------------------------------------------
# CIR transition: frozen high-precision oracle values
# ---------------------------------------------------------------------------

def test_cir_transition_eq5_frozen_values():
    t = cir_transition_params(kappa=1.15, gamma=0.39, nu_bar=0.0348, dt=0.0125, v_current=0.0348)
    assert t.dof == pytest.approx(2668 / 2535, rel=1e-15)          # 1.052465483234714
    assert t.c_bar == pytest.approx(4.7191250255797883e-04, rel=1e-13)
    assert t.kappa_bar == pytest.approx(72.690018158051093, rel=1e-12)


def test_cir_transition_eq4_dof_exact_rational():
    t = cir_transition_params(kappa=5.0, gamma=0.9, nu_bar=0.16, dt=0.25 / 12, v_current=0.0625)
    assert t.dof == pytest.approx(320 / 81, rel=1e-15)             # 3.9506172839506173


def test_cir_transition_zero_variance_gives_central():
    t = cir_transition_params(kappa=1.15, gamma=0.39, nu_bar=0.0348, dt=0.0125, v_current=0.0)
    assert t.kappa_bar == 0.0


def test_cir_transition_rejects_bad_dt():
    with pytest.raises(ValueError):
        cir_transition_params(1.0, 0.5, 0.1, 0.0, 0.05)
    with pytest.raises(ValueError):
        cir_transition_params(1.0, 0.5, 0.1, -0.1, 0.05)


def test_cir_exact_step_nonnegative_and_mean():
    n = 200_000
    t = cir_transition_params(1.15, 0.39, 0.0348, 0.0125, np.full(n, 0.0348))
    draws = cir_exact_step(RngStream(101, 0), t)
    assert draws.min() >= 0.0
    expected = t.c_bar * (t.dof + 72.690018158051093)
    se_mean, _ = ncx2_moment_se(t.dof, 72.690018158051093, n)
    assert abs(draws.mean() - expected) < 3 * t.c_bar * se_mean


def test_cir_giant_step_matches_closed_form_moments():
    n = 200_000
    t = cir_transition_params(1.15, 0.39, 0.0348, 0.25, np.full(n, 0.0348))
    draws = cir_exact_step(RngStream(102, 0), t)
    mean, var = cir_conditional_moments(1.15, 0.39, 0.0348, 0.25, 0.0348)
    kbar = float(np.asarray(t.kappa_bar)[0])
    se_mean, se_var = ncx2_moment_se(t.dof, kbar, n)
    assert abs(draws.mean() - mean) < 3 * t.c_bar * se_mean
    assert abs(draws.var(ddof=1) - var) < 3 * t.c_bar**2 * se_var


def test_cir_marginal_independent_of_step_count():
    # exact transition composes: M=1 and M=100 to the same horizon agree
    n = 100_000
    one = simulate("aes", EQ5, TimeGrid(0.25, 1), n, seed=103)
    many = simulate("aes", EQ5, TimeGrid(0.25, 100), n, seed=104)
    mean, var = cir_conditional_moments(1.15, 0.39, 0.0348, 0.25, 0.0348)
    t = cir_transition_params(1.15, 0.39, 0.0348, 0.25, 0.0348)
    se_mean, se_var = ncx2_moment_se(t.dof, t.kappa_bar, n)
    for paths in (one, many):
        v_T = paths.variance_1[:, -1]
        assert abs(v_T.mean() - mean) < 3 * t.c_bar * se_mean
        assert abs(v_T.var(ddof=1) - var) < 3 * t.c_bar**2 * se_var


# ---------------------------------------------------------------------------
# log-price constants
# ---------------------------------------------------------------------------

def test_heston_constants_eq5():
    _, _, (c2,), _ = log_price_constants(EQ5.r, EQ5.factors(), dt=0.0125)
    assert c2 == -0.64 / 0.39                                      # -1.641026


def test_heston_constants_rho_zero_reduction():
    params = replace(preset("feller-holding").params, rho=0.0)
    dt = 0.02
    c0, (c1,), (c2,), (c3,) = log_price_constants(params.r, params.factors(), dt)
    assert c0 == params.r * dt
    assert c1 == -0.5 * dt
    assert c2 == 0.0
    assert c3 == dt


def test_double_heston_constants_zhang():
    _, _, c2, c3 = log_price_constants(ZHANG.r, ZHANG.factors(), dt=0.25 / 12)
    assert c2[0] == -0.5 / 0.1   # -5.0
    assert c2[1] == -0.5 / 0.2   # -2.5
    assert c3[0] == (1 - 0.25) * (0.25 / 12)
    assert c3[1] == (1 - 0.25) * (0.25 / 12)


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme,params,fields", [
    ("aes", EQ5, 2),
    ("euler", EQ5, 2),
    ("aes", ZHANG, 3),
    ("euler", ZHANG, 3),
])
def test_initial_columns_exact(scheme, params, fields):
    paths = simulate(scheme, params, TimeGrid(0.25, 6), 500, seed=1)
    assert np.all(paths.asset[:, 0] == params.s0)
    if fields == 2:
        assert np.all(paths.variance_1[:, 0] == params.v0)
        assert paths.variance_2 is None
    else:
        assert np.all(paths.variance_1[:, 0] == params.v0_1)
        assert np.all(paths.variance_2[:, 0] == params.v0_2)
    assert paths.n_fields == fields


def test_aes_paths_nonnegative_variance_positive_asset():
    paths = simulate("aes", EQ5, TimeGrid(0.25, 20), 20_000, seed=2)
    assert paths.variance_1.min() >= 0.0
    assert paths.asset.min() > 0.0
    dh = simulate("aes", ZHANG, TimeGrid(0.25, 12), 10_000, seed=3)
    assert dh.variance_1.min() >= 0.0 and dh.variance_2.min() >= 0.0
    assert dh.asset.min() > 0.0


def test_truncated_euler_zero_variance_boundary():
    dt = 0.02
    out = truncated_euler_variance_step(0.0, 5.0, 0.16, 0.9, dt, z=1.7)
    assert out == 5.0 * 0.16 * dt                   # diffusion term vanishes at v=0


def test_truncated_euler_clips_negative_update():
    out = truncated_euler_variance_step(0.01, 1.0, 0.02, 0.9, 0.05, z=-5.0)
    assert out == 0.0


def test_euler_variance_stays_nonnegative():
    paths = simulate("euler", EQ5, TimeGrid(0.25, 40), 20_000, seed=4)
    assert paths.variance_1.min() >= 0.0


def test_determinism_same_args_same_bits():
    a = simulate("aes", EQ5, TimeGrid(0.25, 8), 10_000, seed=9)
    b = simulate("aes", EQ5, TimeGrid(0.25, 8), 10_000, seed=9)
    assert np.array_equal(a.asset, b.asset)
    assert np.array_equal(a.variance_1, b.variance_1)


def test_determinism_across_worker_counts():
    # spans two 65536-path blocks so the pool actually distributes work
    n = 70_000
    seq = simulate("aes", EQ5, TimeGrid(0.25, 4), n, seed=10, n_workers=1)
    par = simulate("aes", EQ5, TimeGrid(0.25, 4), n, seed=10, n_workers=2)
    assert np.array_equal(seq.asset, par.asset)
    assert np.array_equal(seq.variance_1, par.variance_1)


def test_seed_changes_paths():
    a = simulate("aes", EQ5, TimeGrid(0.25, 4), 1000, seed=1)
    b = simulate("aes", EQ5, TimeGrid(0.25, 4), 1000, seed=2)
    assert not np.array_equal(a.asset, b.asset)


def test_simulate_dispatch_and_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        simulate("milstein", EQ5, TimeGrid(0.25, 4), 100, 0)
    with pytest.raises(ValueError):
        simulate("aes", EQ5, TimeGrid(0.25, 4), 0, 0)
    with pytest.raises(ParameterError):
        simulate("aes", replace(EQ5, gamma=-1.0), TimeGrid(0.25, 4), 100, 0)


def test_memory_proxy_matches_allocation_model():
    paths = simulate("aes", EQ5, TimeGrid(0.25, 20), 1234, seed=5)
    assert paths.memory_bytes == 8 * 1234 * 21 * 2
    assert paths.memory_bytes == paths.asset.nbytes + paths.variance_1.nbytes
    dh = simulate("aes", ZHANG, TimeGrid(0.25, 12), 777, seed=5)
    assert dh.memory_bytes == 8 * 777 * 13 * 3


def test_double_heston_degenerate_factor_matches_heston():
    # factor 2 squeezed to ~zero variance: prices collapse to one-factor Heston
    from aesmc.lsm import ExerciseSchedule, lsm_price
    from aesmc.models import DoubleHestonParams, HestonParams, PutPayoff

    degenerate = DoubleHestonParams(
        s0=100.0, r=0.04,
        v0_1=0.0348, kappa_1=1.15, nu_bar_1=0.0348, gamma_1=0.39,
        v0_2=1e-12, kappa_2=1.0, nu_bar_2=1e-12, gamma_2=1e-6,
        rho_13=-0.64, rho_24=0.0,
    )
    single = HestonParams(s0=100.0, v0=0.0348, r=0.04, kappa=1.15,
                          nu_bar=0.0348, gamma=0.39, rho=-0.64)
    n = 200_000
    grid = TimeGrid(0.25, 6)
    schedule = ExerciseSchedule(grid, (grid.steps,))
    payoff = PutPayoff(100.0)
    dh = lsm_price(simulate("aes", degenerate, grid, n, seed=71), payoff, schedule, 0.04)
    h = lsm_price(simulate("aes", single, grid, n, seed=72), payoff, schedule, 0.04)
    assert abs(dh.price - h.price) < 3 * math.hypot(dh.std_error, h.std_error)


def test_martingale_smoke():
    n = 200_000
    paths = simulate("aes", EQ5, TimeGrid(0.25, 12), n, seed=6)
    s_T = paths.asset[:, -1]
    disc = math.exp(-EQ5.r * 0.25)
    dev = abs(disc * s_T.mean() - EQ5.s0)
    assert dev < 3 * disc * s_T.std(ddof=1) / math.sqrt(n) + 0.005 * EQ5.s0


def test_dump_paths_csv_heston(tmp_path):
    paths = simulate("aes", EQ5, TimeGrid(0.25, 4), 3, seed=7)
    out = tmp_path / "paths.csv"
    dump_paths_csv(paths, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,step,asset,var1"
    assert len(lines) == 1 + 3 * 5


def test_dump_paths_csv_double_heston(tmp_path):
    paths = simulate("aes", ZHANG, TimeGrid(0.25, 3), 2, seed=8)
    out = tmp_path / "paths.csv"
    dump_paths_csv(paths, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,step,asset,var1,var2"
    assert len(lines) == 1 + 2 * 4
