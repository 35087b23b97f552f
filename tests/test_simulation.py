import math
import signal
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from aesmc import simulation
from aesmc.models import ParameterError, preset, VarianceFactor
from aesmc.sampling import rng_stream, sample_standard_normal
from aesmc.simulation import (
    _BLOCK_KERNELS,
    BLOCK_SIZE,
    cir_exact_step,
    cir_transition_params,
    log_price_constants,
    PathSet,
    simulate,
    truncated_euler_variance_step,
    TimeGrid,
)
from conftest import cir_conditional_moments, ncx2_moment_se

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


def test_time_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 5)
    for maturity in (True, "0.25", None):
        with pytest.raises(ValueError, match=f"maturity must be a number, got {maturity!r}"):
            TimeGrid(maturity, 5)
    for steps in (2.5, 0.5, True, False, float("nan"), "4"):
        with pytest.raises(ValueError, match=f"steps must be a positive integer, got {steps!r}"):
            TimeGrid(0.25, steps)
    for steps in (2.0, np.int64(2), np.float64(2.0)):
        grid = TimeGrid(0.25, steps)
        assert type(grid.steps) is int and grid == TimeGrid(0.25, 2) and grid.dt == 0.125
    paths = simulate("aes", EQ5, TimeGrid(0.25, 2.0), 10, seed=1)
    assert paths.growth.tobytes() == simulate("aes", EQ5, TimeGrid(0.25, 2), 10, seed=1).growth.tobytes()


# ---------------------------------------------------------------------------
# CIR transition: frozen high-precision oracle values
# ---------------------------------------------------------------------------

def test_cir_transition_eq5_frozen_values():
    c_bar, kappa_bar, dof = cir_transition_params(EQ5.factors()[0], dt=0.0125, v_current=0.0348)
    assert dof == pytest.approx(2668 / 2535, rel=1e-15)            # 1.052465483234714
    assert c_bar == pytest.approx(4.7191250255797883e-04, rel=1e-13)
    assert kappa_bar == pytest.approx(72.690018158051093, rel=1e-12)


def test_cir_transition_eq4_dof_exact_rational():
    _, _, dof = cir_transition_params(EQ4.factors()[0], dt=0.25 / 12, v_current=0.0625)
    assert dof == pytest.approx(320 / 81, rel=1e-15)               # 3.9506172839506173


def test_cir_transition_zero_variance_gives_central():
    _, kappa_bar, _ = cir_transition_params(EQ5.factors()[0], dt=0.0125, v_current=0.0)
    assert kappa_bar == 0.0


def test_cir_transition_rejects_bad_dt():
    factor = VarianceFactor(kappa=1.0, nu_bar=0.1, gamma=0.5, v0=0.05, rho=0.0)  # v0 and rho unused
    with pytest.raises(ValueError):
        cir_transition_params(factor, 0.0, 0.05)
    with pytest.raises(ValueError):
        cir_transition_params(factor, -0.1, 0.05)


def test_cir_exact_step_nonnegative_and_mean():
    n = 200_000
    v = np.full(n, 0.0348)
    c_bar, _, dof = cir_transition_params(EQ5.factors()[0], 0.0125, v)
    draws = cir_exact_step(rng_stream(101, 0), EQ5.factors()[0], 0.0125, v)
    assert draws.min() >= 0.0
    expected = c_bar * (dof + 72.690018158051093)
    se_mean, _ = ncx2_moment_se(dof, 72.690018158051093, n)
    assert abs(draws.mean() - expected) < 3 * c_bar * se_mean


def test_cir_giant_step_matches_closed_form_moments():
    n = 200_000
    v = np.full(n, 0.0348)
    c_bar, kappa_bar, dof = cir_transition_params(EQ5.factors()[0], 0.25, v)
    draws = cir_exact_step(rng_stream(102, 0), EQ5.factors()[0], 0.25, v)
    mean, var = cir_conditional_moments(1.15, 0.39, 0.0348, 0.25, 0.0348)
    kbar = float(np.asarray(kappa_bar)[0])
    se_mean, se_var = ncx2_moment_se(dof, kbar, n)
    assert abs(draws.mean() - mean) < 3 * c_bar * se_mean
    assert abs(draws.var(ddof=1) - var) < 3 * c_bar**2 * se_var


def test_cir_marginal_independent_of_step_count():
    # exact transition composes: M=1 and M=100 to the same horizon agree
    n = 100_000
    one = simulate("aes", EQ5, TimeGrid(0.25, 1), n, seed=103)
    many = simulate("aes", EQ5, TimeGrid(0.25, 100), n, seed=104)
    mean, var = cir_conditional_moments(1.15, 0.39, 0.0348, 0.25, 0.0348)
    c_bar, kappa_bar, dof = cir_transition_params(EQ5.factors()[0], 0.25, 0.0348)
    se_mean, se_var = ncx2_moment_se(dof, kappa_bar, n)
    for paths in (one, many):
        v_T = paths.variances[0, :, -1]
        assert abs(v_T.mean() - mean) < 3 * c_bar * se_mean
        assert abs(v_T.var(ddof=1) - var) < 3 * c_bar**2 * se_var


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


@pytest.mark.parametrize("name", ["feller-holding", "feller-violating", "double-heston-zhang"])
def test_aes_diffusion_term_is_one_normal_of_the_summed_variance(name):
    # given both variance columns, the log-price residual of one AES step is
    # N(0, sum_j c3_j v0_j): every factor's term, at the left-point variance
    p = preset(name)
    grid = TimeGrid(p.maturity, 1)
    paths = simulate("aes", p.params, grid, 20_000, seed=11)
    c0, c1, c2, c3 = log_price_constants(p.params.r, p.params.factors(), grid.dt)
    v0, v1 = paths.variances[:, :, 0], paths.variances[:, :, 1]
    residual = np.log(paths.growth[:, 1]) - c0 - np.dot(c1, v0) - np.dot(c2, v1)
    var = float(np.dot(c3, v0[:, 0]))
    assert stats.kstest(residual, "norm", args=(0.0, math.sqrt(var))).pvalue > 0.01
    assert abs(residual.var(ddof=1) - var) <= 3 * var * math.sqrt(2 / (residual.size - 1))


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
    assert np.all(paths.growth[:, 0] == 1.0)
    assert np.all(paths.asset[:, 0] == params.s0)
    if fields == 2:
        assert np.all(paths.variances[0, :, 0] == params.v0)
    else:
        assert np.all(paths.variances[0, :, 0] == params.v0_1)
        assert np.all(paths.variances[1, :, 0] == params.v0_2)
    assert 1 + len(paths.variances) == fields


def test_aes_paths_nonnegative_variance_positive_asset():
    paths = simulate("aes", EQ5, TimeGrid(0.25, 20), 20_000, seed=2)
    assert paths.variances.min() >= 0.0
    assert paths.asset.min() > 0.0
    dh = simulate("aes", ZHANG, TimeGrid(0.25, 12), 10_000, seed=3)
    assert dh.variances[0].min() >= 0.0 and dh.variances[1].min() >= 0.0
    assert dh.asset.min() > 0.0


def test_truncated_euler_zero_variance_boundary():
    dt = 0.02
    out = truncated_euler_variance_step(0.0, EQ4.factors()[0], dt, z=1.7, root=0.0)
    assert out == 5.0 * 0.16 * dt                   # diffusion term vanishes at v=0


def test_truncated_euler_clips_negative_update():
    factor = VarianceFactor(kappa=1.0, nu_bar=0.02, gamma=0.9, v0=0.01, rho=0.0)  # v0 and rho unused
    out = truncated_euler_variance_step(0.01, factor, 0.05, z=-5.0, root=math.sqrt(0.01 * 0.05))
    assert out == 0.0


def test_truncated_euler_with_shared_root_is_the_one_line_update():
    # the update that computed sqrt(v dt) itself, kept here as the reference
    def reference(v, kappa, nu_bar, gamma, dt, z):
        return np.maximum(v + kappa * (nu_bar - v) * dt + gamma * np.sqrt(v * dt) * z, 0.0)

    stream = rng_stream(13)
    v = np.abs(sample_standard_normal(stream, size=1000)) * 0.05
    v[::7] = 0.0
    z = sample_standard_normal(stream, size=1000)
    z[::5] = -8.0                                   # updates the positive part clips to 0
    got = truncated_euler_variance_step(v, EQ5.factors()[0], 0.0125, z, root=np.sqrt(v * 0.0125))
    want = reference(v, 1.15, 0.0348, 0.39, 0.0125, z)
    assert (v == 0.0).any() and (want == 0.0).any()
    assert np.array_equal(got, want)


def test_euler_variance_stays_nonnegative():
    paths = simulate("euler", EQ5, TimeGrid(0.25, 40), 20_000, seed=4)
    assert paths.variances.min() >= 0.0


@pytest.mark.parametrize("scheme", ["aes", "euler"])
@pytest.mark.parametrize("params", [EQ5, ZHANG], ids=["heston", "double-heston"])
def test_paths_are_spot_free(scheme, params):
    grid = TimeGrid(0.25, 6)
    a = simulate(scheme, params, grid, 700, seed=13)
    b = simulate(scheme, replace(params, s0=0.37 * params.s0), grid, 700, seed=13)
    assert a.s0 == params.s0 and b.s0 == 0.37 * params.s0
    for x, y in zip((a.growth, *a.variances), (b.growth, *b.variances)):
        assert x.tobytes() == y.tobytes()


def test_determinism_same_args_same_bits():
    a = simulate("aes", EQ5, TimeGrid(0.25, 8), 10_000, seed=9)
    b = simulate("aes", EQ5, TimeGrid(0.25, 8), 10_000, seed=9)
    assert np.array_equal(a.asset, b.asset)
    assert np.array_equal(a.variances, b.variances)


def test_full_block_independent_of_path_count():
    # block 0 draws from the stream keyed (seed, 0) whatever follows it
    longer = simulate("aes", EQ5, TimeGrid(0.25, 4), 70_000, seed=10)
    one_block = simulate("aes", EQ5, TimeGrid(0.25, 4), BLOCK_SIZE, seed=10)
    assert np.array_equal(longer.asset[:BLOCK_SIZE], one_block.asset)
    assert np.array_equal(longer.variances[0, :BLOCK_SIZE], one_block.variances[0])


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


def test_simulate_refuses_a_non_integral_path_count():
    grid = TimeGrid(0.25, 4)
    for n_paths in (2.7, 0.5, 100.5, True, False, float("inf")):
        with pytest.raises(ValueError, match=f"n_paths must be a positive integer, got {n_paths}"):
            simulate("aes", EQ5, grid, n_paths, 0)
    expected = simulate("aes", EQ5, grid, 100, seed=7)
    for n_paths in (100.0, np.int64(100), np.float64(100.0)):
        paths = simulate("aes", EQ5, grid, n_paths, seed=7)
        assert paths.growth.tobytes() == expected.growth.tobytes()
        assert paths.variances.tobytes() == expected.variances.tobytes()


@pytest.mark.parametrize("seed", [1.5, True, math.nan, math.inf])
def test_simulate_refuses_a_non_integral_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
        simulate("aes", EQ5, TimeGrid(0.25, 4), 100, seed)
    expected = simulate("euler", EQ5, TimeGrid(0.25, 4), 100, seed=1)
    assert simulate("euler", EQ5, TimeGrid(0.25, 4), 100, seed=1.0).growth.tobytes() == expected.growth.tobytes()


SMALL_GAMMA_REFUSAL = (r"poisson rate above 1e\+09: the CIR noncentrality is out of "
                       r"range; it grows like 1/gamma\^2 as the vol-of-vol")


def test_small_vol_of_vol_is_refused_naming_the_noncentrality():
    # valid parameters, but the CIR noncentrality grows like 1/gamma^2
    with pytest.raises(ValueError, match=SMALL_GAMMA_REFUSAL):
        simulate("aes", replace(preset("feller-holding").params, gamma=1e-4), TimeGrid(0.25, 20), 1000, 3)


@pytest.mark.parametrize("n_paths", [1000, 2 * BLOCK_SIZE + 37], ids=["one-block", "three-blocks"])
def test_a_failed_draw_surfaces_and_leaves_no_thread_behind(n_paths):
    # the refusal is raised in the stream stage, on every block's thread
    before = threading.active_count()
    with pytest.raises(ValueError, match=SMALL_GAMMA_REFUSAL):
        simulate("aes", replace(EQ4, gamma=1e-4), TimeGrid(0.25, 20), n_paths, 3)
    assert threading.active_count() == before


@pytest.mark.parametrize("scheme", ["aes", "euler"])
@pytest.mark.parametrize("n_paths", [1000, 2 * BLOCK_SIZE + 37], ids=["one-block", "three-blocks"])
def test_a_failed_state_update_surfaces_and_leaves_no_thread_behind(monkeypatch, scheme, n_paths):
    store = simulation._store

    def failing_store(k, *args):
        if k == 2:  # on Euler's state-stage helper thread, or on the AES block's thread
            raise RuntimeError(f"store failed at grid index {k}")
        store(k, *args)

    monkeypatch.setattr(simulation, "_store", failing_store)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="store failed at grid index 2"):
        simulate(scheme, ZHANG, TimeGrid(0.25, 5), n_paths, 3)
    assert threading.active_count() == before


class _Interrupted(Exception):
    pass


@pytest.mark.parametrize("n_paths", [1000, 2 * BLOCK_SIZE + 37], ids=["one-block", "three-blocks"])
def test_an_interrupted_simulate_surfaces_and_leaves_no_thread_behind(monkeypatch, n_paths):
    # a signal (Ctrl-C, say) that lands while simulate waits on an Euler
    # state update must come out of simulate, and only once every thread
    # simulate started has ended
    release = threading.Event()
    store = simulation._store

    def blocking_store(k, *args):
        if k == 2:  # on the state stage's helper thread
            release.wait(timeout=30)
        store(k, *args)

    def interrupt(signum, frame):
        release.set()
        raise _Interrupted

    monkeypatch.setattr(simulation, "_store", blocking_store)
    before = threading.active_count()
    previous = signal.signal(signal.SIGUSR1, interrupt)
    timer = threading.Timer(0.5, signal.pthread_kill, (threading.get_ident(), signal.SIGUSR1))
    try:
        timer.start()
        with pytest.raises(_Interrupted):
            simulate("euler", ZHANG, TimeGrid(0.25, 5), n_paths, 3)
    finally:
        timer.join()
        signal.signal(signal.SIGUSR1, previous)
        release.set()
    assert threading.active_count() == before


@pytest.mark.parametrize("scheme", ["aes", "euler"])
@pytest.mark.parametrize("params", [EQ5, ZHANG], ids=["heston", "double-heston"])
def test_one_block_draws_on_the_calling_thread(monkeypatch, scheme, params):
    # a tracer that wraps these calls keeps one span stack, so they must run
    # on the thread that called simulate
    threads = []
    for name in ("cir_transition_params", "cir_exact_step", "sample_noncentral_chisq", "sample_standard_normal"):
        def record(*args, fn=getattr(simulation, name), **kwargs):
            threads.append(threading.get_ident())
            return fn(*args, **kwargs)
        monkeypatch.setattr(simulation, name, record)
    simulate(scheme, params, TimeGrid(0.25, 6), BLOCK_SIZE, seed=4)
    factors = len(params.factors())
    # AES: three CIR calls per factor, then one log-price normal; Euler: two normals per factor
    draws_per_step = factors * 3 + 1 if scheme == "aes" else factors * 2
    assert threads == [threading.get_ident()] * 6 * draws_per_step


def test_small_vol_of_vol_inside_the_bound_follows_the_mean():
    # at gamma = 1e-3 the Poisson rate stays below its bound, and the variance
    # is all but deterministic: v(t) = nu_bar + (v0 - nu_bar) e^{-kappa t}
    grid = TimeGrid(0.25, 20)
    paths = simulate("aes", replace(EQ4, gamma=1e-3), grid, 1000, 3)
    (v,) = paths.variances
    assert np.all(np.isfinite(v)) and np.all(v >= 0.0) and np.all(np.isfinite(paths.growth))
    t = np.arange(grid.steps + 1) * grid.dt
    mean = EQ4.nu_bar + (EQ4.v0 - EQ4.nu_bar) * np.exp(-EQ4.kappa * t)
    assert np.allclose(v, mean, rtol=1e-2)


def test_path_set_refuses_variances_not_shaped_factor_path_column():
    grid = TimeGrid(0.25, 2)
    growth = np.ones((5, 3), order="F")
    with pytest.raises(ValueError, match=r"variances must have shape \(factors, \*growth.shape\) with "
                                         r"growth \(5, 3\), got \(5, 3\)"):
        PathSet(grid, 100.0, growth, np.ones((5, 3)))
    assert len(PathSet(grid, 100.0, growth, np.ones((2, 5, 3))).variances) == 2


def test_memory_proxy_matches_allocation_model():
    paths = simulate("aes", EQ5, TimeGrid(0.25, 20), 1234, seed=5)
    assert paths.memory_bytes == 8 * 1234 * 21 * 2
    assert paths.memory_bytes == paths.asset.nbytes + paths.variances.nbytes
    dh = simulate("aes", ZHANG, TimeGrid(0.25, 12), 777, seed=5)
    assert dh.memory_bytes == 8 * 777 * 13 * 3


# ---------------------------------------------------------------------------
# stored columns
# ---------------------------------------------------------------------------

# two blocks, the second one partial
TWO_BLOCK_PATHS = BLOCK_SIZE + 37


@pytest.mark.parametrize("scheme", ["aes", "euler"])
@pytest.mark.parametrize("params", [EQ5, ZHANG], ids=["heston", "double-heston"])
def test_stored_columns_equal_full_set_columns(scheme, params):
    grid = TimeGrid(0.25, 5)
    full = simulate(scheme, params, grid, TWO_BLOCK_PATHS, seed=17)
    assert full.columns == (0, 1, 2, 3, 4, 5)
    for columns in [(0, 2, 5), (1, 4, 5), (5,)]:
        part = simulate(scheme, params, grid, TWO_BLOCK_PATHS, seed=17, columns=columns)
        assert part.columns == columns
        for x, y in zip((part.growth, *part.variances), (full.growth, *full.variances)):
            assert x.shape == (TWO_BLOCK_PATHS, len(columns)) and x.flags.f_contiguous
            assert x.tobytes(order="F") == y[:, list(columns)].tobytes(order="F")
        # the allocation model counts every grid index, whatever is stored
        assert part.memory_bytes == full.memory_bytes


@pytest.mark.parametrize("scheme", ["aes", "euler"])
@pytest.mark.parametrize("params", [EQ5, ZHANG], ids=["heston", "double-heston"])
def test_blocks_fill_in_any_order(scheme, params):
    # block b draws only from the stream keyed (seed, b) and writes only its
    # own rows, so filling the blocks last to first, one at a time, gives the
    # bytes of simulate's threaded blocks; the columns skip stores at steps
    # 1 and 3, so each block's lagged state stage must still advance there
    grid, n_paths, columns = TimeGrid(0.25, 5), 2 * BLOCK_SIZE + 37, (2, 4, 5)
    full = simulate(scheme, params, grid, n_paths, seed=23, columns=columns)
    growth = np.empty((n_paths, len(columns)), order="F")
    variances = tuple(np.empty_like(growth) for _ in params.factors())
    for block_id in reversed(range(3)):
        rows = slice(block_id * BLOCK_SIZE, (block_id + 1) * BLOCK_SIZE)
        _BLOCK_KERNELS[scheme](params, grid, rng_stream(23, block_id), growth[rows],
                               tuple(var[rows] for var in variances), full.positions)
    for x, y in zip((growth, *variances), (full.growth, *full.variances)):
        assert x.tobytes(order="F") == y.tobytes(order="F")
    every = simulate(scheme, params, grid, n_paths, seed=23)
    for x, y in zip((growth, *variances), (every.growth, *every.variances)):
        assert x.tobytes(order="F") == y[:, list(columns)].tobytes(order="F")


def test_more_block_threads_than_cores_fill_every_block_once(monkeypatch):
    # 23 small blocks on 5 block threads, each Euler block with its
    # state-stage helper, switching threads every microsecond: a block taken
    # twice or never, or a state update run out of step, changes the bytes;
    # a lost handoff hangs
    n_paths, blocks, switch = 1000, 23, sys.getswitchinterval()
    monkeypatch.setattr(simulation, "BLOCK_SIZE", -(-n_paths // blocks))
    monkeypatch.setattr(simulation, "_usable_cores", lambda: 5)
    grid = TimeGrid(0.25, 4)
    for scheme in ("aes", "euler"):
        serial = PathSet(grid, ZHANG.s0, np.empty((n_paths, 5), order="F"), np.empty((2, n_paths, 5)))
        for block_id in range(blocks):
            rows = slice(block_id * simulation.BLOCK_SIZE, (block_id + 1) * simulation.BLOCK_SIZE)
            _BLOCK_KERNELS[scheme](ZHANG, grid, rng_stream(31, block_id), serial.growth[rows],
                                   serial.variances[:, rows], serial.positions)
        result = []
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(simulate(scheme, ZHANG, grid, n_paths, 31)))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not worker.is_alive() and len(result) == 1
        assert result[0].growth.tobytes() == serial.growth.tobytes()
        assert result[0].variances.tobytes() == serial.variances.tobytes()


@pytest.mark.parametrize("columns, message", [
    ((3, 2, 6), "strictly increasing: 2 follows 3"),
    ((2, 2, 6), "strictly increasing: 2 follows 2"),
    ((-1, 6), "column index -1 is outside the grid's 0..6"),
    ((2, 7), "column index 7 is outside the grid's 0..6"),
    ((1, 2), "maturity index 6"),
    ((), "maturity index 6"),
    ((2.5, 6), "column index 2.5 is not an integer"),
    ((1.9, 6), "column index 1.9 is not an integer"),
    ((True, 6), "column index True is not an integer"),
    ((2, 6.5), "column index 6.5 is not an integer"),
], ids=["unsorted", "duplicate", "negative", "past-maturity", "no-maturity", "empty", "fraction",
        "fraction-below-two", "bool", "fractional-maturity"])
def test_simulate_refuses_bad_columns(columns, message):
    with pytest.raises(ValueError, match=message):
        simulate("aes", EQ5, TimeGrid(0.25, 6), 10, seed=1, columns=columns)


def test_column_lookup_names_missing_index():
    paths = simulate("euler", EQ5, TimeGrid(0.25, 6), 10, seed=1, columns=(2, 4, 6))
    assert [paths.column(k) for k in (2, 4, 6)] == [0, 1, 2]
    for k in (0, 3, 7):
        with pytest.raises(ValueError, match=f"grid index {k} is not stored"):
            paths.column(k)


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
