import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from aesmc.sampling import (
    MAX_POISSON_RATE,
    rng_stream,
    sample_gamma,
    sample_noncentral_chisq,
    sample_poisson,
    sample_standard_normal,
)
from conftest import ncx2_moment_se

N_BIG = 1_000_000


def test_stream_key_validation():
    with pytest.raises(ValueError):
        rng_stream(-1)
    with pytest.raises(ValueError):
        rng_stream(0, 2**64)
    s = rng_stream(2**64 - 1, 5)
    assert list(s.bit_generator.state["state"]["key"]) == [2**64 - 1, 5]
    assert rng_stream(7.0, np.uint64(3)).standard_normal() == rng_stream(7, 3).standard_normal()
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        rng_stream(10**400)


@pytest.mark.parametrize("seed, stream_id, named", [
    (1.5, 0, "seed must be an integer, got 1.5"),
    (True, 0, "seed must be an integer, got True"),
    (float("nan"), 0, "seed must be an integer, got nan"),
    (float("inf"), 0, "seed must be an integer, got inf"),
    (0, 2.5, "stream_id must be an integer, got 2.5"),
    (0, False, "stream_id must be an integer, got False"),
    (0, float("nan"), "stream_id must be an integer, got nan"),
], ids=["seed-fraction", "seed-bool", "seed-nan", "seed-inf", "stream-id-fraction", "stream-id-bool",
        "stream-id-nan"])
def test_stream_key_is_refused_unless_integral(seed, stream_id, named):
    # a key is never truncated to its int
    with pytest.raises(ValueError, match=named):
        rng_stream(seed, stream_id)


@pytest.mark.parametrize("seed, stream_id", [(0, 0), (1, 0), (7, 1), (2**63, 3), (2**64 - 1, 5)])
def test_rng_stream_is_the_philox_generator_of_its_key(seed, stream_id):
    got = rng_stream(seed, stream_id)
    # the key as an explicit uint64 array: NumPy reads the list [2**64 - 1, 5] as [0, 5]
    want = np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))
    assert type(got) is np.random.Generator
    for draw in (lambda g: g.standard_normal(size=100), lambda g: g.poisson(3.5, size=50),
                 lambda g: g.standard_gamma(0.7, size=50), lambda g: g.random()):
        assert np.array_equal(draw(got), draw(want))


def test_same_key_same_bits():
    a = sample_standard_normal(rng_stream(1, 0), size=64)
    b = sample_standard_normal(rng_stream(1, 0), size=64)
    assert np.array_equal(a, b)
    # single scalar draw too
    assert sample_standard_normal(rng_stream(1, 0)) == sample_standard_normal(rng_stream(1, 0))


def test_distinct_streams_uncorrelated():
    n = 100_000
    a = sample_standard_normal(rng_stream(7, 0), size=n)
    b = sample_standard_normal(rng_stream(7, 1), size=n)
    assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(n)


def test_array_draw_equals_scalar_sequence():
    arr = sample_standard_normal(rng_stream(3, 9), size=8)
    stream = rng_stream(3, 9)
    seq = np.array([sample_standard_normal(stream) for _ in range(8)])
    assert np.array_equal(arr, seq)


def test_normal_moments():
    x = sample_standard_normal(rng_stream(11, 0), size=N_BIG)
    assert abs(x.mean()) < 4e-3
    assert abs(x.var(ddof=1) - 1.0) < 6e-3


def test_gamma_mean_shape2_scale3():
    x = sample_gamma(rng_stream(21, 0), 2.0, 3.0, size=N_BIG)
    assert abs(x.mean() - 6.0) < 0.013


def test_gamma_mean_small_shape():
    x = sample_gamma(rng_stream(22, 0), 0.5, 2.0, size=N_BIG)
    assert abs(x.mean() - 1.0) < 0.005


def test_gamma_small_shape_support_and_variance():
    x = sample_gamma(rng_stream(23, 0), 0.5262, 2.0, size=N_BIG)
    assert x.min() >= 0.0
    # boost path must still produce the right second moment
    var = 0.5262 * 4.0
    se = np.sqrt((3.0 / 0.5262 + 2.0)) * var / np.sqrt(N_BIG)  # excess kurtosis 6/shape
    assert abs(x.var(ddof=1) - var) < 4 * se


def test_gamma_mixed_shape_vector():
    shapes = np.array([0.3, 0.9, 1.0, 2.5, 17.0])
    x = sample_gamma(rng_stream(24, 0), shapes, 1.0)
    assert x.shape == shapes.shape
    assert np.all(x >= 0.0)


@given(shape=st.floats(max_value=0.0, allow_nan=False), scale=st.floats(min_value=0.1, max_value=10))
def test_gamma_rejects_nonpositive_shape(shape, scale):
    with pytest.raises(ValueError):
        sample_gamma(rng_stream(0), shape, scale)


def test_gamma_rejects_bad_scale():
    with pytest.raises(ValueError):
        sample_gamma(rng_stream(0), 1.0, 0.0)
    with pytest.raises(ValueError):
        sample_gamma(rng_stream(0), 1.0, np.inf)


def _reference_gamma(gen, shape, scale, size=None):
    """The boosted-gamma formula applied at full width, as a reference for sample_gamma."""
    shape_arr = np.asarray(shape, dtype=np.float64)
    small = shape_arr < 1.0
    draw = gen.standard_gamma(np.where(small, shape_arr + 1.0, shape_arr), size=size)
    u = gen.random(size=np.shape(draw) if np.ndim(draw) else None)
    correction = np.exp(np.log1p(-u) / np.where(small, shape_arr, 1.0))
    return np.where(small, draw * correction, draw) * scale


@pytest.mark.parametrize("shape, size", [
    (np.array([0.3, 0.9, 1.0, 2.5, 0.05, 17.0, 0.999, 1.0000001] * 50), None),
    (0.4, 1000),
    (np.float64(0.7), None),
], ids=["mixed-vector", "scalar-with-size", "0-d"])
def test_gamma_boost_bit_identical_to_full_width_formula(shape, size):
    got_stream, want_stream = rng_stream(25, 3), rng_stream(25, 3)
    got = sample_gamma(got_stream, shape, 2.0, size=size)
    want = _reference_gamma(want_stream, shape, 2.0, size=size)
    assert np.array_equal(got, want)
    assert np.shape(got) == np.shape(want)
    # both calls consumed the same draws: the streams stay in step
    assert got_stream.random() == want_stream.random()


SHAPE_ERROR = "gamma shape must be finite and > 0"
RATE_ERROR = "poisson rate must be finite and >= 0"


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_gamma_rejects_bad_shape_inside_a_vector(bad):
    shapes = np.array([0.5, 2.0, bad, 3.0])
    with pytest.raises(ValueError, match=SHAPE_ERROR):
        sample_gamma(rng_stream(0), shapes, 1.0)


@pytest.mark.parametrize("bad, message", [
    (np.nan, RATE_ERROR),
    (np.inf, RATE_ERROR),
    (-1.0, RATE_ERROR),
    (2 * MAX_POISSON_RATE, "poisson rate above 1e\\+09"),
])
def test_poisson_rejects_bad_rate_inside_a_vector(bad, message):
    rates = np.array([0.0, 4.0, bad, 10.0])
    with pytest.raises(ValueError, match=message):
        sample_poisson(rng_stream(0), rates)


def test_empty_arrays_give_empty_draws():
    assert sample_poisson(rng_stream(0), np.array([])).shape == (0,)
    assert sample_gamma(rng_stream(0), np.array([]), 1.0).shape == (0,)


def test_poisson_zero_rate_deterministic():
    assert sample_poisson(rng_stream(1), 0.0) == 0
    assert np.all(sample_poisson(rng_stream(1), 0.0, size=100) == 0)


def test_poisson_mean():
    x = sample_poisson(rng_stream(31, 0), 4.0, size=N_BIG)
    assert abs(x.mean() - 4.0) < 0.006


def test_poisson_variance_large_rate():
    x = sample_poisson(rng_stream(32, 0), 1000.0, size=N_BIG)
    assert abs(x.var(ddof=1) - 1000.0) < 5.0


@pytest.mark.parametrize("rate", [-1.0, np.nan, np.inf])
def test_poisson_rejects_bad_rate(rate):
    with pytest.raises(ValueError):
        sample_poisson(rng_stream(0), rate)


def test_poisson_rejects_overflow_rate():
    with pytest.raises(ValueError):
        sample_poisson(rng_stream(0), MAX_POISSON_RATE * 2)


def test_ncchisq_params_validation():
    with pytest.raises(ValueError):
        sample_noncentral_chisq(rng_stream(0), 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_noncentral_chisq(rng_stream(0), 1.0, -0.1)
    with pytest.raises(ValueError):
        sample_noncentral_chisq(rng_stream(0), np.nan, 0.0)
    sample_noncentral_chisq(rng_stream(0), 0.5, 0.0)


def test_ncchisq_lambda_overflow_guard():
    with pytest.raises(ValueError):
        sample_noncentral_chisq(rng_stream(0), 1.0, 3e9)


def test_ncchisq_central_reduction_mean():
    x = sample_noncentral_chisq(rng_stream(41, 0), 3.9506, 0.0, size=N_BIG)
    assert abs(x.mean() - 3.9506) < 0.01


def test_ncchisq_mean_identity():
    x = sample_noncentral_chisq(rng_stream(42, 0), 1.0525, 2.5, size=N_BIG)
    assert abs(x.mean() - 3.5525) < 0.01


def test_ncchisq_variance_identity():
    x = sample_noncentral_chisq(rng_stream(43, 0), 1.0525, 2.5, size=N_BIG)
    _, se_var = ncx2_moment_se(1.0525, 2.5, N_BIG)
    assert abs(x.var(ddof=1) - 12.105) < 3 * se_var


def test_ncchisq_nonnegative_support():
    x = sample_noncentral_chisq(rng_stream(44, 0), 1.0525, 2.5, size=N_BIG)
    assert x.min() >= 0.0


def test_ncchisq_vector_noncentrality():
    lam = np.linspace(0.0, 10.0, 1000)
    x = sample_noncentral_chisq(rng_stream(45, 0), 0.7, lam)
    assert x.shape == lam.shape
    assert np.all(x >= 0.0)


def test_ncchisq_lambda0_matches_gamma_ks():
    n = 100_000
    x = sample_noncentral_chisq(rng_stream(46, 0), 1.0525, 0.0, size=n)
    y = sample_gamma(rng_stream(46, 1), 1.0525 / 2.0, 2.0, size=n)
    assert stats.ks_2samp(x, y).pvalue > 0.01


@settings(max_examples=25, deadline=None)
@given(dof=st.floats(min_value=0.05, max_value=50), lam=st.floats(min_value=0.0, max_value=100))
def test_ncchisq_always_nonnegative(dof, lam):
    x = sample_noncentral_chisq(rng_stream(47, 0), dof, lam, size=32)
    assert np.all(x >= 0.0)
