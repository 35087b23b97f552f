import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aesmc.models import (
    DoubleHestonParams,
    FellerWarning,
    HestonParams,
    ParameterError,
    PutPayoff,
    feller_holds,
    preset,
    validate,
)

EQ4 = preset("feller-holding").params
EQ5 = preset("feller-violating").params
ZHANG = preset("double-heston-zhang").params


def test_feller_examples():
    assert feller_holds(EQ4) is True
    assert feller_holds(EQ5) is False
    # boundary: 2*1*0.5 == 1 == gamma^2, strict inequality fails
    assert feller_holds(HestonParams(s0=1, v0=0.1, r=0.0, kappa=1.0, nu_bar=0.5, gamma=1.0, rho=0.0)) is False


def test_feller_per_factor():
    f1, f2 = ZHANG.factors()
    assert feller_holds(f1) and feller_holds(f2)


@given(a=st.floats(min_value=1e-3, max_value=1e3),
       kappa=st.floats(min_value=1e-3, max_value=50),
       nu_bar=st.floats(min_value=1e-3, max_value=5),
       gamma=st.floats(min_value=1e-3, max_value=5))
def test_feller_scaling_invariance(a, kappa, nu_bar, gamma):
    # (kappa, nu_bar, gamma^2) -> (a kappa, nu_bar, a gamma^2) preserves the verdict
    base = HestonParams(s0=1, v0=0.1, r=0.0, kappa=kappa, nu_bar=nu_bar, gamma=gamma, rho=0.0)
    scaled = HestonParams(s0=1, v0=0.1, r=0.0, kappa=a * kappa, nu_bar=nu_bar,
                          gamma=np.sqrt(a) * gamma, rho=0.0)
    assert feller_holds(base) == feller_holds(scaled)


def test_put_payoff_examples():
    assert PutPayoff(100.0)(90.0) == 10.0
    assert PutPayoff(100.0)(110.0) == 0.0
    assert PutPayoff(10.0)(10.0) == 0.0


def test_put_payoff_vectorized():
    p = PutPayoff(100.0)
    out = p(np.array([80.0, 100.0, 120.0]))
    assert np.array_equal(out, [20.0, 0.0, 0.0])


@given(s=st.floats(min_value=0, max_value=1e6), t=st.floats(min_value=0, max_value=1e6),
       k=st.floats(min_value=1e-3, max_value=1e4))
def test_put_payoff_properties(s, t, k):
    p = PutPayoff(k)
    lo, hi = min(s, t), max(s, t)
    assert p(lo) >= p(hi)                       # non-increasing
    mid = 0.5 * (lo + hi)
    assert p(mid) <= 0.5 * (p(lo) + p(hi)) + 1e-9 * k   # convex
    assert 0.0 <= p(s) <= k                     # bounded


def test_put_payoff_rejects_bad_strike():
    with pytest.raises(ParameterError):
        PutPayoff(0.0)
    with pytest.raises(ParameterError):
        PutPayoff(-3.0)


def test_validate_names_offending_field():
    bad = HestonParams(s0=100, v0=0.04, r=0.05, kappa=2.0, nu_bar=0.04, gamma=-0.1, rho=0.0)
    with pytest.raises(ParameterError, match="gamma must be positive"):
        validate(bad)
    bad = HestonParams(s0=100, v0=0.04, r=0.05, kappa=2.0, nu_bar=0.04, gamma=0.5, rho=1.5)
    with pytest.raises(ParameterError, match=r"rho must lie in \[-1,1\]"):
        validate(bad)


def test_validate_collects_all_violations():
    bad = HestonParams(s0=-1, v0=0.04, r=0.05, kappa=2.0, nu_bar=0.04, gamma=-0.1, rho=2.0)
    with pytest.raises(ParameterError) as exc:
        validate(bad)
    messages = exc.value.errors
    assert len(messages) == 3
    assert any("s0" in m for m in messages)
    assert any("gamma" in m for m in messages)
    assert any("rho" in m for m in messages)


def test_validate_feller_violation_warns_not_raises():
    with pytest.warns(FellerWarning):
        assert validate(EQ5) is EQ5


def test_validate_feller_holding_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate(EQ4) is EQ4
        assert validate(ZHANG) is ZHANG


def test_validate_double_heston_fields():
    bad = DoubleHestonParams(s0=61.9, r=0.03,
                             v0_1=0.2, kappa_1=0.9, nu_bar_1=0.1, gamma_1=-0.1,
                             v0_2=0.49, kappa_2=1.2, nu_bar_2=0.15, gamma_2=0.2,
                             rho_13=-0.5, rho_24=-1.5)
    with pytest.raises(ParameterError) as exc:
        validate(bad)
    assert any("gamma_1" in m for m in exc.value.errors)
    assert any("rho_24" in m for m in exc.value.errors)


def test_validate_rejects_unknown_type():
    with pytest.raises(TypeError):
        validate(object())


def test_preset_lookup():
    assert preset("feller-holding").strike == 10.0
    assert preset("feller-violating").params.rho == -0.64
    assert preset("double-heston-zhang").params.s0 == 61.9
    with pytest.raises(KeyError, match="unknown preset"):
        preset("nope")
