"""Semi-analytic European option prices under Heston and double Heston.

The price oracle the benchmark checks the engine against. It shares no code
with ``aesmc``: a model is a spot, a rate and a list of independent CIR
variance factors, each correlated with the asset only through its own
``rho``. The characteristic function of ln S_T is then the product of one
Heston factor term per variance factor (Christoffersen, Heston & Jacobs
2009), each in the branch-cut-safe form of Albrecher et al. (2007),
"The little Heston trap".

Two quadratures are provided so that put-call parity is a real check:
``call_price`` uses the Gil-Pelaez inversion of Heston (1993), and
``put_price`` uses the single-integral contour of Lewis (2001).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate


@dataclass(frozen=True)
class Factor:
    """One CIR variance factor: dv = kappa (nu_bar - v) dt + gamma sqrt(v) dW."""

    kappa: float
    nu_bar: float
    gamma: float
    v0: float
    rho: float


def log_cf(u, s0: float, r: float, maturity: float, factors) -> complex:
    """log E[exp(i u ln S_T)] for a complex argument ``u``."""
    u = complex(u)
    iu = 1j * u
    out = iu * (math.log(s0) + r * maturity)
    for f in factors:
        b = f.kappa - f.rho * f.gamma * iu
        d = np.sqrt(b * b + f.gamma**2 * (iu + u * u))
        g = (b - d) / (b + d)
        e = np.exp(-d * maturity)
        out += f.kappa * f.nu_bar / f.gamma**2 * ((b - d) * maturity - 2.0 * np.log((1.0 - g * e) / (1.0 - g)))
        out += f.v0 / f.gamma**2 * (b - d) * (1.0 - e) / (1.0 - g * e)
    return out


def _half_line(integrand) -> float:
    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=500, epsabs=1e-13, epsrel=1e-11)
    return value


def call_price(s0: float, strike: float, r: float, maturity: float, factors) -> float:
    """European call by Gil-Pelaez inversion of the two exercise probabilities."""
    ln_k = math.log(strike)
    forward_log = math.log(s0) + r * maturity          # log E[S_T] = log_cf(-i)

    def p1(u):
        z = log_cf(u - 1j, s0, r, maturity, factors) - forward_log - 1j * u * ln_k
        return (np.exp(z) / (1j * u)).real

    def p2(u):
        z = log_cf(u, s0, r, maturity, factors) - 1j * u * ln_k
        return (np.exp(z) / (1j * u)).real

    prob1 = 0.5 + _half_line(p1) / math.pi
    prob2 = 0.5 + _half_line(p2) / math.pi
    return s0 * prob1 - strike * math.exp(-r * maturity) * prob2


def put_price(s0: float, strike: float, r: float, maturity: float, factors) -> float:
    """European put by the Lewis (2001) contour at Im z = 1/2.

    Shifting the put's Fourier integral across the payoff pole at z = 0
    leaves K e^{-rT} minus a smooth integral with a 1/(u^2 + 1/4) kernel.
    """
    ln_k = math.log(strike)

    def kernel(u):
        z = log_cf(-u - 0.5j, s0, r, maturity, factors) + 1j * u * ln_k
        return np.exp(z).real / (u * u + 0.25)

    discount = math.exp(-r * maturity)
    return discount * strike - discount * math.sqrt(strike) * _half_line(kernel) / math.pi


def black_scholes_put(s0: float, strike: float, r: float, maturity: float, variance: float) -> float:
    """Black-Scholes put with a constant variance (the gamma -> 0 limit)."""
    sd = math.sqrt(variance * maturity)
    d1 = (math.log(s0 / strike) + (r + 0.5 * variance) * maturity) / sd
    d2 = d1 - sd
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # noqa: E731
    return strike * math.exp(-r * maturity) * cdf(-d2) - s0 * cdf(-d1)


def mean_variance(factors, maturity: float) -> float:
    """Time average over [0, T] of the deterministic (gamma = 0) total variance."""
    total = 0.0
    for f in factors:
        decay = (1.0 - math.exp(-f.kappa * maturity)) / (f.kappa * maturity)
        total += f.nu_bar + (f.v0 - f.nu_bar) * decay
    return total
