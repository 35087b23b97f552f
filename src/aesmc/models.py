"""Model parameter bundles, validation, and the put payoff.

Heston-type dynamics under the risk-neutral measure: the asset follows a
log-normal diffusion whose instantaneous variance is one CIR factor (Heston)
or the sum of two independent CIR factors (double Heston). Parameters are
plain frozen dataclasses; ``check_values`` collects every violated invariant
at once, and ``validate`` adds the Feller check. A violated Feller condition
is a warning, not an error: the exact CIR sampler does not care, and one of
the built-in presets violates it on purpose.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .sampling import _is_number


class ParameterError(ValueError):
    """Raised by ``check_values`` with the complete list of violations."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class FellerWarning(UserWarning):
    pass


@dataclass(frozen=True)
class VarianceFactor:
    """One CIR variance factor and its correlation with the asset shock."""

    kappa: float
    nu_bar: float
    gamma: float
    v0: float
    rho: float


@dataclass(frozen=True)
class HestonParams:
    s0: float
    v0: float
    r: float
    kappa: float
    nu_bar: float
    gamma: float
    rho: float

    def factors(self) -> tuple[VarianceFactor]:
        return (VarianceFactor(self.kappa, self.nu_bar, self.gamma, self.v0, self.rho),)


@dataclass(frozen=True)
class DoubleHestonParams:
    s0: float
    r: float
    v0_1: float
    kappa_1: float
    nu_bar_1: float
    gamma_1: float
    v0_2: float
    kappa_2: float
    nu_bar_2: float
    gamma_2: float
    rho_13: float
    rho_24: float

    def factors(self) -> tuple[VarianceFactor, VarianceFactor]:
        return (
            VarianceFactor(self.kappa_1, self.nu_bar_1, self.gamma_1, self.v0_1, self.rho_13),
            VarianceFactor(self.kappa_2, self.nu_bar_2, self.gamma_2, self.v0_2, self.rho_24),
        )


@dataclass(frozen=True)
class PutPayoff:
    """Vanilla put payoff max(K - s, 0)."""

    strike: float

    def __post_init__(self):
        if not _is_number(self.strike):
            raise ParameterError([f"strike must be a number, got {self.strike!r}"])
        if not (np.isfinite(self.strike) and self.strike > 0.0):
            raise ParameterError(["strike must be positive"])

    def __call__(self, s):
        return np.maximum(self.strike - s, 0.0)


def feller_holds(params) -> bool:
    """Whether 2*kappa*nu_bar > gamma**2 (strict), so variance stays positive.

    Accepts anything with ``kappa``, ``nu_bar``, ``gamma`` attributes
    (HestonParams or a single VarianceFactor).
    """
    return 2.0 * params.kappa * params.nu_bar > params.gamma**2


def _rule(name: str):
    """(holds, message) for a model field: r finite, rho* in [-1, 1], else positive."""
    if name == "r":
        return np.isfinite, "must be finite"
    if name.startswith("rho"):
        return lambda x: np.isfinite(x) and -1.0 <= x <= 1.0, "must lie in [-1,1]"
    return lambda x: np.isfinite(x) and x > 0.0, "must be positive"


def check_values(params):
    """Return ``params`` unchanged if all invariants hold, else raise.

    Raises ``ParameterError`` carrying one message per violated invariant,
    naming the offending field, in field order with ``r`` last; a bool or
    non-number field is refused first (``sampling._is_number``). No Feller check.
    """
    if not isinstance(params, (HestonParams, DoubleHestonParams)):
        raise TypeError(f"cannot validate {type(params).__name__}")
    names = sorted((f.name for f in fields(params)), key=lambda name: name == "r")
    non_numeric = [name for name in names if not _is_number(getattr(params, name))]
    if non_numeric:
        raise ParameterError([f"{type(params).__name__} field(s) must be numbers: {', '.join(non_numeric)}"])
    errors = []
    for name in names:
        holds, message = _rule(name)
        if not holds(getattr(params, name)):
            errors.append(f"{name} {message}")
    if errors:
        raise ParameterError(errors)
    return params


def validate(params):
    """``check_values``, then a ``FellerWarning`` for each factor that fails Feller."""
    factors = check_values(params).factors()
    for i, factor in enumerate(factors, start=1):
        if not feller_holds(factor):
            label = "" if len(factors) == 1 else f" (factor {i})"
            warnings.warn(
                f"Feller condition 2*kappa*nu_bar > gamma^2 violated{label}; "
                "variance paths may touch zero",
                FellerWarning,
                stacklevel=2,
            )
    return params


@dataclass(frozen=True)
class MarketPreset:
    """A parameter set with its option strike and maturity, named by its ``PRESETS`` key."""

    params: HestonParams | DoubleHestonParams
    strike: float
    maturity: float


PRESETS: dict[str, MarketPreset] = {
    # Classic set with positive correlation; Feller condition holds.
    "feller-holding": MarketPreset(
        params=HestonParams(s0=10.0, v0=0.0625, r=0.1, kappa=5.0, nu_bar=0.16, gamma=0.9, rho=0.1),
        strike=10.0,
        maturity=0.25,
    ),
    # Realistic negative-correlation set; Feller condition fails.
    "feller-violating": MarketPreset(
        params=HestonParams(s0=100.0, v0=0.0348, r=0.04, kappa=1.15, nu_bar=0.0348, gamma=0.39, rho=-0.64),
        strike=100.0,
        maturity=0.25,
    ),
    # Two-factor set used for the American put benchmarks.
    "double-heston-zhang": MarketPreset(
        params=DoubleHestonParams(
            s0=61.9, r=0.03,
            v0_1=0.2, kappa_1=0.9, nu_bar_1=0.1, gamma_1=0.1,
            v0_2=0.49, kappa_2=1.2, nu_bar_2=0.15, gamma_2=0.2,
            rho_13=-0.5, rho_24=-0.5,
        ),
        strike=61.9,
        maturity=0.25,
    ),
}


def preset(name: str) -> MarketPreset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
