"""Seeded sampling primitives: normal, gamma, Poisson, noncentral chi-squared.

A stream is the NumPy generator ``rng_stream(seed, stream_id)`` returns:
counter-based (Philox) and fully determined by ``(seed, stream_id)``, so a
stream for path block *b* can be created at any point, in any order, and
always yields the same draws. All samplers accept an optional ``size`` and are
vectorized; each returns what its NumPy generator call returns (an array, or a
Python or NumPy scalar for a scalar call).

The noncentral chi-squared sampler is the exactness workhorse of the CIR
transition. It uses the Poisson mixture representation

    N ~ Poisson(noncentrality / 2),  X | N ~ Gamma((dof + 2 N) / 2, scale=2),

which is exact for every dof > 0, including dof < 1 (needed when the Feller
condition fails). Gamma draws with shape < 1 use the shape+1 boost with a
uniform power correction rather than a small-shape rejection sampler.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

# A Poisson rate this large means the CIR noncentrality is out of range; it
# grows like 1/gamma^2 as the vol-of-vol gamma goes to 0. Refuse, don't sample.
MAX_POISSON_RATE = 1.0e9

UINT64_LIMIT = 2**64


def _is_number(value) -> bool:
    """The one number rule: a real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integral(value) -> bool:
    """Whether ``value`` is an integer or a finite number equal to its int, and not a bool."""
    return _is_number(value) and (isinstance(value, numbers.Integral)
                                  or (math.isfinite(value) and int(value) == value))


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The Philox generator keyed by ``(seed, stream_id)``, each an unsigned 64-bit integer.

    Two generators built from the same key produce bit-identical sequences;
    generators with distinct ``stream_id`` are statistically independent.
    A fractional, bool or non-finite ``seed`` or ``stream_id`` is a
    ValueError that names it.
    """
    for name, value in (("seed", seed), ("stream_id", stream_id)):
        if not _integral(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= int(value) < UINT64_LIMIT:
            raise ValueError(f"{name} must be an unsigned 64-bit integer, got {int(value)}")
    # an explicit uint64 array: NumPy turns the list [2**64 - 1, 5] into the key [0, 5]
    key = np.array([int(seed), int(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_standard_normal(stream: np.random.Generator, size=None):
    """Standard normal draw(s)."""
    return stream.standard_normal(size=size)


def _bounds(values: np.ndarray, message: str, zero_ok: bool = False):
    """``(min, max)`` of ``values``, ``(inf, -inf)`` when empty.

    Raises ValueError(message) unless every element is finite and > 0 (>= 0
    with ``zero_ok``); NaN propagates into both bounds, so one ``min`` and
    one ``max`` pass check the whole array.
    """
    if values.size == 0:
        return math.inf, -math.inf
    low, high = values.min(), values.max()
    if not ((low >= 0.0 if zero_ok else low > 0.0) and high < math.inf):
        raise ValueError(message)
    return low, high


def sample_gamma(stream: np.random.Generator, shape, scale, size=None):
    """Gamma(shape, scale) draw(s), valid for every shape > 0.

    Shapes >= 1 sample directly (Marsaglia-Tsang under the hood). Shapes < 1
    use the exact boost Gamma(a) = Gamma(a + 1) * U^(1/a), with 1 - U for U
    so the power never sees 0. The result is >= 0 but not always > 0: at
    tiny shapes U^(1/a) underflows to exactly 0.0 (in 100,000 draws at seed
    1, 2.5% of them at shape 0.005 and 69% at 0.0005). When any element of a
    vector draw has shape < 1 the call consumes one gamma batch plus one
    full uniform batch, in that order, whatever the share of small shapes;
    the correction exp(log1p(-U) / a) is computed at the small positions only.
    """
    shape_arr = np.asarray(shape, dtype=np.float64)
    scale_arr = np.asarray(scale, dtype=np.float64)
    low, _ = _bounds(shape_arr, "gamma shape must be finite and > 0")
    _bounds(scale_arr, "gamma scale must be finite and > 0")
    if low >= 1.0:
        return stream.standard_gamma(shape_arr, size=size) * scale_arr
    small = shape_arr < 1.0
    draw = stream.standard_gamma(np.where(small, shape_arr + 1.0, shape_arr), size=size)
    if np.ndim(draw) == 0:
        return draw * np.exp(np.log1p(-stream.random()) / shape_arr) * scale_arr
    u = stream.random(size=draw.shape)
    at = np.flatnonzero(np.broadcast_to(small, draw.shape))
    correction = np.exp(np.log1p(-u.take(at)) / np.broadcast_to(shape_arr, draw.shape).take(at))
    draw.put(at, draw.take(at) * correction)
    return draw * scale_arr


def sample_poisson(stream: np.random.Generator, rate, size=None):
    """Poisson(rate) draw(s); rate 0 returns 0 deterministically."""
    rate_arr = np.asarray(rate, dtype=np.float64)
    _, high = _bounds(rate_arr, "poisson rate must be finite and >= 0", zero_ok=True)
    if high > MAX_POISSON_RATE:
        raise ValueError(
            f"poisson rate above {MAX_POISSON_RATE:.0e}: the CIR noncentrality is out of "
            "range; it grows like 1/gamma^2 as the vol-of-vol gamma goes to 0"
        )
    return stream.poisson(rate_arr, size=size)


def sample_noncentral_chisq(stream: np.random.Generator, dof: float, noncentrality, size=None):
    """Noncentral chi-squared draw(s) via the Poisson mixture of gammas.

    ``dof`` is one finite number > 0; ``noncentrality`` is a number or one
    value per path, checked by ``sample_poisson``. Always >= 0; exact for all
    dof > 0. Consumption order per call: one Poisson batch, then one gamma
    batch (plus its uniform correction batch when any mixed shape falls
    below 1).
    """
    if not (math.isfinite(dof) and dof > 0.0):
        raise ValueError(f"dof must be finite and > 0, got {dof}")
    mix = sample_poisson(stream, np.asarray(noncentrality, dtype=np.float64) / 2.0, size=size)
    # mix + dof/2 is (dof + 2 mix)/2 bit for bit: halving and doubling are exact.
    return sample_gamma(stream, np.add(mix, dof / 2.0), 2.0)
