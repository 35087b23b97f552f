"""Path generators: almost-exact and truncated-Euler schemes, both models.

The almost-exact scheme (AES) advances each CIR variance factor by sampling
its exact transition, a scaled noncentral chi-squared

    v_{i+1} = c_bar * chisq(dof, kappa_bar(v_i)),
    c_bar   = gamma^2 (1 - e^{-kappa dt}) / (4 kappa),
    kappa_bar = 4 kappa e^{-kappa dt} v_i / (gamma^2 (1 - e^{-kappa dt})),
    dof     = 4 kappa nu_bar / gamma^2,

and then updates the log-price with the variance increment substituted for
one of its stochastic integrals, leaving a single Euler-approximated normal
term per factor. Variance paths are exact and nonnegative by construction;
no truncation appears anywhere on the AES code path.

The truncated Euler baseline applies the positive part to the full variance
update and advances the log-price with Cholesky-correlated increments.

Heston is the one-factor case: both schemes loop over the tuple of
``VarianceFactor`` returned by ``params.factors()``, each factor with its own
asset correlation, so there is one kernel per scheme for any factor count.

Draw order is a contract (streams are replayable): per step, every variance
draw first (factor 1, then factor 2, ...), then every log-price normal; Euler
likewise draws all variance normals, then all asset normals. Paths are
generated in fixed blocks of ``BLOCK_SIZE``; block ``b`` consumes the stream
keyed ``(seed, b)``, so results are bit-identical no matter how blocks are
scheduled across workers.
"""
from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import validate
from .sampling import NoncentralChiSqParams, RngStream, sample_noncentral_chisq, sample_standard_normal

BLOCK_SIZE = 65536


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals on [0, maturity]."""

    maturity: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.maturity) and self.maturity > 0.0):
            raise ValueError("maturity must be positive")
        if int(self.steps) < 1 or int(self.steps) != self.steps:
            raise ValueError("steps must be a positive integer")

    @property
    def dt(self) -> float:
        return self.maturity / self.steps

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


@dataclass
class PathSet:
    """Simulated trajectories, one row per path, one column per grid time.

    Arrays are Fortran-ordered so per-date cross sections (columns) are
    contiguous for the backward induction sweep. ``variance_2`` is present
    only for the double Heston model.
    """

    grid: TimeGrid
    asset: np.ndarray
    variance_1: np.ndarray
    variance_2: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.asset.shape[0]

    @property
    def n_fields(self) -> int:
        return 2 if self.variance_2 is None else 3

    @property
    def memory_bytes(self) -> int:
        # Allocation model: 8 bytes per float64, N*(M+1) per stored matrix.
        return 8 * self.n_paths * (self.grid.steps + 1) * self.n_fields

    def variances(self) -> tuple[np.ndarray, ...]:
        if self.variance_2 is None:
            return (self.variance_1,)
        return (self.variance_1, self.variance_2)


@dataclass(frozen=True)
class CirTransition:
    """Constants of the exact CIR transition over one step.

    ``kappa_bar`` is per-path (array) when built from a vector of current
    variances.
    """

    c_bar: float
    kappa_bar: float | np.ndarray
    dof: float


def cir_transition_params(kappa, gamma, nu_bar, dt, v_current) -> CirTransition:
    """Exact CIR transition constants for a step of length ``dt``."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    decay = math.exp(-kappa * dt)
    c_bar = gamma**2 / (4.0 * kappa) * (1.0 - decay)
    kappa_bar = 4.0 * kappa * decay * np.asarray(v_current, dtype=np.float64) / (gamma**2 * (1.0 - decay))
    dof = 4.0 * kappa * nu_bar / gamma**2
    if kappa_bar.ndim == 0:
        kappa_bar = kappa_bar.item()
    return CirTransition(c_bar=c_bar, kappa_bar=kappa_bar, dof=dof)


def cir_exact_step(stream: RngStream, transition: CirTransition):
    """One exact CIR step: scaled noncentral chi-squared draw(s), always >= 0."""
    draw = sample_noncentral_chisq(
        stream, NoncentralChiSqParams(transition.dof, transition.kappa_bar)
    )
    return transition.c_bar * draw


def log_price_constants(r: float, factors, dt: float):
    """AES log-price coefficients ``(c0, c1, c2, c3)`` for independent CIR factors.

    c0 = (r - sum_j rho_j kappa_j nu_bar_j / gamma_j) dt is a scalar; c1, c2
    and c3 are tuples with one entry per factor:
    c1_j = (rho_j kappa_j / gamma_j - 1/2) dt - rho_j / gamma_j,
    c2_j = rho_j / gamma_j, c3_j = (1 - rho_j^2) dt.
    """
    c0 = r
    c1, c2, c3 = [], [], []
    for f in factors:
        rg = f.rho / f.gamma
        c0 = c0 - rg * f.kappa * f.nu_bar
        c1.append((rg * f.kappa - 0.5) * dt - rg)
        c2.append(rg)
        c3.append((1.0 - f.rho**2) * dt)
    return c0 * dt, tuple(c1), tuple(c2), tuple(c3)


def truncated_euler_variance_step(v, kappa, nu_bar, gamma, dt, z):
    """Truncated Euler update: positive part of the full variance step."""
    return np.maximum(v + kappa * (nu_bar - v) * dt + gamma * np.sqrt(v * dt) * z, 0.0)


# ---------------------------------------------------------------------------
# Per-block kernels, one per scheme. Each fills (count, M+1) slabs, the asset
# and one variance matrix per factor, from one keyed stream.
# ---------------------------------------------------------------------------

def _start_block(params, factors, grid, count):
    """Path matrices with their t=0 column set, and the running state (x, v)."""
    asset = np.empty((count, grid.steps + 1), order="F")
    asset[:, 0] = params.s0
    variances = tuple(np.empty((count, grid.steps + 1), order="F") for _ in factors)
    for var, f in zip(variances, factors):
        var[:, 0] = f.v0
    x = np.full(count, math.log(params.s0))
    v = [np.full(count, f.v0) for f in factors]
    return asset, variances, x, v


def _aes_block(params, grid, seed, block_id, count):
    stream = RngStream(seed, block_id)
    dt = grid.dt
    factors = params.factors()
    c0, c1, c2, c3 = log_price_constants(params.r, factors, dt)
    asset, variances, x, v = _start_block(params, factors, grid, count)
    for i in range(grid.steps):
        v_next = [
            cir_exact_step(stream, cir_transition_params(f.kappa, f.gamma, f.nu_bar, dt, vj))
            for f, vj in zip(factors, v)
        ]
        z = [sample_standard_normal(stream, size=count) for _ in factors]
        # Drift terms, then the v_next terms, then the diffusion terms: any
        # other summation order changes the last bits of every path.
        x = x + c0
        for c, vj in zip(c1, v):
            x = x + c * vj
        for c, vj in zip(c2, v_next):
            x = x + c * vj
        for c, vj, zj in zip(c3, v, z):
            x = x + np.sqrt(c * vj) * zj
        v = v_next
        for var, vj in zip(variances, v):
            var[:, i + 1] = vj
        asset[:, i + 1] = np.exp(x)
    return asset, variances


def _euler_block(params, grid, seed, block_id, count):
    stream = RngStream(seed, block_id)
    dt = grid.dt
    factors = params.factors()
    ortho = [math.sqrt(1.0 - f.rho**2) for f in factors]
    asset, variances, x, v = _start_block(params, factors, grid, count)
    for i in range(grid.steps):
        z_v = [sample_standard_normal(stream, size=count) for _ in factors]
        z_x = [sample_standard_normal(stream, size=count) for _ in factors]
        v_next = [
            truncated_euler_variance_step(vj, f.kappa, f.nu_bar, f.gamma, dt, zj)
            for f, vj, zj in zip(factors, v, z_v)
        ]
        x = x + (params.r - 0.5 * sum(v)) * dt
        for f, o, vj, zvj, zxj in zip(factors, ortho, v, z_v, z_x):
            x = x + np.sqrt(vj * dt) * (f.rho * zvj + o * zxj)
        v = v_next
        for var, vj in zip(variances, v):
            var[:, i + 1] = vj
        asset[:, i + 1] = np.exp(x)
    return asset, variances


_BLOCK_KERNELS = {"aes": _aes_block, "euler": _euler_block}


def _run_block(task):
    scheme, params, grid, seed, block_id, count = task
    return block_id, _BLOCK_KERNELS[scheme](params, grid, seed, block_id, count)


def resolve_workers(n_workers=None) -> int:
    """Worker count: explicit argument, else AESMC_WORKERS, else 1."""
    if n_workers is not None:
        return max(1, int(n_workers))
    env = os.environ.get("AESMC_WORKERS")
    if env:
        return max(1, int(env))
    return 1


def simulate(scheme: str, params, grid: TimeGrid, n_paths: int, seed: int, n_workers=None) -> PathSet:
    """Heston or double Heston paths under ``scheme`` ('aes' or 'euler')."""
    if scheme not in ("aes", "euler"):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'aes' or 'euler'")
    validate(params)
    if int(n_paths) < 1:
        raise ValueError("n_paths must be >= 1")
    n_paths = int(n_paths)
    workers = resolve_workers(n_workers)
    asset = np.empty((n_paths, grid.steps + 1), order="F")
    variances = tuple(np.empty((n_paths, grid.steps + 1), order="F") for _ in params.factors())
    tasks = []
    for block_id, start in enumerate(range(0, n_paths, BLOCK_SIZE)):
        count = min(BLOCK_SIZE, n_paths - start)
        tasks.append((scheme, params, grid, seed, block_id, count))

    def _place(block_id, blocks):
        block_asset, block_variances = blocks
        start = block_id * BLOCK_SIZE
        stop = start + block_asset.shape[0]
        asset[start:stop] = block_asset
        for var, block_var in zip(variances, block_variances):
            var[start:stop] = block_var

    if workers == 1 or len(tasks) == 1:
        for task in tasks:
            _place(*_run_block(task))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for block_id, blocks in pool.map(_run_block, tasks):
                _place(block_id, blocks)
    return PathSet(grid, asset, *variances)


def cir_conditional_moments(kappa, gamma, nu_bar, dt, v0):
    """Closed-form conditional mean and variance of a CIR factor after ``dt``."""
    decay = math.exp(-kappa * dt)
    mean = v0 * decay + nu_bar * (1.0 - decay)
    var = (
        v0 * gamma**2 / kappa * (decay - decay**2)
        + nu_bar * gamma**2 / (2.0 * kappa) * (1.0 - decay) ** 2
    )
    return mean, var


def dump_paths_csv(paths: PathSet, destination):
    """Write paths as CSV rows ``path,step,asset,var1[,var2]``."""
    two_factor = paths.variance_2 is not None
    header = ["path", "step", "asset", "var1"] + (["var2"] if two_factor else [])

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in range(paths.n_paths):
            for k in range(paths.grid.steps + 1):
                row = [p, k, repr(paths.asset[p, k]), repr(paths.variance_1[p, k])]
                if two_factor:
                    row.append(repr(paths.variance_2[p, k]))
                writer.writerow(row)

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", newline="") as fh:
            _write(fh)
