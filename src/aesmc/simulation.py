"""Path generators: almost-exact and truncated-Euler schemes, both models.

Paths are spot-free: the log-price starts at 0 and the kernels store the
growth factor S_t / S_0, while the spot is one scalar on the ``PathSet``.
Under both models the log-price increments do not depend on S_0, so the
growth and variance matrices at any two spots are the same bytes, and one
simulation serves every spot.

``simulate`` stores every grid index 0..M by default. Given ``columns``, it
stores only those grid indices (an exercise schedule's dates, say), and the
kernels skip ``exp`` and the column writes on the other steps. The state
still advances at every step in the same draw order, so each stored column
is bit for bit the one a full path set holds.

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
keyed ``(seed, b)`` and writes its own row slice of the output in place, so a
full block's paths are the same whatever the total path count, and whichever
thread fills it, in whatever order.

Execution is threaded, in one process, and changes no byte. ``simulate``
fills its blocks on a pool of ``min(usable cores, blocks)`` threads; a
one-block call fills its block on the calling thread and starts no block
thread. The AES kernel runs each step whole on the block's thread: its
draws are almost all of a step, and its log-price update is too small to
pay for a handover. The Euler kernel has two stages. Its stream stage runs
on the block's thread and makes every normal draw in the contract order.
Its state stage, the whole truncated-Euler update and ``_store``, runs on a
one-worker executor, one step behind the draws and never further.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .models import validate
from .sampling import _integral, rng_stream, sample_noncentral_chisq, sample_standard_normal

BLOCK_SIZE = 65536


def _count(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is an integral number >= 1."""
    if not (_integral(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals on [0, maturity]."""

    maturity: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.maturity) and self.maturity > 0.0):
            raise ValueError("maturity must be positive")
        object.__setattr__(self, "steps", _count("steps", self.steps))

    @property
    def dt(self) -> float:
        return self.maturity / self.steps


@dataclass
class PathSet:
    """Simulated trajectories, one row per path, one column per stored grid time.

    ``growth`` holds the spot-free growth factors S_t / S_0 (1.0 at grid
    index 0) and ``s0`` is the spot they scale, so ``replace(paths, s0=x)`` is
    the same path set at spot x. ``columns`` holds the grid index of each
    stored column, increasing and ending at M; None means every index 0..M.
    ``positions`` maps each of them to its column, as ``column(k)`` reads it.
    ``variances`` has shape (factor, path, column): ``variances[f]`` is the
    matrix of variance factor f, one per entry of ``params.factors()``.
    ``growth`` and every factor's matrix are Fortran-ordered so per-date
    cross sections (columns) are contiguous for the backward induction sweep.
    """

    grid: TimeGrid
    s0: float
    growth: np.ndarray
    variances: np.ndarray
    columns: tuple[int, ...] | None = None
    positions: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variances.shape[1:] != self.growth.shape:
            raise ValueError(f"variances must have shape (factors, *growth.shape) with growth "
                             f"{self.growth.shape}, got {self.variances.shape}")
        self.columns = stored_columns(self.grid, self.columns)
        self.positions = {k: j for j, k in enumerate(self.columns)}

    def column(self, k: int) -> int:
        """Position of grid index ``k`` among the stored columns."""
        j = self.positions.get(k)
        if j is None:
            raise ValueError(f"grid index {k} is not stored: the path set holds "
                             f"{len(self.columns)} of the grid's {self.grid.steps + 1} indices")
        return j

    @property
    def asset(self) -> np.ndarray:
        """Asset prices ``s0 * growth``, built anew on each access."""
        return self.s0 * self.growth

    @property
    def n_paths(self) -> int:
        return self.growth.shape[0]

    @property
    def memory_bytes(self) -> int:
        # Allocation model: 8 bytes per float64, N*(M+1) per matrix (growth and
        # one per variance factor), whatever the columns stored.
        return 8 * self.n_paths * (self.grid.steps + 1) * (1 + len(self.variances))


def cir_transition_params(factor, dt, v_current):
    """Exact CIR transition constants ``(c_bar, kappa_bar, dof)`` of ``factor`` over a step of ``dt``.

    ``kappa_bar`` is per-path when ``v_current`` is an array of current variances.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    kappa, gamma = factor.kappa, factor.gamma
    decay = math.exp(-kappa * dt)
    c_bar = gamma**2 / (4.0 * kappa) * (1.0 - decay)
    kappa_bar = 4.0 * kappa * decay * v_current / (gamma**2 * (1.0 - decay))
    dof = 4.0 * kappa * factor.nu_bar / gamma**2
    return c_bar, kappa_bar, dof


def cir_exact_step(stream: np.random.Generator, factor, dt, v_current):
    """One exact CIR step of ``factor``: scaled noncentral chi-squared draw(s), always >= 0."""
    c_bar, kappa_bar, dof = cir_transition_params(factor, dt, v_current)
    return c_bar * sample_noncentral_chisq(stream, dof, kappa_bar)


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


def truncated_euler_variance_step(v, factor, dt, z, root):
    """Truncated Euler update of ``factor``: the positive part of the full step; ``root`` is sqrt(v dt)."""
    return np.maximum(v + factor.kappa * (factor.nu_bar - v) * dt + factor.gamma * root * z, 0.0)


# ---------------------------------------------------------------------------
# Per-block kernels, one per scheme. Each fills its block's row slice of the
# growth matrix and of one variance matrix per factor, from one keyed stream.
# ``positions`` is the path set's map from each stored grid index to its column.
# ---------------------------------------------------------------------------

def _store(k, x, v, growth, variances, positions):
    """Write the state (x, v) at grid index ``k`` into its column, if the path set stores it."""
    j = positions.get(k)
    if j is not None:
        for var, vj in zip(variances, v):
            var[:, j] = vj
        np.exp(x, out=growth[:, j])


def _start_block(factors, growth, variances, positions):
    """Store the t=0 state of each row slice; return the running state (x, v)."""
    count = growth.shape[0]
    x = np.zeros(count)
    v = [np.full(count, f.v0) for f in factors]
    _store(0, x, v, growth, variances, positions)
    return x, v


def _aes_block(params, grid, stream, growth, variances, positions):
    count = growth.shape[0]
    dt = grid.dt
    factors = params.factors()
    c0, c1, c2, c3 = log_price_constants(params.r, factors, dt)
    x, v = _start_block(factors, growth, variances, positions)
    term = np.empty(count)
    for i in range(grid.steps):
        v_next = [cir_exact_step(stream, f, dt, vj) for f, vj in zip(factors, v)]
        z = [sample_standard_normal(stream, size=count) for _ in factors]
        # Drift terms, then the v_next terms, then the diffusion terms: any
        # other summation order changes the last bits of every path.
        x += c0
        for c, vj in zip(c1, v):
            x += np.multiply(vj, c, out=term)
        for c, vj in zip(c2, v_next):
            x += np.multiply(vj, c, out=term)
        for c, vj, zj in zip(c3, v, z):
            np.multiply(vj, c, out=term)
            np.sqrt(term, out=term)
            x += np.multiply(term, zj, out=term)
        v = v_next
        _store(i + 1, x, v, growth, variances, positions)


def _euler_block(params, grid, stream, growth, variances, positions):
    count = growth.shape[0]
    dt = grid.dt
    factors = params.factors()
    ortho = [math.sqrt(1.0 - f.rho**2) for f in factors]
    x, v = _start_block(factors, growth, variances, positions)
    mixed, scale = np.empty(count), np.empty(count)
    roots = [np.empty(count) for _ in factors]

    def advance(k, z_v, z_x):  # state stage: the variance and log-price update from step k-1 to k
        nonlocal x, v
        for vj, root in zip(v, roots):  # shared by the variance and log-price updates
            np.sqrt(np.multiply(vj, dt, out=root), out=root)
        v_next = [
            truncated_euler_variance_step(vj, f, dt, zj, root)
            for f, vj, zj, root in zip(factors, v, z_v, roots)
        ]
        x += (params.r - 0.5 * sum(v)) * dt
        for f, o, root, zvj, zxj in zip(factors, ortho, roots, z_v, z_x):
            # x += sqrt(v dt) * (rho z_v + o z_x), in two reused buffers
            np.multiply(zvj, f.rho, out=mixed)
            np.add(mixed, np.multiply(zxj, o, out=scale), out=mixed)
            x += np.multiply(root, mixed, out=scale)
        v = v_next
        _store(k, x, v, growth, variances, positions)

    with ThreadPoolExecutor(max_workers=1) as state:  # stream stage: the normals only
        step = None
        for i in range(grid.steps):
            z_v = [sample_standard_normal(stream, size=count) for _ in factors]
            z_x = [sample_standard_normal(stream, size=count) for _ in factors]
            if step is not None:  # the state stage runs at most one step behind
                step.result()
            step = state.submit(advance, i + 1, z_v, z_x)
        step.result()


_BLOCK_KERNELS = {"aes": _aes_block, "euler": _euler_block}
SCHEMES = tuple(_BLOCK_KERNELS)


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def stored_columns(grid: TimeGrid, columns=None) -> tuple[int, ...]:
    """The grid indices to store: every index 0..M when ``columns`` is None.

    Given indices must be integers (``_integral``), lie in 0..M, be strictly
    increasing and end at the maturity index M; anything else is a
    ValueError that names the index.
    """
    if columns is None:
        return tuple(range(grid.steps + 1))
    columns = tuple(columns)
    fractional = [k for k in columns if not _integral(k)]
    if fractional:
        raise ValueError(f"column index {fractional[0]!r} is not an integer")
    idx = tuple(int(k) for k in columns)
    outside = [k for k in idx if not 0 <= k <= grid.steps]
    if outside:
        raise ValueError(f"column index {outside[0]} is outside the grid's 0..{grid.steps}")
    for a, b in zip(idx, idx[1:]):
        if b <= a:
            raise ValueError(f"column indices must be strictly increasing: {b} follows {a}")
    if not idx or idx[-1] != grid.steps:
        raise ValueError(f"columns must include the maturity index {grid.steps}")
    return idx


def simulate(scheme: str, params, grid: TimeGrid, n_paths: int, seed: int, columns=None) -> PathSet:
    """Heston or double Heston paths under ``scheme``, one of ``SCHEMES``.

    ``columns`` names the grid indices to store (see ``stored_columns``);
    the default stores all M+1.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected {' or '.join(map(repr, SCHEMES))}")
    validate(params)
    n_paths = _count("n_paths", n_paths)
    columns = stored_columns(grid, columns)
    growth = np.empty((n_paths, len(columns)), order="F")
    # one allocation with the factor axis outermost: each variances[f] is a Fortran (path, column) matrix
    variances = np.empty((n_paths, len(columns), len(params.factors())), order="F").transpose(2, 0, 1)
    paths = PathSet(grid, params.s0, growth, variances, columns=columns)
    kernel = _BLOCK_KERNELS[scheme]
    n_blocks = (n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE

    def fill(block_id):
        rows = slice(block_id * BLOCK_SIZE, (block_id + 1) * BLOCK_SIZE)
        kernel(params, grid, rng_stream(seed, block_id), growth[rows], variances[:, rows], paths.positions)

    workers = min(_usable_cores(), n_blocks)
    if workers == 1:
        for block_id in range(n_blocks):
            fill(block_id)
        return paths
    pool = ThreadPoolExecutor(workers)
    try:
        list(pool.map(fill, range(n_blocks)))
    finally:  # once a block has failed, start no other
        pool.shutdown(cancel_futures=True)
    return paths
