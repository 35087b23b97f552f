"""Least-squares Monte Carlo backward induction for Bermudan/American puts.

Classic low-bias design: at each exercise date the continuation value is
regressed on a quadratic state basis over the in-the-money paths, the fitted
value is used only for the exercise decision, and realized (not fitted)
cashflows propagate backward. The price is the mean discounted cashflow at
the per-path exercise time; there is no exercise at t = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .models import PutPayoff
from .sampling import _integral
from .simulation import PathSet, TimeGrid, stored_columns

# Singular values below RCOND * largest are treated as zero in the solve.
RCOND = 1e-10
# Rows per block of the Gram matrix X'X. A block times its own copy hands
# matmul two distinct operands, so OpenBLAS runs GEMM rather than SYRK, which
# is slower for p <= 10 columns. 8,192-row blocks keep both operands in cache:
# unblocked, GEMM plus the copy loses to SYRK above about 20k rows. One BLAS
# thread on a shared 2-core x86_64 host, p = 6, SYRK -> blocked GEMM:
# 49 -> 25 us at 5,000 rows and 2,024 -> 1,264 us at 200,000 rows.
GRAM_ROWS = 8192


@dataclass(frozen=True)
class ExerciseSchedule:
    """Grid indices where exercise is allowed: a ``stored_columns`` tuple without t=0."""

    grid: TimeGrid
    exercise_indices: tuple[int, ...]

    def __post_init__(self):
        idx = stored_columns(self.grid, self.exercise_indices)
        if idx[0] == 0:
            raise ValueError("t=0 is not an exercise date; indices start at 1")
        object.__setattr__(self, "exercise_indices", idx)

    @classmethod
    def nearest(cls, grid: TimeGrid, n_dates: int) -> "ExerciseSchedule":
        """Map ``n_dates`` equally spaced dates to the nearest grid indices.

        When the date count divides the step count the dates land exactly on
        every (M/D)-th step; otherwise (for example 26 dates on a 750-step
        reference grid) rounding is half-up so the mapping is reproducible
        across platforms.
        """
        if not _integral(n_dates):
            raise ValueError(f"n_dates must be an integer, got {n_dates!r}")
        n_dates = int(n_dates)
        if n_dates < 1:
            raise ValueError(f"n_dates must be >= 1, got {n_dates}")
        if n_dates > grid.steps:
            raise ValueError("cannot place more dates than grid steps")
        idx = tuple(int(np.floor(j * grid.steps / n_dates + 0.5)) for j in range(1, n_dates + 1))
        return cls(grid, idx)


def _n_features(n_factors: int) -> int:
    """Column count of ``build_features`` for ``n_factors`` variance factors."""
    return 3 + 3 * n_factors + n_factors * (n_factors - 1) // 2


def build_features(asset, strike, variances, out=None) -> np.ndarray:
    """Quadratic basis over (s, v_1..v_n) for one date's cross section (rows = paths).

    With s = S/K the columns are [1, s, s^2, (v_j, v_j^2)_j, (s*v_j)_j,
    v_i*v_j (i<j)]: 6 features for Heston, 10 for double Heston. The matrix
    is column-major (Fortran-ordered), so each feature is one contiguous
    write; ``out``, when given, is a buffer of that shape whose columns are
    contiguous, such as rows sliced from an ``order="F"`` array.
    """
    s = np.asarray(asset, dtype=np.float64) / strike
    vs = [np.asarray(v, dtype=np.float64) for v in variances]
    features = np.empty((s.size, _n_features(len(vs))), order="F") if out is None else out
    cols = iter(features.T)
    next(cols)[:] = 1.0
    next(cols)[:] = s
    np.multiply(s, s, out=next(cols))
    for v in vs:
        next(cols)[:] = v
        np.multiply(v, v, out=next(cols))
    for v in vs:
        np.multiply(s, v, out=next(cols))
    for vi, vj in combinations(vs, 2):
        np.multiply(vi, vj, out=next(cols))
    return features


def regress_continuation(features: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (rank-deficient designs tolerated).

    A well-conditioned design is solved on its p x p normal equations
    X'X c = X'y, with X'X summed over GEMM products of row blocks of at most
    ``GRAM_ROWS`` rows; a column-major design makes X'y and X c contiguous
    matrix-vector products. A design with fewer rows than columns, a Gram
    matrix whose condition number (largest over smallest singular value, as
    ``np.linalg.cond`` gives it) reaches 1/RCOND, or a non-finite solution
    falls back to the minimal-norm SVD solve.
    """
    if features.shape[0] != target.shape[0]:
        raise ValueError("feature rows must match target length")
    if features.shape[0] < 1:
        raise ValueError("empty regression")
    if features.shape[0] >= features.shape[1]:
        gram = 0.0
        for start in range(0, len(features), GRAM_ROWS):
            block = features[start:start + GRAM_ROWS]
            gram += block.T @ block.copy(order="F")
        singular = np.linalg.svd(gram, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            well_conditioned = singular[0] / singular[-1] * RCOND <= 1.0
        if well_conditioned:
            coef = np.linalg.solve(gram, features.T @ target)
            if np.isfinite(coef).all():
                return coef
    coef, _, _, _ = np.linalg.lstsq(features, target, rcond=RCOND)
    return coef


def discount_factors(r: float, grid: TimeGrid) -> np.ndarray:
    """exp(-r dt j) for each grid index j = 0..M, looked up by ``take``."""
    return np.exp(-r * grid.dt * np.arange(grid.steps + 1))


@dataclass
class LsmResult:
    price: float
    std_error: float


def backward_induction(paths: PathSet, payoff: PutPayoff, schedule: ExerciseSchedule, r: float):
    """Run the backward sweep; return (cashflow, exercise_index) per path.

    ``cashflow`` holds the undiscounted payoff collected at each path's
    exercise date (grid index in ``exercise_index``). Dates with no
    in-the-money path are skipped (continuation assumed). Each date is read
    through ``paths.column``, so the path set needs to store only the
    schedule's dates; a date it does not store is a ValueError naming it.

    A path is in the money on a date when its spot is below the strike,
    which is exactly when the payoff K - s rounds to a positive number, so
    K - s is computed on those rows only. A path at the strike is out of the
    money and is never exercised there.

    The sweep allocates its feature buffer and its ``discount_factors`` once,
    and only gathers the in-the-money rows and scatters the exercised ones per date.
    """
    if schedule.grid != paths.grid:
        raise ValueError("schedule grid does not match the path grid")
    positions = [paths.column(k) for k in schedule.exercise_indices]
    variances = paths.variances
    discount = discount_factors(r, paths.grid)
    feature_buffer = np.empty((paths.n_paths, _n_features(len(variances))), order="F")
    last = schedule.exercise_indices[-1]
    cashflow = payoff(paths.s0 * paths.growth[:, positions[-1]])
    exercise_index = np.full(paths.n_paths, last)
    for k, j in zip(reversed(schedule.exercise_indices[:-1]), reversed(positions[:-1])):
        spot = paths.s0 * paths.growth[:, j]
        rows = np.flatnonzero(spot < payoff.strike)
        if rows.size == 0:
            continue
        spot = spot.take(rows)
        immediate = payoff.strike - spot
        target = cashflow.take(rows) * discount.take(exercise_index.take(rows) - k)
        features = build_features(spot, payoff.strike,
                                  [v[:, j].take(rows) for v in variances],
                                  out=feature_buffer[:rows.size])
        coef = regress_continuation(features, target)
        exercised = np.flatnonzero(immediate >= features @ coef)
        exercised_rows = rows.take(exercised)
        cashflow[exercised_rows] = immediate.take(exercised)
        exercise_index[exercised_rows] = k
    return cashflow, exercise_index


def lsm_price(paths: PathSet, payoff: PutPayoff, schedule: ExerciseSchedule, r: float) -> LsmResult:
    """Longstaff-Schwartz price of a Bermudan/American put over ``paths``.

    Each cashflow is discounted by a lookup into the sweep's own
    ``discount_factors``. With the degenerate schedule {M} this reduces
    exactly to the European Monte Carlo estimator on the same paths.
    """
    cashflow, exercise_index = backward_induction(paths, payoff, schedule, r)
    discounted = discount_factors(r, paths.grid).take(exercise_index) * cashflow
    price = float(discounted.mean())
    std_error = float(discounted.std(ddof=1) / np.sqrt(paths.n_paths)) if paths.n_paths > 1 else 0.0
    return LsmResult(price=price, std_error=std_error)
