"""Least-squares Monte Carlo backward induction for Bermudan/American puts.

Classic low-bias design: at each exercise date the continuation value is
regressed on a quadratic state basis over the in-the-money paths, the fitted
value is used only for the exercise decision, and realized (not fitted)
cashflows propagate backward. The price is the mean discounted cashflow at
the per-path exercise time; there is no exercise at t = 0.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .models import PutPayoff
from .simulation import PathSet, TimeGrid

# Singular values below RCOND * largest are treated as zero in the solve.
RCOND = 1e-10


@dataclass(frozen=True)
class ExerciseSchedule:
    """Grid indices (subset of 1..M, always ending at M) where exercise is allowed."""

    grid: TimeGrid
    exercise_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.exercise_indices)
        if len(idx) == 0:
            raise ValueError("schedule needs at least one exercise date")
        if idx[0] < 1:
            raise ValueError("t=0 is not an exercise date; indices start at 1")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("exercise indices must be strictly increasing")
        if idx[-1] != self.grid.steps:
            raise ValueError("maturity (index M) must be exercisable")
        object.__setattr__(self, "exercise_indices", idx)

    @classmethod
    def every_step(cls, grid: TimeGrid) -> "ExerciseSchedule":
        return cls(grid, tuple(range(1, grid.steps + 1)))

    @classmethod
    def evenly_spaced(cls, grid: TimeGrid, n_dates: int) -> "ExerciseSchedule":
        if grid.steps % n_dates != 0:
            raise ValueError(
                f"steps ({grid.steps}) must be divisible by the date count ({n_dates}); "
                "use nearest() for approximate placement"
            )
        stride = grid.steps // n_dates
        return cls(grid, tuple(range(stride, grid.steps + 1, stride)))

    @classmethod
    def nearest(cls, grid: TimeGrid, n_dates: int) -> "ExerciseSchedule":
        """Map ``n_dates`` equally spaced dates to the nearest grid indices.

        Used when the date count does not divide the step count (for example
        26 dates on a 750-step reference grid). Rounding is half-up so the
        mapping is reproducible across platforms.
        """
        if n_dates > grid.steps:
            raise ValueError("cannot place more dates than grid steps")
        idx = tuple(int(np.floor(j * grid.steps / n_dates + 0.5)) for j in range(1, n_dates + 1))
        return cls(grid, idx)

    @property
    def n_dates(self) -> int:
        return len(self.exercise_indices)

    def times(self) -> np.ndarray:
        return np.asarray(self.exercise_indices) * self.grid.dt


def build_features(asset, strike, variances) -> np.ndarray:
    """Quadratic basis over (s, v_1..v_n) for one date's cross section (rows = paths).

    With s = S/K the columns are [1, s, s^2, (v_j, v_j^2)_j, (s*v_j)_j,
    v_i*v_j (i<j)]: 6 features for Heston, 10 for double Heston.
    """
    s = np.asarray(asset, dtype=np.float64) / strike
    vs = [np.asarray(v, dtype=np.float64) for v in variances]
    cols = [np.ones(s.size), s, s * s]
    for v in vs:
        cols += [v, v * v]
    cols += [s * v for v in vs]
    cols += [vi * vj for vi, vj in combinations(vs, 2)]
    return np.column_stack(cols)


def regress_continuation(features: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimal-norm least-squares coefficients (rank-deficient designs tolerated)."""
    if features.shape[0] != target.shape[0]:
        raise ValueError("feature rows must match target length")
    if features.shape[0] < 1:
        raise ValueError("empty regression")
    coef, _, _, _ = np.linalg.lstsq(features, target, rcond=RCOND)
    return coef


@dataclass
class LsmResult:
    price: float
    std_error: float
    n_paths: int
    n_steps: int
    elapsed_seconds: float
    memory_bytes: int


def backward_induction(paths: PathSet, payoff: PutPayoff, schedule: ExerciseSchedule, r: float):
    """Run the backward sweep; return (cashflow, exercise_index) per path.

    ``cashflow`` holds the undiscounted payoff collected at each path's
    exercise date (index in ``exercise_index``). Dates with no in-the-money
    path are skipped (continuation assumed).
    """
    if schedule.grid != paths.grid:
        raise ValueError("schedule grid does not match the path grid")
    dt = paths.grid.dt
    asset = paths.asset
    variances = paths.variances()
    last = schedule.exercise_indices[-1]
    cashflow = payoff(asset[:, last])
    exercise_index = np.full(paths.n_paths, last)
    for k in reversed(schedule.exercise_indices[:-1]):
        immediate = payoff(asset[:, k])
        itm = immediate > 0.0
        if not itm.any():
            continue
        target = cashflow[itm] * np.exp(-r * dt * (exercise_index[itm] - k))
        features = build_features(asset[itm, k], payoff.strike, [v[itm, k] for v in variances])
        coef = regress_continuation(features, target)
        fitted = features @ coef
        exercised = immediate[itm] >= fitted
        rows = np.flatnonzero(itm)[exercised]
        cashflow[rows] = immediate[rows]
        exercise_index[rows] = k
    return cashflow, exercise_index


def lsm_price(paths: PathSet, payoff: PutPayoff, schedule: ExerciseSchedule, r: float) -> LsmResult:
    """Longstaff-Schwartz price of a Bermudan/American put over ``paths``.

    With the degenerate schedule {M} this reduces exactly to the European
    Monte Carlo estimator on the same paths.
    """
    start = time.perf_counter()
    cashflow, exercise_index = backward_induction(paths, payoff, schedule, r)
    discounted = np.exp(-r * paths.grid.dt * exercise_index) * cashflow
    price = float(discounted.mean())
    std_error = float(discounted.std(ddof=1) / np.sqrt(paths.n_paths)) if paths.n_paths > 1 else 0.0
    return LsmResult(
        price=price,
        std_error=std_error,
        n_paths=paths.n_paths,
        n_steps=paths.grid.steps,
        elapsed_seconds=time.perf_counter() - start,
        memory_bytes=paths.memory_bytes,
    )
