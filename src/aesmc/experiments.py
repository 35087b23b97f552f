"""Declarative experiment runner: multi-run pricing, relative errors, reports.

An ``ExperimentSpec`` describes one pricing experiment (model, scheme, grid,
schedule, the list of spots or strikes, run count, seeds, optional reference
prices). ``run_experiment`` executes it through ``price_runs``, the one run
loop: run r simulates spot-free paths once with seed = base_seed + r, and
every case is priced on them; per-case aggregates (mean, across-run std,
mean wall time, memory proxy, relative error) go into an
``ExperimentReport``. ``emit_report`` writes reports as CSV and JSON with a
stable row order and schema; ``write_csv`` is the one CSV writer and
``report_json`` the one JSON serialiser.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .lsm import ExerciseSchedule, lsm_price
from .models import DoubleHestonParams, HestonParams, PutPayoff
from .sampling import UINT64_LIMIT, _integral, _is_number
from .simulation import SCHEMES, TimeGrid, _count, simulate

CSV_COLUMNS = [
    "experiment", "case", "scheme", "n_steps", "n_paths", "runs",
    "mean_price", "run_std", "ref_price", "rel_error", "elapsed_s", "memory_bytes",
]

# Desk scale caps the run count at 10.
DESK_RUNS = 10


def _numbers(value) -> bool:
    """Whether ``value`` is a list or tuple of numbers (``sampling._is_number``)."""
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    model: HestonParams | DoubleHestonParams
    scheme: str                      # one of simulation.SCHEMES
    n_paths: int
    n_steps: int
    schedule: int | str              # date count, or "american" for every step
    vary: str                        # "spot" | "strike"
    values: tuple[float, ...]
    strike: float                    # fixed strike when vary == "spot"
    maturity: float
    runs: int = 20
    base_seed: int = 0
    reference_prices: tuple[float, ...] | None = None
    reference_source: str = ""

    def __post_init__(self):
        errors = []
        # the name is the stem of the report files
        if not isinstance(self.name, str) or self.name in ("", ".", "..") or "/" in self.name:
            errors.append(f"name must be a nonempty file name with no '/', got {self.name!r}")
        if self.scheme not in SCHEMES:
            errors.append(f"scheme must be {' or '.join(map(repr, SCHEMES))}, got {self.scheme!r}")
        if self.vary not in ("spot", "strike"):
            errors.append(f"vary must be 'spot' or 'strike', got {self.vary!r}")
        counts = {"runs": self.runs, "n_paths": self.n_paths, "n_steps": self.n_steps,
                  "base_seed": self.base_seed}
        if self.schedule != "american":
            counts["schedule"] = self.schedule
        not_integral = [key for key, value in counts.items() if not _integral(value)]
        errors += [f"schedule must be a date count or 'american', got {counts[key]!r}" if key == "schedule"
                   else f"{key} must be an integer, got {counts[key]!r}" for key in not_integral]
        if not not_integral:
            for key, value in counts.items():
                object.__setattr__(self, key, int(value))
            if self.runs < 1:
                errors.append("runs must be >= 1")
            elif not 0 <= self.base_seed <= UINT64_LIMIT - self.runs:
                errors.append(f"base_seed {self.base_seed} puts some run's seed outside 0..2**64-1")
            if self.n_paths < 1:
                errors.append("n_paths must be >= 1")
            if self.n_steps < 1:
                errors.append("n_steps must be >= 1")
            if "schedule" in counts and self.schedule < 1:
                errors.append("schedule date count must be >= 1")
            elif "schedule" in counts and self.schedule > self.n_steps:
                errors.append(f"schedule date count {self.schedule} exceeds n_steps {self.n_steps}")
        if not _numbers(self.values):
            errors.append(f"'values' must be a list of numbers, got {self.values!r}")
        elif not self.values:
            errors.append("values must be nonempty")
        elif not all(np.isfinite(v) and v > 0.0 for v in map(float, self.values)):
            errors.append("values must be positive")
        elif _numbers(self.reference_prices) and len(self.reference_prices) != len(self.values):
            errors.append("reference_prices length must match values")
        for key, value in (("strike", self.strike), ("maturity", self.maturity)):
            if not _is_number(value):
                errors.append(f"{key!r} must be a number, got {value!r}")
            elif (key == "maturity" or self.vary == "spot") and not (np.isfinite(float(value)) and value > 0.0):
                errors.append(f"{key} must be finite and > 0, got {value!r}")
        # named by its config key, as a config entry gives it
        if self.reference_prices is not None and not _numbers(self.reference_prices):
            errors.append(f"'reference.prices' must be a list of numbers, got {self.reference_prices!r}")
        if errors:
            raise ValueError(f"invalid experiment {self.name!r}: " + "; ".join(errors))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.reference_prices is not None:
            object.__setattr__(self, "reference_prices", tuple(float(v) for v in self.reference_prices))

    def grid(self) -> TimeGrid:
        return TimeGrid(maturity=self.maturity, steps=self.n_steps)

    def resolve_schedule(self) -> ExerciseSchedule:
        n_dates = self.n_steps if self.schedule == "american" else self.schedule
        return ExerciseSchedule.nearest(self.grid(), int(n_dates))

    def cases(self) -> list[tuple[float, float]]:
        """The (spot, strike) each case prices, in ``values`` order."""
        return [(value, self.strike) if self.vary == "spot" else (self.model.s0, value)
                for value in self.values]

    def case_label(self, value: float) -> str:
        prefix = "S0=" if self.vary == "spot" else "K="
        return f"{prefix}{value:g}"


def scaled(spec: ExperimentSpec, scale: int, runs: int | None = None) -> ExperimentSpec:
    """Desk-scale variant: n_paths divided by ``scale``; runs capped at 10.

    ``scale=1`` reproduces the full protocol (paper scale). Tolerances used
    against full-scale targets should widen by roughly sqrt(scale).
    """
    scale = _count("scale", scale)
    n_paths = max(1, spec.n_paths // scale)
    if runs is None:
        runs = spec.runs if scale == 1 else min(spec.runs, DESK_RUNS)
    return replace(spec, n_paths=n_paths, runs=runs)


@dataclass
class CaseResult:
    case: str
    value: float
    mean_price: float
    run_std: float
    elapsed_s: float
    memory_bytes: int
    ref_price: float | None
    rel_error: float | None
    sim_s: float                     # mean simulation time of the case's runs
    price_s: float                   # mean LSM pricing time of the case's runs
    std_errors: list[float]          # Monte Carlo SE of each run


@dataclass
class ExperimentReport:
    experiment: str
    scheme: str
    n_steps: int
    n_paths: int
    runs: int
    schedule_indices: tuple[int, ...]
    reference_source: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def case_std_errors(self) -> list[float]:
        """Standard error of each case's mean price across runs."""
        return [c.run_std / np.sqrt(self.runs) for c in self.cases]


def price_runs(spec: ExperimentSpec, schedules):
    """Price every (schedule, case) of ``spec`` on one path set per run.

    Run r simulates with seed base_seed + r, storing the union of the
    schedules' dates, and each case prices the spot-free paths at its own
    spot and strike. Returns prices, SEs and pricing times shaped (schedule,
    case, run), the simulation time of each run, and the memory model.
    """
    grid = spec.grid()
    columns = sorted(set().union(*(s.exercise_indices for s in schedules)))
    cases = spec.cases()
    prices, std_errors, price_s = (np.empty((len(schedules), len(cases), spec.runs)) for _ in range(3))
    sim_s = np.empty(spec.runs)
    for run in range(spec.runs):
        paths = None  # never hold two path sets at once
        t0 = time.perf_counter()
        paths = simulate(spec.scheme, spec.model, grid, spec.n_paths, spec.base_seed + run, columns)
        sim_s[run] = time.perf_counter() - t0
        for k, schedule in enumerate(schedules):
            for i, (spot, strike) in enumerate(cases):
                t0 = time.perf_counter()
                result = lsm_price(replace(paths, s0=spot), PutPayoff(strike), schedule, spec.model.r)
                price_s[k, i, run] = time.perf_counter() - t0
                prices[k, i, run] = result.price
                std_errors[k, i, run] = result.std_error
    return prices, std_errors, sim_s, price_s, paths.memory_bytes


def run_experiment(spec: ExperimentSpec, run_prices_out: dict | None = None) -> ExperimentReport:
    """Execute one experiment: ``price_runs`` on its one schedule, then aggregate.

    A case's ``elapsed_s`` is its run's simulation time plus its own pricing
    time, averaged over runs. ``run_prices_out``, when given, collects
    {case label: [price per run]} for callers that need per-run data (slack
    computations, diagnostics).
    """
    schedule = spec.resolve_schedule()
    report = ExperimentReport(
        experiment=spec.name,
        scheme=spec.scheme,
        n_steps=spec.n_steps,
        n_paths=spec.n_paths,
        runs=spec.runs,
        schedule_indices=schedule.exercise_indices,
        reference_source=spec.reference_source if spec.reference_prices is not None else "",
    )
    (prices,), (std_errors,), sim_s, (price_s,), memory_bytes = price_runs(spec, [schedule])
    for i, value in enumerate(spec.values):
        mean_price = float(prices[i].mean())
        ref = None if spec.reference_prices is None else spec.reference_prices[i]
        case = CaseResult(
            case=spec.case_label(value),
            value=value,
            mean_price=mean_price,
            run_std=float(prices[i].std(ddof=1)) if spec.runs > 1 else 0.0,
            elapsed_s=float((sim_s + price_s[i]).mean()),
            memory_bytes=memory_bytes,
            ref_price=ref,
            rel_error=None if ref is None else abs(mean_price - ref) / ref,
            sim_s=float(sim_s.mean()),
            price_s=float(price_s[i].mean()),
            std_errors=std_errors[i].tolist(),
        )
        if run_prices_out is not None:
            run_prices_out[case.case] = prices[i].tolist()
        report.cases.append(case)
    return report


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then each row of cells to ``path`` as CSV; return the path.

    None is an empty cell and any other cell its ``str``, which for a float
    is its shortest repr, so it parses back to the same bits.
    """
    path = Path(path)
    path.write_text("".join(",".join("" if c is None else str(c) for c in cells) + "\n"
                            for cells in [header, *rows]))
    return path


def emit_report(reports: ExperimentReport | list[ExperimentReport], stem) -> tuple[Path, Path]:
    """Write ``<stem>.csv`` and ``<stem>.json`` and return their paths, CSV first.

    The CSV has the ``CSV_COLUMNS`` header, then one row per case of each
    report; each column is the case's field of that name, else the report's.
    The JSON is ``report_json``'s text.
    """
    many = isinstance(reports, list)
    rows = [[getattr(case if hasattr(case, name) else report, name) for name in CSV_COLUMNS]
            for report in (reports if many else [reports]) for case in report.cases]
    csv_path = write_csv(f"{stem}.csv", CSV_COLUMNS, rows)
    json_path = Path(f"{stem}.json")
    json_path.write_text(report_json(reports))
    return csv_path, json_path


def report_json(reports: ExperimentReport | list[ExperimentReport]) -> str:
    """The JSON text of one report (an object) or of a list of reports (a list), newline-ended."""
    many = isinstance(reports, list)
    payload = [dataclasses.asdict(r) for r in reports] if many else dataclasses.asdict(reports)
    return json.dumps(payload, indent=2) + "\n"
