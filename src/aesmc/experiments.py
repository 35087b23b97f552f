"""Declarative experiment runner: multi-run pricing, relative errors, reports.

An ``ExperimentSpec`` describes one pricing experiment (model, scheme, grid,
schedule, the list of spots or strikes, run count, seeds, optional reference
prices). ``run_experiment`` executes it: for each case and run r the paths
are simulated with seed = base_seed + r and priced; per-case aggregates
(mean, across-run std, mean wall time, memory proxy, relative error) go into
an ``ExperimentReport`` that can be emitted as CSV or JSON with a stable row
order and schema.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lsm import ExerciseSchedule, lsm_price
from .models import DoubleHestonParams, HestonParams, PutPayoff
from .simulation import TimeGrid, simulate

CSV_COLUMNS = [
    "experiment", "case", "scheme", "n_steps", "n_paths", "runs",
    "mean_price", "run_std", "ref_price", "rel_error", "elapsed_s", "memory_bytes",
]

# Desk-scale defaults: paths divided by the scale factor, runs capped at 10.
DESK_SCALE = 10
DESK_RUNS = 10


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    model: HestonParams | DoubleHestonParams
    scheme: str                      # "aes" | "euler"
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
        if self.scheme not in ("aes", "euler"):
            errors.append(f"scheme must be 'aes' or 'euler', got {self.scheme!r}")
        if self.vary not in ("spot", "strike"):
            errors.append(f"vary must be 'spot' or 'strike', got {self.vary!r}")
        if int(self.runs) < 1:
            errors.append("runs must be >= 1")
        if int(self.n_paths) < 1:
            errors.append("n_paths must be >= 1")
        if int(self.n_steps) < 1:
            errors.append("n_steps must be >= 1")
        if not self.values:
            errors.append("values must be nonempty")
        if isinstance(self.schedule, str):
            if self.schedule != "american":
                errors.append(f"schedule must be a date count or 'american', got {self.schedule!r}")
        elif int(self.schedule) < 1:
            errors.append("schedule date count must be >= 1")
        if self.reference_prices is not None and len(self.reference_prices) != len(self.values):
            errors.append("reference_prices length must match values")
        if errors:
            raise ValueError(f"invalid experiment {self.name!r}: " + "; ".join(errors))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.reference_prices is not None:
            object.__setattr__(self, "reference_prices", tuple(float(v) for v in self.reference_prices))

    def grid(self) -> TimeGrid:
        return TimeGrid(maturity=self.maturity, steps=self.n_steps)

    def resolve_schedule(self) -> ExerciseSchedule:
        grid = self.grid()
        if self.schedule == "american":
            return ExerciseSchedule.every_step(grid)
        n_dates = int(self.schedule)
        if grid.steps % n_dates == 0:
            return ExerciseSchedule.evenly_spaced(grid, n_dates)
        return ExerciseSchedule.nearest(grid, n_dates)

    def case_label(self, value: float) -> str:
        prefix = "S0=" if self.vary == "spot" else "K="
        return f"{prefix}{value:g}"


def scaled(spec: ExperimentSpec, scale: int, runs: int | None = None) -> ExperimentSpec:
    """Desk-scale variant: n_paths divided by ``scale``; runs capped at 10.

    ``scale=1`` reproduces the full protocol (paper scale). Tolerances used
    against full-scale targets should widen by roughly sqrt(scale).
    """
    scale = int(scale)
    if scale < 1:
        raise ValueError("scale must be >= 1")
    n_paths = max(1, spec.n_paths // scale)
    if runs is None:
        effective_runs = spec.runs if scale == 1 else min(spec.runs, DESK_RUNS)
    else:
        effective_runs = int(runs)
    return replace(spec, n_paths=n_paths, runs=effective_runs)


@dataclass
class CaseResult:
    case: str
    value: float
    mean_price: float
    run_std: float
    elapsed_s: float
    memory_bytes: int
    ref_price: float | None = None
    rel_error: float | None = None


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
    def prices(self) -> list[float]:
        return [c.mean_price for c in self.cases]

    @property
    def case_std_errors(self) -> list[float]:
        """Standard error of each case's mean price across runs."""
        return [c.run_std / np.sqrt(self.runs) for c in self.cases]


def _case_model(spec: ExperimentSpec, value: float):
    if spec.vary == "spot":
        return replace(spec.model, s0=value), spec.strike
    return spec.model, value


def run_experiment(spec: ExperimentSpec, n_workers=None, run_prices_out: dict | None = None) -> ExperimentReport:
    """Execute one experiment: simulate + price per (case, run), aggregate.

    ``run_prices_out``, when given, collects {case label: [price per run]}
    for callers that need per-run data (slack computations, diagnostics).
    """
    schedule = spec.resolve_schedule()
    grid = spec.grid()
    report = ExperimentReport(
        experiment=spec.name,
        scheme=spec.scheme,
        n_steps=spec.n_steps,
        n_paths=spec.n_paths,
        runs=spec.runs,
        schedule_indices=schedule.exercise_indices,
        reference_source=spec.reference_source if spec.reference_prices is not None else "",
    )
    for i, value in enumerate(spec.values):
        model, strike = _case_model(spec, value)
        payoff = PutPayoff(strike)
        prices = np.empty(spec.runs)
        elapsed = np.empty(spec.runs)
        memory_bytes = 0
        for run in range(spec.runs):
            t0 = time.perf_counter()
            paths = simulate(spec.scheme, model, grid, spec.n_paths, spec.base_seed + run, n_workers)
            result = lsm_price(paths, payoff, schedule, model.r)
            elapsed[run] = time.perf_counter() - t0
            prices[run] = result.price
            memory_bytes = result.memory_bytes
        case = CaseResult(
            case=spec.case_label(value),
            value=value,
            mean_price=float(prices.mean()),
            run_std=float(prices.std(ddof=1)) if spec.runs > 1 else 0.0,
            elapsed_s=float(elapsed.mean()),
            memory_bytes=memory_bytes,
        )
        if spec.reference_prices is not None:
            case.ref_price = spec.reference_prices[i]
            case.rel_error = abs(case.mean_price - case.ref_price) / case.ref_price
        if run_prices_out is not None:
            run_prices_out[case.case] = prices.tolist()
        report.cases.append(case)
    return report


def generate_reference_prices(spec: ExperimentSpec, n_workers=None) -> ExperimentReport:
    """High-resolution Euler run whose mean prices serve as references.

    The returned report is tagged ``self-euler-m<steps>``; its
    ``schedule_indices`` record how exercise dates were mapped onto the grid
    when the date count does not divide the step count.
    """
    if spec.scheme != "euler":
        raise ValueError("reference generation requires the euler scheme")
    tagged = replace(spec, reference_prices=None, reference_source="")
    report = run_experiment(tagged, n_workers=n_workers)
    report.reference_source = f"self-euler-m{spec.n_steps}"
    return report


def attach_references(report: ExperimentReport, prices, source: str) -> ExperimentReport:
    """Fill ref_price/rel_error columns of ``report`` from a price list."""
    if len(prices) != len(report.cases):
        raise ValueError("reference price count does not match cases")
    for case, ref in zip(report.cases, prices):
        case.ref_price = float(ref)
        case.rel_error = abs(case.mean_price - case.ref_price) / case.ref_price
    report.reference_source = source
    return report


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "experiment": report.experiment,
        "scheme": report.scheme,
        "n_steps": report.n_steps,
        "n_paths": report.n_paths,
        "runs": report.runs,
        "schedule_indices": list(report.schedule_indices),
        "reference_source": report.reference_source,
        "cases": [dataclasses.asdict(c) for c in report.cases],
    }


def report_from_dict(payload: dict) -> ExperimentReport:
    return ExperimentReport(
        experiment=payload["experiment"],
        scheme=payload["scheme"],
        n_steps=payload["n_steps"],
        n_paths=payload["n_paths"],
        runs=payload["runs"],
        schedule_indices=tuple(payload["schedule_indices"]),
        reference_source=payload["reference_source"],
        cases=[CaseResult(**c) for c in payload["cases"]],
    )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reports_csv(reports) -> str:
    """CSV text: the ``CSV_COLUMNS`` header, then one row per case of each report."""
    lines = [",".join(CSV_COLUMNS)]
    for report in reports:
        for case in report.cases:
            row = [
                report.experiment, case.case, report.scheme,
                report.n_steps, report.n_paths, report.runs,
                case.mean_price, case.run_std, case.ref_price, case.rel_error,
                case.elapsed_s, case.memory_bytes,
            ]
            lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, format: str, path) -> None:
    """Write the report to ``path`` as csv or json (stable ordering)."""
    if format == "csv":
        text = reports_csv([report])
    elif format == "json":
        text = json.dumps(report_to_dict(report), indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {format!r}")
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write report to {path}: {exc}") from exc


def load_report_json(path) -> ExperimentReport:
    with open(path) as fh:
        return report_from_dict(json.load(fh))
