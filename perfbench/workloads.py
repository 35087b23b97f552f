"""The benchmark's workloads, their timed pass, their hooks and their checks.

Every workload is built from the package's own table configs through its
public API, at a reduced path count and one run per case, with base seeds
shifted by ``SEED_STRIDE * seed``:

* ``heston-tables``: Tables 1 and 2, AES and Euler (16 priced cases),
  through ``catalog.run_table``, which also writes the CSV and JSON reports.
* ``double-heston-american``: Table 5 (AES and Euler, M=12) and the M=60
  rung of the Table 6 AES ladder (9 priced cases), through
  ``experiments.run_experiment``.

A priced case is one operation. After the timed passes every case is
re-simulated at its own seed, outside the timed region, and checked against
the semi-analytic European oracle and a set of structural properties; a
case that fails any check counts as failed in every pass.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from aesmc import catalog, experiments, lsm, sampling, simulation
from aesmc.lsm import ExerciseSchedule
from aesmc.models import DoubleHestonParams, PutPayoff

WORKLOADS = ("heston-tables", "double-heston-american")

# Relative standard error a case must reach in time_to_rse_s; about what the
# paper's full protocol (20 runs of 1M paths) gives the least precise case.
TARGET_RSE = 1e-3
SEED_STRIDE = 1000
HESTON_TABLES = ("1", "2")
HESTON_SCALE = 50           # 1,000,000 / 50 = 20,000 paths per case
DOUBLE_HESTON_PATHS = 10_000
DOUBLE_HESTON_SPECS = (("5", "table5-aes"), ("5", "table5-euler"), ("6", "table6-aes-m60"))

# The paper's own prices for the same scheme and grid, with the tolerance
# the acceptance suite applies to them (criterion 4's 1.5% for the M=60 rung,
# whose published AES value the suite uses only in its ladder check).
PUBLISHED = {
    "table1-aes": ((9.966, 3.195, 0.917), 0.010, "criterion 1"),
    "table2-aes": ((1.9860, 1.1093, 0.5190, 0.2108, 0.0796), 0.015, "criterion 2"),
    "table5-aes": ((6.992, 9.635, 12.676), 0.015, "criterion 4"),
    "table6-aes-m60": ((6.918, 9.543, 12.568), 0.015, "criterion 4"),
}
# Acceptance xfails (criterion 2, deepest out-of-the-money rows): reported
# with their margins on every run, never counted as passed or failed.
DOCUMENTED = {("table2-aes", 11.0), ("table2-aes", 12.0)}
CRITERION_5B_GAP = 0.005

# Monte Carlo part of every statistical check, in standard errors. Five
# keeps the chance of a false failure near one in a thousand over all the
# checks of a benchmark session (about 2,500).
Z = 5.0
# Discretisation allowance of the European price against the oracle, as a
# share of the oracle price: the largest |bias| + 3 SE over the group's
# cases, measured once at 1M paths, rounded up to 0.5% (table in README).
ALLOWANCE = {
    "table1-aes": 0.035,
    "table1-euler": 0.020,
    "table2-aes": 0.060,
    "table2-euler": 0.035,
    "table5-aes": 0.020,
    "table5-euler": 0.010,
    "table6-aes-m60": 0.010,
}


@dataclass(frozen=True)
class Case:
    key: str
    group: str
    vary: str
    value: float
    scheme: str
    model: object
    strike: float
    schedule: ExerciseSchedule
    n_paths: int
    seed: int
    allowance: float
    published: float | None = None
    tolerance: float = 0.0
    criterion: str = ""


class TableWorkload:
    """Priced cases of table experiments, one run per case."""

    specs: list

    def cases(self):
        out = []
        for spec in self.specs:
            published, tolerance, criterion = PUBLISHED.get(spec.name, (None, 0.0, ""))
            for i, value in enumerate(spec.values):
                model = replace(spec.model, s0=value) if spec.vary == "spot" else spec.model
                out.append(Case(
                    key=f"{spec.name} {spec.case_label(value)}", group=spec.name,
                    vary=spec.vary, value=value, scheme=spec.scheme, model=model,
                    strike=spec.strike if spec.vary == "spot" else value,
                    schedule=spec.resolve_schedule(), n_paths=spec.n_paths, seed=spec.base_seed,
                    allowance=ALLOWANCE[spec.name],
                    published=None if published is None else published[i],
                    tolerance=tolerance, criterion=criterion,
                ))
        return out


class CatalogTables(TableWorkload):
    """``catalog.run_table`` over whole tables; prices are read back from its JSON reports."""

    name = "heston-tables"

    def __init__(self, seed: int, scale: float):
        self.scale = max(1, round(HESTON_SCALE / scale))
        self.seeds = {t: catalog.table_specs(t)[0].base_seed + SEED_STRIDE * seed for t in HESTON_TABLES}
        # the specs run_table builds from these arguments
        self.specs = [replace(experiments.scaled(spec, self.scale, 1), base_seed=self.seeds[t])
                      for t in HESTON_TABLES for spec in catalog.table_specs(t)]

    def run(self, out_dir):
        return [path for t in HESTON_TABLES
                for path in catalog.run_table(t, scale=self.scale, runs=1, seed=self.seeds[t],
                                              out_dir=out_dir)]

    def prices(self, written):
        prices = {}
        for path in written:
            if path.suffix == ".json":
                report = json.loads(path.read_text())
                for case in report["cases"]:
                    prices[f"{report['experiment']} {case['case']}"] = case["mean_price"]
        return prices

    def emitted_bytes(self, written) -> int:
        return sum(Path(p).stat().st_size for p in written)


class ExperimentTables(TableWorkload):
    """``run_experiment`` per spec; per-run prices come back through ``run_prices_out``."""

    name = "double-heston-american"

    def __init__(self, seed: int, scale: float):
        n_paths = max(50, int(DOUBLE_HESTON_PATHS * scale))
        self.specs = []
        for table_id, spec_name in DOUBLE_HESTON_SPECS:
            (spec,) = [s for s in catalog.table_specs(table_id) if s.name == spec_name]
            self.specs.append(replace(spec, n_paths=n_paths, runs=1,
                                      base_seed=spec.base_seed + SEED_STRIDE * seed))

    def run(self, out_dir):
        prices = {}
        for spec in self.specs:
            runs = {}
            experiments.run_experiment(spec, run_prices_out=runs)
            prices.update({f"{spec.name} {label}": p[0] for label, p in runs.items()})
        return prices

    def prices(self, raw):
        return raw

    def emitted_bytes(self, raw) -> int:
        return 0


def build(name: str, seed: int, scale: float = 1.0) -> TableWorkload:
    return CatalogTables(seed, scale) if name == CatalogTables.name else ExperimentTables(seed, scale)


# ---------------------------------------------------------------------------
# Traced run: hooks and per-layer metrics.
# ---------------------------------------------------------------------------

def _count_simulate(counts, args, paths):
    n_paths, columns = paths.asset.shape
    counts["simulation.path_steps"] += n_paths * (columns - 1)
    nbytes = sum(v.nbytes for v in vars(paths).values() if isinstance(v, np.ndarray))
    counts["simulation.path_bytes"] = max(counts["simulation.path_bytes"], nbytes)


def _count_draws(counts, args, draws):
    counts["sampling.ncx2.draws"] += np.size(draws)


def _count_rows(counts, args, coef):
    counts["lsm.regress.rows"] += np.shape(args[0])[0]


def install_hooks(tracer):
    """Wrap the calls into each layer, as the calling module looks them up."""
    tracer.hook(experiments, "simulate", "simulation.simulate", _count_simulate)
    tracer.hook(experiments, "lsm_price", "lsm.price")
    tracer.hook(experiments, "run_experiment", "experiments.run")
    tracer.hook(catalog, "run_experiment", "experiments.run")
    tracer.hook(catalog, "run_table", "catalog.table")
    tracer.hook(catalog, "emit_report", "catalog.emit")
    tracer.hook(lsm, "backward_induction", "lsm.sweep")
    tracer.hook(lsm, "build_features", "lsm.features")
    tracer.hook(lsm, "regress_continuation", "lsm.regress", _count_rows)
    kernels = getattr(simulation, "_BLOCK_KERNELS", {})
    for key in list(kernels) or ["_BLOCK_KERNELS"]:
        tracer.hook(kernels, key, "simulation.kernel")
    tracer.hook(simulation, "cir_transition_params", "simulation.transition")
    tracer.hook(simulation, "cir_exact_step", "simulation.cir_step")
    tracer.hook(simulation, "sample_noncentral_chisq", "sampling.ncx2", _count_draws)
    tracer.hook(simulation, "sample_standard_normal", "sampling.normal")
    tracer.hook(sampling, "sample_poisson", "sampling.poisson")
    tracer.hook(sampling, "sample_gamma", "sampling.gamma")


# name -> (unit, better, span the value depends on)
PER_LAYER = {
    "sampling.ncx2.s": ("s", "lower", "sampling.ncx2"),
    "sampling.poisson.s": ("s", "lower", "sampling.poisson"),
    "sampling.gamma.s": ("s", "lower", "sampling.gamma"),
    "sampling.normal.s": ("s", "lower", "sampling.normal"),
    "sampling.ncx2.draws": ("count", "lower", "sampling.ncx2"),
    "sampling.ncx2.draws_per_s": ("1/s", "higher", "sampling.ncx2"),
    "simulation.simulate.s": ("s", "lower", "simulation.simulate"),
    "simulation.simulate.calls": ("count", "lower", "simulation.simulate"),
    "simulation.path_steps": ("count", "lower", "simulation.simulate"),
    "simulation.path_steps_per_s": ("1/s", "higher", "simulation.simulate"),
    "simulation.transition.s": ("s", "lower", "simulation.transition"),
    "simulation.cir_step.self_s": ("s", "lower", "simulation.cir_step"),
    "simulation.kernel.self_s": ("s", "lower", "simulation.kernel"),
    "simulation.path_bytes": ("B", "lower", "simulation.simulate"),
    "lsm.price.s": ("s", "lower", "lsm.price"),
    "lsm.price.calls": ("count", "lower", "lsm.price"),
    "lsm.features.s": ("s", "lower", "lsm.features"),
    "lsm.regress.s": ("s", "lower", "lsm.regress"),
    "lsm.sweep.self_s": ("s", "lower", "lsm.sweep"),
    "lsm.regressions": ("count", "lower", "lsm.regress"),
    "lsm.regress.rows": ("count", "lower", "lsm.regress"),
    "lsm.regress.rows_per_s": ("1/s", "higher", "lsm.regress"),
    "experiments.run.s": ("s", "lower", "experiments.run"),
    "experiments.self_s": ("s", "lower", "experiments.run"),
    "catalog.table.self_s": ("s", "lower", "catalog.table"),
    "catalog.emit.s": ("s", "lower", "catalog.emit"),
    "catalog.emit.bytes": ("B", "lower", "catalog.emit"),
    "trace.overhead_s": ("s", "lower", None),
}


def layer_values(tracer, emitted_bytes: int) -> dict[str, float | None]:
    """Per-layer values of the pass just traced; None where a hook is missing."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals[name][0]

    def incl(name):
        return totals[name][1]

    def own(name):
        return totals[name][2]

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    values = {
        "sampling.ncx2.s": incl("sampling.ncx2"),
        "sampling.poisson.s": incl("sampling.poisson"),
        "sampling.gamma.s": incl("sampling.gamma"),
        "sampling.normal.s": incl("sampling.normal"),
        "sampling.ncx2.draws": counts["sampling.ncx2.draws"],
        "sampling.ncx2.draws_per_s": rate(counts["sampling.ncx2.draws"], incl("sampling.ncx2")),
        "simulation.simulate.s": incl("simulation.simulate"),
        "simulation.simulate.calls": calls("simulation.simulate"),
        "simulation.path_steps": counts["simulation.path_steps"],
        "simulation.path_steps_per_s": rate(counts["simulation.path_steps"], incl("simulation.simulate")),
        "simulation.transition.s": incl("simulation.transition"),
        "simulation.cir_step.self_s": own("simulation.cir_step"),
        "simulation.kernel.self_s": own("simulation.kernel"),
        "simulation.path_bytes": counts["simulation.path_bytes"],
        "lsm.price.s": incl("lsm.price"),
        "lsm.price.calls": calls("lsm.price"),
        "lsm.features.s": incl("lsm.features"),
        "lsm.regress.s": incl("lsm.regress"),
        "lsm.sweep.self_s": own("lsm.sweep"),
        "lsm.regressions": calls("lsm.regress"),
        "lsm.regress.rows": counts["lsm.regress.rows"],
        "lsm.regress.rows_per_s": rate(counts["lsm.regress.rows"], incl("lsm.regress")),
        "experiments.run.s": incl("experiments.run"),
        "experiments.self_s": own("experiments.run"),
        "catalog.table.self_s": own("catalog.table"),
        "catalog.emit.s": incl("catalog.emit"),
        "catalog.emit.bytes": emitted_bytes,
    }
    missing = {m.split(" ")[0] for m in tracer.missing}
    return {k: (None if PER_LAYER[k][2] in missing else float(v)) for k, v in values.items()}


# ---------------------------------------------------------------------------
# Correctness checks, computed apart from the timed passes.
# ---------------------------------------------------------------------------

def _oracle_factors(model):
    from oracle import Factor

    if isinstance(model, DoubleHestonParams):
        return [Factor(model.kappa_1, model.nu_bar_1, model.gamma_1, model.v0_1, model.rho_13),
                Factor(model.kappa_2, model.nu_bar_2, model.gamma_2, model.v0_2, model.rho_24)]
    return [Factor(model.kappa, model.nu_bar, model.gamma, model.v0, model.rho)]


def check_cases(cases, prices, log=sys.stderr):
    """Check every case; return ({key: [failed check names]}, {key: rse})."""
    from oracle import put_price

    failures = {case.key: [] for case in cases}
    rse = {}
    standard_error = {}
    cached_key, paths = None, None
    for case in cases:
        grid = case.schedule.grid
        sim_key = (case.scheme, case.model, grid, case.n_paths, case.seed)
        if sim_key != cached_key:
            paths = None
            paths = simulation.simulate(case.scheme, case.model, grid, case.n_paths, case.seed)
            cached_key = sim_key
        payoff = PutPayoff(case.strike)
        r, maturity, s0 = case.model.r, grid.maturity, case.model.s0
        berm = lsm.lsm_price(paths, payoff, case.schedule, r)
        euro = lsm.lsm_price(paths, payoff, ExerciseSchedule(grid, (grid.steps,)), r)
        # SE of the paired per-path difference between the two exercise policies
        cashflow, exercise_index = lsm.backward_induction(paths, payoff, case.schedule, r)
        premium = (np.exp(-r * grid.dt * exercise_index) * cashflow
                   - math.exp(-r * maturity) * payoff(paths.asset[:, -1]))
        premium_se = premium.std(ddof=1) / math.sqrt(case.n_paths)
        oracle = put_price(s0, case.strike, r, maturity, _oracle_factors(case.model))
        disc_terminal = math.exp(-r * maturity) * paths.asset[:, -1]
        terminal_se = disc_terminal.std(ddof=1) / math.sqrt(case.n_paths)
        price = prices.get(case.key)
        # statistical checks as (measured, allowed): each passes when measured <= allowed
        limits = {
            "european<=bermudan": (euro.price - berm.price, Z * premium_se),
            "oracle": (abs(euro.price - oracle), Z * euro.std_error + case.allowance * oracle),
            # criterion 8's rule: 3 SE plus 0.5% of spot
            "martingale": (abs(disc_terminal.mean() - s0), 3.0 * terminal_se + 0.005 * s0),
        }
        if case.published is not None and (case.group, case.value) not in DOCUMENTED:
            limits["published"] = (abs(berm.price - case.published),
                                   case.tolerance * case.published + Z * berm.std_error)
        checks = {
            "replay": price is not None and berm.price == price,
            "bounds": price is not None and 0.0 <= price <= case.strike,
            **{name: measured <= allowed for name, (measured, allowed) in limits.items()},
        }
        failures[case.key] += [name for name, ok in checks.items() if not ok]
        rse[case.key] = berm.std_error / berm.price
        standard_error[case.key] = berm.std_error
        usage, closest = max((m / a, name) for name, (m, a) in limits.items())
        print(f"  {case.key:34s} price {berm.price:9.5f} se {berm.std_error:.5f} "
              f"euro {euro.price:9.5f} oracle {oracle:9.5f}  closest: {closest} at {usage:5.0%} "
              f"of its limit  {'ok' if not failures[case.key] else 'FAIL ' + ','.join(failures[case.key])}",
              file=log)
    paths = None
    _check_monotone(cases, prices, failures)
    _report_deviations(cases, prices, standard_error, log)
    return failures, rse


def _check_monotone(cases, prices, failures):
    """Puts fall as spot rises and rise with strike, within every group."""
    groups = {}
    for case in cases:
        groups.setdefault(case.group, []).append(case)
    for members in groups.values():
        members.sort(key=lambda c: c.value)
        for lo, hi in zip(members, members[1:]):
            a, b = prices.get(lo.key), prices.get(hi.key)
            ok = a is not None and b is not None and (a > b if hi.vary == "spot" else a < b)
            if not ok:
                failures[hi.key].append("monotone")


def _report_deviations(cases, prices, standard_error, log):
    """Print the two documented acceptance deviations with their margins."""
    for case in cases:
        if (case.group, case.value) in DOCUMENTED:
            price = prices[case.key]
            deviation = abs(price - case.published)
            tol = max(case.tolerance * case.published, 2.0 * standard_error[case.key])
            print(f"DEVIATION {case.criterion} {case.key}: price {price:.5f} vs paper "
                  f"{case.published}, |dev| {deviation:.5f}, tol max(1.5%, 2 SE) {tol:.5f}, "
                  f"margin {tol - deviation:+.5f}", file=log)
    by_key = {c.key: c for c in cases}
    for case in cases:
        if case.group == "table1-aes":
            twin = by_key.get(case.key.replace("table1-aes", "table1-euler"))
            if twin is None:
                continue
            gap = abs(prices[twin.key] - prices[case.key]) / prices[case.key]
            print(f"DEVIATION criterion 5b {case.key}: Euler(M=40) {prices[twin.key]:.5f} vs "
                  f"AES(M=20) {prices[case.key]:.5f}, gap {gap:.3%}, limit {CRITERION_5B_GAP:.1%}, "
                  f"margin {CRITERION_5B_GAP - gap:+.3%}", file=log)
