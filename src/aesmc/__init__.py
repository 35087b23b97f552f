"""Monte Carlo pricing of Bermudan/American puts under Heston-type models.

Almost-exact simulation samples each CIR variance factor from its exact
noncentral chi-squared transition; the truncated Euler baseline is included
for accuracy/efficiency comparisons. Pricing is Longstaff-Schwartz least
squares Monte Carlo.
"""
from .models import PRESETS, DoubleHestonParams, HestonParams, PutPayoff, preset, validate
from .simulation import PathSet, TimeGrid, simulate
from .lsm import ExerciseSchedule, LsmResult, lsm_price
from .experiments import ExperimentSpec, emit_report, load_report_json, run_experiment

__version__ = "0.1.0"
