"""Golden digests of simulated paths and LSM prices at a pinned seed.

A refactor of the path kernels, the log-price constants, the regression
basis or solve, or the experiment loop must reproduce these bytes exactly. A change that moves the numbers on
purpose updates them in a change of its own, stating why.
"""
import hashlib
from dataclasses import replace

import pytest

from aesmc.catalog import table_specs
from aesmc.experiments import run_experiment
from aesmc.lsm import ExerciseSchedule, lsm_price
from aesmc.models import PutPayoff, preset
from aesmc.simulation import BLOCK_SIZE, TimeGrid, simulate

pytestmark = pytest.mark.filterwarnings("ignore::aesmc.models.FellerWarning")

SEED = 20261018
N_PATHS = 2000
STEPS = 6

# (scheme, preset, SHA-256 of asset then each variance matrix, repr of the every-step price)
GOLDEN = [
    ("aes", "feller-holding",
     ("6768aa2be8ce19313069ff956be137ecbbafe30bb63601f7bf40fe1c130f7836",
      "42b03f7e0864e09a29e353baf86346e1aa9d4155e8262103bc5ac36ac469b226"),
     "0.5060623717439887"),
    ("aes", "feller-violating",
     ("147747aa1b85c2ea84897af896e0f310dab72bb7b035d2ad49ec73e46d7875fe",
      "824e655d49dae8a6955f7463b1a22e9b86f847c190e4171d9335c8b9c51490f1"),
     "3.1948080122310896"),
    ("aes", "double-heston-zhang",
     ("37c30b96c849d9b058b31b91f3504af17aa4da6f386421e6666615de1a1802b7",
      "5e9cbc3cf5a1c96bb8c30dc2e3dc0e8a7fd161b4e7b77ee3d77c8cf5a22b230f",
      "5be3131b95e5c88214158b2ae8a2817bef120ff7b46265b124119d56d7d6509a"),
     "9.602806990125945"),
    ("euler", "feller-holding",
     ("a02162cfa0a1fbad2ec82bca24eb7e00ccb1fc2af8f9b6b24cbbb53fd7e762f8",
      "a5b6648aad0e41aaf745279c0eff92423cbff2342b9117e5e5b157f60821c0dd"),
     "0.5103930824508321"),
    ("euler", "feller-violating",
     ("49309bb371ca0f98b5d56291c17351305da96b119bb6ca29d1cbfaa63faf407c",
      "0e2c64b982fe5218b6cd23f491ee09648de9d74dd6a66d84dc4e12e96b150bbf"),
     "3.442678160774337"),
    ("euler", "double-heston-zhang",
     ("c6b748a4dc443bcc38a2e122ee33a739fbc2bb7cbf0053e9fdea1fbcf799f3ac",
      "582bdde937e017e8715e69dbe47338106f80613d4a662e48d728a2f68691253b",
      "d29a06fac4221c2fba1fc750394a8bafcfba7e2afabddb3d280a0d5fc8a75cfc"),
     "9.544666628750253"),
]


@pytest.mark.parametrize("scheme, name, digests, price", GOLDEN, ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
def test_golden_paths_and_price(scheme, name, digests, price):
    p = preset(name)
    grid = TimeGrid(p.maturity, STEPS)
    paths = simulate(scheme, p.params, grid, N_PATHS, SEED)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (paths.asset, *paths.variances()))
    assert got == digests
    result = lsm_price(paths, PutPayoff(p.strike), ExerciseSchedule.every_step(grid), p.params.r)
    assert repr(result.price) == price


# Two blocks, the second one partial: pins where each block's rows land.
MULTI_BLOCK_PATHS = BLOCK_SIZE + 4464
MULTI_BLOCK_STEPS = 2

# (scheme, preset, SHA-256 of asset then each variance matrix)
GOLDEN_MULTI_BLOCK = [
    ("aes", "feller-violating",
     ("ab82f3727a9892d5b5c0588965e91457e4e8354991af4fdab9a893bfc40d7c0d",
      "fd7bdf3be27d4b3e84a10419a00a61c5aaeeafaebf1c770ccd41827360913d80")),
    ("aes", "double-heston-zhang",
     ("821927e40852591251412913431c15e7657744a44cba5d10266528041cda72ee",
      "aa8cb8054c5c6ad3801854747e018b895d0396a851518009c3956bb36c26b351",
      "dd7818c75f5e272e39d5ff8197418243cf9774cd234e74ae94af2b3e40cc370c")),
    ("euler", "feller-violating",
     ("8ff3d2ffc0e14ebb6cd3ae852e111227bc155bf3df9d77a5b0399dcc55dff253",
      "273d4cdd915c736c2e50cb8896f1aa58168779825cdad99e9368e5ce64e423b8")),
    ("euler", "double-heston-zhang",
     ("1072939c4199b3ec5c5242b3a84892e77352160cefe6c02fa19a0499a02ed9a7",
      "f3a41a32b916d0097ed93fd263bcdfa2db06e083dbc0e73aedd351892622b5cd",
      "0e0b1a76ce9696b61da6f889c0a8c4a0d7f964aa2acb210f4a8c60f0eca35fb2")),
]


@pytest.mark.parametrize("scheme, name, digests", GOLDEN_MULTI_BLOCK,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN_MULTI_BLOCK])
def test_golden_multi_block_paths(scheme, name, digests):
    p = preset(name)
    grid = TimeGrid(p.maturity, MULTI_BLOCK_STEPS)
    paths = simulate(scheme, p.params, grid, MULTI_BLOCK_PATHS, SEED)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (paths.asset, *paths.variances()))
    assert got == digests


# Per-run prices of whole experiments: the run/case loop of ``run_experiment``
# and, at S0=12, dates with fewer in-the-money paths than regression features.
EXPERIMENT_PATHS = 20_000
EXPERIMENT_RUNS = 2

# (table, experiment, overrides, {case: repr of each run's price})
GOLDEN_EXPERIMENTS = [
    ("5", "table5-aes", {},
     {"K=56.9": ["6.890358291635482", "6.992781975288346"],
      "K=61.9": ["9.480921398013013", "9.605739471042515"],
      "K=66.9": ["12.451008753702506", "12.63789818189887"]}),
    ("2", "table2-aes", {"values": (11.0, 12.0), "reference_prices": None},
     {"S0=11": ["0.20695210077267728", "0.20262045693050915"],
      "S0=12": ["0.0794287443743244", "0.07514031870839416"]}),
]


@pytest.mark.parametrize("table, name, overrides, prices", GOLDEN_EXPERIMENTS,
                         ids=[g[1] for g in GOLDEN_EXPERIMENTS])
def test_golden_experiment_run_prices(table, name, overrides, prices):
    (spec,) = [s for s in table_specs(table) if s.name == name]
    spec = replace(spec, n_paths=EXPERIMENT_PATHS, runs=EXPERIMENT_RUNS, **overrides)
    per_run: dict = {}
    run_experiment(spec, run_prices_out=per_run)
    assert {case: [repr(p) for p in runs] for case, runs in per_run.items()} == prices
