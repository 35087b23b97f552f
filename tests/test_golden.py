"""Golden digests of simulated paths and LSM prices at a pinned seed.

A refactor of the path kernels, the log-price constants or the regression
basis must reproduce these bytes exactly. A change that moves the numbers on
purpose updates them in a change of its own, stating why.
"""
import hashlib

import pytest

from aesmc.lsm import ExerciseSchedule, lsm_price
from aesmc.models import PutPayoff, preset
from aesmc.simulation import TimeGrid, simulate

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
