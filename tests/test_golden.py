"""Golden digests of simulated paths and LSM prices at a pinned seed.

A refactor of the path kernels, the log-price constants, the regression
basis or solve, or the experiment loop must reproduce these bytes exactly. A change that moves the numbers on
purpose updates them in a change of its own, stating why.
"""
import hashlib
import json
from dataclasses import replace

import pytest

from aesmc.catalog import TABLE_IDS, run_figure, run_table, table_specs
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
     ("722b5d0c2eb194be0559cf5b5578d017c825c67597d932d0b72d5ce0f706f017",
      "42b03f7e0864e09a29e353baf86346e1aa9d4155e8262103bc5ac36ac469b226"),
     "0.5060623717439877"),
    ("aes", "feller-violating",
     ("d655f97410d3b2df6b6c845feb74deaaf2d6abfdb755aeef3d8a79f7b96aabe7",
      "824e655d49dae8a6955f7463b1a22e9b86f847c190e4171d9335c8b9c51490f1"),
     "3.194808012231085"),
    ("aes", "double-heston-zhang",
     ("5fe738c56e87b4343c14db26f2980ee05d4f20a7acf66739307113c14084eda2",
      "4c3b3f3245e54b4c2cf5402b90eace2273647f75959f75b8639c2692ce8f77e4",
      "4f61984728825318c782118bc42f26d8252863ba81db4c1ae94debdf65dd2a0c"),
     "9.97806321970274"),
    ("euler", "feller-holding",
     ("740c1ce8bb58ad85c23c87296a4b864c0d21bbc2a87d909813ab6a6ab0e94fd1",
      "a5b6648aad0e41aaf745279c0eff92423cbff2342b9117e5e5b157f60821c0dd"),
     "0.5103930824508335"),
    ("euler", "feller-violating",
     ("2ac565180f784421283acf25952808b4d1b12fa8c47d354826d5106c12f95829",
      "0e2c64b982fe5218b6cd23f491ee09648de9d74dd6a66d84dc4e12e96b150bbf"),
     "3.442678160774362"),
    ("euler", "double-heston-zhang",
     ("6bd91a7c34618c0760fe10ead53711527f27e8c7cf71e3d4148faec9b2ab03e1",
      "582bdde937e017e8715e69dbe47338106f80613d4a662e48d728a2f68691253b",
      "d29a06fac4221c2fba1fc750394a8bafcfba7e2afabddb3d280a0d5fc8a75cfc"),
     "9.54466662875026"),
]


@pytest.mark.parametrize("scheme, name, digests, price", GOLDEN, ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
def test_golden_paths_and_price(scheme, name, digests, price):
    p = preset(name)
    grid = TimeGrid(p.maturity, STEPS)
    paths = simulate(scheme, p.params, grid, N_PATHS, SEED)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (paths.asset, *paths.variances))
    assert got == digests
    result = lsm_price(paths, PutPayoff(p.strike), ExerciseSchedule.nearest(grid, grid.steps), p.params.r)
    assert repr(result.price) == price


# Two blocks, the second one partial: pins where each block's rows land.
MULTI_BLOCK_PATHS = BLOCK_SIZE + 4464
MULTI_BLOCK_STEPS = 2

# (scheme, preset, SHA-256 of asset then each variance matrix)
GOLDEN_MULTI_BLOCK = [
    ("aes", "feller-violating",
     ("5b036969b855e34751769eec50511396891efdf0b1a4e557e4ca35ea7ab99be4",
      "fd7bdf3be27d4b3e84a10419a00a61c5aaeeafaebf1c770ccd41827360913d80")),
    ("aes", "double-heston-zhang",
     ("8750a5af5c56ee550e65162233449877efc049239ce45e12986d27ecdd97223a",
      "bd05d1ba5311abc5ffe7d53e65884759e5559a45f2cc20f591fb456d812630bb",
      "9098de8bd4be8db2190aed5aceb4bb3a55d43ff503b56d3f6dbe6dc93c3378fe")),
    ("euler", "feller-violating",
     ("0844cc3f576304a7fc456fb4e8d3d8b0e728ba3b9da9146a896c2beef2f8faa0",
      "273d4cdd915c736c2e50cb8896f1aa58168779825cdad99e9368e5ce64e423b8")),
    ("euler", "double-heston-zhang",
     ("cbfd518ae8257c386d7b71393a5b1825b4c5cec01e79233e6a51c97e9e0cb249",
      "f3a41a32b916d0097ed93fd263bcdfa2db06e083dbc0e73aedd351892622b5cd",
      "0e0b1a76ce9696b61da6f889c0a8c4a0d7f964aa2acb210f4a8c60f0eca35fb2")),
]


@pytest.mark.parametrize("scheme, name, digests", GOLDEN_MULTI_BLOCK,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN_MULTI_BLOCK])
def test_golden_multi_block_paths(scheme, name, digests):
    p = preset(name)
    grid = TimeGrid(p.maturity, MULTI_BLOCK_STEPS)
    paths = simulate(scheme, p.params, grid, MULTI_BLOCK_PATHS, SEED)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (paths.asset, *paths.variances))
    assert got == digests


# Per-run prices of whole experiments: the run/case loop of ``run_experiment``
# and, at S0=12, dates with fewer in-the-money paths than regression features.
EXPERIMENT_PATHS = 20_000
EXPERIMENT_RUNS = 2

# (table, experiment, overrides, {case: repr of each run's price})
GOLDEN_EXPERIMENTS = [
    ("5", "table5-aes", {},
     {"K=56.9": ["6.874956688449923", "6.949740396726852"],
      "K=61.9": ["9.460290160960856", "9.600858897319048"],
      "K=66.9": ["12.504380178342599", "12.644663711134724"]}),
    ("2", "table2-aes", {"values": (11.0, 12.0), "reference_prices": None},
     {"S0=11": ["0.20695210077268195", "0.20262045693051378"],
      "S0=12": ["0.07942874437432643", "0.07514031870839613"]}),
]


@pytest.mark.parametrize("table, name, overrides, prices", GOLDEN_EXPERIMENTS,
                         ids=[g[1] for g in GOLDEN_EXPERIMENTS])
def test_golden_experiment_run_prices(table, name, overrides, prices):
    (spec,) = [s for s in table_specs(table) if s.name == name]
    spec = replace(spec, n_paths=EXPERIMENT_PATHS, runs=EXPERIMENT_RUNS, **overrides)
    per_run: dict = {}
    run_experiment(spec, run_prices_out=per_run)
    assert {case: [repr(p) for p in runs] for case, runs in per_run.items()} == prices


# SHA-256 of every file a figure or table run writes, with its timing fields
# left out: the references, the cases each report holds and the -diff.csv rows.
TIMING_FIELDS = ("elapsed_s", "sim_s", "price_s", "time_diff_s")

# (figure or table id, scale, runs, {file name: SHA-256 of its untimed text})
GOLDEN_FIGURES = [
    ("fig1", 1000, 2,
     {"fig1-s90.csv": "b3168b65f7a4f623cce477f0a8339ab13867ba8e00fad5e15a96aab2c488eccc",
      "fig1-s90.json": "9c9647411fbcc8d839823aeae558f91f37dfbef4cbe3e31e503a040528161212",
      "fig1-s100.csv": "c4b3460e9a9bd855a8bfe27689577493044ea7f365a228cb74fdaddc95f2c24e",
      "fig1-s100.json": "a4275f5037a4c87b365a4bb78437a73d0d5006cd019f6bd4b30d5e55ad636adf",
      "fig1-s110.csv": "3a6935d7a769376caea1560fa1e8013d694b18385d72e8bd744e0e15c6b16923",
      "fig1-s110.json": "0c2f8bf5ca982c651428925d9849c722429985a5a020e1f7ad67370635cc918e"}),
    ("fig3", 2000, 1,
     {"fig3-s90.csv": "c4d63857408502175cf16a88a4805ec48df67b202f5482511847e146354a9458",
      "fig3-s90.json": "b10a3a48e83f630d551a41ee22930207d2c2be6d1b0028af3a0f80f2965f45b0",
      "fig3-s90-diff.csv": "5774282dd3b8612be95be9c93190ba92f43265565fcabb2c81d8de0607b15a7a",
      "fig3-s100.csv": "a7768e98800bd85c5d3ad2210b16ddcabeed708db69e1cdf6c27b844bd938875",
      "fig3-s100.json": "5d5d6c5d7a2e2c5c8a356d125b43c7f53f88ba171e9493cad9c8bc49464acca3",
      "fig3-s100-diff.csv": "e075198f59ca55a0251c7ad273cba01e79f9cb8f08715c318c7154de40810cb5"}),
    ("2", 200, 2,
     {"table2-aes.csv": "ac3707120507f75cf2ed15145b92e2a0aca3ecef53159845a0d2b8b81e7e8a24",
      "table2-aes.json": "1d6faa0c35eed8e59757c6d6e63092b068cb55623e0836471f97bb14bf020d86",
      "table2-euler.csv": "3860a30d9696cb385e0984fa18f82832b9f117c436b4d6a4df0ea1bd7e63864a",
      "table2-euler.json": "11af41f8239b39ace172cd47135131465645168bd2c925443ee16f96e9074664"}),
    ("5", 500, 2,
     {"table5-aes.csv": "17b39f96eb58b87579e26db45b1325e895b0eb3645094efcd69623793b91afbe",
      "table5-aes.json": "85a6fbd3885ce2f2dc8c11f352085626a7eaf01ce395975532eb3ded86d8bd0d",
      "table5-euler.csv": "071dae268b11645acc70443f160b0a05d9d5e6c8d72930eef2dd96995f902b4b",
      "table5-euler.json": "7cb08cd97d5641129958757f874c18119e46087326bbf46268c1bf8b33c1d00a"}),
]


def untimed_text(path) -> str:
    """A report file's text without its timing fields; its JSON is one report or a list."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        for report in payload if isinstance(payload, list) else [payload]:
            for case in report["cases"]:
                for name in TIMING_FIELDS:
                    case.pop(name, None)
        return json.dumps(payload, indent=2)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_FIELDS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


@pytest.mark.parametrize("fig, scale, runs, digests", GOLDEN_FIGURES,
                         ids=[f"table{g[0]}" if g[0] in TABLE_IDS else g[0] for g in GOLDEN_FIGURES])
def test_golden_figure_files(fig, scale, runs, digests, tmp_path):
    run = run_table if fig in TABLE_IDS else run_figure
    files = run(fig, scale=scale, runs=runs, out_dir=tmp_path)
    got = {p.name: hashlib.sha256(untimed_text(p).encode()).hexdigest() for p in files}
    assert got == digests
