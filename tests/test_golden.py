"""Stored outputs in ``tests/golden`` against fresh runs.

The stored set: the CSV of each of the eight subcommands at its default
arguments, ``rtt_sim.plot.txt``, and ``tree-select`` on the committed tile
file ``tests/golden/tiles.txt`` with its ``.tiles.txt`` decomposition.  Fresh
outputs are compared by the rules of ``perfbench/checks.py``: discrete columns
exactly, floats to 1e-9 relative, and the roundoff-level columns by their
bounds, since other Python and numpy versions may differ in the last bits.
Whether the bytes are identical is printed (``pytest -s``), not asserted.

``acceptance6.json`` holds the runs of acceptance criterion 6 (lambda 0.5 and
0.25, seeds 0-9 at J=9, L=8): per run the level rows, the E and E* measures,
``estar_ratio`` and the 24 pointwise ratios, then the run's level set E as the
sha256 of its packed mask and the sizes of its trapped tiles' escape groups
(``group_by_escape_level`` of ``tests/test_exceptional.py``), rebuilt from the
seed as ``run_pipeline`` builds them.  A change to the pointwise search can
leave the default ``exceptional.csv`` byte-identical and still move these
ratios, and a level set can move and keep its measure.  Counts, labels and
digests compare exactly, floats to 1e-9 relative.

Regenerating the stored files changes the science: run
``PYTHONPATH=src python tests/test_golden.py`` and name every value that moved.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from timefreq import Grid, ParamLedger, maximal_exceptional_set, run_pipeline, split_tiles
from timefreq.cli import main
from timefreq.dyadic import Interval, TileUniverse
from timefreq.grid import random_indicator
from timefreq.wavepackets import build_kernel, build_window

from test_exceptional import group_by_escape_level

GOLDEN = Path(__file__).parent / "golden"
TILES = GOLDEN / "tiles.txt"
ACCEPTANCE6 = GOLDEN / "acceptance6.json"
SUBCOMMANDS = ["frame-check", "tree-select", "tree-bound", "mm-scan", "exceptional", "rtt-sim", "blowup", "tails"]

_spec = importlib.util.spec_from_file_location("checks", Path(__file__).parents[1] / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def capture(outdir: Path) -> None:
    """Write the stored set of outputs into ``outdir``."""
    for name in SUBCOMMANDS:
        assert main([name, "--out", str(outdir / f"{name.replace('-', '_')}.csv")]) == 0
    assert main(["tree-select", "--tiles", str(TILES), "--out", str(outdir / "tree_select_tiles.csv")]) == 0


def level_set_record(g: Grid, p: float, q: float, eps: float, lam: float, seed: int) -> dict:
    """The level set E of a pipeline run, rebuilt from its seed as ``run_pipeline`` builds it:
    the sha256 of its packed mask and the [kappa, size] escape groups of the tiles it traps."""
    f = random_indicator(g, np.random.default_rng(seed), 3)
    eset = maximal_exceptional_set(f, lam, ParamLedger(p, q, eps, lam).b)
    tiles = TileUniverse(-1, 1, Interval(0.0, g.length), Interval(0.0, 8.0)).all_tiles()
    _, trapped = split_tiles(tiles, eset)
    groups = group_by_escape_level(trapped, eset)
    return {"e_sha256": hashlib.sha256(np.packbits(eset.mask).tobytes()).hexdigest(),
            "escape_groups": [[kappa, len(groups[kappa])] for kappa in sorted(groups)]}


def acceptance6_text() -> str:
    """The criterion-6 runs as JSON, one run per line."""
    g = Grid(9, 8.0)
    w, ker = build_window(g), build_kernel(g)
    exponents = (1.6, 1.5, 0.01)  # p, q, eps
    runs = []
    for lam in (0.5, 0.25):
        for seed in range(10):
            rep = run_pipeline(g, *exponents, lam, seed=seed, window=w, kernel=ker)
            runs.append({
                "lam": lam, "seed": seed, "measure_f": float(rep.measure_f), "measure_e": float(rep.measure_e),
                "measure_estar": float(rep.measure_estar), "estar_ratio": float(rep.estar_ratio),
                "level_rows": [[int(row[0])] + [float(v) for v in row[1:]] for row in rep.level_rows],
                "pointwise_ratios": rep.pointwise_ratios,
                **level_set_record(g, *exponents, lam, seed),
            })
    return "[\n" + ",\n".join(json.dumps(run) for run in runs) + "\n]\n"


def _mismatches(fresh, ref, path: str) -> list[str]:
    """Where two decoded JSON values differ: ints and labels exactly, floats to 1e-9 relative."""
    if isinstance(ref, float) and isinstance(fresh, float):
        return [] if math.isclose(fresh, ref, rel_tol=1e-9, abs_tol=0.0) else [f"{path}: {fresh!r} != {ref!r}"]
    if isinstance(ref, list) and isinstance(fresh, list) and len(fresh) == len(ref):
        return [e for i, (a, b) in enumerate(zip(fresh, ref)) for e in _mismatches(a, b, f"{path}[{i}]")]
    if isinstance(ref, dict) and isinstance(fresh, dict) and fresh.keys() == ref.keys():
        return [e for k in ref for e in _mismatches(fresh[k], ref[k], f"{path}.{k}")]
    return [] if type(fresh) is type(ref) and fresh == ref else [f"{path}: {fresh!r} != {ref!r}"]


def test_default_outputs_match_golden(tmp_path):
    capture(tmp_path)
    fresh = sorted(p.name for p in tmp_path.iterdir())
    assert fresh == sorted(p.name for p in GOLDEN.iterdir() if p not in (TILES, ACCEPTANCE6))
    errs = []
    for name in fresh:
        table, ref = checks.read_output(tmp_path / name), checks.read_output(GOLDEN / name)
        errs += checks.reference_errors(name, table, ref)
        for i, row in enumerate(dict(zip(table[0], r)) for r in table[1:]):
            errs += [f"{name}: row {i} {col} = {row[col]} exceeds {bound:g}"
                     for col, bound in checks.BOUNDS.items() if col in row and not float(row[col]) <= bound]
        same = (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
        print(f"{name}: {'bytes identical' if same else 'bytes differ'}")
    assert not errs, "\n".join(errs)


def test_acceptance6_runs_match_golden():
    text = acceptance6_text()
    stored = ACCEPTANCE6.read_text()
    print(f"{ACCEPTANCE6.name}: {'bytes identical' if text == stored else 'bytes differ'}")
    errs = _mismatches(json.loads(text), json.loads(stored), "runs")
    assert not errs, "\n".join(errs[:20])


if __name__ == "__main__":
    capture(GOLDEN)
    ACCEPTANCE6.write_text(acceptance6_text())
