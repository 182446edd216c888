"""Default outputs of every subcommand against the files stored in ``tests/golden``.

The stored set: the CSV of each of the eight subcommands at its default
arguments, ``rtt_sim.plot.txt``, and ``tree-select`` on the committed tile
file ``tests/golden/tiles.txt`` with its ``.tiles.txt`` decomposition.  Fresh
outputs are compared by the rules of ``perfbench/checks.py``: discrete columns
exactly, floats to 1e-9 relative, and the roundoff-level columns by their
bounds, since other Python and numpy versions may differ in the last bits.
Whether the bytes are identical is printed (``pytest -s``), not asserted.

Regenerating the stored files changes the science: run
``PYTHONPATH=src python tests/test_golden.py`` and name every value that moved.
"""

import importlib.util
from pathlib import Path

from timefreq.cli import main

GOLDEN = Path(__file__).parent / "golden"
TILES = GOLDEN / "tiles.txt"
SUBCOMMANDS = ["frame-check", "tree-select", "tree-bound", "mm-scan", "exceptional", "rtt-sim", "blowup", "tails"]

_spec = importlib.util.spec_from_file_location("checks", Path(__file__).parents[1] / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def capture(outdir: Path) -> None:
    """Write the stored set of outputs into ``outdir``."""
    for name in SUBCOMMANDS:
        assert main([name, "--out", str(outdir / f"{name.replace('-', '_')}.csv")]) == 0
    assert main(["tree-select", "--tiles", str(TILES), "--out", str(outdir / "tree_select_tiles.csv")]) == 0


def test_default_outputs_match_golden(tmp_path):
    capture(tmp_path)
    fresh = sorted(p.name for p in tmp_path.iterdir())
    assert fresh == sorted(p.name for p in GOLDEN.iterdir() if p != TILES)
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


if __name__ == "__main__":
    capture(GOLDEN)
