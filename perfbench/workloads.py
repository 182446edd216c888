"""The benchmark workloads and the units they run.

Every workload is a closed loop with one caller: the next unit starts only
when the previous one has finished.  A unit's inputs come from the workload
seed and the unit index alone (see :func:`unit_seed`); the program receives
only those inputs.  Inputs repeat with period ``Workload.period``, so every
unit of the default seed has a stored reference output.

Units go through ``timefreq.cli.main`` wherever the CLI offers the
experiment, so the benchmark measures the stable CLI surface.  Library calls
are used only for the two ``refine`` steps the CLI has no subcommand for.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0


def unit_seed(workload: str, seed: int, index: int) -> int:
    """31-bit seed of one unit, stable across Python and numpy versions."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Step:
    """One call inside a unit: a CLI argv or a library function."""

    name: str
    argv: list[str] = field(default_factory=list)
    call: Callable | None = None
    outputs: tuple[str, ...] = ()


@dataclass
class Unit:
    index: int
    seed: int
    steps: list[Step]
    files: dict[str, str] = field(default_factory=dict)  # inputs written before timing
    context: dict = field(default_factory=dict)  # what the output checks need to know


@dataclass(frozen=True)
class Workload:
    """``working_set`` lists the largest arrays a unit touches, in bytes."""

    name: str
    why: str
    period: int
    working_set: tuple[tuple[str, int], ...]
    make: Callable[[int, int, Path], Unit]


def _cli(name: str, argv: list[str], out: Path, *sidecars: str) -> Step:
    csv = out / f"{name}.csv"
    outputs = (str(csv),) + tuple(str(csv.with_suffix(s)) for s in sidecars)
    return Step(name, argv + ["--out", str(csv)], outputs=outputs)


# ---------------------------------------------------------------------------
# coarse: the small-grid experiments, one of each per unit.  The three parts
# stress different layers:
#
# - frame-check (J = 12): Gabor expansion and reconstruction only; no kernel,
#   tree, multiplier or exceptional-set code runs.
# - mm-scan (J = 10): the maximal-multiplier growth scan.  Adapted-bump and
#   smooth_step evaluations dominate, most of them from scale_variation
#   calling value_at point by point; Gabor and kernel code never run.
# - tree-select of a generated convex tile file, then one exceptional-set
#   pipeline run (J = 9): many tiles and model functions, kernel lattice
#   lookups mostly hits.  Time goes to the pointwise bound checks, per-tile
#   sizes and the variation set.
#
# They share one workload so that each run can be long: the host's speed
# drifts over seconds, and only long runs average it out.  Every array fits
# in L2 and the kernel lattices are mostly hits, the opposite of refine, so
# a change to the shared kernel, profile or maximal-function code shows on
# one and is bypassed or missed on the other.  The Gabor, multiplier,
# forest-selection and dyadic code runs only here.


def _frame_step(rng: random.Random, out: Path) -> Step:
    argv = ["frame-check", "--J", "12", "--L", "64", "--k-list=-2,-1,0,1,2",
            "--num-sets", "1", "--seed", str(int(rng.random() * 2**31))]
    return _cli("frame_check", argv, out)


def _scan_step(rng: random.Random, out: Path) -> Step:
    argv = ["mm-scan", "--J", "10", "--L", "8", "--q", "1.5", "--r", "3",
            "--eps", "0.01", "--N", "2,4,8,16,32", "--trials", "2",
            "--seed", str(int(rng.random() * 2**31))]
    return _cli("mm_scan", argv, out)


def tile_box_text(rng: random.Random) -> str:
    """Every tile of scales -1..1 inside a 4 x 4 time-frequency box.

    A full box of a tile universe is convex.  The box sits at an even time
    offset in [0, 8) and an even frequency offset in [-8, 8), so all 48 tiles
    fit the J = 9, L = 8 grid.
    """
    t0 = 2 * int(rng.random() * 3)
    f0 = 2 * int(rng.random() * 7) - 8
    lines = []
    for k in (-1, 0, 1):
        tl, fl = 2.0 ** k, 2.0 ** -k
        for mt in range(int(t0 / tl), int((t0 + 4) / tl)):
            for mf in range(int(f0 / fl), int((f0 + 4) / fl)):
                lines.append(f"{k} {mt} {-k} {mf}")
    return "\n".join(lines) + "\n"


def _coarse(seed: int, index: int, out: Path) -> Unit:
    s = unit_seed("coarse", seed, index)
    rng = random.Random(s)
    steps = [_frame_step(rng, out), _scan_step(rng, out)]
    tiles = out / "tiles.txt"
    select = ["tree-select", "--J", "9", "--L", "8", "--tiles", str(tiles),
              "--seed", str(int(rng.random() * 2**31))]
    exceptional = ["exceptional", "--J", "9", "--L", "8", "--runs", "1",
                   "--seed", str(int(rng.random() * 2**31))]
    text = tile_box_text(rng)
    listed = sorted(text.splitlines())
    steps += [_cli("tree_select", select, out, ".tiles.txt"),
              _cli("exceptional", exceptional, out)]
    return Unit(index, s, steps, files={str(tiles): text},
                context={"expected_rows": 5, "tile_count": len(listed), "tiles": listed})


# ---------------------------------------------------------------------------
# refine: work on fine grids.  Kernel lattice misses at J = 11 and J = 12
# (tree-bound and the off-lattice model-function slice each build a fresh
# kernel), the maximal function at J = 13, a window build at J = 12 and the
# ergodic averages at large n.  Same kernel and maximal-function code as coarse,
# but misses instead of hits and large n instead of small n; the only
# workload that runs the ergodic module.  blowup takes its J = 8..13 windows
# from the ergodic module's process-level window cache, which the untimed
# warm-up unit fills (see run.py), so every timed unit sees the steady state
# and a change that drops that cache shows as slower units.  The sizes keep a
# unit near the length of a coarse unit, so a run holds over twenty units
# and unit_tail_s is a percentile of them (see run.tail), not their maximum.

RTT_LOG2_N_MAX = 20


def _x_slice_step(rng: random.Random) -> Callable:
    from timefreq.dyadic import DyadicInterval, Tile
    from timefreq.grid import Grid

    k = int(rng.random() * 3) - 1
    tl = 2.0 ** k
    mt = int(rng.random() * (64 / tl))
    mf = int(rng.random() * 8 * tl)
    tile = Tile(DyadicInterval(k, mt), DyadicInterval(-k, mf))
    # theta inside the tile's frequency interval and off the 1/64 lattice
    theta = (mf + 0.05 + 0.9 * rng.random()) / tl
    if abs(theta * 64 - round(theta * 64)) < 1e-3:
        theta += 1e-2 / 64

    def call():
        from timefreq.wavepackets import build_kernel, build_window, model_function

        grid = Grid(12, 64.0)
        window = build_window(grid)
        kernel = build_kernel(grid)
        return model_function(window, kernel, tile).x_slice(theta)

    return call


def _level_set_step(rng: random.Random) -> tuple[Callable, object]:
    from timefreq.exceptional import ParamLedger
    from timefreq.grid import Grid, SampledFunction

    grid = Grid(13, 64.0)
    mask = np.zeros(grid.n, dtype=bool)
    for _ in range(1 + int(rng.random() * 3)):
        width = 32 + int(rng.random() * (grid.n // 16))
        start = int(rng.random() * (grid.n - width))
        mask[start:start + width] = True
    f = SampledFunction(grid, mask.astype(np.complex128))
    b = ParamLedger(1.6, 1.5, 0.01, 0.5).b

    def call():
        from timefreq.exceptional import maximal_exceptional_set

        return maximal_exceptional_set(f, 0.5, b)

    return call, f


def _refine(seed: int, index: int, out: Path) -> Unit:
    s = unit_seed("refine", seed, index)
    rng = random.Random(s)

    def draw():
        return str(int(rng.random() * 2**31))

    level_set, indicator = _level_set_step(rng)
    steps = [
        _cli("tree_bound", ["tree-bound", "--J", "11", "--L", "32", "--trials", "1",
                            "--seed", draw()], out),
        Step("x_slice", call=_x_slice_step(rng)),
        Step("level_set", call=level_set),
        _cli("blowup", ["blowup", "--J-list", "8,10,12,13"], out),
        _cli("rtt_sim", ["rtt-sim", "--log2-n-max", str(RTT_LOG2_N_MAX), "--x", f"{rng.random():.6f}",
                         "--y", f"{rng.random():.6f}", "--seed", draw()], out),
        _cli("tails", ["tails", "--J", "12", "--L", "64", "--n-max", "500000",
                       "--x", f"{rng.random():.6f}", "--y", f"{rng.random():.6f}",
                       "--seed", draw()], out),
    ]
    return Unit(index, s, steps, context={"indicator": indicator, "rtt_rows": RTT_LOG2_N_MAX})


WORKLOADS = {
    w.name: w for w in (
        Workload("coarse", "small grids that fit L2, one of each per unit: frame-check (J=12), "
                 "mm-scan (J=10), tree-select and exceptional (J=9) with kernel lattice hits",
                 period=32,
                 working_set=(("frame-check signal, 2^12 complex128", 2**12 * 16),
                              ("Gabor coefficients at k=-2, 2^13 complex128", 2**13 * 16),
                              ("mm-scan scale fields, 6 x 2^10 complex128", 6 * 2**10 * 16),
                              ("kernel lattice, 3 scales x 2^10 float64", 3 * 2**10 * 8)),
                 make=_coarse),
        Workload("refine", "fine-grid work: fresh kernels with lattice misses at J=11 and "
                 "J=12, maximal function at J=13, a window build, ergodic averages at large n",
                 period=32,
                 working_set=(("maximal function input, 2^13 float64", 2**13 * 8),
                              ("khat quadrature block, 4096 x 4096 float64", 4096 * 4096 * 8),
                              ("rtt-sim orbit weights, 2^20 complex128", 2**20 * 16),
                              ("tails orbits, 5 x 10^5 complex128", 5 * 10**5 * 16)),
                 make=_refine),
    )
}


# ---------------------------------------------------------------------------
# running a unit


def prepare(unit: Unit) -> None:
    """Write the unit's generated input files; not part of the timed unit."""
    for path, text in unit.files.items():
        Path(path).write_text(text)
    for step in unit.steps:
        for p in step.outputs:
            Path(p).unlink(missing_ok=True)


def run_step(step: Step, cli) -> tuple[int, object]:
    """Run one step; returns (exit code, library result or None)."""
    if step.call is not None:
        return 0, step.call()
    with redirect_stdout(io.StringIO()):
        return cli.main(step.argv), None


def library_table(name: str, result, context: dict) -> list[list[str]]:
    """Summary rows of a library step's result, in the CSV text format."""
    fmt = "{:.12g}".format
    if name == "x_slice":
        # statistics carried by the bulk of the slice, not by roundoff-level samples
        v = np.asarray(result)
        power = np.abs(v) ** 2
        return [["stat", "value"], ["size", str(v.size)],
                ["l2", fmt(float(np.sqrt(power.sum())))],
                ["max_abs", fmt(float(np.sqrt(power.max())))],
                ["centroid", fmt(float(np.dot(np.arange(v.size), power) / power.sum()))]]
    if name == "level_set":
        from timefreq.grid import hl_maximal

        mask = np.asarray(result.mask, dtype=bool)
        digest = hashlib.sha256(np.packbits(mask).tobytes()).hexdigest()[:16]
        # M f - |f| from the library's maximal function, evaluated again here,
        # outside the timed step, because the level set keeps only a mask
        f = context["indicator"]
        excess = hl_maximal(f).values.real - np.abs(f.values)
        return [["stat", "value"], ["count", str(int(mask.sum()))],
                ["measure", fmt(float(result.measure))], ["mask", f"sha256:{digest}"],
                ["min_excess", repr(float(excess.min()))]]
    raise ValueError(f"no table for library step {name}")
