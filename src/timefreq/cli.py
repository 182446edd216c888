"""Batch experiment runner.

Subcommands bind the library modules to seeded, reproducible CSV outputs:
same configuration and seed give byte-identical files.  A JSON config file
can predefine any option of the subcommand, checked like its flag; flags win
over the file.  The default output directory comes from the TIMEFREQ_OUTDIR
environment variable (falling back to the working directory).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dyadic import DyadicInterval, Interval, Tile, Tree, tiles_from_text, tiles_to_text
from .ergodic import (
    CircleRotation,
    heavy_tail_sweep,
    integral_tail,
    return_times_average,
    single_scale_blowup,
    tail_diagnostics,
)
from .exceptional import run_pipeline
from .grid import Grid, lp_norm, random_indicator
from .multipliers import growth_scan
from .trees import select_forests, tree_variation_report
from .wavepackets import build_window, gabor_expand, gabor_reconstruct

_FLOAT_FMT = "{:.12g}"


def _fmt(x) -> str:
    if isinstance(x, float):
        return _FLOAT_FMT.format(x)
    return str(x)


def _write_csv(args, rows) -> Path:
    """Write the subcommand's CSV (header ``args.columns``) and return its path:
    ``--out``, else ``<name>.csv`` in TIMEFREQ_OUTDIR or the working directory."""
    path = Path(args.out) if args.out else Path(os.environ.get("TIMEFREQ_OUTDIR", ".")) / args.csv_name
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(args.columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


def cmd_frame_check(args) -> int:
    grid = Grid(args.J, args.L)
    window = build_window(grid)
    rng = np.random.default_rng(args.seed)
    rows = []
    dev = window.frame_deviation()
    for idx in range(args.num_sets):
        f = random_indicator(grid, rng, None)
        for k in args.k_list:
            coeffs = gabor_expand(window, f, k)
            recon = gabor_reconstruct(window, coeffs, k)
            err = lp_norm(recon - f, 2) / lp_norm(f, 2)
            rows.append((idx, k, err, dev))
    _write_csv(args, rows)
    worst = max(r[2] for r in rows)
    print(f"frame-check: {len(rows)} reconstructions, worst relative error {worst:.3e}")
    return 0 if worst <= 1e-6 else 1


def cmd_tree_select(args) -> int:
    grid = Grid(args.J, args.L)
    tiles = tiles_from_text(Path(args.tiles).read_text()) if args.tiles else []
    time_box = Interval(0.0, grid.length)
    freq_box = Interval(-grid.freq_halfwidth, grid.freq_halfwidth)
    for s in tiles:
        if not (time_box.contains(s.time.to_interval()) and freq_box.contains(s.freq.to_interval())):
            raise ValueError(f"tile '{tiles_to_text([s]).strip()}' lies outside the box "
                             f"[0, {grid.length:g}) x [{freq_box.a:g}, {freq_box.b:g})")
    rng = np.random.default_rng(args.seed)
    f = random_indicator(grid, rng, None)
    if not tiles:
        _write_csv(args, [])
        print("tree-select: empty tile collection, empty decomposition")
        return 0
    dec = select_forests(tiles, f, family_size=args.family_size)
    out = _write_csv(args, dec.summary_rows())
    tiles_out = out.with_suffix(".tiles.txt")
    tiles_out.write_text(dec.to_text())
    print(f"tree-select: {len(dec.levels)} levels over {len(set(tiles))} tiles -> {out}")
    return 0


def cmd_tree_bound(args) -> int:
    if args.L < 8:
        raise ValueError(f"tree-bound places its top tile at time 2..L-3 and needs --L >= 8, got {args.L:g}")
    grid = Grid(args.J, args.L)
    if grid.freq_halfwidth < 4:
        raise ValueError(f"tree-bound places tiles at frequencies up to 4 and needs 2^(J-1)/L >= 4, "
                         f"got {grid.freq_halfwidth:g}; raise --J or lower --L")
    rng = np.random.default_rng(args.seed)
    rows = []
    for trial in range(args.trials):
        mt = int(rng.integers(2, int(grid.length) - 2))
        mf = int(rng.integers(1, 4))
        tiles = [Tile(DyadicInterval(0, mt), DyadicInterval(0, mf))]
        for sub in range(2):
            tiles.append(Tile(DyadicInterval(-1, 2 * mt + sub), DyadicInterval(1, mf // 2)))
        tree = Tree.with_top_tile(tiles[0], tiles, top_freq=float(mf))
        f = random_indicator(grid, rng, None)
        reports = tree_variation_report(tree, f, args.l_list, args.r, args.t)
        rows += [(trial, level, args.r, args.t, rep.lhs, rep.rhs_scale, rep.ratio)
                 for level, rep in zip(args.l_list, reports)]
    _write_csv(args, rows)
    print(f"tree-bound: {len(rows)} rows")
    return 0


def cmd_mm_scan(args) -> int:
    grid = Grid(args.J, args.L)
    rows, slope = growth_scan(grid, args.q, args.r, args.eps, args.N, args.trials, args.seed)
    _write_csv(args, [(args.q, args.r, args.eps, n, args.trials, ratio, slope, num)
                      for n, (ratio, num) in zip(args.N, rows)])
    print(f"mm-scan: fitted slope {slope:.4f} over N = {args.N}")
    return 0


def cmd_exceptional(args) -> int:
    grid = Grid(args.J, args.L)
    rows = []
    for run in range(args.runs):
        rep = run_pipeline(grid, args.p, args.q, args.eps, args.lam, seed=args.seed + run)
        for (n, sigma, beta, gamma, m1, m2, rescale) in rep.level_rows:
            rows.append((n, sigma, beta, gamma, m1, m2, run, rescale,
                         rep.measure_e, rep.measure_estar, rep.estar_ratio,
                         rep.pointwise_p95()))
    _write_csv(args, rows)
    print(f"exceptional: {args.runs} runs at lambda = {args.lam}")
    return 0


def _trig_poly(c):
    """u -> c0 + sum over d = 1..3 of c_{2d-1} cos(2 pi d u) + c_{2d} sin(2 pi d u).

    One cos/sin pair; the d = 2 and 3 harmonics come from the double- and
    triple-angle forms 2 c1 c1 - 1, 2 s1 c1, c1 (4 c1 c1 - 3) and s1 (3 - 4 s1 s1).
    Each term is evaluated in place in one scratch array and added, in this
    order, to one accumulator: the operations of the plain expression on the same
    operands, so the values are bit-identical to it, without its temporaries.
    """
    def fn(u):
        s1 = np.array(u, dtype=float)
        s1 *= 2 * np.pi
        c1 = np.cos(s1)
        np.sin(s1, out=s1)
        acc = c1 * c[1]
        acc += c[0]
        tmp = np.multiply(s1, c[2], out=np.empty_like(s1))
        acc += tmp
        np.multiply(c1, 2, out=tmp)
        tmp *= c1
        tmp -= 1
        tmp *= c[3]
        acc += tmp
        np.multiply(s1, 2, out=tmp)
        tmp *= c1
        tmp *= c[4]
        acc += tmp
        np.multiply(c1, 4, out=tmp)
        tmp *= c1
        tmp -= 3
        tmp *= c1
        tmp *= c[5]
        acc += tmp
        np.multiply(s1, 4, out=tmp)
        tmp *= s1
        np.subtract(3, tmp, out=tmp)
        tmp *= s1
        tmp *= c[6]
        acc += tmp
        return acc
    return fn


def cmd_rtt_sim(args) -> int:
    tau = CircleRotation(args.alpha)
    sg = CircleRotation(args.beta)
    rng = np.random.default_rng(args.seed)
    cf = rng.standard_normal(7) * np.exp(-np.arange(7))
    cg = rng.standard_normal(7) * np.exp(-np.arange(7))

    n_list = [2**i for i in range(1, args.log2_n_max + 1)]
    series = return_times_average(_trig_poly(cf), tau, args.x, _trig_poly(cg), sg, args.y, n_list)
    osc, vr = tail_diagnostics(series, args.r)
    rows = list(zip(series.n_list, series.values.real.tolist(), osc.tolist(), vr.tolist()))
    out = _write_csv(args, rows)
    plot = out.with_suffix(".plot.txt")
    plot.write_text("".join(f"{n} {_fmt(val)}\n" for n, val, _, _ in rows))
    limit = cf[0] * cg[0]
    print(f"rtt-sim: A_{series.n_list[-1]} = {series.values[-1].real:.6f}, "
          f"product of means = {limit:.6f}")
    return 0


def cmd_blowup(args) -> int:
    rows = single_scale_blowup(args.p, args.q, args.J_list)
    out_rows = []
    prev = None
    for j, r in zip(args.J_list, rows):
        growth = r.value / prev if prev else float("nan")
        out_rows.append((j, r.value, r.delta_f, r.delta_g, growth))
        prev = r.value
    _write_csv(args, out_rows)
    print(f"blowup: growth factors {[f'{r[4]:.3f}' for r in out_rows[1:]]}")
    return 0


def cmd_tails(args) -> int:
    grid = Grid(args.J, args.L)
    rng = np.random.default_rng(args.seed)
    f = random_indicator(grid, rng, None)
    g = random_indicator(grid, rng, None)
    t1 = integral_tail(f, g, grid.length / 2.0)
    tau = CircleRotation((np.sqrt(5) - 1) / 2)
    sg = CircleRotation(np.sqrt(2) - 1)
    sweep = heavy_tail_sweep(args.sharpness, tau, args.x, sg, args.y, args.n_max)
    # the orbit tail of f = g = 1, sup over 1 <= n <= n_max of 1/n, is 1 at n = 1 for every orbit
    rows = [("integral_tail", float("nan"), t1), ("orbit_tail_bounded", float("nan"), 1.0)]
    rows += [("orbit_tail_spike", eps, v) for eps, v in zip(args.sharpness, sweep)]
    _write_csv(args, rows)
    print(f"tails: spike sweep {[f'{v:.3g}' for v in sweep]}")
    return 0


def _finite(text: str) -> float:
    """argparse type of every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _list_of(item):
    """argparse type of a comma-list option: every entry converted by ``item``."""
    def entries(text: str) -> list:
        try:
            return [item(s) for s in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {item.__name__} value in {text!r}") from None
    return entries


def _int_from(low: int, cap: int | None):
    """argparse type of an integer option of at least ``low`` and at most ``cap`` (None: no cap),
    checked before anything is allocated."""
    def value(text: str) -> int:
        v = int(text)
        if v < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {v}")
        if cap is not None and v > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {v}")
        return v
    value.__name__ = "int"  # the type argparse and _list_of name in "invalid int value"
    return value


_count = _int_from(1, None)

# Largest orbit lengths, a bound on time: a run at the cap takes under 1 s on a
# 2-core host; memory stays near 38 MB at any length, as the orbits go in blocks.
MAX_LOG2_N = 22


def _subcommand(sub, names, name: str, func, help: str, columns: list[str], grid=None, seed: bool = True):
    """Add subcommand ``name`` writing a CSV with ``columns``, listed in its ``--help`` epilog, and
    return its parser; return None, adding nothing, if ``names`` (None: all) does not hold ``name``.

    Options ``--J``/``--L`` (defaults ``grid`` = (J, L); none for None), ``--seed``
    (if ``seed``) and ``--out``; :func:`_write_csv` reads the columns and the file
    name ``<name>.csv`` from the parsed arguments.
    """
    if names is not None and name not in names:
        return None
    sp = sub.add_parser(name, help=help, epilog="CSV columns: " + ", ".join(columns))
    if grid is not None:
        sp.add_argument("--J", type=int, default=grid[0], help="grid refinement: 2^J samples")
        sp.add_argument("--L", type=_finite, default=grid[1], help="box length (power of two)")
    if seed:
        sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=func, columns=columns, csv_name=name.replace("-", "_") + ".csv")
    return sp


def _parser(parser_class, names) -> argparse.ArgumentParser:
    """A ``parser_class`` parser of the subcommands that ``names`` holds (None: all eight)."""
    ap = parser_class(prog="timefreq",
                      description="Seeded time-frequency and ergodic-average experiments with CSV outputs.")
    ap.add_argument("--config", help="JSON file with option defaults (flags win)")
    sub = ap.add_subparsers(dest="command", required=True)

    if sp := _subcommand(sub, names, "frame-check", cmd_frame_check, "Gabor expansion/reconstruction error report",
                         ["set_index", "k", "recon_rel_error", "frame_deviation"], grid=(12, 64.0)):
        sp.add_argument("--k-list", type=_list_of(int), default="-2,-1,0,1,2")
        sp.add_argument("--num-sets", type=_count, default=20)

    if sp := _subcommand(sub, names, "tree-select", cmd_tree_select, "forest selection of a tile file",
                         ["level", "tree_count", "tile_count", "top_length_sum", "max_size"], grid=(9, 8.0)):
        sp.add_argument("--tiles", help="tile file: lines of k_time m_time k_freq m_freq")
        sp.add_argument("--family-size", type=_count, default=6)

    if sp := _subcommand(sub, names, "tree-bound", cmd_tree_bound, "tree variation norm vs its size bound",
                         ["trial", "level", "r", "t", "lhs", "rhs_scale", "ratio"], grid=(10, 16.0)):
        sp.add_argument("--l-list", type=_list_of(_int_from(0, None)), default="0,1,2")
        sp.add_argument("--r", type=_finite, default=3.0)
        sp.add_argument("--t", type=_finite, default=2.0)
        sp.add_argument("--trials", type=_count, default=5)

    if sp := _subcommand(sub, names, "mm-scan", cmd_mm_scan, "maximal multiplier growth scan in N",
                         ["q", "r", "eps", "N", "trial_count", "max_ratio", "fitted_slope", "max_numerator"],
                         grid=(10, 8.0)):
        sp.add_argument("--q", type=_finite, default=1.5)
        sp.add_argument("--r", type=_finite, default=3.0)
        sp.add_argument("--eps", type=_finite, default=0.01)
        sp.add_argument("--N", type=_list_of(_count), default="2,4,8,16,32")
        sp.add_argument("--trials", type=_count, default=50)

    if sp := _subcommand(sub, names, "exceptional", cmd_exceptional, "exceptional-set pipeline report",
                         ["n", "sigma_n", "beta_n", "gamma_n", "measure_E1", "measure_E2", "run",
                          "coeff_rescale", "measure_E", "measure_Estar", "estar_ratio", "pointwise_p95"],
                         grid=(9, 8.0)):
        sp.add_argument("--p", type=_finite, default=1.6)
        sp.add_argument("--q", type=_finite, default=1.5)
        sp.add_argument("--eps", type=_finite, default=0.01)
        sp.add_argument("--lam", type=_finite, default=0.5)
        sp.add_argument("--runs", type=_count, default=5)

    if sp := _subcommand(sub, names, "rtt-sim", cmd_rtt_sim, "return-times averages for rotation pairs",
                         ["N", "A_N", "oscillation", "vr"]):
        sp.add_argument("--alpha", type=_finite, default=(math.sqrt(5) - 1) / 2)
        sp.add_argument("--beta", type=_finite, default=math.sqrt(2) - 1)
        sp.add_argument("--x", type=_finite, default=0.2)
        sp.add_argument("--y", type=_finite, default=0.7)
        sp.add_argument("--log2-n-max", type=_int_from(1, MAX_LOG2_N), default=17,
                        help=f"averages at N = 2, 4, ..., 2^this (at most {MAX_LOG2_N})")
        sp.add_argument("--r", type=_finite, default=3.0)

    if sp := _subcommand(sub, names, "blowup", cmd_blowup, "single-scale threshold refinement scan",
                         ["J", "proxy_value", "delta_f", "delta_g", "growth_factor"], seed=False):
        sp.add_argument("--p", type=_finite, default=1.25)
        sp.add_argument("--q", type=_finite, default=2.0)
        sp.add_argument("--J-list", type=_list_of(int), default="8,10,12")

    if sp := _subcommand(sub, names, "tails", cmd_tails, "tail-operator statistics and heavy-tail stress",
                         ["statistic", "sharpness", "value"], grid=(10, 16.0)):
        sp.add_argument("--x", type=_finite, default=0.15)
        sp.add_argument("--y", type=_finite, default=0.55)
        sp.add_argument("--n-max", type=_int_from(1, 1 << MAX_LOG2_N), default=20000,
                        help=f"orbit steps of the tail statistics (at most {1 << MAX_LOG2_N})")
        sp.add_argument("--sharpness", type=_list_of(_finite), default="0.04,0.02,0.01,0.005")

    return ap


def build_parser() -> argparse.ArgumentParser:
    """The parser of all eight subcommands, whose usage and messages :func:`main` prints."""
    return _parser(argparse.ArgumentParser, None)


class _Quiet(argparse.ArgumentParser):
    """A parser that raises :class:`_Quiet.Refused` where argparse would print help, usage or an error."""

    class Refused(Exception):
        pass

    def error(self, *args):
        raise _Quiet.Refused

    print_help = error


def _config_defaults(sp: argparse.ArgumentParser, path: str) -> dict:
    """Options of subcommand ``sp`` from a JSON file, converted by each option's type."""
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        sp.error(f"config file {path} must hold a JSON object")
    actions = {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            sp.error(f"unknown config key {key!r}")
        try:
            defaults[action.dest] = (action.type or str)(str(value))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            sp.error(f"config key {key!r}: invalid value {value!r}: {exc}")
    return defaults


def _parse(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by ``ap``: the options in a ``--config`` file, and the flags over them."""
    args = ap.parse_args(argv)
    if args.config:
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        sp = sub.choices[args.command]
        sp.set_defaults(**_config_defaults(sp, args.config))
        args = ap.parse_args(argv)  # flags given on the command line win
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a parser of only the subcommands argv names; the full one prints every message
        try:
            args = _parse(_parser(_Quiet, argv), argv)
        except _Quiet.Refused:
            args = _parse(build_parser(), argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        why = f"{args.command} ran out of memory; lower its sizes" if isinstance(exc, MemoryError) else exc
        print(f"error: {why}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
