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

from .dyadic import tiles_from_text
from .ergodic import (
    CircleRotation,
    convergence_diagnostic,
    heavy_tail_sweep,
    integral_tail,
    orbit_tail,
    return_times_average,
    single_scale_blowup,
)
from .exceptional import ParameterError, run_pipeline
from .grid import Grid, SampledFunction, lp_norm
from .multipliers import growth_scan
from .trees import select_forests, tree_variation_report
from .wavepackets import build_kernel, build_window, gabor_expand, gabor_reconstruct

_FLOAT_FMT = "{:.12g}"


def _fmt(x) -> str:
    if isinstance(x, float):
        return _FLOAT_FMT.format(x)
    if isinstance(x, complex):
        return _FLOAT_FMT.format(x.real) + "+" + _FLOAT_FMT.format(x.imag) + "j"
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _out_path(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    base = os.environ.get("TIMEFREQ_OUTDIR", ".")
    return Path(base) / default_name


def _grid(args) -> Grid:
    return Grid(args.J, args.L)


def _window(grid: Grid):
    return build_window(grid, min_freq_samples=min(64, int(grid.length)))


def _random_indicator(grid: Grid, rng) -> SampledFunction:
    mask = np.zeros(grid.n, dtype=bool)
    while not mask.any():
        for _ in range(int(rng.integers(1, 4))):
            wdt = int(rng.integers(max(4, grid.n // 256), grid.n // 16 + 1))
            start = int(rng.integers(0, grid.n - wdt))
            mask[start : start + wdt] = True
    return SampledFunction(grid, mask.astype(np.complex128))


def cmd_frame_check(args) -> int:
    grid = _grid(args)
    window = _window(grid)
    rng = np.random.default_rng(args.seed)
    ks = [int(s) for s in args.k_list.split(",")]
    rows = []
    dev = window.frame_deviation()
    for idx in range(args.num_sets):
        f = _random_indicator(grid, rng)
        for k in ks:
            coeffs = gabor_expand(window, f, k)
            recon = gabor_reconstruct(window, coeffs, k)
            err = lp_norm(recon - f, 2) / lp_norm(f, 2)
            rows.append((idx, k, err, dev))
    _write_csv(_out_path(args, "frame_check.csv"),
               ["set_index", "k", "recon_rel_error", "frame_deviation"], rows)
    worst = max(r[2] for r in rows)
    print(f"frame-check: {len(rows)} reconstructions, worst relative error {worst:.3e}")
    return 0 if worst <= 1e-6 else 1


def cmd_tree_select(args) -> int:
    grid = _grid(args)
    tiles = tiles_from_text(Path(args.tiles).read_text()) if args.tiles else []
    rng = np.random.default_rng(args.seed)
    f = _random_indicator(grid, rng)
    out = _out_path(args, "tree_select.csv")
    if not tiles:
        _write_csv(out, ["level", "tree_count", "tile_count", "top_length_sum", "max_size"], [])
        print("tree-select: empty tile collection, empty decomposition")
        return 0
    dec = select_forests(tiles, f, family_size=args.family_size)
    _write_csv(out, ["level", "tree_count", "tile_count", "top_length_sum", "max_size"],
               dec.summary_rows())
    tiles_out = out.with_suffix(".tiles.txt")
    tiles_out.write_text(dec.to_text())
    print(f"tree-select: {len(dec.levels)} levels over {len(tiles)} tiles -> {out}")
    return 0


def cmd_tree_bound(args) -> int:
    from .dyadic import DyadicInterval, Tile, Tree

    grid = _grid(args)
    window = _window(grid)
    kernel = build_kernel(grid)
    rng = np.random.default_rng(args.seed)
    rows = []
    for trial in range(args.trials):
        k_top = 0
        mt = int(rng.integers(2, int(grid.length) - 2))
        mf = int(rng.integers(1, 4))
        tiles = [Tile(DyadicInterval(0, mt), DyadicInterval(0, mf))]
        for sub in range(2):
            tiles.append(Tile(DyadicInterval(-1, 2 * mt + sub), DyadicInterval(1, mf // 2)))
        tree = Tree.with_top_tile(tiles[0], tiles, top_freq=float(mf))
        f = _random_indicator(grid, rng)
        for level in (int(s) for s in args.l_list.split(",")):
            rep = tree_variation_report(tree, f, level, args.r, args.t, window, kernel)
            rows.append((trial, level, args.r, args.t, rep.lhs, rep.rhs_scale, rep.ratio))
    _write_csv(_out_path(args, "tree_bound.csv"),
               ["trial", "level", "r", "t", "lhs", "rhs_scale", "ratio"], rows)
    print(f"tree-bound: {len(rows)} rows")
    return 0


def cmd_mm_scan(args) -> int:
    grid = _grid(args)
    n_list = [int(s) for s in args.N.split(",")]
    rows = growth_scan(grid, args.q, args.r, args.eps, n_list, args.trials, args.seed)
    _write_csv(_out_path(args, "mm_scan.csv"),
               ["q", "r", "eps", "N", "trial_count", "max_ratio", "fitted_slope", "max_numerator"],
               [(r.q, r.r, r.eps, r.n, r.trial_count, r.max_ratio, r.fitted_slope, r.max_numerator)
                for r in rows])
    print(f"mm-scan: fitted slope {rows[-1].fitted_slope:.4f} over N = {n_list}")
    return 0


def cmd_exceptional(args) -> int:
    grid = _grid(args)
    window = _window(grid)
    kernel = build_kernel(grid)
    rows = []
    for run in range(args.runs):
        rep = run_pipeline(grid, args.p, args.q, args.eps, args.lam,
                           seed=args.seed + run, window=window, kernel=kernel)
        for (n, sigma, beta, gamma, m1, m2, rescale) in rep.level_rows:
            rows.append((n, sigma, beta, gamma, m1, m2, run, rescale,
                         rep.measure_e, rep.measure_estar, rep.estar_ratio,
                         rep.pointwise_p95()))
    _write_csv(_out_path(args, "exceptional.csv"),
               ["n", "sigma_n", "beta_n", "gamma_n", "measure_E1", "measure_E2",
                "run", "coeff_rescale", "measure_E", "measure_Estar", "estar_ratio",
                "pointwise_p95"],
               rows)
    print(f"exceptional: {args.runs} runs at lambda = {args.lam}")
    return 0


def cmd_rtt_sim(args) -> int:
    tau = CircleRotation(args.alpha)
    sg = CircleRotation(args.beta)
    rng = np.random.default_rng(args.seed)
    cf = rng.standard_normal(7) * np.exp(-np.arange(7))
    cg = rng.standard_normal(7) * np.exp(-np.arange(7))

    def trig_poly(c):
        def fn(u):
            u = np.asarray(u, dtype=float)
            out = np.full(u.shape, c[0])
            for d in range(1, 4):
                out = out + c[2 * d - 1] * np.cos(2 * np.pi * d * u)
                out = out + c[2 * d] * np.sin(2 * np.pi * d * u)
            return out
        return fn

    n_list = [2**i for i in range(1, args.log2_n_max + 1)]
    series = return_times_average(trig_poly(cf), tau, args.x, trig_poly(cg), sg, args.y, n_list)
    rows = []
    for i, n in enumerate(series.n_list):
        tail = type(series)(series.n_list[i:], series.values[i:])
        osc, vr = convergence_diagnostic(tail, args.r)
        rows.append((n, series.values[i].real, osc, vr))
    out = _out_path(args, "rtt_sim.csv")
    _write_csv(out, ["N", "A_N", "oscillation", "vr"], rows)
    plot = out.with_suffix(".plot.txt")
    plot.write_text("".join(f"{n} {_fmt(val)}\n" for n, val, _, _ in rows))
    limit = cf[0] * cg[0]
    print(f"rtt-sim: A_{series.n_list[-1]} = {series.values[-1].real:.6f}, "
          f"product of means = {limit:.6f}")
    return 0


def cmd_blowup(args) -> int:
    j_list = [int(s) for s in args.J_list.split(",")]
    rows = single_scale_blowup(args.p, args.q, j_list)
    out_rows = []
    prev = None
    for r in rows:
        growth = r.value / prev if prev else float("nan")
        out_rows.append((r.j, r.value, r.delta_f, r.delta_g, growth))
        prev = r.value
    _write_csv(_out_path(args, "blowup.csv"),
               ["J", "proxy_value", "delta_f", "delta_g", "growth_factor"], out_rows)
    print(f"blowup: growth factors {[f'{r[4]:.3f}' for r in out_rows[1:]]}")
    return 0


def cmd_tails(args) -> int:
    grid = _grid(args)
    rng = np.random.default_rng(args.seed)
    f = _random_indicator(grid, rng)
    g = _random_indicator(grid, rng)
    t1 = integral_tail(f, g, grid.length / 2.0)
    tau = CircleRotation((np.sqrt(5) - 1) / 2)
    sg = CircleRotation(np.sqrt(2) - 1)
    sharp = [float(s) for s in args.sharpness.split(",")]
    sweep = heavy_tail_sweep(sharp, tau, args.x, sg, args.y, args.n_max)
    bounded = orbit_tail(lambda u: np.ones_like(np.asarray(u)), tau, args.x,
                         lambda u: np.ones_like(np.asarray(u)), sg, args.y, args.n_max)
    rows = [("integral_tail", float("nan"), t1), ("orbit_tail_bounded", float("nan"), bounded)]
    rows += [("orbit_tail_spike", eps, v) for eps, v in zip(sharp, sweep)]
    _write_csv(_out_path(args, "tails.csv"), ["statistic", "sharpness", "value"], rows)
    print(f"tails: spike sweep {[f'{v:.3g}' for v in sweep]}")
    return 0


def _count(text: str) -> int:
    """argparse type of a count option: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_grid_args(sp, j_default=10, l_default=16.0):
    sp.add_argument("--J", type=int, default=j_default, help="grid refinement: 2^J samples")
    sp.add_argument("--L", type=float, default=l_default, help="box length (power of two)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="timefreq",
        description="Seeded time-frequency and ergodic-average experiments with CSV outputs.",
    )
    ap.add_argument("--config", help="JSON file with option defaults (flags win)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("frame-check", help="Gabor expansion/reconstruction error report",
                        epilog="CSV columns: set_index, k, recon_rel_error, frame_deviation")
    _add_grid_args(sp, 12, 64.0)
    sp.add_argument("--k-list", default="-2,-1,0,1,2")
    sp.add_argument("--num-sets", type=_count, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_frame_check)

    sp = sub.add_parser("tree-select", help="forest selection of a tile file",
                        epilog="CSV columns: level, tree_count, tile_count, top_length_sum, max_size")
    _add_grid_args(sp, 9, 8.0)
    sp.add_argument("--tiles", help="tile file: lines of k_time m_time k_freq m_freq")
    sp.add_argument("--family-size", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_tree_select)

    sp = sub.add_parser("tree-bound", help="tree variation norm vs its size bound",
                        epilog="CSV columns: trial, level, r, t, lhs, rhs_scale, ratio")
    _add_grid_args(sp, 10, 16.0)
    sp.add_argument("--l-list", default="0,1,2")
    sp.add_argument("--r", type=float, default=3.0)
    sp.add_argument("--t", type=float, default=2.0)
    sp.add_argument("--trials", type=_count, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_tree_bound)

    sp = sub.add_parser("mm-scan", help="maximal multiplier growth scan in N",
                        epilog="CSV columns: q, r, eps, N, trial_count, max_ratio, fitted_slope, max_numerator")
    _add_grid_args(sp, 10, 8.0)
    sp.add_argument("--q", type=float, default=1.5)
    sp.add_argument("--r", type=float, default=3.0)
    sp.add_argument("--eps", type=float, default=0.01)
    sp.add_argument("--N", default="2,4,8,16,32")
    sp.add_argument("--trials", type=_count, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_mm_scan)

    sp = sub.add_parser("exceptional", help="exceptional-set pipeline report",
                        epilog="CSV columns: n, sigma_n, beta_n, gamma_n, measure_E1, "
                               "measure_E2, run, coeff_rescale, measure_E, measure_Estar, "
                               "estar_ratio, pointwise_p95")
    _add_grid_args(sp, 9, 8.0)
    sp.add_argument("--p", type=float, default=1.6)
    sp.add_argument("--q", type=float, default=1.5)
    sp.add_argument("--eps", type=float, default=0.01)
    sp.add_argument("--lam", type=float, default=0.5)
    sp.add_argument("--runs", type=_count, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_exceptional)

    sp = sub.add_parser("rtt-sim", help="return-times averages for rotation pairs",
                        epilog="CSV columns: N, A_N, oscillation, vr")
    sp.add_argument("--alpha", type=float, default=(math.sqrt(5) - 1) / 2)
    sp.add_argument("--beta", type=float, default=math.sqrt(2) - 1)
    sp.add_argument("--x", type=float, default=0.2)
    sp.add_argument("--y", type=float, default=0.7)
    sp.add_argument("--log2-n-max", type=int, default=17)
    sp.add_argument("--r", type=float, default=3.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_rtt_sim)

    sp = sub.add_parser("blowup", help="single-scale threshold refinement scan",
                        epilog="CSV columns: J, proxy_value, delta_f, delta_g, growth_factor")
    sp.add_argument("--p", type=float, default=1.25)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--J-list", default="8,10,12")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_blowup)

    sp = sub.add_parser("tails", help="tail-operator statistics and heavy-tail stress",
                        epilog="CSV columns: statistic, sharpness, value")
    _add_grid_args(sp, 10, 16.0)
    sp.add_argument("--x", type=float, default=0.15)
    sp.add_argument("--y", type=float, default=0.55)
    sp.add_argument("--n-max", type=int, default=20000)
    sp.add_argument("--sharpness", default="0.04,0.02,0.01,0.005")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_tails)

    return ap


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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
            sp = sub.choices[args.command]
            sp.set_defaults(**_config_defaults(sp, args.config))
            args = ap.parse_args(argv)  # flags given on the command line win
        return args.func(args)
    except (ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
