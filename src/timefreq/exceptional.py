"""Exceptional-set machinery: the exponent ledger, the maximal-function
level set, tile splits relative to it, overlap and variation exceptional
sets, the pointwise bound check outside them, and the end-to-end pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dyadic import Interval, Tile, TileUniverse, Tree, saturation, window_partition, decay_level
from .grid import Grid, SampledFunction, dft_values, idft_values, lp_norm, random_indicator
from .norms import maximal_multiplier_lower
from .trees import select_forests, tail_variation, tree_coefficients
from .wavepackets import scaled_kernel, tile_packet_hat

__all__ = [
    "ParameterError",
    "ParamLedger",
    "LevelParams",
    "GridSet",
    "maximal_exceptional_set",
    "split_tiles",
    "overlap_exceptional_set",
    "variation_exceptional_set",
    "check_pointwise_bound",
    "PipelineReport",
    "run_pipeline",
]


class ParameterError(ValueError):
    """Exponent outside the admissible range; the message names the failed check."""


@dataclass(frozen=True)
class LevelParams:
    sigma: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class ParamLedger:
    """Exponents of the level-set argument.

    Q = 1/q - 1/2 + eps and b = (1 - pQ)/(1 - 2Q); construction verifies the
    admissibility checks and raises :class:`ParameterError` naming the first
    violated one.  Per-level parameters follow the dyadic schedule
    sigma_n = 2^-n, beta_n = 2^((2+eps) n) lam^p,
    gamma_n = 2^(-n [(2+eps) Q + eps]) lam^(1 - Q p - 3 eps).
    """

    p: float
    q: float
    eps: float
    lam: float

    def __post_init__(self):
        if not 1.0 < self.q < 2.0:
            raise ParameterError(f"q-range check failed: need 1 < q < 2, got q = {self.q}")
        if not 1.0 < self.p < 2.0:
            raise ParameterError(f"p-range check failed: need 1 < p < 2, got p = {self.p}")
        if not self.eps > 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.lam <= 1.0:
            raise ParameterError(f"threshold check failed: need 0 < lam <= 1, got {self.lam}")
        s = 1.0 / self.p + 1.0 / self.q
        if not s < 1.5:
            raise ParameterError(f"exponent-sum check failed: 1/p + 1/q = {s:.6g} >= 3/2")
        if not self.Q < 1.0 - 1.0 / self.p:
            raise ParameterError(
                f"aperture check failed: Q = {self.Q:.6g} >= 1 - 1/p = {1 - 1/self.p:.6g}"
            )
        if not 0.0 < self.b < self.p:
            raise ParameterError(f"level-exponent check failed: b = {self.b:.6g} not in (0, p)")
        if not self.eps + (2.0 + self.eps) * self.Q < 1.0:
            raise ParameterError(
                f"smallness check failed: eps + (2 + eps) Q = "
                f"{self.eps + (2 + self.eps) * self.Q:.6g} >= 1"
            )

    @property
    def Q(self) -> float:
        return 1.0 / self.q - 0.5 + self.eps

    @property
    def b(self) -> float:
        return (1.0 - self.p * self.Q) / (1.0 - 2.0 * self.Q)

    def level(self, n: int) -> LevelParams:
        sigma = math.ldexp(1.0, -n)
        beta = 2.0 ** ((2.0 + self.eps) * n) * self.lam**self.p
        gamma = 2.0 ** (-n * ((2.0 + self.eps) * self.Q + self.eps)) * self.lam ** (
            1.0 - self.Q * self.p - 3.0 * self.eps
        )
        return LevelParams(sigma, beta, gamma)


@dataclass
class GridSet:
    """Boolean mask over grid samples with its measure."""

    grid: Grid
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != (self.grid.n,):
            raise ValueError("mask length must match the grid")
        self.mask = m

    @property
    def measure(self) -> float:
        return float(self.mask.sum()) * self.grid.dx

    def union(self, other: "GridSet") -> "GridSet":
        return GridSet(self.grid, self.mask | other.mask)

    def complement_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.mask)

    @classmethod
    def empty(cls, grid: Grid) -> "GridSet":
        return cls(grid, np.zeros(grid.n, dtype=bool))


def maximal_exceptional_set(f_indicator: SampledFunction, lam: float, b: float) -> GridSet:
    """Level set {M f >= lam^b} of the maximal function (non-strict per its definition).

    The mask is that of ``hl_maximal(f).values.real >= lam**b``, found in O(n) without M f.
    With P the integer prefix counts of the indicator, M f at i is the largest rounded average
    fl((P_b - P_a) / (b - a)) over a <= i < b, and a rounded average reaches t = lam^b exactly
    when the average reaches m, the midpoint between t and the double below it.  No average
    d / L equals a nonzero m, so the rounding tie rule never applies: in lowest terms
    m = N / 2^s with N odd and s >= 54, and d 2^s = N L would need 2^s to divide L <= n <= 2^20.
    With Q_k = P_k 2^s - N k in integers, reaching m is Q_b >= Q_a, so i is in the set iff the
    largest Q_b with b > i reaches the smallest Q_a with a <= i (every point when t underflows
    to 0, as then m = 0).  Values whose magnitude is not 0 or 1 are refused.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"need 0 < lam <= 1, got {lam}")
    mag = np.abs(f_indicator.values)
    ones = mag == 1.0
    if not np.all(ones | (mag == 0.0)):
        raise ValueError("the maximal level set needs an indicator: every magnitude 0 or 1")
    grid, t = f_indicator.grid, lam**b
    if not t <= 1.0:  # NaN, or above every average of an indicator
        return GridSet.empty(grid)
    # m = (t + the double below t) / 2 = N / 2^s, both denominators being powers of two
    (nt, dt), (nb, db) = t.as_integer_ratio(), math.nextafter(t, 0.0).as_integer_ratio()
    d = max(dt, db)
    q = np.zeros(grid.n + 1, dtype=object)  # Python ints: Q needs more than 64 bits
    q[1:] = np.cumsum(ones, dtype=np.int64)
    q *= 2 * d  # in place throughout: at most two arrays of large integers are alive at once
    nk = np.arange(grid.n + 1).astype(object)
    nk *= nt * (d // dt) + nb * (d // db)
    q -= nk
    low, high = np.minimum.accumulate(q[:-1]), np.maximum.accumulate(q[:0:-1])[::-1]
    return GridSet(grid, high >= low)


def split_tiles(tiles: Iterable[Tile], eset: GridSet) -> tuple[set[Tile], set[Tile]]:
    """(escaping, trapped): tiles whose time interval meets the complement, and the rest."""
    escaping, trapped = set(), set()
    for s in tiles:
        iv = s.time.to_interval()
        lo, hi = eset.grid.index_range(iv.a, iv.b)
        if hi <= lo:
            raise ValueError("tile shorter than the grid step")
        if np.all(eset.mask[lo:hi]):
            trapped.add(s)
        else:
            escaping.add(s)
    return escaping, trapped


def overlap_exceptional_set(trees: Sequence[Tree], beta: float, grid: Grid) -> GridSet:
    """Union over l >= 0 of {x : #{trees with x in 2^l I_T} > beta 4^l}.

    The union stops once the threshold exceeds the tree count (no point can
    qualify).
    """
    if beta < 1.0:
        raise ValueError(f"overlap threshold requires beta >= 1, got {beta}")
    mask = np.zeros(grid.n, dtype=bool)
    levels = [l for l in range(64) if beta * 4.0**l <= len(trees)]
    for l in levels:
        count = np.zeros(grid.n, dtype=np.int64)
        for t in trees:
            iv = t.top_interval.dilate(math.ldexp(1.0, l))
            lo, hi = grid.index_range(iv.a, iv.b)
            count[lo:hi] += 1
        mask |= count > beta * 4.0**l
    return GridSet(grid, mask)


def _coefficient_size(coeffs: dict[Tile, complex]) -> float:
    """sup over tiles of |a_s| / |I_s|^(1/2), 0 for no coefficients."""
    return max((abs(a) / math.sqrt(s.time.length) for s, a in coeffs.items()), default=0.0)


def variation_exceptional_set(
    windows: dict[tuple[int, int], Sequence[Tree]],
    coeffs: dict[Tile, complex],
    gamma: float,
    r: float,
    sigma: float,
    grid: Grid,
    l_decay: float,
) -> GridSet:
    """Union over window trees of scalewise-variation level sets.

    ``windows`` maps (l, m) to the spatial window trees of that offset; each
    tree contributes {x : V^r over scales of its tail sums > gamma 2^(-l_decay l)
    (|m|+1)^-2}.  Coefficients must obey the size normalization
    sup |a_s| / |I_s|^(1/2) <= sigma.  A threshold decay of ten per dilation
    level would presume adaptedness orders the sampled pieces cannot reach;
    an ``l_decay`` below the pieces' effective decay order (``run_pipeline``
    takes 3) leaves nontrivial complements at desk scale.  The window trees
    share one x-slice per (tile, top frequency).
    """
    worst = _coefficient_size(coeffs)
    if worst > sigma * (1.0 + 1e-9):
        raise ValueError(
            f"coefficient normalization violated: sup |a|/sqrt|I| = {worst:.6g} > sigma = {sigma:.6g}"
        )
    mask = np.zeros(grid.n, dtype=bool)
    slices: dict = {}
    for (l, m), trees in sorted(windows.items()):
        alpha = decay_level(l, m)
        thresh = gamma * 2.0 ** (-l_decay * l) * (abs(m) + 1.0) ** (-2.0)
        for tree in trees:
            if tree.tiles:
                mask |= tail_variation(tree, coeffs, alpha, r, grid, slices) > thresh
    return GridSet(grid, mask)


def check_pointwise_bound(
    x_indices: Sequence[int],
    coeffs: dict[Tile, complex],
    q: float,
    grid: Grid,
    search_budget: int,
    seed: int,
) -> np.ndarray:
    """Lower bounds of the maximal-multiplier norm at grid points.

    At each point x of ``x_indices``, a sample index in [0, n), the multiplier
    family collects, scale by scale, theta -> sum of a_s phi_s(x, theta) over
    tiles of that scale; the result holds certified lower bounds of their
    norms, one per point.  Model functions are linear in the packet, so each
    scale's packets are summed and transformed back once; the family at x is
    the theta-slice of the sums, which the per-tile oracle ``theta_slice`` of
    ``tests/test_wavepackets.py`` computes tile by tile.  Points are searched in
    stacked blocks (see the byte budget below), each getting the bound it gets alone.
    """
    xs = np.asarray(x_indices, dtype=int).reshape(-1)
    if not np.all((xs >= 0) & (xs < grid.n)):
        raise ValueError(f"x_indices must be sample indices in [0, {grid.n}), got {xs.min()} to {xs.max()}")
    lhs = np.zeros(xs.size)
    packets: dict[int, np.ndarray] = {}
    for s, a in coeffs.items():
        if a != 0.0:
            packets[s.scale] = packets.get(s.scale, 0.0) + a * tile_packet_hat(grid, s)
    if not packets:
        return lhs
    scales = sorted(packets)
    summed = idft_values(np.array([packets[k] for k in scales]), grid.dx)
    kt = np.array([scaled_kernel(grid, k) for k in scales])
    rows = np.arange(len(scales))[:, None]
    # blocks of points searched together, each stacked complex array at most 192 KiB (6 points of
    # 3 scales at J = 9): larger blocks search faster, but once glibc has raised its mmap threshold
    # the search's arrays come from the heap, whose high-water mark (peak RSS) grows with the block
    block = max(1, 3 * 2**16 // ((len(scales) + 1) * grid.n * 16))
    for i in range(0, xs.size, block):
        # row k of point x is np.roll(summed[k], -x)
        rolled = summed[rows, (np.arange(grid.n) + xs[i : i + block, None, None]) % grid.n]
        ms = dft_values(rolled * kt, grid.dx)
        lhs[i : i + block] = maximal_multiplier_lower(ms, grid, q, search_budget=search_budget, seed=seed)
    return lhs


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class PipelineReport:
    measure_f: float
    measure_e: float
    measure_estar: float
    estar_ratio: float
    level_rows: list
    pointwise_ratios: list

    def pointwise_p95(self) -> float:
        if not self.pointwise_ratios:
            return 0.0
        return float(np.quantile(np.asarray(self.pointwise_ratios), 0.95))


def run_pipeline(
    grid: Grid,
    p: float,
    q: float,
    eps: float,
    lam: float,
    seed: int,
) -> PipelineReport:
    """Random level-set experiment: build the exceptional sets and check the
    pointwise bound outside them.

    Draws a random indicator, forms the maximal-function level set, splits
    the tile universe, runs forest selection on the escaping half, builds the
    per-level overlap and variation sets with the ledger schedule, and samples
    the pointwise ratio at points outside everything.  The finite bump family
    underestimates the size supremum, so raw packet coefficients overshoot the
    level's size parameter; each level rescales its coefficients by the factor
    making the normalization hold exactly at sigma_n (recorded per level), so
    the pointwise-bound hypothesis is satisfied verbatim.

    The settings are fixed: tiles of scales -1..1 with frequencies in [0, 8),
    six bumps per tile in forest selection, the first three forest levels,
    window trees at dilation levels 0..2 with threshold decay 2^(-3l), the
    variation exponent r = 3, and 24 sampled points with a search budget of 30.
    """
    freq_max, r = 8.0, 3.0
    if freq_max > grid.freq_halfwidth:
        raise ValueError(f"tile frequencies reach {freq_max:g}, past the frequency box half-width "
                         f"2^(J-1)/L = {grid.freq_halfwidth:g}; raise --J or lower --L")
    ledger = ParamLedger(p, q, eps, lam)
    rng = np.random.default_rng(seed)
    f = random_indicator(grid, rng, 3)
    measure_f = lp_norm(f, 1)

    eset = maximal_exceptional_set(f, lam, ledger.b)
    universe = TileUniverse(-1, 1, Interval(0.0, grid.length), Interval(0.0, freq_max))
    tiles = universe.all_tiles()
    escaping, _ = split_tiles(tiles, eset)
    level_rows, pointwise_ratios = [], []

    estar = GridSet(grid, eset.mask.copy())
    if escaping:
        dec = select_forests(escaping, f, family_size=6, check_convexity=False)
        first_level = None  # (coefficients, pointwise target) of the first level
        for forest in dec.levels[:3]:
            params = ledger.level(forest.level)
            level_tiles = forest.tiles()
            coeffs = {}
            for tree in forest.trees:
                coeffs.update(tree_coefficients(tree, f))
            worst = _coefficient_size(coeffs)
            rescale = 1.0 if worst <= params.sigma else params.sigma / worst
            coeffs = {s: a * rescale for s, a in coeffs.items()}
            beta_eff = max(1.0, params.beta)
            e1 = overlap_exceptional_set(forest.trees, beta_eff, grid)
            windows: dict[tuple[int, int], list[Tree]] = {}
            for tree in forest.trees:
                g_tiles = saturation(tree, level_tiles)
                for l in range(3):
                    for m, wtree in window_partition(g_tiles, tree, l).items():
                        windows.setdefault((l, m), []).append(wtree)
            e2 = variation_exceptional_set(windows, coeffs, params.gamma, r, params.sigma, grid, l_decay=3.0)
            estar = estar.union(e1).union(e2)
            level_rows.append((forest.level, params.sigma, beta_eff, params.gamma,
                               e1.measure, e2.measure, rescale))
            if first_level is None:  # the target is beta^(1/q - 1/r + eps) (gamma + sigma)
                first_level = (coeffs, beta_eff ** (1.0 / q - 1.0 / r + eps) * (params.gamma + params.sigma))

        if first_level is not None:
            outside = estar.complement_indices()
            if outside.size:
                picks = outside[np.linspace(0, outside.size - 1, min(24, outside.size)).astype(int)]
                first_coeffs, rhs = first_level
                lhs = check_pointwise_bound(picks, first_coeffs, q, grid, search_budget=30, seed=seed)
                pointwise_ratios = [float(v / rhs) for v in lhs]

    return PipelineReport(measure_f, eset.measure, estar.measure, estar.measure * lam**p / measure_f,
                          level_rows, pointwise_ratios)
