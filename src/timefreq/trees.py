"""Greedy size-decrement forest selection, the two-piece decomposition of
model functions relative to a tree, and the tree variation report.

The selection removes, at each size level n, offender tiles (singleton size
above 2^-(n+1)) in order of lowest frequency left endpoint, sweeping each
offender's associated tree out of the residual.  A tile t joins the tree of
offender s* when I_t lies inside I_s* and omega_s* lies inside the tenfold
dilate of omega_t; sweeping is downward closed for the tile order, which
keeps every emitted level convex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .dyadic import Forest, Tile, Tree, is_convex, tiles_to_text
from .grid import Grid, SampledFunction, dft_values, lp_norm_values, wrapped_distance
from .norms import per_tile_sizes, tile_size, variational_norm
from .wavepackets import Kernel, ModelFunction, build_kernel, smooth_step, tile_packet_hat

__all__ = [
    "ForestDecomposition",
    "TreePieces",
    "select_forests",
    "tree_decompose",
    "tree_coefficients",
    "tail_variation",
    "TreeVariationReport",
    "tree_variation_report",
    "ZERO_SIZE_LEVEL",
]

ZERO_SIZE_LEVEL = 60


@dataclass(frozen=True)
class ForestDecomposition:
    """Disjoint union of per-level forests with size certificates.

    The first emitted level is floor(-log2 size) of the input, since a level
    above it could not certify 2^-n.  Tiles of size zero land at level
    ``ZERO_SIZE_LEVEL``.
    """

    levels: tuple[Forest, ...]
    sizes: dict = field(repr=False)

    def summary_rows(self) -> list[tuple]:
        """(level, tree count, tile count, sum of top lengths, max size) per level."""
        rows = []
        for f in self.levels:
            tiles = f.tiles()
            rows.append(
                (
                    f.level,
                    len(f.trees),
                    len(tiles),
                    f.top_length_sum(),
                    max((self.sizes[s] for s in tiles), default=0.0),
                )
            )
        return rows

    def to_text(self) -> str:
        """Tile serialization (:func:`tiles_to_text`) with a level column appended."""
        lines = [f"{line} {f.level}" for f in self.levels for line in tiles_to_text(f.tiles()).splitlines()]
        return "\n".join(lines) + ("\n" if lines else "")


def _sweep_members(top: Tile, residual: set[Tile]) -> frozenset[Tile]:
    omega_top = top.freq.to_interval()
    return frozenset(
        t
        for t in residual
        if top.time.contains(t.time) and t.freq.to_interval().dilate(10.0).contains(omega_top)
    )


def select_forests(
    tiles: Iterable[Tile],
    f: SampledFunction,
    family_size: int,
    check_convexity: bool = True,
) -> ForestDecomposition:
    """Split a convex tile collection into size-certified forests.

    Every emitted level n satisfies (and the loop enforces) that the size of
    its tile set is at most 2^-n, and records the sum of tree top lengths for
    counting checks.
    """
    tile_set = set(tiles)
    if check_convexity and not is_convex(tile_set):
        raise ValueError("forest selection requires a convex tile collection")
    sizes = per_tile_sizes(tile_set, f, family_size)
    sigma = max(sizes.values(), default=0.0)
    levels: list[Forest] = []
    residual = set(tile_set)
    n = ZERO_SIZE_LEVEL if sigma == 0.0 else math.floor(-math.log2(sigma))
    while residual:
        if n >= ZERO_SIZE_LEVEL:
            n = ZERO_SIZE_LEVEL
            thresh = -1.0  # sweep everything that is left
        else:
            thresh = math.ldexp(1.0, -(n + 1))
        offenders = sorted(
            (s for s in residual if sizes[s] > thresh),
            key=lambda s: (s.freq.left, s.time.left, s.sort_key()),
        )
        trees = []
        while offenders:
            top = offenders[0]
            members = _sweep_members(top, residual)
            trees.append(
                Tree(top.time.to_interval(), top.freq.left, members, top_tile=top)
            )
            residual -= members
            offenders = [s for s in offenders if s not in members]
        if trees:
            forest = Forest(tuple(trees), n)
            level_size = max(sizes[s] for s in forest.tiles())
            if level_size > math.ldexp(1.0, -n):
                raise RuntimeError(
                    f"size certificate violated at level {n}: {level_size} > 2^-{n}"
                )
            levels.append(forest)
        if not residual:
            break
        res_sigma = max(sizes[s] for s in residual)
        n = ZERO_SIZE_LEVEL if res_sigma == 0.0 else max(n + 1, math.floor(-math.log2(res_sigma)))
    return ForestDecomposition(tuple(levels), sizes)


# ---------------------------------------------------------------------------
# two-piece decomposition of a model function relative to a tree


def time_cutoff(t) -> np.ndarray:
    """Smooth even cutoff: one on [-1/4, 1/4], supported in [-1/2, 1/2]."""
    t = np.abs(np.asarray(t, dtype=float))
    return smooth_step((0.5 - t) * 4.0)


@dataclass
class TreePieces:
    """Split of a tile's model function relative to a tree top.

    ``local`` is compactly supported in the 2^level dilate of I_s; ``tail``
    keeps the top-frequency mean of the local part plus everything outside,
    gains 2^(-M level) decay for every M, and is the piece entering the
    variational sums.  The two parts add back to the model function exactly.
    Both slices take the model function's x-slice ``phi_vals`` at one theta
    and the tree's top frequency.  The pieces depend on s only through I_s.
    """

    level: int
    grid: Grid = field(repr=False)
    cutoff: np.ndarray = field(repr=False)
    cutoff_integral: float

    def _mean_term(self, phi_vals: np.ndarray, top_freq: float) -> np.ndarray:
        g = self.grid
        osc = np.exp(-2j * np.pi * top_freq * g.xs())
        amount = np.sum(phi_vals * osc * self.cutoff) * g.dx
        return np.conj(osc) * self.cutoff * (amount / self.cutoff_integral)

    def tail_slice(self, phi_vals: np.ndarray, top_freq: float) -> np.ndarray:
        if self.level == 0:
            return phi_vals
        return self._mean_term(phi_vals, top_freq) + phi_vals * (1.0 - self.cutoff)

    def local_slice(self, phi_vals: np.ndarray, top_freq: float) -> np.ndarray:
        if self.level == 0:
            return np.zeros_like(phi_vals)
        return phi_vals * self.cutoff - self._mean_term(phi_vals, top_freq)


def tree_decompose(s: Tile, level: int, grid: Grid) -> TreePieces:
    """Build the two pieces of the model function of s relative to a tree containing it.

    At level zero the tail piece is the whole model function.  The local
    cutoff is the L-infinity-normalized dilation of the canonical time cutoff
    to 2^level |I_s| about the center of I_s, with distances wrapped on the
    period.
    """
    if level < 0:
        raise ValueError("decomposition level must be >= 0")
    width = math.ldexp(s.time.length, level)
    cutoff = time_cutoff(wrapped_distance(grid.xs(), s.time.center, grid.length) / width)
    integral = float(np.sum(cutoff) * grid.dx)
    return TreePieces(level, grid, cutoff, integral)


def tree_coefficients(tree: Tree, f: SampledFunction) -> dict[Tile, complex]:
    """Packet coefficients <f, packet_s> for every tile of a tree.

    By Parseval, each is dxi * sum(fhat * conj(packet_hat)) over the
    frequency grid, from one transform of f.
    """
    fhat = dft_values(f.values, f.grid.dx)
    return {s: complex(f.grid.dxi * np.sum(fhat * np.conj(tile_packet_hat(f.grid, s))))
            for s in sorted(tree.tiles, key=Tile.sort_key)}


def tail_variation(tree: Tree, coeffs: dict[Tile, complex], level: int, r: float, kernel: Kernel,
                   slice_cache: dict) -> np.ndarray:
    """V^r over the tree's scales k of the field sum_s a_s tail_s(x, top frequency), s of scale k.

    Tail pieces are taken at ``level``; tiles that ``coeffs`` lacks or maps to
    zero add nothing.  ``slice_cache`` keeps a tile's x-slice under (tile, top frequency) and, above
    level 0 (where the tail is the whole slice), its :func:`tree_decompose` pieces under (time interval,
    level), so trees and levels sharing a cache build each once.  The tree must have a tile.
    """
    scales = tree.scales()
    grid = kernel.grid
    fields = np.zeros((len(scales), grid.n), dtype=np.complex128)
    for i, k in enumerate(scales):
        for s in tree.tiles_at_scale(k):
            a = coeffs.get(s, 0.0)
            if a == 0.0:
                continue
            key = (s, tree.top_freq)
            if key not in slice_cache:
                slice_cache[key] = ModelFunction(s, kernel, tile_packet_hat(grid, s)).x_slice(tree.top_freq)
            tail = slice_cache[key]
            if level != 0:
                if (s.time, level) not in slice_cache:
                    slice_cache[s.time, level] = tree_decompose(s, level, grid)
                tail = slice_cache[s.time, level].tail_slice(tail, tree.top_freq)
            fields[i] += a * tail
    return variational_norm(fields, r)


@dataclass(frozen=True)
class TreeVariationReport:
    lhs: float
    rhs_scale: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs_scale if self.rhs_scale > 0 else math.inf


def tree_variation_report(
    tree: Tree,
    f: SampledFunction,
    levels: Iterable[int],
    r: float,
    t: float,
) -> list[TreeVariationReport]:
    """L^t norm of the scalewise r-variation of the tree's tail sums, one report per level, in order.

    lhs is the L^t_x norm of the V^r norm over scales k of
    sum over tiles of scale k of <f, packet_s> * tail_s(x, top frequency);
    rhs_scale is 2^(-4 level) * size(tree) * |I_T|^(1/t), the size taken over
    the 8-bump adapted family, so the ratio tracks the tree bound with its
    implicit constant.  The coefficients, the size and one
    :func:`tail_variation` slice cache serve every level.
    """
    if not r > 2:
        raise ValueError("variation exponent must exceed 2")
    if not 1 < t < math.inf:
        raise ValueError("integrability exponent must lie in (1, inf)")
    kernel = build_kernel(f.grid)
    coeffs = tree_coefficients(tree, f)
    size = tile_size(tree.tiles, f, 8)
    cache: dict = {}
    reports = []
    for level in levels:
        vr = tail_variation(tree, coeffs, level, r, kernel, cache)
        lhs = lp_norm_values(vr, f.grid.dx, t)
        rhs = 2.0 ** (-4 * level) * size * tree.top_interval.length ** (1.0 / t)
        reports.append(TreeVariationReport(lhs, rhs))
    return reports
