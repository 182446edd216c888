"""Circle rotations with drift-free orbits, return-times averages and their
convergence diagnostics, the single-scale threshold experiment, and
tail-operator statistics with a heavy-tail stress demo.

Rotations run on 64-bit fixed-point fractions: one step is a wrapping
integer add, so orbits of any length carry no floating-point drift and the
maps are exactly measure preserving on the sample lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, SampledFunction, wrapped_distance
from .norms import variational_norm
from .wavepackets import build_window, gabor_expand

__all__ = [
    "CircleRotation",
    "AverageSeries",
    "return_times_average",
    "tail_diagnostics",
    "BlowupRow",
    "single_scale_blowup",
    "integral_tail",
    "heavy_tail_sweep",
]

_SCALE = 2**64
# orbit steps per pass of the orbit statistics: 128 KB per float64 array, so a
# pass stays in L2 (2^12..2^16 time alike)
_BLOCK = 1 << 14


def _to_fixed(x: float) -> np.uint64:
    return np.uint64(int((x % 1.0) * _SCALE) % _SCALE)


def _to_float(nums: np.ndarray) -> np.ndarray:
    return nums.astype(np.float64) / _SCALE


@dataclass(frozen=True)
class CircleRotation:
    """x -> x + alpha mod 1 in 64-bit fixed point; invertible and exact.  alpha must be finite."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"rotation angle alpha must be finite, got {self.alpha}")

    def orbit(self, x0: float, n: int, start: int = 1) -> np.ndarray:
        """Points tau^j x0 for j = start .. start + n - 1; x0 must be finite."""
        if not math.isfinite(x0):
            raise ValueError(f"orbit start point x0 must be finite, got {x0}")
        step = _to_fixed(self.alpha)
        idx = np.arange(start, start + n, dtype=np.uint64)
        return _to_float(_to_fixed(x0) + idx * step)


@dataclass
class AverageSeries:
    """Partial averages along a list of times."""

    n_list: tuple[int, ...]
    values: np.ndarray = field(repr=False)


def _product(fo, go) -> np.ndarray:
    """Pointwise product of two observable blocks in double precision: real for real
    observables, complex128 when either is complex.  A real product equals the real
    part of the complex128 product bit for bit, whose imaginary part is zero."""
    if np.iscomplexobj(fo) or np.iscomplexobj(go):
        return np.asarray(fo, dtype=np.complex128) * np.asarray(go, dtype=np.complex128)
    return np.multiply(fo, go, dtype=np.float64)


def return_times_average(
    f: Callable,
    tau,
    x: float,
    g: Callable,
    sigma,
    y,
    n_list: Sequence[int],
) -> AverageSeries:
    """Averages (1/N) sum_{n<=N} f(tau^n x) g(sigma^n y) at the listed N.

    f and g act pointwise.  The orbits are walked in blocks of :data:`_BLOCK`
    steps; the partial sums accumulate in extended precision, each block's
    running sum starting from the carry of the block before, so they equal one
    cumulative sum over the whole orbit bit for bit and the reported averages are
    exact to double rounding.  Real observables sum one real row; the imaginary
    sums then stay at their carry.  Only the sums at the listed N are kept.
    """
    n_list = tuple(sorted(set(int(n) for n in n_list)))
    if not n_list or n_list[0] < 1:
        raise ValueError("average lengths must be positive")
    want = np.asarray(n_list)
    sums = np.zeros((2, want.size), dtype=np.longdouble)
    carry = np.zeros(2, dtype=np.longdouble)
    for start in range(1, n_list[-1] + 1, _BLOCK):
        m = min(_BLOCK, n_list[-1] + 1 - start)
        w = _product(f(tau.orbit(x, m, start)), g(sigma.orbit(y, m, start)))
        part = (np.stack([w.real, w.imag]) if np.iscomplexobj(w) else w[None]).astype(np.longdouble)
        k = len(part)
        part[:, 0] += carry[:k]
        np.cumsum(part, axis=1, out=part)
        carry[:k] = part[:, -1]
        hit = (want >= start) & (want < start + m)
        sums[:, hit] = carry[:, None]
        sums[:k, hit] = part[:, want[hit] - start]
    vals = (sums[0] / want).astype(np.float64) + 1j * (sums[1] / want).astype(np.float64)
    return AverageSeries(n_list, vals)


def tail_diagnostics(series: AverageSeries, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Oscillations and variations of every tail of the series: entry i is the
    diameter max |A_j - A_k| and the exact r-variation norm of the values from
    the i-th listed time on, so entry 0 is that of the whole series.

    One pass for all tails.  The gaps |A_j - A_i| form one matrix; row i's
    largest gap with j >= i is taken once, and tail i's oscillation is the
    largest of those of rows i and later.  The variations are one
    :func:`variational_norm` of the matrix whose column i is tail i padded in
    front with copies of A_i: the padding adds zero increments and no new
    value, so each column's norm is its tail's, bit for bit.  This holds for
    finite values and NaN, not for infinite ones, whose zero increments would
    be inf - inf = NaN.  The series must not be empty.
    """
    v = series.values
    gaps = np.abs(v - v[:, None])  # row i, column j: |A_j - A_i|
    osc = np.maximum.accumulate(np.triu(gaps).max(axis=1)[::-1])[::-1]
    k = np.arange(v.size)
    return osc, variational_norm(v[np.maximum(k[:, None], k)], r)


# ---------------------------------------------------------------------------
# pair averages


def _x_index(grid: Grid, x: float) -> int:
    xi = x / grid.dx
    j = round(xi)
    if abs(xi - j) > 1e-9:
        raise ValueError(f"evaluation point {x} is not a grid sample")
    return int(j) % grid.n


def _pair_average(f: SampledFunction, g: SampledFunction, xi: int, lo: int, hi: int, t: float) -> float:
    """|(1/2t) sum of f(x + y) g(x - y) dy| over the offsets y = o dx, lo <= o < hi, at x = xi dx."""
    grid = f.grid
    offs = np.arange(lo, hi)
    vals = f.values[(xi + offs) % grid.n] * g.values[(xi - offs) % grid.n]
    return abs(np.sum(vals) * grid.dx / (2.0 * t))


# ---------------------------------------------------------------------------
# single-scale threshold experiment


@dataclass(frozen=True)
class BlowupRow:
    value: float
    delta_f: float
    delta_g: float


def single_scale_blowup(p: float, q: float, j_list: Sequence[int]) -> list[BlowupRow]:
    """Restricted single-scale proxy on the box [0, 8) across grid refinements, one row per j, in order.

    For indicator pairs (F, G) of co-located spikes the proxy is the
    unit-energy-tested pairing energy

        sum over unit-scale packets |<1_F, packet>|^2 |<1_G, packet>|^2
        / (|F|^(1/p) |G|^(1/q))^2,

    the squared restricted pairing against an L^2-normalized third side,
    maximized over a nested family of dyadic spike widths reaching down to
    8 grid cells.  Finer grids only extend the candidate family, so in the
    unbounded regime the reported values grow with j.  Both exponents must be
    positive and every j at least 6, so that 8 cells fit in the widest spike.
    The normalisation at the narrowest spikes must be a normal double: the
    numerator is at most one, so every value is then finite.
    """
    for name, value in (("p", p), ("q", q)):
        if not value > 0:
            raise ValueError(f"exponent {name} must be positive, got {value:g}")
    if min(j_list, default=6) < 6:
        raise ValueError(f"blowup needs every --J-list entry >= 6, got {min(j_list)}: "
                         f"its spikes reach down to 8 cells of width 8/2^J inside width 1")
    grids = [Grid(j, 8.0) for j in j_list]  # a J above MAX_J is refused before any work
    d = 0.25 ** ((max(j_list, default=6) - 6) // 2)  # the narrowest spike width
    if (d ** (1.0 / p) * d ** (1.0 / q)) ** 2 < np.finfo(float).tiny:
        name, value = ("p", p) if p <= q else ("q", q)
        raise ValueError(f"exponent {name} = {value:g} is too small for J = {max(j_list)}: "
                         f"(|F|^(1/p) |G|^(1/q))^2 underflows at spike width {d:g}; raise --{name}")
    rows = []
    for j, grid in zip(j_list, grids):
        window = build_window(grid)
        # widths 1, 1/4, 1/16, ... down to the last one of at least 8 cells of width 8/2^j
        deltas = [0.25**i for i in range((j - 6) // 2 + 1)]
        center = 4.0
        spikes = {d: SampledFunction.indicator(grid, [(center, center + d)]) for d in deltas}
        tables = {d: np.abs(gabor_expand(window, ind, 0).ravel()) for d, ind in spikes.items()}
        best, best_pair = 0.0, (deltas[0], deltas[0])
        for df in deltas:
            for dg in deltas:
                num = float(np.sum(tables[df] ** 2 * tables[dg] ** 2))
                val = num / (df ** (1.0 / p) * dg ** (1.0 / q)) ** 2
                if val > best:
                    best, best_pair = val, (df, dg)
        rows.append(BlowupRow(best, best_pair[0], best_pair[1]))
    return rows


# ---------------------------------------------------------------------------
# tail operators


def integral_tail(f: SampledFunction, g: SampledFunction, x: float) -> float:
    """sup over t = 2, 4, 8, ... with t + 1 < L/2 (one at least, so L >= 8) of |(1/2t) integral_t^{t+1} f(x+y) g(x-y) dy|."""
    grid = f.grid
    if grid.length < 8.0:  # L is a power of two, so t = 2 has t + 1 < L/2 exactly when L >= 8
        raise ValueError(f"the integral tail has no window t = 2, 4, ... with t + 1 < L/2 at L = {grid.length:g}; "
                         "raise --L to 8 or more")
    xi = _x_index(grid, x)
    best = 0.0
    t = 2.0
    while t + 1.0 < grid.length / 2.0:
        lo, hi = int(round(t / grid.dx)), int(round((t + 1.0) / grid.dx))
        best = np.maximum(best, _pair_average(f, g, xi, lo, hi, t))
        t *= 2.0
    return float(best)


def _spike(d: np.ndarray, eps: float) -> np.ndarray:
    """Unnormalized spike |u - c|^(-0.9) of regularization width eps at circle distance d.

    With the smallest level as eps, this one power serves every level: a level's
    spike is ``np.where(d > level, power, cap)``, its cap the level's own power.
    """
    s = np.maximum(d, eps)
    s **= -0.9
    return s


def _spike_norms(center: float, levels: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Integrals over the circle of the spikes at ``center``, one per level, by means of 2^16 samples."""
    d = wrapped_distance(np.linspace(0.0, 1.0, 1 << 16, endpoint=False), center, 1.0)
    power = _spike(d, levels.min())
    return np.array([np.where(d > eps, power, cap).mean() for eps, cap in zip(levels, caps)])


def heavy_tail_sweep(
    sharpness_levels: Sequence[float],
    tau,
    x: float,
    sigma,
    y,
    n_max: int,
) -> list[float]:
    """Orbit-tail statistic for sharpening unit-mass spike pairs.

    Both observables are unit-integral spikes |u - c|^(-0.9) of regularization
    width eps, centered on the two orbits at a fixed early hit time n* -- the
    adapted placement that drives the known failure for integrable pairs.  The
    hit contributes eps^(-1.8) / (n* * norms), which dominates the statistic
    and grows as the levels sharpen.  The hit time is the first orbit's closest
    approach to 1/2 among the first min(8, n_max) steps.  Every level must lie
    in (0, 1/2), with eps^(-1.8) finite, and n_max must be at least 1.

    Each value is sup over n <= n_max of |f(tau^n x) g(sigma^n y)| / n for
    that level's spike pair, as the oracle ``whole_heavy_tail_sweep`` of
    ``tests/test_ergodic.py`` computes it over the whole orbit.  Only the steps
    1..n* are evaluated, and they decide the sup exactly:

    - at n* both orbit points equal their centres, so both distances are 0 and
      the value there uses the level's cap on both sides,
      V* = fl(fl(cap / norm_f) * fl(cap / norm_g)) / n*;
    - at any later step each spike is the cap or the power of a distance above
      the level, which exceeds the cap by at most a few ulps of pow's error;
    - rounded division and product are monotone, so a step n > n* has a value
      of at most V* (1 + 2^-45) n* / n, and n* / n <= 8/9 puts that below V*.

    One spike power, at the smallest level, serves every level (:func:`_spike`).
    """
    if n_max < 1:
        raise ValueError(f"the sweep needs n_max >= 1 orbit steps, got n_max = {n_max}")
    levels = np.array(sharpness_levels, dtype=float)
    for eps in levels.tolist():
        if not 0.0 < eps < 0.5:
            raise ValueError(f"sharpness levels are regularization widths in (0, 1/2), got {eps:g}")
        try:
            eps ** -1.8
        except OverflowError:
            raise ValueError(f"sharpness level {eps:g} is too sharp: its spike product eps^(-1.8) "
                             "overflows a double") from None
    if not levels.size:
        return []
    eps_min = levels.min()
    caps = _spike(levels, eps_min)
    u = tau.orbit(x, min(8, n_max))
    n_star = int(np.argmin(wrapped_distance(u, 0.5, 1.0))) + 1
    u, v = u[:n_star], sigma.orbit(y, n_star)
    center_f, center_g = float(u[-1]), float(v[-1])
    norm_f = _spike_norms(center_f, levels, caps)[:, None]
    norm_g = _spike_norms(center_g, levels, caps)[:, None]
    df, dg = wrapped_distance(u, center_f, 1.0), wrapped_distance(v, center_g, 1.0)
    eps, cap = levels[:, None], caps[:, None]
    sf = np.where(df > eps, _spike(df, eps_min), cap) / norm_f
    sg = np.where(dg > eps, _spike(dg, eps_min), cap) / norm_g
    return (sf * sg / np.arange(1, n_star + 1)).max(axis=1).tolist()
