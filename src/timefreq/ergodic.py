"""Concrete dynamical systems with drift-free orbits, return-times averages
and their convergence diagnostics, kernel correlation averages, the bilinear
maximal function, the single-scale threshold experiment, and tail-operator
statistics with a heavy-tail stress demo.

Rotation-like systems run on 64-bit fixed-point fractions: one step is a
wrapping integer add, so orbits of any length carry no floating-point drift
and the maps are exactly measure preserving on the sample lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, SampledFunction, dft_values, idft_values, lp_norm, lp_norm_values
from .wavepackets import Kernel, build_window, gabor_expand

__all__ = [
    "CircleRotation",
    "TorusProduct",
    "IntervalExchange",
    "AverageSeries",
    "return_times_average",
    "convergence_diagnostic",
    "kernel_average",
    "kernel_average_at",
    "kernel_average_max",
    "correlation_proxy",
    "BlowupRow",
    "single_scale_blowup",
    "integral_tail",
    "orbit_tail",
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
    """x -> x + alpha mod 1 in 64-bit fixed point; invertible and exact."""

    alpha: float

    def orbit(self, x0: float, n: int, start: int = 1) -> np.ndarray:
        """Points tau^j x0 for j = start .. start + n - 1."""
        step = _to_fixed(self.alpha)
        idx = np.arange(start, start + n, dtype=np.uint64)
        return _to_float(_to_fixed(x0) + idx * step)


@dataclass(frozen=True)
class TorusProduct:
    """Product of two rotations on the unit square."""

    alpha: float
    beta: float

    def orbit(self, point: tuple[float, float], n: int, start: int = 1) -> np.ndarray:
        idx = np.arange(start, start + n, dtype=np.uint64)
        u = _to_float(_to_fixed(point[0]) + idx * _to_fixed(self.alpha))
        v = _to_float(_to_fixed(point[1]) + idx * _to_fixed(self.beta))
        return np.stack([u, v], axis=1)


@dataclass(frozen=True)
class IntervalExchange:
    """Exchange of finitely many subintervals of [0, 1), exact in fixed point.

    A call ``orbit(x0, n, start)`` that starts where an earlier call on the same
    x0 ended, as the blocked orbit statistics do, resumes from that call's
    integer state instead of replaying start - 1 steps.
    """

    lengths: tuple[float, ...]
    permutation: tuple[int, ...]
    # end states of the two most recent orbits, keyed (fixed-point x0, next start):
    # enough for the two orbits a statistic walks in lockstep
    _resume: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if sorted(self.permutation) != list(range(len(self.lengths))):
            raise ValueError("permutation must reorder the segments")
        if abs(sum(self.lengths) - 1.0) > 1e-12:
            raise ValueError("segment lengths must sum to one")

    def _tables(self):
        # all arithmetic in python ints: the fixed-point bounds overflow int64
        lens = [int(l * _SCALE) for l in self.lengths[:-1]]
        lens.append(_SCALE - sum(lens))
        starts, acc = [], 0
        for ln in lens:
            starts.append(acc)
            acc += ln
        new_starts = {}
        pos = 0
        for seg in self.permutation:
            new_starts[seg] = pos
            pos += lens[seg]
        offsets = [(new_starts[i] - starts[i]) % _SCALE for i in range(len(lens))]
        bounds = [starts[i] + lens[i] for i in range(len(lens))]
        return bounds, offsets

    def orbit(self, x0: float, n: int, start: int = 1) -> np.ndarray:
        bounds, offsets = self._tables()
        origin = int((x0 % 1.0) * _SCALE)
        x = self._resume.pop((origin, start), None)
        if x is None:
            x = origin
            for _ in range(start - 1):
                x = self._step(x, bounds, offsets)
        out = np.empty(n, dtype=np.float64)
        for j in range(n):
            x = self._step(x, bounds, offsets)
            out[j] = x / _SCALE
        self._resume[(origin, start + n)] = x
        if len(self._resume) > 2:
            del self._resume[next(iter(self._resume))]
        return out

    @staticmethod
    def _step(x: int, bounds, offsets) -> int:
        for i, b in enumerate(bounds):
            if x < b:
                return (x + offsets[i]) % _SCALE
        return x


@dataclass
class AverageSeries:
    """Partial averages along a list of times."""

    n_list: tuple[int, ...]
    values: np.ndarray = field(repr=False)


def _orbit_blocks(tau, x: float, sigma, y, n: int):
    """Both orbits at times 1..n in blocks of :data:`_BLOCK` steps.

    Yields ``(tau^j x, sigma^j y, j)`` for the block's times j, so a statistic
    makes its passes over arrays that stay in cache.
    """
    if n < 1:
        raise ValueError(f"orbit statistics need at least one step, got {n}")
    for start in range(1, n + 1, _BLOCK):
        m = min(_BLOCK, n + 1 - start)
        yield tau.orbit(x, m, start), sigma.orbit(y, m, start), np.arange(start, start + m)


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
    steps; the real and imaginary partial sums accumulate in extended
    precision, each block's running sum starting from the carry of the block
    before, so they equal one cumulative sum over the whole orbit bit for bit
    and the reported averages are exact to double rounding.  Only the sums at
    the listed N are kept.
    """
    n_list = tuple(sorted(set(int(n) for n in n_list)))
    if not n_list or n_list[0] < 1:
        raise ValueError("average lengths must be positive")
    want = np.asarray(n_list)
    sums = np.zeros((2, want.size), dtype=np.longdouble)
    carry = np.zeros(2, dtype=np.longdouble)
    for u, v, steps in _orbit_blocks(tau, x, sigma, y, n_list[-1]):
        w = np.asarray(f(u), dtype=np.complex128) * np.asarray(g(v), dtype=np.complex128)
        part = np.stack([w.real, w.imag]).astype(np.longdouble)
        part[:, 0] += carry
        np.cumsum(part, axis=1, out=part)
        carry = part[:, -1].copy()
        hit = (want >= steps[0]) & (want <= steps[-1])
        sums[:, hit] = part[:, want[hit] - steps[0]]
    vals = (sums[0] / want).astype(np.float64) + 1j * (sums[1] / want).astype(np.float64)
    return AverageSeries(n_list, vals)


def convergence_diagnostic(series: AverageSeries, r: float) -> tuple[float, float]:
    """(oscillation, variation) of the average series.

    Oscillation is the diameter max |A_i - A_j| over the listed times; the
    variation is the exact r-variation norm of the series.
    """
    from .norms import variational_norm

    v = series.values
    osc = 0.0
    for i in range(v.size):
        osc = max(osc, float(np.max(np.abs(v[i:] - v[i]))))
    return osc, variational_norm(v, r).value


# ---------------------------------------------------------------------------
# kernel averages


def _x_index(grid: Grid, x: float) -> int:
    xi = x / grid.dx
    j = round(xi)
    if abs(xi - j) > 1e-9:
        raise ValueError(f"evaluation point {x} is not a grid sample")
    return int(j) % grid.n


def _kernel_averages(f: SampledFunction, g: SampledFunction, ker: Kernel, x: float, k_list) -> np.ndarray:
    """:func:`kernel_average` values at every scale of ``k_list``, one row per scale.

    One transform of g and one stacked transform of the scales' kernel-weighted
    copies of f, then one stacked inverse transform.
    """
    grid = f.grid
    kt = np.array([ker.scaled_time(k) for k in k_list]).reshape(-1, grid.n)
    hhat = dft_values(np.roll(f.values, -_x_index(grid, x)) * kt, grid.dx)
    rev = hhat[:, (grid.n - np.arange(grid.n)) % grid.n]
    return idft_values(dft_values(g.values, grid.dx) * rev, grid.dx)


def kernel_average(f: SampledFunction, g: SampledFunction, ker: Kernel, x: float, k: int) -> SampledFunction:
    """z -> (1/2^k) integral f(x+y) g(z+y) K(y/2^k) dy by FFT correlation."""
    return SampledFunction(f.grid, _kernel_averages(f, g, ker, x, [k])[0])


def kernel_average_at(f: SampledFunction, g: SampledFunction, ker: Kernel, x: float, z: float, k: int) -> complex:
    """Direct quadrature of the kernel correlation at a single (x, z)."""
    grid = f.grid
    fv = np.roll(f.values, -_x_index(grid, x))
    gv = np.roll(g.values, -_x_index(grid, z))
    return complex(np.sum(fv * gv * ker.scaled_time(k)) * grid.dx)


def kernel_average_max(f: SampledFunction, g: SampledFunction, ker: Kernel, x: float, k_list) -> SampledFunction:
    """Pointwise sup over the scales of ``k_list`` of the absolute kernel correlation; zero for no scales."""
    return SampledFunction(f.grid, np.abs(_kernel_averages(f, g, ker, x, k_list)).max(axis=0, initial=0.0))


def correlation_proxy(
    f: SampledFunction,
    ker: Kernel,
    q: float,
    k_list,
    x_indices,
    n_candidates: int = 6,
    seed: int = 0,
) -> np.ndarray:
    """Candidate-search lower proxy for the correlation supremum at chosen x.

    For each x the value is max over a fixed seeded candidate set of unit-L^q
    functions g of || sup_k |kernel correlation| ||_{L^q_z}.
    """
    grid = f.grid
    rng = np.random.default_rng(seed)
    cands = [np.ones(grid.n, dtype=np.complex128)]
    width = max(4, grid.n // 64)
    bump = np.zeros(grid.n, dtype=np.complex128)
    bump[: 2 * width] = np.hanning(2 * width)
    cands.append(bump)
    for _ in range(max(0, n_candidates - 2)):
        cands.append(rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    cands = [SampledFunction(grid, c / max(lp_norm_values(c, grid.dx, q), 1e-300)) for c in cands]
    out = np.zeros(len(x_indices))
    for i, xi in enumerate(x_indices):
        out[i] = max(lp_norm(kernel_average_max(f, g, ker, xi * grid.dx, k_list), q) for g in cands)
    return out


def _pair_average(f: SampledFunction, g: SampledFunction, xi: int, lo: int, hi: int, t: float) -> float:
    """|(1/2t) sum of f(x + y) g(x - y) dy| over the offsets y = o dx, lo <= o < hi, at x = xi dx."""
    grid = f.grid
    offs = np.arange(lo, hi)
    vals = f.values[(xi + offs) % grid.n] * g.values[(xi - offs) % grid.n]
    return abs(np.sum(vals) * grid.dx / (2.0 * t))


def bilinear_max(f: SampledFunction, g: SampledFunction, x: float, t_grid) -> float:
    """sup over t of |(1/2t) integral_{-t}^{t} f(x+y) g(x-y) dy| at one point."""
    grid = f.grid
    xi = _x_index(grid, x)
    best = 0.0
    for t in t_grid:
        half = int(round(t / grid.dx))
        if half < 1 or 2 * half > grid.n:
            raise ValueError(f"window t = {t} unusable on this grid")
        best = max(best, _pair_average(f, g, xi, -half, half, t))
    return best


# ---------------------------------------------------------------------------
# single-scale threshold experiment


@dataclass(frozen=True)
class BlowupRow:
    j: int
    value: float
    delta_f: float
    delta_g: float


def single_scale_blowup(p: float, q: float, j_list: Sequence[int]) -> list[BlowupRow]:
    """Restricted single-scale proxy on the box [0, 8) across grid refinements.

    For indicator pairs (F, G) of co-located spikes the proxy is the
    unit-energy-tested pairing energy

        sum over unit-scale packets |<1_F, packet>|^2 |<1_G, packet>|^2
        / (|F|^(1/p) |G|^(1/q))^2,

    the squared restricted pairing against an L^2-normalized third side,
    maximized over a nested family of dyadic spike widths reaching down to
    8 grid cells.  Finer grids only extend the candidate family, so in the
    unbounded regime the reported values grow with j.  Both exponents must be
    positive and every j at least 6, so that 8 cells fit in the widest spike.
    """
    for name, value in (("p", p), ("q", q)):
        if not value > 0:
            raise ValueError(f"exponent {name} must be positive, got {value:g}")
    if min(j_list, default=6) < 6:
        raise ValueError(f"blowup needs every --J-list entry >= 6, got {min(j_list)}: "
                         f"its spikes reach down to 8 cells of width 8/2^J inside width 1")
    rows = []
    for j in j_list:
        grid = Grid(j, 8.0)
        window = build_window(grid)
        deltas = []
        d = 1.0
        while d >= 8 * grid.dx - 1e-12:
            deltas.append(d)
            d /= 4.0
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
        rows.append(BlowupRow(j, best, best_pair[0], best_pair[1]))
    return rows


# ---------------------------------------------------------------------------
# tail operators


def integral_tail(f: SampledFunction, g: SampledFunction, x: float, t_list=None) -> float:
    """sup over t > 1 of |(1/2t) integral_t^{t+1} f(x+y) g(x-y) dy|."""
    grid = f.grid
    if t_list is None:
        t_list = []
        t = 2.0
        while t + 1.0 < grid.length / 2.0:
            t_list.append(t)
            t *= 2.0
    xi = _x_index(grid, x)
    best = 0.0
    for t in t_list:
        if t <= 1.0:
            raise ValueError("tail windows require t > 1")
        lo, hi = int(round(t / grid.dx)), int(round((t + 1.0) / grid.dx))
        best = max(best, _pair_average(f, g, xi, lo, hi, t))
    return best


def orbit_tail(f_obs: Callable, tau, x: float, g_obs: Callable, sigma, y, n_max: int) -> float:
    """sup over n <= n_max of |f(tau^n x) g(sigma^n y)| / n, for pointwise f and g."""
    best = -np.inf
    for u, v, steps in _orbit_blocks(tau, x, sigma, y, n_max):
        fo = np.asarray(f_obs(u), dtype=np.complex128)
        go = np.asarray(g_obs(v), dtype=np.complex128)
        best = np.maximum(best, np.max(np.abs(fo * go) / steps))
    return float(best)


def _circle_distance(u, center: float) -> np.ndarray:
    """Distance on the unit circle for u and center in [0, 1): no remainder pass, unlike wrapped_distance."""
    d = np.abs(np.asarray(u, dtype=float) - center)
    return np.minimum(d, 1.0 - d)


def _spike(d: np.ndarray, eps: float) -> np.ndarray:
    """Unnormalized spike |u - c|^(-0.9) of regularization width eps at circle distance d."""
    return np.maximum(d, eps) ** (-0.9)


def _spike_norm(center: float, eps: float) -> float:
    """Integral of the spike at ``center`` over the circle, by the mean of 2^16 samples."""
    if not 0.0 < eps < 0.5:
        raise ValueError("sharpness levels are regularization widths in (0, 1/2)")
    return float(_spike(_circle_distance(np.linspace(0.0, 1.0, 1 << 16, endpoint=False), center), eps).mean())


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
    width eps, centered on the two orbits at a fixed early hit time -- the
    adapted placement that drives the known failure for integrable pairs.  The
    hit contributes eps^(-1.8) / (hit_time * norms), which dominates the
    statistic and grows as the levels sharpen.  The hit time is the first
    orbit's closest approach to 1/2 among the first few steps.

    Each value equals :func:`orbit_tail` of that level's spike pair; the
    orbits and their circle distances are built once, block by block, for all
    levels.
    """
    probe = min(8, n_max)
    n_star = int(np.argmin(_circle_distance(tau.orbit(x, probe), 0.5))) + 1
    center_f = float(tau.orbit(x, 1, start=n_star)[0])
    center_g = float(sigma.orbit(y, 1, start=n_star)[0])
    levels = [(eps, _spike_norm(center_f, eps), _spike_norm(center_g, eps)) for eps in sharpness_levels]
    best = np.full(len(levels), -np.inf)
    for u, v, steps in _orbit_blocks(tau, x, sigma, y, n_max):
        df, dg = _circle_distance(u, center_f), _circle_distance(v, center_g)
        for i, (eps, norm_f, norm_g) in enumerate(levels):
            best[i] = np.maximum(best[i], np.max(_spike(df, eps) / norm_f * (_spike(dg, eps) / norm_g) / steps))
    return best.tolist()
