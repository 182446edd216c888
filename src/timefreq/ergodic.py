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

from .grid import Grid, SampledFunction, dft, idft, lp_norm
from .wavepackets import Kernel, Window, gabor_expand

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
    """Exchange of finitely many subintervals of [0, 1), exact in fixed point."""

    lengths: tuple[float, ...]
    permutation: tuple[int, ...]

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
        x = int((x0 % 1.0) * _SCALE)
        for _ in range(start - 1):
            x = self._step(x, bounds, offsets)
        out = np.empty(n, dtype=np.float64)
        for j in range(n):
            x = self._step(x, bounds, offsets)
            out[j] = x / _SCALE
        return out

    @staticmethod
    def _step(x: int, bounds, offsets) -> int:
        for i, b in enumerate(bounds):
            if x < b:
                return (x + offsets[i]) % _SCALE
        return x


@dataclass
class AverageSeries:
    """Partial averages along a list of times, with run metadata."""

    n_list: tuple[int, ...]
    values: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)


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

    Partial sums accumulate in extended precision, so the reported averages
    are exact to double rounding.
    """
    n_list = tuple(sorted(set(int(n) for n in n_list)))
    if not n_list or n_list[0] < 1:
        raise ValueError("average lengths must be positive")
    n_max = n_list[-1]
    w = np.asarray(f(tau.orbit(x, n_max)), dtype=np.complex128)
    w = w * np.asarray(g(sigma.orbit(y, n_max)), dtype=np.complex128)
    sums_re = np.cumsum(w.real.astype(np.longdouble))
    sums_im = np.cumsum(w.imag.astype(np.longdouble))
    idx = np.asarray(n_list) - 1
    vals = (sums_re[idx] / np.asarray(n_list)).astype(np.float64) + 1j * (
        sums_im[idx] / np.asarray(n_list)
    ).astype(np.float64)
    return AverageSeries(n_list, vals, meta={"x": x, "y": y})


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


def kernel_average(f: SampledFunction, g: SampledFunction, ker: Kernel, x: float, k: int) -> SampledFunction:
    """z -> (1/2^k) integral f(x+y) g(z+y) K(y/2^k) dy by FFT correlation."""
    grid = f.grid
    h = np.roll(f.values, -_x_index(grid, x)) * ker.scaled_time(k)
    hhat = dft(SampledFunction(grid, h)).values
    ghat = dft(g).values
    rev = hhat[(grid.n - np.arange(grid.n)) % grid.n]
    return idft(SampledFunction(grid, ghat * rev))


def kernel_average_at(f: SampledFunction, g: SampledFunction, ker: Kernel, x: float, z: float, k: int) -> complex:
    """Direct quadrature of the kernel correlation at a single (x, z)."""
    grid = f.grid
    fv = np.roll(f.values, -_x_index(grid, x))
    gv = np.roll(g.values, -_x_index(grid, z))
    return complex(np.sum(fv * gv * ker.scaled_time(k)) * grid.dx)


def kernel_average_max(f: SampledFunction, g: SampledFunction, ker: Kernel, x: float, k_list) -> SampledFunction:
    """Pointwise sup over scales of the absolute kernel correlation."""
    grid = f.grid
    out = np.zeros(grid.n)
    for k in k_list:
        np.maximum(out, np.abs(kernel_average(f, g, ker, x, k).values), out=out)
    return SampledFunction(grid, out)


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
    cands = [SampledFunction(grid, c / max(lp_norm(SampledFunction(grid, c), q), 1e-300)) for c in cands]
    out = np.zeros(len(x_indices))
    for i, xi in enumerate(x_indices):
        x = xi * grid.dx
        best = 0.0
        for g in cands:
            val = lp_norm(kernel_average_max(f, g, ker, x, k_list), q)
            best = max(best, val)
        out[i] = best
    return out


def bilinear_max(f: SampledFunction, g: SampledFunction, x: float, t_grid) -> float:
    """sup over t of |(1/2t) integral_{-t}^{t} f(x+y) g(x-y) dy| at one point."""
    grid = f.grid
    xi = _x_index(grid, x)
    best = 0.0
    for t in t_grid:
        half = int(round(t / grid.dx))
        if half < 1 or 2 * half > grid.n:
            raise ValueError(f"window t = {t} unusable on this grid")
        offs = np.arange(-half, half)
        vals = f.values[(xi + offs) % grid.n] * g.values[(xi - offs) % grid.n]
        best = max(best, abs(np.sum(vals) * grid.dx / (2.0 * t)))
    return best


# ---------------------------------------------------------------------------
# single-scale threshold experiment


@dataclass(frozen=True)
class BlowupRow:
    j: int
    value: float
    delta_f: float
    delta_g: float


def _spike_coeff_table(window: Window, deltas: Sequence[float], center: float) -> dict[float, np.ndarray]:
    grid = window.grid
    out = {}
    for d in deltas:
        ind = SampledFunction.indicator(grid, [(center, center + d)])
        coeffs = gabor_expand(window, ind, 0)
        out[d] = np.abs(np.fromiter(coeffs.values(), dtype=np.complex128))
    return out


def single_scale_blowup(
    p: float,
    q: float,
    j_list: Sequence[int],
    length: float = 8.0,
    min_width: int = 8,
) -> list[BlowupRow]:
    """Restricted single-scale proxy across grid refinements.

    For indicator pairs (F, G) of co-located spikes the proxy is the
    unit-energy-tested pairing energy

        sum over unit-scale packets |<1_F, packet>|^2 |<1_G, packet>|^2
        / (|F|^(1/p) |G|^(1/q))^2,

    the squared restricted pairing against an L^2-normalized third side,
    maximized over a nested family of dyadic spike widths reaching down to
    ``min_width`` grid cells.  Finer grids only extend the candidate family,
    so in the unbounded regime the reported values grow with j.
    """
    rows = []
    for j in j_list:
        grid = Grid(j, length)
        window = build_window_cached(grid)
        deltas = []
        d = 1.0
        while d >= min_width * grid.dx - 1e-12:
            deltas.append(d)
            d /= 4.0
        center = length / 2.0
        tables = _spike_coeff_table(window, deltas, center)
        best, best_pair = 0.0, (deltas[0], deltas[0])
        for df in deltas:
            for dg in deltas:
                num = float(np.sum(tables[df] ** 2 * tables[dg] ** 2))
                val = num / (df ** (1.0 / p) * dg ** (1.0 / q)) ** 2
                if val > best:
                    best, best_pair = val, (df, dg)
        rows.append(BlowupRow(j, best, best_pair[0], best_pair[1]))
    return rows


_WINDOW_CACHE: dict = {}


def build_window_cached(grid: Grid) -> Window:
    from .wavepackets import build_window

    key = (grid.j, grid.length)
    if key not in _WINDOW_CACHE:
        _WINDOW_CACHE[key] = build_window(grid, min_freq_samples=min(64, int(grid.length)))
    return _WINDOW_CACHE[key]


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
        lo = int(round(t / grid.dx))
        hi = int(round((t + 1.0) / grid.dx))
        offs = np.arange(lo, hi)
        vals = f.values[(xi + offs) % grid.n] * g.values[(xi - offs) % grid.n]
        best = max(best, abs(np.sum(vals) * grid.dx / (2.0 * t)))
    return best


def orbit_tail(f_obs: Callable, tau, x: float, g_obs: Callable, sigma, y, n_max: int) -> float:
    """sup over n <= n_max of |f(tau^n x) g(sigma^n y)| / n."""
    fo = np.asarray(f_obs(tau.orbit(x, n_max)), dtype=np.complex128)
    go = np.asarray(g_obs(sigma.orbit(y, n_max)), dtype=np.complex128)
    return float(np.max(np.abs(fo * go) / np.arange(1, n_max + 1)))


def _spike_observable(center: float, eps: float, exponent: float):
    if not 0.0 < eps < 0.5:
        raise ValueError("sharpness levels are regularization widths in (0, 1/2)")
    uu = np.linspace(0.0, 1.0, 1 << 16, endpoint=False)
    d0 = np.minimum(np.abs(uu - center), 1.0 - np.abs(uu - center))
    norm = float((np.maximum(d0, eps) ** (-exponent)).mean())

    def obs(u):
        u = np.asarray(u, dtype=float)
        d = np.abs(u - center)
        d = np.minimum(d, 1.0 - d)
        return np.maximum(d, eps) ** (-exponent) / norm

    return obs


def heavy_tail_sweep(
    sharpness_levels: Sequence[float],
    tau,
    x: float,
    sigma,
    y,
    n_max: int,
    center: float = 0.5,
    exponent: float = 0.9,
) -> list[float]:
    """Orbit-tail statistic for sharpening unit-mass spike pairs.

    Both observables are unit-integral spikes of regularization width eps,
    centered on the two orbits at a fixed early hit time -- the adapted
    placement that drives the known failure for integrable pairs.  The hit
    contributes eps^(-2 exponent) / (hit_time * norms), which dominates the
    statistic and grows as the levels sharpen.  ``center`` biases the hit
    choice: the hit time is the first orbit's closest approach to it among
    the first few steps.
    """
    probe = min(8, n_max)
    approach = np.abs(tau.orbit(x, probe) - center)
    approach = np.minimum(approach, 1.0 - approach)
    n_star = int(np.argmin(approach)) + 1
    center_f = float(tau.orbit(x, 1, start=n_star)[0])
    center_g = float(sigma.orbit(y, 1, start=n_star)[0])
    out = []
    for eps in sharpness_levels:
        f_obs = _spike_observable(center_f, eps, exponent)
        g_obs = _spike_observable(center_g, eps, exponent)
        out.append(orbit_tail(f_obs, tau, x, g_obs, sigma, y, n_max))
    return out
