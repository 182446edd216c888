"""Uniform periodic grids, discrete Fourier analysis with continuum
normalization, L^p norms and the Hardy-Littlewood maximal function.

Everything else in the package computes on :class:`SampledFunction` values
living on a :class:`Grid`.  The transform pair is normalized so that grid
quantities approximate their real-line counterparts as the grid refines:

    fhat(xi_j) = dx * sum_n f(x_n) exp(-2 pi i xi_j x_n)

with sample points x_n = n * dx on [0, L) and frequencies xi_j = j / L for
-2^(J-1) <= j < 2^(J-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _is_power_of_two(x: float) -> bool:
    if x <= 0:
        return False
    m, e = math.frexp(x)
    return m == 0.5


# Largest grid exponent: at 2**20 samples each complex array already takes 16 MiB.
MAX_J = 20


def wrapped_distance(x, center: float, period: float) -> np.ndarray:
    """Minimal periodic distance |x - center| on the torus of length ``period``.

    x and center must lie in [0, period), so that |x - center| < period needs no reduction.
    The passes after the difference run in place, on a 0-d array for a scalar x.
    """
    d = np.subtract(x, center, out=np.empty(np.shape(x)), dtype=float)
    np.abs(d, out=d)
    return np.minimum(d, period - d, out=d)


@dataclass(frozen=True)
class Grid:
    """Periodic sampling grid with 2**j samples on [0, length).

    Parameters
    ----------
    j : number of dyadic refinements, at most MAX_J; the grid has n = 2**j samples
    length : period of the box, a power of two
    """

    j: int
    length: float

    def __post_init__(self):
        if not 1 <= self.j <= MAX_J:
            raise ValueError(f"grid exponent J must be between 1 and {MAX_J}, got {self.j}")
        if not _is_power_of_two(self.length):
            raise ValueError("grid length must be a positive power of two")

    @property
    def n(self) -> int:
        return 1 << self.j

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dxi(self) -> float:
        """Frequency spacing 1/L."""
        return 1.0 / self.length

    def xs(self) -> np.ndarray:
        """Sample points n*dx for 0 <= n < 2**j."""
        return np.arange(self.n) * self.dx

    def freqs(self) -> np.ndarray:
        """Frequency points j/L for -2^(j-1) <= j < 2^(j-1), ascending."""
        return (np.arange(self.n) - self.n // 2) / self.length

    @property
    def freq_halfwidth(self) -> float:
        """Half-width of the frequency box: frequencies live in [-fh, fh)."""
        return (self.n // 2) / self.length

    def index_range(self, a: float, b: float) -> tuple[int, int]:
        """Sample index range [lo, hi) covering the interval [a, b) inside the box."""
        lo = int(math.ceil(round(a / self.dx, 9)))
        hi = int(math.ceil(round(b / self.dx, 9)))
        return max(lo, 0), min(hi, self.n)


@dataclass
class SampledFunction:
    """Complex samples on a uniform periodic grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got {v.shape}")
        self.values = v

    @classmethod
    def indicator(cls, grid: Grid, intervals) -> "SampledFunction":
        """Indicator of a finite union of [a, b) intervals inside the box."""
        mask = np.zeros(grid.n, dtype=bool)
        for a, b in intervals:
            lo, hi = grid.index_range(a, b)
            mask[lo:hi] = True
        return cls(grid, mask.astype(np.complex128))

    def __sub__(self, other):
        return SampledFunction(self.grid, self.values - other.values)


def random_indicator(grid: Grid, rng: np.random.Generator, pieces: Optional[int]) -> SampledFunction:
    """Indicator of ``pieces`` random intervals, each of at least max(4, n/256) and at most
    n/16 samples; ``pieces=None`` draws the count from 1..3 first.  Needs n >= 64."""
    if grid.n < 64:
        raise ValueError(f"a random indicator needs at least 64 samples (J >= 6), got J = {grid.j}")
    mask = np.zeros(grid.n, dtype=bool)
    min_w = max(4, grid.n // 256)
    for _ in range(int(rng.integers(1, 4)) if pieces is None else pieces):
        w = int(rng.integers(min_w, grid.n // 16 + 1))
        start = int(rng.integers(0, grid.n - w))
        mask[start : start + w] = True
    return SampledFunction(grid, mask.astype(np.complex128))


def dft(f: SampledFunction) -> SampledFunction:
    """Forward transform with continuum normalization.

    Returns samples of fhat on the frequency axis ``f.grid.freqs()`` (ascending
    order), so ``dft(f).values[i]`` is fhat at frequency ``(i - n/2) / L``.
    """
    return SampledFunction(f.grid, dft_values(f.values, f.grid.dx))


def idft(fhat: SampledFunction) -> SampledFunction:
    """Inverse of :func:`dft`; round-trips to 1e-10 relative error or better."""
    return SampledFunction(fhat.grid, idft_values(fhat.values, fhat.grid.dx))


def dft_values(values: np.ndarray, dx: float) -> np.ndarray:
    """:func:`dft` of raw samples along the last axis; a stack of rows takes one FFT."""
    return _swap_halves(_fft(values, dx))


def idft_values(values: np.ndarray, dx: float) -> np.ndarray:
    """:func:`idft` of raw spectra, row by row along the last axis."""
    return _ifft(_swap_halves(values), dx)


def _swap_halves(values: np.ndarray) -> np.ndarray:
    """The two halves of the last axis swapped: for the even lengths of a grid, both
    ``np.fft.fftshift`` and ``np.fft.ifftshift``, as two slices instead of a roll."""
    half = values.shape[-1] // 2
    return np.concatenate((values[..., half:], values[..., :half]), axis=-1)


def _fft(values: np.ndarray, dx: float) -> np.ndarray:
    """:func:`dft_values` with the spectrum left in FFT order (frequency 0 first)."""
    return dx * np.fft.fft(values, axis=-1)


def _ifft(values: np.ndarray, dx: float) -> np.ndarray:
    """:func:`idft_values` of a spectrum in FFT order."""
    return np.fft.ifft(values, axis=-1) / dx


def lp_norm(f: SampledFunction, p: float) -> float:
    """(sum |f|^p dx)^(1/p); the max of |f| for p = inf.

    Raises for p < 1 and for NaN.
    """
    return lp_norm_values(f.values, f.grid.dx, p)


def lp_norm_values(values: np.ndarray, dx: float, p: float) -> float:
    """:func:`lp_norm` of raw samples with cell width dx."""
    if not p >= 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    a = np.abs(values)
    if math.isinf(p):
        return float(a.max(initial=0.0))
    return float((np.sum(a**p) * dx) ** (1.0 / p))


_MAXIMAL_BLOCK = 128


def hl_maximal(f: SampledFunction) -> SampledFunction:
    """Uncentered Hardy-Littlewood maximal function.

    Exact maximum of the average of |f| over every grid-aligned interval
    [a*dx, b*dx) inside the box containing the sample point.  Intervals never
    wrap around the period.  Output is real and dominates |f| pointwise.

    Divide and conquer in O(n log^2 n): an interval either lies in one half
    of a span or crosses its midpoint, and the best crossing interval for
    every left end (right end) is a max-slope tangent query on the upper
    (lower) convex hull of the prefix-sum points across the midpoint.  Spans
    of at most 128 samples take all their intervals directly.  Every candidate
    average is evaluated as (prefix[b] - prefix[a]) / (b - a), so the result
    is bit-identical to the exhaustive O(n^2) search whenever the hull tests
    are exact, as they are for indicators (integer prefix sums).  Non-finite
    samples of f are refused, as the prefix differences across them are NaN.
    """
    a = np.abs(f.values)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"hl_maximal needs finite samples of f, got {finite.size - np.count_nonzero(finite)} "
                         f"inf or NaN of {finite.size}")
    prefix = np.concatenate([[0.0], np.cumsum(a)])
    out = np.zeros(a.size)
    _maximal_span(prefix, 0, a.size, out)
    return SampledFunction(f.grid, out)


def _maximal_span(prefix: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """Raise out[lo:hi] to the best average over intervals inside [lo, hi)."""
    if hi - lo <= _MAXIMAL_BLOCK:
        # the average over [a, b) sits in row a - lo, column b - lo - 1, and is
        # an interval only on and above the diagonal; the best interval with
        # left end a covering sample i >= a is the row's suffix maximum from
        # column i - lo, and the column maximum takes the best left end
        m = hi - lo
        lengths = np.arange(1, m + 1) - np.arange(m)[:, None]
        diffs = prefix[lo + 1 : hi + 1] - prefix[lo:hi, None]
        avgs = np.divide(diffs, lengths, out=np.zeros((m, m)), where=lengths >= 1)
        best = np.triu(np.maximum.accumulate(avgs[:, ::-1], axis=1)[:, ::-1])
        np.maximum(out[lo:hi], best.max(axis=0), out=out[lo:hi])
        return
    mid = (lo + hi) // 2
    _maximal_span(prefix, lo, mid, out)
    _maximal_span(prefix, mid, hi, out)
    # intervals [a, b) with lo <= a < mid < b <= hi
    lefts, rights = np.arange(lo, mid), np.arange(mid + 1, hi + 1)
    b = _tangents(_hull(rights, prefix, upper=True), lefts, prefix)
    best = (prefix[b] - prefix[lefts]) / (b - lefts)
    np.maximum(out[lo:mid], np.maximum.accumulate(best), out=out[lo:mid])
    a = _tangents(_hull(lefts, prefix, upper=False), rights, prefix)
    best = (prefix[rights] - prefix[a]) / (rights - a)
    np.maximum(out[mid:hi], np.maximum.accumulate(best[::-1])[::-1], out=out[mid:hi])


def _hull(xs: np.ndarray, prefix: np.ndarray, upper: bool) -> np.ndarray:
    """Vertices (ascending) of the upper or lower convex hull of (x, prefix[x])."""
    x = xs
    y = prefix[xs] if upper else -prefix[xs]  # the lower hull is the upper hull of -y
    # vectorized passes drop every vertex not strictly above the chord of its
    # neighbours while that shrinks the chain geometrically; a monotone chain
    # finishes the rest
    while x.size > 2:
        turn = (y[1:-1] - y[:-2]) * (x[2:] - x[:-2]) - (y[2:] - y[:-2]) * (x[1:-1] - x[:-2])
        keep = np.concatenate([[True], turn > 0.0, [True]])
        if 4 * np.count_nonzero(keep) > 3 * x.size:
            break
        x, y = x[keep], y[keep]
    hx: list[int] = []
    hy: list[float] = []
    for xv, yv in zip(x.tolist(), y.tolist()):
        while len(hx) >= 2 and ((hy[-1] - hy[-2]) * (xv - hx[-2])
                                - (yv - hy[-2]) * (hx[-1] - hx[-2])) <= 0.0:
            hx.pop()
            hy.pop()
        hx.append(xv)
        hy.append(yv)
    return np.array(hx)


def _tangents(hull: np.ndarray, qs: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """Hull vertex of the steepest chord to each query point (qx, prefix[qx]).

    Queries lie left of an upper hull or right of a lower hull.  Walking the
    hull in ascending x, the chord slope rises while the next vertex lies on
    the steep side of the current chord, then never rises again, so a
    vectorized binary search finds the first vertex where it stops rising.
    """
    hy = prefix[hull]
    qy = prefix[qs]
    last = hull.size - 1
    lo = np.zeros(qs.size, dtype=np.intp)
    hi = np.full(qs.size, last, dtype=np.intp)
    for _ in range(last.bit_length()):
        t = (lo + hi) // 2
        u = np.minimum(t + 1, last)
        edge = (hy[u] - hy[t]) * (hull[t] - qs)
        chord = (hy[t] - qy) * (hull[u] - hull[t])
        rising = edge > chord
        lo = np.where(rising, t + 1, lo)
        hi = np.where(rising, hi, t)
    return hull[lo]
