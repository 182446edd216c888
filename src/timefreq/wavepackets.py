"""The frame window, Gabor wave packets, frame expansion and reconstruction,
the positive averaging kernel, and the kernel-smoothed model functions
attached to tiles, each a function of the grid it is sampled on.

The window transform is the square root of a smooth partition of unity with
half-integer frequency shifts, which makes the frame constant exactly one and
the grid expansion identity exact up to roundoff.  Model functions pair a
tile with a packet whose transform fills the tile's frequency interval and
smear it in theta with a kernel whose transform is supported in [-1, 1];
their theta-support therefore stays inside the tile's frequency interval
enlarged by one reciprocal length on each side.  Window and kernel are fixed
profiles, so no object holds them: a function that samples one on a grid
refuses a frequency box that does not contain its support.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from .dyadic import Interval, Tile
from .grid import Grid, SampledFunction, dft, idft, idft_values

__all__ = [
    "frame_deviation",
    "gabor_expand",
    "gabor_reconstruct",
    "kernel_samples",
    "khat_progression",
    "khat_lattice",
    "scaled_kernel",
    "x_slice",
    "theta_support",
    "build_window",
    "build_kernel",
    "model_function",
]

_QUAD_NODES = 4096
# midpoints of the 4096 cells of [-1/2, 1/2], then one more past the right end
_NODES = -0.5 + (np.arange(_QUAD_NODES + 1) + 0.5) / _QUAD_NODES


DEFAULT_ORDER = 15

# sum over l of |phat(xi - l/2)|^2 for the canonical window, exactly one
FRAME_CONSTANT = 1.0


# the Bernstein terms C(2m+1, k) t^k (1-t)^(2m+1-k) of the step, k = m+1..2m+1, one row each
_STEP_K = range(DEFAULT_ORDER + 1, 2 * DEFAULT_ORDER + 2)
_STEP_POWERS = np.array([[float(k)] for k in _STEP_K])
_STEP_COEFFS = np.array([[float(math.comb(2 * DEFAULT_ORDER + 1, k))] for k in _STEP_K])
# the complementary powers 2m+1-k above 2; the last three rows take s * s, s and no factor
_STEP_CO_POWERS = (2 * DEFAULT_ORDER + 1 - _STEP_POWERS)[:-3]
# floats in one stacked block: as many rows of at most this many points as fit.  Short inputs take
# all rows in one block; long ones take fewer rows, each long enough that per-call overhead is small
_STEP_STACK = 1 << 14


def smooth_step(t) -> np.ndarray:
    """Monotone step, 0 for t <= 0 and 1 for t >= 1, flat to ``DEFAULT_ORDER`` at both ends.

    Bernstein form of the regularized incomplete beta I_t(m+1, m+1): a sum of
    nonnegative terms, so the endpoint values 0 and 1 are exact in floating
    point and the first m derivatives vanish there.  An odd order keeps the
    square root of the derived partition bump smooth at its support edges.
    In floating point it is monotone only up to 3 ulps, with descents for t in about [0.945, 1).

    The terms are stacked, all m+1 rows at once for short inputs, so a call
    costs a few array operations however short its input, and each value is
    bit-identical to adding the terms ``(C * t**k) * (1-t)**j`` one by one in
    k order: the powers j = 2, 1, 0 are ``s * s``, ``s`` and no factor, as
    numpy's ``**`` gives them, and the rows are added one at a time, as a
    reduction may reorder the sum.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.where(t >= 1.0, 1.0, 0.0)
    inside = (t > 0) & (t < 1)
    ti = t[inside]
    acc = np.zeros_like(ti)
    rows = _STEP_STACK // max(1, min(ti.size, _STEP_STACK))  # stacked rows per block
    last = len(_STEP_CO_POWERS)  # the row of j = 2; j = 1 and 0 follow
    for i in range(0, ti.size, _STEP_STACK):
        tb, total = ti[i : i + _STEP_STACK], acc[i : i + _STEP_STACK]
        s = 1.0 - tb
        for r in range(0, len(_STEP_POWERS), rows):
            terms = np.power(tb, _STEP_POWERS[r : r + rows])
            np.multiply(_STEP_COEFFS[r : r + rows], terms, out=terms)
            if r < last:
                terms[: last - r] *= np.power(s, _STEP_CO_POWERS[r : r + rows])
            if r <= last < r + rows:
                terms[last - r] *= s * s
            if r <= last + 1 < r + rows:
                terms[last + 1 - r] *= s
            for term in terms:
                total += term
    out[inside] = acc
    return out


def partition_bump(xi) -> np.ndarray:
    """Smooth bump b on [0, 1] with sum_l b(xi - l/2) = 1 everywhere.

    Rises as a smooth step on [0, 1/2] and falls as its exact complement on
    [1/2, 1], so overlapping half-integer shifts cancel to one in floating
    point as well.  Both sides take one :func:`smooth_step` call.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    lo = (xi >= 0.0) & (xi <= 0.5)
    hi = (xi > 0.5) & (xi <= 1.0)
    rise, fall = np.split(smooth_step(np.concatenate([2.0 * xi[lo], 2.0 * xi[hi] - 1.0])), [np.count_nonzero(lo)])
    out[lo] = rise
    out[hi] = 1.0 - fall
    return out


# the supports that a frequency box must contain to sample the window (phat = sqrt(b) for the
# partition bump b) or the kernel transform; both reach frequency 1
_WINDOW_SUPPORT, _KERNEL_SUPPORT = "[0, 1]", "the kernel support [-1, 1]"


def _require_box(grid: Grid, support: str) -> Grid:
    """``grid``, refused unless its frequency box contains ``support``."""
    if grid.freq_halfwidth < 1.0:
        raise ValueError(f"frequency box must contain {support}")
    return grid


def frame_deviation(grid: Grid) -> float:
    """max over grid frequencies of |sum_l |phat(xi - l/2)|^2 - C| for the window phat = sqrt(b).

    The half-integer shifts must be whole grid steps, so L must be at least 2.
    """
    _require_box(grid, _WINDOW_SUPPORT)
    if grid.length < 2:
        raise ValueError(f"the frame deviation needs box length L >= 2, got L = {grid.length:g}")
    b = partition_bump(grid.freqs())
    shift = round(0.5 / grid.dxi)
    total = np.zeros_like(b)
    for l in range(grid.n // shift):
        total += np.roll(b, l * shift)
    return float(np.max(np.abs(total - FRAME_CONSTANT)))


TILE_PROFILE_POWER = 4
# integral of sin(pi u)^(2p) over [0, 1] is binom(2p, p) / 4^p
_TILE_PROFILE_NORM = math.comb(2 * TILE_PROFILE_POWER, TILE_PROFILE_POWER) / 4.0**TILE_PROFILE_POWER


def _tile_profile(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    out[inside] = np.sin(np.pi * u[inside]) ** TILE_PROFILE_POWER
    return out


def tile_packet_hat(g: Grid, s: Tile) -> np.ndarray:
    k = s.scale
    iv = s.time.to_interval()
    if iv.a < 0 or iv.b > g.length:
        raise ValueError("tile time interval falls outside the box")
    if not Interval(-g.freq_halfwidth, g.freq_halfwidth).contains(s.freq.to_interval()):
        raise ValueError("tile frequency interval falls outside the box")
    xi = g.freqs()
    u = math.ldexp(1.0, k) * xi - s.freq.m
    amp = 2.0 ** (k / 2.0) / math.sqrt(_TILE_PROFILE_NORM)
    phase = np.exp(-2j * np.pi * s.time.center * (xi - s.freq.left))
    return amp * _tile_profile(u) * phase


def _lattice(grid: Grid, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale-k lattice: the ``(n_freq, w0+1)`` grid indices and the window sqrt(b) at the w0+1
    relative frequency offsets of a packet, for w0 = L 2^-k time positions.

    Row l2 of the index matrix holds the frequency samples, at offsets
    t = 0..w0, under the packets of doubled modulation index l2.
    """
    _require_box(grid, _WINDOW_SUPPORT)
    w0 = grid.length * math.ldexp(1.0, -k)
    if w0 != round(w0) or round(w0) < 2 or round(w0) % 2:
        raise ValueError(f"scale {k} has no even integer lattice on this grid")
    w0 = int(round(w0))
    n_freq = (2 * grid.n) // w0
    if n_freq * w0 != 2 * grid.n:
        raise ValueError(f"scale {k} lattice does not divide the frequency torus")
    idx = (grid.n // 2 + (w0 // 2) * np.arange(n_freq)[:, None] + np.arange(w0 + 1)) % grid.n
    return idx, np.sqrt(partition_bump(np.arange(w0 + 1) / w0))


def gabor_expand(f: SampledFunction, k: int) -> np.ndarray:
    """Frame coefficients <f, phi_{k,m,l2/2}> over the full scale-k lattice of ``f``'s grid.

    An ``(n_freq, w0)`` array: row l2 is the doubled modulation index over
    the 2N/(L 2^-k) periodized modulations, column m the L 2^-k time
    positions, so reconstruction from these coefficients is exact on the
    grid.  One gather of the transform onto the lattice, then the sums
    over t of exp(2 pi i m t / w0) times the gathered row: the phase of
    offset w0 equals that of offset 0, so the sums are one stacked
    length-w0 inverse FFT.
    """
    idx, prof = _lattice(f.grid, k)
    rows = dft(f).values[idx] * prof
    rows[:, 0] += rows[:, -1]
    w0 = prof.size - 1
    return 2.0 ** (k / 2.0) / f.grid.length * w0 * np.fft.ifft(rows[:, :-1], axis=-1)


def gabor_reconstruct(grid: Grid, coeffs: np.ndarray, k: int) -> SampledFunction:
    """Sum of coeff * packet over the scale-k lattice of ``grid``; inverts :func:`gabor_expand`.

    One stacked FFT gives each packet row's transform at offsets 0..w0
    (offset w0 repeats offset 0), then one scatter-add in row (l2) order.
    """
    idx, prof = _lattice(grid, k)
    shape = (idx.shape[0], prof.size - 1)
    if np.shape(coeffs) != shape:
        raise ValueError(f"scale {k} coefficients must have shape {shape}, got {np.shape(coeffs)}")
    spectra = np.take(np.fft.fft(coeffs, axis=-1), np.arange(shape[1] + 1), axis=1, mode="wrap")
    recon_hat = np.zeros(grid.n, dtype=np.complex128)
    np.add.at(recon_hat, idx.ravel(), (2.0 ** (k / 2.0) * prof * spectra).ravel())
    return idft(SampledFunction(grid, recon_hat))


# ---------------------------------------------------------------------------
# kernel: the positive averaging kernel K = |inverse transform of eta|^2.  eta is the one fixed
# profile :func:`_eta`, the partition bump of order ``DEFAULT_ORDER`` on [-1/2, 1/2]: smooth,
# supported there, with nonzero integral.  So the transform of K, khat, is the autocorrelation
# eta * eta~, supported in [-1, 1], and K(0) = (integral of eta)^2 > 0.


def _eta(xi) -> np.ndarray:
    """The kernel profile: the partition bump moved onto [-1/2, 1/2]."""
    return partition_bump(xi + 0.5)


# eta at the quadrature nodes; the last node lies past 1/2, so its sample is 0
_NODE_ETA = _eta(_NODES)


def kernel_samples(grid: Grid) -> SampledFunction:
    """Samples of K on the grid."""
    _require_box(grid, _KERNEL_SUPPORT)
    eta = np.asarray(_eta(grid.freqs()), dtype=np.complex128)
    return SampledFunction(grid, np.abs(idft_values(eta, grid.dx)) ** 2)


def khat_progression(xi: np.ndarray, step: float) -> np.ndarray:
    """khat at an arithmetic progression ``xi`` with spacing ``step``, by the midpoint rule.

    The rule on N = 4096 nodes at xi = (c + f) / N, c an integer and
    0 <= f < 1, is sum_m a[m - c] eta(node_m) / N, where a holds eta on
    the nodes moved by -f / N: the dot of the overlap of a, shifted by c,
    with the node samples, which is the lag N - 1 - c of their full
    ``np.correlate`` bit for bit.  When q = step * N is an integer, every
    point of the progression shares f, so one a serves all of them; for
    f = 0 (the lattices) it is ``_NODE_ETA`` itself.  Otherwise, with p
    the least power of two for which q * p is an integer (at most the
    number of points), the p interleaved sub-progressions ``xi[r::p]``
    each have the integer spacing q * p, and a one-point sub-progression
    takes any spacing.  Each point reads its own lag, and no correlation
    is built or kept, so a call costs about 1-2 us per point inside
    [-1, 1] and one eta sampling per sub-progression.  Points where the
    moved samples miss the nodes give exact zeros.  The result is the
    point-by-point quadrature up to summation order (about 1e-16
    absolute), with the same exact zeros, as eta vanishes outside
    [-1/2, 1/2].
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("khat_progression needs finite xi")
    if not math.isfinite(step):
        raise ValueError(f"khat_progression needs a finite step, got {step}")
    # past 2^60 nodes apart, at most one point of a progression reaches the nodes: q stays finite
    q, p = min(max(step * _QUAD_NODES, -2.0**60), 2.0**60), 1
    while p < xi.size and q * p != round(q * p):
        p *= 2
    p = min(p, xi.size)  # no sub-progression for an empty xi
    out = np.zeros(xi.size)
    for r in range(p):
        sub = xi[r::p]
        # anchor at the smallest |xi|, where xi itself carries the least rounding
        anchor = int(np.argmin(np.abs(sub)))
        if abs(sub[anchor]) >= 2:  # all of sub lies outside the support [-1, 1]
            continue
        c = sub[anchor] * _QUAD_NODES
        c0 = math.floor(c)
        a = _NODE_ETA if c == c0 else _eta(_NODES - (c - c0) / _QUAD_NODES)
        cs = c0 + q * p * (np.arange(sub.size) - anchor)  # in floats: exact wherever a point is read
        inside = np.flatnonzero((cs > -a.size) & (cs < _QUAD_NODES))
        for i, ci in zip(inside.tolist(), cs[inside].astype(int).tolist()):
            lo, hi = max(0, ci), min(_QUAD_NODES, a.size + ci)
            out[r + p * i] = np.dot(a[lo - ci : hi - ci], _NODE_ETA[lo:hi]) / _QUAD_NODES
    return out


def khat_lattice(grid: Grid, k: int) -> np.ndarray:
    """khat(2^k xi_j) over the frequency axis, read lag by lag (see :func:`khat_progression`)."""
    _require_box(grid, _KERNEL_SUPPORT)
    step = math.ldexp(1.0, k) * grid.dxi
    return khat_progression(step * (np.arange(grid.n) - grid.n // 2), step)


def scaled_kernel(grid: Grid, k: int) -> np.ndarray:
    """Samples of 2^-k K(2^-k y): the inverse transform of khat(2^k xi)."""
    return idft_values(khat_lattice(grid, k), grid.dx)


# ---------------------------------------------------------------------------
# model functions: for a tile s of scale k with packet p, the model function is
# phi_s(x, theta) = F_y[p(x + y) 2^-k K(y / 2^k)](theta): the packet correlated against the scaled
# kernel and transformed in the offset variable.  Its theta-support sits inside the packet support
# enlarged by 2^-k on each side, and in x it inherits the packet decay at scale |I_s|.


def theta_support(tile: Tile) -> Interval:
    """The tile's frequency interval enlarged by 2^-k on each side, k its scale."""
    pad = math.ldexp(1.0, -tile.scale)
    return Interval(tile.freq.left - pad, tile.freq.right + pad)


def x_slice(grid: Grid, tile: Tile, theta: float) -> np.ndarray:
    """phi_s(x, theta) of ``tile`` for all grid x at one theta (any real frequency).

    The kernel transform is sampled at 2^k (theta - xi_j), a progression
    with step -2^k / L, read lag by lag from the quadrature nodes (see
    :func:`khat_progression`).
    """
    _require_box(grid, _KERNEL_SUPPORT)
    if not math.isfinite(theta):
        raise ValueError(f"x_slice needs a finite theta, got {theta}")
    step = math.ldexp(1.0, tile.scale)
    kv = khat_progression(step * (theta - grid.freqs()), -step * grid.dxi)
    return idft_values(tile_packet_hat(grid, tile) * kv, grid.dx)


# ---------------------------------------------------------------------------
# The names ``perfbench/workloads.py`` calls, kept with their signatures only for it.  ROADMAP item 3
# moves the benchmark onto the functions above and deletes this block.


def build_window(grid: Grid) -> Grid:
    """``grid``, refused unless its frequency box contains the window support [0, 1]."""
    return _require_box(grid, _WINDOW_SUPPORT)


def build_kernel(grid: Grid) -> Grid:
    """``grid``, refused unless its frequency box contains the kernel support [-1, 1]."""
    return _require_box(grid, _KERNEL_SUPPORT)


def model_function(w: Grid, ker: Grid, s: Tile) -> SimpleNamespace:
    """An object whose ``x_slice(theta)`` is :func:`x_slice` ``(ker, s, theta)``; ``w`` must equal ``ker``."""
    if w != ker:
        raise ValueError("window and kernel must share a grid")
    return SimpleNamespace(x_slice=functools.partial(x_slice, ker, s))
