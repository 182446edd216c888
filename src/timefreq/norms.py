"""Exact r-variational norms, adapted bumps, interval decay weights, a
certified lower estimator for the maximal-multiplier norm, and the L^2 size
of a tile collection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dyadic import Interval, Tile
from .grid import Grid, SampledFunction, _fft, _ifft, _swap_halves, dft, idft_values, wrapped_distance
from .wavepackets import smooth_step

__all__ = [
    "variational_norm",
    "interval_weight",
    "AdaptedBump",
    "make_adapted_bump",
    "adapted_family",
    "bump_values",
    "maximal_multiplier_lower",
    "tile_size",
    "per_tile_sizes",
]


def variational_norm(values, r: float) -> float | np.ndarray:
    """Exact r-variation norm along axis 0: sup_k |x_k| plus the best increment sum.

    The variation part is the maximum over all increasing index subsequences
    of (sum |x_{k_m} - x_{k_{m-1}}|^r)^(1/r), computed by an O(n^2) dynamic
    program over the last index; the increment power only depends on the last
    element, so the program is exact.  A 1-D sequence gives a float, a
    ``(scales, points)`` array one norm per point, the program vectorised over
    the points.
    """
    if not r >= 1:
        raise ValueError(f"variational norm requires r >= 1, got {r}")
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim not in (1, 2) or v.shape[0] == 0:
        raise ValueError("expected a nonempty sequence or a (scales, points) array with at least one scale")
    single = v.ndim == 1
    v = v.reshape(v.shape[0], -1)
    sup_part = np.max(np.abs(v), axis=0)
    best = np.zeros(v.shape)
    for j in range(1, v.shape[0]):
        best[j] = (best[:j] + np.abs(v[j] - v[:j]) ** r).max(axis=0)
    norms = sup_part + best.max(axis=0) ** (1.0 / r)
    return float(norms[0]) if single else norms


def interval_weight(interval: Interval, x, power: float, period: float) -> np.ndarray:
    """Decay weight (1 + |x - c(I)| / |I|)^(-power), the distance measured on the torus of length
    ``period``; x and c(I) lie in [0, period) (see :func:`wrapped_distance`).
    """
    if interval.length <= 0:
        raise ValueError("interval must have positive length")
    return (1.0 + wrapped_distance(x, interval.center, period) / interval.length) ** (-power)


# ---------------------------------------------------------------------------
# adapted bumps

_POSITIONS = ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.25, 0.75))


def _base_profile(t: np.ndarray) -> np.ndarray:
    # smooth bump on [0, 1] with value 1 at the center, flat zeros at the ends; one step call for both sides
    rise, fall = np.split(smooth_step(np.concatenate([2.0 * t, 2.0 * (1.0 - t)])), 2)
    return rise * fall


@functools.cache
def _variant_derivative_bound(variant: int) -> float:
    pos, mod = variant % len(_POSITIONS), variant // len(_POSITIONS)
    t = np.linspace(0.0, 1.0, 20001)
    vals = _base_profile(t) * np.exp(2j * np.pi * mod * t)
    d = np.abs(np.diff(vals)) / (t[1] - t[0])
    a, b = _POSITIONS[pos]
    return float(d.max()) / (b - a)


@dataclass(frozen=True)
class AdaptedBump:
    """Smooth bump supported on an interval with scale-invariant derivative bounds.

    Satisfies ||m||_inf <= C and ||m'||_inf <= C / |omega| for the adaptedness
    constant C = 1 that :func:`make_adapted_bump` turns into ``amplitude``;
    ``variant`` selects among translated/modulated members of the canonical
    family.
    """

    omega: Interval
    variant: int
    amplitude: float


def make_adapted_bump(omega: Interval, modulation_index: int) -> AdaptedBump:
    """Canonical bump adapted to ``omega`` with constant 1.

    ``modulation_index`` walks the fixed family (four sub-interval positions
    times modulations).  The amplitude is the largest keeping both the sup
    and first-derivative bounds.
    """
    if modulation_index < 0:
        raise ValueError("modulation index must be >= 0")
    return AdaptedBump(omega, modulation_index, 1.0 / max(1.0, _variant_derivative_bound(modulation_index)))


def adapted_family(omega: Interval, family_size: int) -> list[AdaptedBump]:
    return [make_adapted_bump(omega, v) for v in range(family_size)]


def bump_values(bumps: Sequence[AdaptedBump], xi) -> np.ndarray:
    """Row i holds ``bumps[i]`` at ``xi``: 1-D points, or a column of one point per bump.

    One profile call covers all points; per-point arithmetic keeps each row bit-exact.
    """
    params = []
    for b in bumps:
        lo, hi = _POSITIONS[b.variant % len(_POSITIONS)]
        params.append((b.omega.a + lo * b.omega.length, (hi - lo) * b.omega.length,
                       b.variant // len(_POSITIONS), b.amplitude))
    a, w, mod, amp = np.array(params, dtype=float).reshape(-1, 4).T[..., None]
    t = (np.asarray(xi, dtype=float) - a) / w
    inside = (t > 0.0) & (t < 1.0)
    rows, tv = np.nonzero(inside)[0], t[inside]
    del t  # free the full float table before the complex one: the profile needs only tv
    out = np.zeros(inside.shape, dtype=np.complex128)
    out[inside] = amp[rows, 0] * _base_profile(tv) * np.exp(2j * np.pi * mod[rows, 0] * tv)
    return out


# ---------------------------------------------------------------------------
# maximal multiplier norm, lower estimation


def _dual_map(v: np.ndarray, a: np.ndarray, p: float) -> np.ndarray:
    """Duality map |v / max|v||^(p-1) sign(v) of each row, given a = |v|; a zero row maps to zero."""
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.where(a > 0, (a / a.max(axis=-1, keepdims=True)) ** (p - 1.0), 0.0)
        phase = np.where(a > 0, v / a, 0.0)
    return scaled * phase


def _lp_rows(a: np.ndarray, dx: float, q: float) -> np.ndarray:
    """``grid.lp_norm_values`` of each row of ``a`` >= 0; the root is scalar, as array pow can differ."""
    return np.array([float(s) ** (1.0 / q) for s in np.sum(a**q, axis=-1) * dx])


def _search_starts(ms: np.ndarray, search_budget: int, rng: np.random.Generator):
    """Matched and bump starts per nonzero multiplier, the spike, the constant, then random ones from
    ``rng``, in FFT order; each is built when the search takes it."""
    n = ms.shape[-1]
    for m in ms[: max(1, search_budget // 6)]:
        a = np.abs(m)
        if a.max() > 0:
            peak = int(np.argmax(a))
            bump = np.zeros(n, dtype=np.complex128)
            bump[max(0, peak - 4) : min(n, peak + 5)] = 1.0
            yield _swap_halves(np.conj(m) / a.max())
            yield _swap_halves(bump)
    flat = np.zeros(n, dtype=np.complex128)
    flat[0] = 1.0  # the spike at frequency 0
    yield flat
    yield np.ones(n, dtype=np.complex128)
    while True:
        yield _swap_halves(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def maximal_multiplier_lower(
    multipliers: Sequence[np.ndarray],
    grid: Grid,
    q: float,
    search_budget: int,
    seed: int,
) -> float | np.ndarray:
    """Certified lower bound on the maximal-multiplier norm of a family, or of each family of a stack.

    The norm is sup over unit-L^q functions g of || sup_k |T_{m_k} g| ||_q.
    One ``(m, n)`` family gives a float; a ``(P, m, n)`` stack gives P bounds.
    Every candidate evaluation is a valid lower bound; the search combines
    matched frequency bumps, random restarts, and a nonlinear power iteration
    on the linearized (argmax-frozen) operator, and is deterministic given
    the seed.  Each of the ``search_budget`` passes makes one evaluation per
    family, a fresh start or an ascent step, so a stack's families run in
    lockstep, each with its own starts, ascent and random stream, and get the
    bounds they get alone.  Spectra are searched in FFT order, unshifted once.
    Pass buffers are allocated once per call, and the ascent makes no stacked copies.
    A pass divides the fields by dx on their real view (an exact scaling, dx
    being a power of two) and takes the largest field at each point by a
    running comparison whose strict ``>`` keeps the first index on ties, as
    ``argmax`` does; that maximum is both the bound's sup and the ascent's
    |field|.  A stack with a NaN or infinite entry is refused, naming the first such family.
    """
    if not 1 <= q:
        raise ValueError("q must be >= 1")
    n, dx = grid.n, grid.dx
    ms = np.asarray(multipliers, dtype=np.complex128)
    if ms.size and not (0 < ms.ndim <= 3 and ms.shape[-1] == n):
        raise ValueError(f"multipliers must have shape (m, {n}) or (P, m, {n}) on the grid, got {ms.shape}")
    single = ms.ndim < 3
    ms = ms.reshape(1, -1, n) if single else ms
    count, m = ms.shape[:2]
    finite = np.isfinite(ms).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"multiplier family {int(np.argmin(finite))} has a non-finite entry")
    if m == 0:  # an empty family has norm 0
        return 0.0 if single else np.zeros(count)
    starts = [_search_starts(family, search_budget, np.random.default_rng(seed)) for family in ms]
    ms = _swap_halves(ms)
    conj = np.conj(ms)
    dual = q / (q - 1.0) if q > 1 else 2.0
    buf = np.empty((count, m + 1, n), dtype=np.complex128)  # rows :m hold the fields T_{m_k} g, row m holds g
    parts = buf.view(float)  # real and imaginary parts: dividing them by dx = L / 2^J is an exact scaling
    a = np.empty(buf.shape)
    argmax = np.empty((count, n), dtype=np.intp)  # the first largest field at each point
    top = np.empty((count, n))  # and its size
    ghat = np.empty((count, n), dtype=np.complex128)
    climbs = np.zeros(count, dtype=int)  # ascent steps left after the last evaluation
    best = np.zeros(count)
    for _ in range(search_budget):
        up = np.flatnonzero(climbs)
        if up.size:  # power-type ascent on the frozen-argmax linearization
            frozen = argmax[up, None, :]
            u = _dual_map(buf[up[:, None], argmax[up], np.arange(n)], top[up], q)
            spectra = _fft(u[:, None, :] * (frozen == np.arange(m)[:, None]), dx)
            what = np.multiply(conj[up], spectra, out=spectra).sum(axis=1)
            live = what.any(axis=-1)
            climbs[up[~live]] = 0
            v = _ifft(what[live], dx)
            ghat[up[live]] = _fft(_dual_map(v, np.abs(v), dual), dx)
        for p in np.flatnonzero(climbs == 0):
            ghat[p] = next(starts[p])
        np.multiply(ms, ghat[:, None, :], out=buf[:, :m])
        buf[:, m] = ghat
        np.fft.ifft(buf, axis=-1, out=buf)
        parts /= dx
        np.abs(buf, out=a)
        argmax.fill(0)
        top[:] = a[:, 0]
        for k in range(1, m):  # a strict > keeps the first index on ties, as argmax does
            argmax[a[:, k] > top] = k
            np.maximum(top, a[:, k], out=top)
        gq = _lp_rows(a[:, m], dx, q)
        found = gq != 0.0
        val = np.divide(_lp_rows(top, dx, q), gq, out=np.zeros(count), where=found)
        best = np.where(val > best, val, best)
        climbs = np.where(found, np.where(climbs > 0, climbs - 1, 3), 0)
    return float(best[0]) if single else best


# ---------------------------------------------------------------------------
# size of a tile collection


def per_tile_sizes(
    tiles: Iterable[Tile],
    f: SampledFunction,
    family_size: int,
) -> dict[Tile, float]:
    """Size of each singleton {s}, in input order: the collection size is their maximum.

    Per distinct omega_s, one profile call and one inverse FFT serve its bump family and one matrix
    product its tiles' weighted L^2 norms, with one squared weight per distinct I_s; exact up to rounding.
    """
    sizes = dict.fromkeys(tiles)
    grid = f.grid
    fhat = dft(f).values
    xs, xi, fh_half = grid.xs(), grid.freqs(), grid.freq_halfwidth
    weights2 = {t: interval_weight(t.to_interval(), xs, 10.0, period=grid.length) ** 2
                for t in {s.time for s in sizes}}
    by_freq: dict = {}
    for s in sizes:
        by_freq.setdefault(s.freq, []).append(s)
    for freq, group in by_freq.items():
        omega10 = freq.to_interval().dilate(10.0)
        omega10 = Interval(max(omega10.a, -fh_half), min(omega10.b, fh_half))
        bumps = bump_values(adapted_family(omega10, family_size), xi)
        power = np.abs(idft_values(bumps * fhat, grid.dx)) ** 2
        norms = np.sqrt((power @ np.stack([weights2[s.time] for s in group]).T * grid.dx).max(axis=0))
        for s, norm in zip(group, norms):
            sizes[s] = 1.0 / math.sqrt(s.time.length) * float(norm)
    return sizes


def tile_size(
    tiles: Iterable[Tile],
    f: SampledFunction,
    family_size: int,
) -> float:
    """Lower estimate of the size of a tile collection relative to f.

    Maximum over tiles s and over the canonical family of bumps adapted to
    10 omega_s (dilation about the center, clipped to the frequency box) of
    |I_s|^(-1/2) || chi_{I_s}^10 T_m f ||_2.  The supremum over all adapted
    functions is replaced by this fixed finite family everywhere size is
    used, so inequalities involving size absorb the family deficiency into
    their fitted constants.
    """
    sizes = per_tile_sizes(tiles, f, family_size)
    return max(sizes.values(), default=0.0)
