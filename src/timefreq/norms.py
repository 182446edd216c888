"""Exact r-variational norms, adapted bumps, interval decay weights, a
certified lower estimator for the maximal-multiplier norm, and the L^2 size
of a tile collection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .dyadic import Interval, Tile
from .grid import Grid, SampledFunction, dft, dft_values, idft_values, lp_norm_values

__all__ = [
    "VariationResult",
    "variational_norm",
    "variational_norm_field",
    "interval_weight",
    "AdaptedBump",
    "make_adapted_bump",
    "adapted_family",
    "bump_values",
    "maximal_multiplier_lower",
    "tile_size",
    "per_tile_sizes",
]


@dataclass(frozen=True)
class VariationResult:
    """Value of an r-variational norm together with the attaining subsequence."""

    value: float
    sup_part: float
    variation_part: float
    best_subsequence: tuple[int, ...]


def variational_norm(x: Sequence, r: float) -> VariationResult:
    """Exact r-variation norm: sup_k |x_k| plus the best increment sum.

    The variation part is the maximum over all increasing index subsequences
    of (sum |x_{k_m} - x_{k_{m-1}}|^r)^(1/r), computed by an O(n^2) dynamic
    program over the last index; the increment power only depends on the last
    element, so the program is exact.
    """
    if r < 1:
        raise ValueError(f"variational norm requires r >= 1, got {r}")
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty one-dimensional sequence")
    n = v.size
    sup_part = float(np.max(np.abs(v)))
    best = np.zeros(n)
    prev = np.full(n, -1, dtype=int)
    for j in range(1, n):
        incr = np.abs(v[j] - v[:j]) ** r
        cand = best[:j] + incr
        i = int(np.argmax(cand))
        if cand[i] > 0.0:
            best[j] = cand[i]
            prev[j] = i
    j_end = int(np.argmax(best))
    variation = float(best[j_end] ** (1.0 / r)) if best[j_end] > 0 else 0.0
    path = []
    j = j_end
    if best[j_end] > 0:
        while j >= 0:
            path.append(j)
            j = prev[j]
        path.reverse()
    else:
        path = [int(np.argmax(np.abs(v)))]
    return VariationResult(sup_part + variation, sup_part, variation, tuple(path))


def variational_norm_field(values: np.ndarray, r: float) -> np.ndarray:
    """r-variation norm applied along axis 0 of a (scales, points) array.

    Same dynamic program as :func:`variational_norm`, vectorized over the
    second axis; returns a length-``points`` array of norms.
    """
    if r < 1:
        raise ValueError(f"variational norm requires r >= 1, got {r}")
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] == 0:
        raise ValueError("expected a (scales, points) array with at least one scale")
    k, n = v.shape
    sup_part = np.max(np.abs(v), axis=0)
    best = np.zeros((k, n))
    for j in range(1, k):
        cand = best[:j] + np.abs(v[j][None, :] - v[:j]) ** r
        best[j] = np.maximum(cand.max(axis=0), 0.0)
    variation = best.max(axis=0) ** (1.0 / r)
    return sup_part + variation


def interval_weight(interval: Interval, x, power: float = 1.0, period: Optional[float] = None) -> np.ndarray:
    """Decay weight (1 + |x - c(I)| / |I|)^(-power).

    With ``period`` set, distances are measured on the torus of that length.
    """
    if interval.length <= 0:
        raise ValueError("interval must have positive length")
    x = np.asarray(x, dtype=float)
    d = np.abs(x - interval.center)
    if period is not None:
        d = d % period
        d = np.minimum(d, period - d)
    return (1.0 + d / interval.length) ** (-power)


# ---------------------------------------------------------------------------
# adapted bumps

_POSITIONS = ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.25, 0.75))


def _base_profile(t: np.ndarray) -> np.ndarray:
    # smooth bump on [0, 1] with value 1 at the center, flat zeros at the ends
    from .wavepackets import smooth_step

    return smooth_step(2.0 * t) * smooth_step(2.0 * (1.0 - t))


def _variant_derivative_bound(variant: int) -> float:
    key = variant % len(_POSITIONS), variant // len(_POSITIONS)
    cache = _variant_derivative_bound.__dict__.setdefault("cache", {})
    if key not in cache:
        pos, mod = key
        t = np.linspace(0.0, 1.0, 20001)
        vals = _base_profile(t) * np.exp(2j * np.pi * mod * t)
        d = np.abs(np.diff(vals)) / (t[1] - t[0])
        a, b = _POSITIONS[pos]
        cache[key] = float(d.max()) / (b - a)
    return cache[key]


@dataclass(frozen=True)
class AdaptedBump:
    """Smooth bump supported on an interval with scale-invariant derivative bounds.

    Satisfies ||m||_inf <= C and ||m'||_inf <= C / |omega| for the adaptedness
    constant C; ``variant`` selects among translated/modulated members of the
    canonical family.
    """

    omega: Interval
    c_const: float
    variant: int
    amplitude: float

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return bump_values([self], xi.reshape(-1))[0].reshape(xi.shape)

    def samples(self, grid: Grid) -> np.ndarray:
        return self(grid.freqs())


def make_adapted_bump(omega: Interval, c_const: float, modulation_index: int = 0) -> AdaptedBump:
    """Canonical bump adapted to ``omega``.

    ``modulation_index`` walks the fixed family (four sub-interval positions
    times modulations).  The amplitude is the largest keeping both the sup
    and first-derivative bounds; a constant below 1e-6 leaves no room for a
    smooth transition and raises.
    """
    if c_const < 1e-6:
        raise ValueError(f"adaptedness constant {c_const} too small for a smooth transition")
    if modulation_index < 0:
        raise ValueError("modulation index must be >= 0")
    d_rel = _variant_derivative_bound(modulation_index)
    amp = c_const / max(1.0, d_rel)
    return AdaptedBump(omega, c_const, modulation_index, amp)


def adapted_family(omega: Interval, c_const: float, family_size: int = 8) -> list[AdaptedBump]:
    return [make_adapted_bump(omega, c_const, v) for v in range(family_size)]


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
    out = np.zeros(t.shape, dtype=np.complex128)
    rows, tv = np.nonzero(inside)[0], t[inside]
    out[inside] = amp[rows, 0] * _base_profile(tv) * np.exp(2j * np.pi * mod[rows, 0] * tv)
    return out


# ---------------------------------------------------------------------------
# maximal multiplier norm, lower estimation


def _mm_objective(ms, grid, q, ghat):
    fields = idft_values(ms * ghat, grid.dx)
    sup = np.abs(fields).max(axis=0)
    argmax = np.abs(fields).argmax(axis=0)
    g = idft_values(ghat, grid.dx)
    gq = lp_norm_values(g, grid.dx, q)
    if gq == 0.0:
        return 0.0, None, None
    return lp_norm_values(sup, grid.dx, q) / gq, fields, argmax


def maximal_multiplier_lower(
    multipliers: Sequence[np.ndarray],
    grid: Grid,
    q: float,
    search_budget: int = 60,
    seed: int = 0,
) -> float:
    """Certified lower bound on the maximal-multiplier norm of a family.

    The norm is sup over unit-L^q functions g of || sup_k |T_{m_k} g| ||_q.
    Every candidate evaluation is a valid lower bound; the search combines
    matched frequency bumps, random restarts, and a nonlinear power iteration
    on the linearized (argmax-frozen) operator, and is deterministic given
    the seed.  ``search_budget`` caps the number of objective evaluations.
    """
    if not 1 <= q:
        raise ValueError("q must be >= 1")
    ms = np.array([np.asarray(m, dtype=np.complex128) for m in multipliers]).reshape(-1, grid.n)
    if not np.any(ms):
        return 0.0
    rng = np.random.default_rng(seed)
    qq = q / (q - 1.0) if q > 1 else math.inf

    def dual_map(v: np.ndarray, p: float) -> np.ndarray:
        a = np.abs(v)
        top = a.max()
        if top == 0.0:
            return v
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = np.where(a > 0, (a / top) ** (p - 1.0), 0.0)
            phase = np.where(a > 0, v / a, 0.0)
        return scaled * phase

    candidates: list[np.ndarray] = []
    n = grid.n
    for m in ms[: max(1, search_budget // 6)]:
        a = np.abs(m)
        if a.max() > 0:
            candidates.append(np.conj(m) / a.max())
            peak = int(np.argmax(a))
            bump = np.zeros(n, dtype=np.complex128)
            lo, hi = max(0, peak - 4), min(n, peak + 5)
            bump[lo:hi] = 1.0
            candidates.append(bump)
    flat = np.zeros(n, dtype=np.complex128)
    flat[n // 2] = 1.0
    candidates.append(flat)
    candidates.append(np.ones(n, dtype=np.complex128))

    best = 0.0
    evals = 0

    def consider(ghat: np.ndarray) -> tuple[float, object, object]:
        nonlocal best, evals
        evals += 1
        val, fields, argmax = _mm_objective(ms, grid, q, ghat)
        if val > best:
            best = val
        return val, fields, argmax

    stack = list(candidates)
    while evals < search_budget:
        if stack:
            ghat = stack.pop(0)
        else:
            ghat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        val, fields, argmax = consider(ghat)
        if fields is None:
            continue
        # power-type ascent on the frozen-argmax linearization
        for _ in range(3):
            if evals >= search_budget:
                break
            sup_field = fields[argmax, np.arange(n)]
            u = dual_map(sup_field, q)
            masked = u * (argmax == np.arange(len(ms))[:, None]).astype(np.complex128)
            what = np.zeros(n, dtype=np.complex128)
            for m, spectrum in zip(ms, dft_values(masked, grid.dx)):
                what += np.conj(m) * spectrum
            if np.max(np.abs(what)) == 0.0:
                break
            gnew_time = dual_map(idft_values(what, grid.dx), qq if q > 1 else 2.0)
            ghat = dft_values(gnew_time, grid.dx)
            val, fields, argmax = consider(ghat)
            if fields is None:
                break
    return best


# ---------------------------------------------------------------------------
# size of a tile collection


def per_tile_sizes(
    tiles: Iterable[Tile],
    f: SampledFunction,
    family_size: int = 8,
    weight_power: float = 10.0,
) -> dict[Tile, float]:
    """Size of each singleton {s}, in input order: the collection size is their maximum.

    Per distinct omega_s, one profile call and one inverse FFT serve its bump family and one
    matrix product its tiles' weighted L^2 norms; exact up to rounding (1e-12 relative).
    """
    sizes = dict.fromkeys(tiles)
    grid = f.grid
    fhat = dft(f).values
    xs, xi, fh_half = grid.xs(), grid.freqs(), grid.freq_halfwidth
    by_freq: dict = {}
    for s in sizes:
        by_freq.setdefault(s.freq, []).append(s)
    for freq, group in by_freq.items():
        omega10 = freq.to_interval().dilate(10.0)
        omega10 = Interval(max(omega10.a, -fh_half), min(omega10.b, fh_half))
        bumps = bump_values(adapted_family(omega10, 1.0, family_size), xi)
        power = np.abs(idft_values(bumps * fhat, grid.dx)) ** 2
        weights = np.stack([interval_weight(s.time.to_interval(), xs, weight_power, period=grid.length)
                            for s in group])
        norms = np.sqrt((power @ (weights**2).T * grid.dx).max(axis=0))
        for s, norm in zip(group, norms):
            sizes[s] = 1.0 / math.sqrt(s.time.length) * float(norm)
    return sizes


def tile_size(
    tiles: Iterable[Tile],
    f: SampledFunction,
    family_size: int = 8,
    weight_power: float = 10.0,
) -> float:
    """Lower estimate of the size of a tile collection relative to f.

    Maximum over tiles s and over the canonical family of bumps adapted to
    10 omega_s (dilation about the center, clipped to the frequency box) of
    |I_s|^(-1/2) || chi_{I_s}^10 T_m f ||_2.  The supremum over all adapted
    functions is replaced by this fixed finite family everywhere size is
    used, so inequalities involving size absorb the family deficiency into
    their fitted constants.
    """
    sizes = per_tile_sizes(tiles, f, family_size, weight_power)
    return max(sizes.values(), default=0.0)
