"""Scalewise families of adapted multipliers over a finite frequency set,
the per-scale projection operators, the scalewise variation norm of the
family, and the growth scan over the frequency-set cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicInterval
from .grid import Grid, SampledFunction, dft, idft_values, lp_norm
from .norms import AdaptedBump, bump_values, make_adapted_bump, variational_norm

__all__ = [
    "FrequencySet",
    "MultiplierFamily",
    "covering_intervals",
    "sup_over_scales",
    "scale_variation",
    "growth_scan",
]


@dataclass(frozen=True)
class FrequencySet:
    """Finite set of distinct frequencies, kept sorted."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        ls = tuple(sorted(self.lambdas))
        if len(set(ls)) != len(ls):
            raise ValueError("frequencies must be distinct")
        if not ls:
            raise ValueError("frequency set must be nonempty")
        object.__setattr__(self, "lambdas", ls)


def covering_intervals(freqs: FrequencySet, k: int) -> list[DyadicInterval]:
    """All dyadic intervals of length 2^k containing an element of the set.

    At most one interval per frequency, so the count never exceeds N.
    """
    ms = {math.floor(math.ldexp(lam, -k)) for lam in freqs.lambdas}
    return [DyadicInterval(k, m) for m in sorted(ms)]


@dataclass
class MultiplierFamily:
    """Per-scale lists of (bump, coefficient) pairs.

    The bumps at scale k sit on the covering intervals of the frequency set
    (``bump.omega``); each is an :class:`AdaptedBump` scaled by a complex
    coefficient of modulus at most one, so the family's adaptedness constant
    stays comparable across set sizes.
    """

    grid: Grid
    scales: dict[int, list[tuple[AdaptedBump, complex]]] = field(repr=False)

    def scale_list(self) -> list[int]:
        return sorted(self.scales)

    def scale_multipliers(self, ks) -> np.ndarray:
        """Row i is the scale-``ks[i]`` multiplier on the grid: all the scales' bumps come from one
        :func:`bump_values` call, and each scale's are added in list order, exactly the per-bump sum."""
        entries = [self.scales[k] for k in ks]
        rows = iter(bump_values([b for entry in entries for b, _ in entry], self.grid.freqs()))
        out = np.zeros((len(entries), self.grid.n), dtype=np.complex128)
        for total, entry in zip(out, entries):
            for _, coeff in entry:
                total += coeff * next(rows)
        return out


def random_family(
    grid: Grid,
    freqs: FrequencySet,
    scales,
    rng: np.random.Generator,
) -> MultiplierFamily:
    """Adapted bumps of constant 1 on the covering intervals, with random coefficients in [1/2, 1]."""
    per_scale = {}
    for k in scales:
        entries = []
        for iv in covering_intervals(freqs, k):
            bump = make_adapted_bump(iv.to_interval(), modulation_index=int(rng.integers(0, 2)))
            mag = rng.uniform(0.5, 1.0)
            phase = np.exp(2j * np.pi * rng.uniform())
            entries.append((bump, complex(mag * phase)))
        per_scale[int(k)] = entries
    return MultiplierFamily(grid, per_scale)


def sup_over_scales(fam: MultiplierFamily, f: SampledFunction) -> SampledFunction:
    """Pointwise sup over scales of |scale projection of f|.

    One :meth:`~MultiplierFamily.scale_multipliers` call for all the scales,
    one forward transform of f and one stacked inverse transform of the
    products; each row equals the per-scale oracle ``apply_scale`` of
    ``tests/test_multipliers.py`` exactly.
    """
    mults = fam.scale_multipliers(fam.scale_list())
    fields = idft_values(mults * dft(f).values, f.grid.dx)
    return SampledFunction(f.grid, np.abs(fields).max(axis=0, initial=0.0))


def scale_variation(fam: MultiplierFamily, freqs: FrequencySet, r: float) -> float:
    """Max over frequencies of the r-variation across scales of the family values.

    For each frequency the sequence collects, scale by scale, the value at
    that frequency of the multiplier on the covering interval; the variation
    runs over the scales the family defines.
    The (scale, frequency) table takes one :func:`bump_values` call, then one exact
    variation per column; it matches the point-by-point oracle ``value_at`` of
    ``tests/test_multipliers.py`` up to rounding.
    """
    ks = fam.scale_list()
    lams = np.asarray(freqs.lambdas, dtype=float)
    table = np.zeros((len(ks), lams.size), dtype=np.complex128)
    covered = []  # (row, column, bump, coefficient) per frequency a bump covers
    for row, k in enumerate(ks):
        free = np.ones(lams.size, dtype=bool)  # the first covering interval wins
        for bump, coeff in fam.scales[k]:
            cols = np.flatnonzero(free & (bump.omega.a <= lams) & (lams < bump.omega.b))
            free[cols] = False
            covered += [(row, col, bump, coeff) for col in cols]
    if covered:
        rows, cols, bumps, coeffs = zip(*covered)
        table[rows, cols] = np.array(coeffs) * bump_values(bumps, lams[list(cols)][:, None])[:, 0]
    return float(variational_norm(table, r).max())


def growth_scan(
    grid: Grid,
    q: float,
    r: float,
    eps: float,
    n_list,
    trials: int,
    seed: int,
) -> tuple[list[tuple[float, float]], float]:
    """Scaling scan of the maximal projection norm in the frequency-set size.

    Returns one (max ratio, max numerator) pair per N of ``n_list``, in order,
    and the fitted slope.  For each N draws random (frequency set, family,
    input) triples, records the max over trials of

        || sup_k |scale_k f| ||_q / (N^(1/q - 1/r + eps) (C + variation) ||f||_q)

    over families of scales 0..5 with adaptedness constant C = 1, and fits
    the log-log slope of the unnormalized numerator against N; the slope is
    NaN when ``n_list`` holds fewer than two distinct N.  An eps whose normaliser
    leaves the normal doubles at the largest N is refused before any trial, and
    one that puts a trial's nonzero ratio outside them when that trial runs.
    Deterministic given the seed; trials are seeded independently.
    """
    if not 1 < q < 2:
        raise ValueError("the scan targets 1 < q < 2")
    if not r > 2:
        raise ValueError("variation exponent must exceed 2")
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    with np.errstate(over="ignore", under="ignore"):  # the normaliser is most extreme at the largest N
        extreme = np.float_power(max(n_list), 1.0 / q - 1.0 / r + eps)
    if not np.finfo(float).tiny <= extreme < math.inf:
        raise ValueError(f"eps = {eps:g} puts N^(1/q - 1/r + eps) outside the normal doubles at N = {max(n_list)}")
    lam_box = grid.freq_halfwidth / 2.0
    rows = []
    for n in n_list:
        max_ratio = 0.0
        max_num = 0.0
        for trial in range(trials):
            rng = np.random.default_rng([seed, n, trial])
            lam = rng.uniform(-lam_box, lam_box, size=n)
            while len(set(lam)) < n:
                lam = rng.uniform(-lam_box, lam_box, size=n)
            freqs = FrequencySet(tuple(lam))
            fam = random_family(grid, freqs, range(0, 6), rng)
            f = SampledFunction(
                grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
            )
            num = lp_norm(sup_over_scales(fam, f), q)
            vstar = scale_variation(fam, freqs, r)
            den = n ** (1.0 / q - 1.0 / r + eps) * (1.0 + vstar) * lp_norm(f, q)
            ratio = num / den if den > 0 else math.inf
            if num > 0 and not np.finfo(float).tiny <= ratio < math.inf:
                raise ValueError(f"eps = {eps:g} puts N^(1/q - 1/r + eps) outside the range that keeps the scan "
                                 f"ratio {ratio:g} a normal double at N = {n}")
            max_ratio = max(max_ratio, ratio)
            max_num = max(max_num, num)
        rows.append((max_ratio, max_num))
    slope = float("nan")
    if len(set(n_list)) >= 2:
        slope = float(
            np.polyfit(np.log2(np.asarray(n_list, dtype=float)), np.log2([num for _, num in rows]), 1)[0]
        )
    return rows, slope
