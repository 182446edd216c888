"""Scalewise families of adapted multipliers over a finite frequency set,
the per-scale projection operators, the scalewise variation norm of the
family, and the growth scan over the frequency-set cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicInterval
from .grid import Grid, SampledFunction, dft, idft, lp_norm
from .norms import AdaptedBump, bump_values, make_adapted_bump, variational_norm_field

__all__ = [
    "FrequencySet",
    "MultiplierFamily",
    "covering_intervals",
    "apply_scale",
    "sup_over_scales",
    "scale_variation",
    "ScanRow",
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

    @property
    def n(self) -> int:
        return len(self.lambdas)


def covering_intervals(freqs: FrequencySet, k: int) -> list[DyadicInterval]:
    """All dyadic intervals of length 2^k containing an element of the set.

    At most one interval per frequency, so the count never exceeds N.
    """
    ms = {math.floor(math.ldexp(lam, -k)) for lam in freqs.lambdas}
    return [DyadicInterval(k, m) for m in sorted(ms)]


@dataclass
class MultiplierFamily:
    """Per-scale lists of (interval, bump, coefficient) triples.

    Intervals at scale k are the covering intervals of the frequency set;
    each carries an adapted bump scaled by a complex coefficient of modulus
    at most one, so the family's adaptedness constant stays comparable
    across set sizes.  Any callable of the frequencies can stand in for an
    :class:`AdaptedBump`.
    """

    grid: Grid
    freqs: FrequencySet
    scales: dict[int, list[tuple[DyadicInterval, AdaptedBump, complex]]] = field(repr=False)

    def scale_list(self) -> list[int]:
        return sorted(self.scales)

    def total_multiplier(self, k: int) -> np.ndarray:
        """Scale-k multiplier on the grid: its adapted bumps come from one
        :func:`bump_values` call and are added in list order, exactly the per-bump sum."""
        xi = self.grid.freqs()
        rows = iter(bump_values([b for _, b, _ in self.scales[k] if isinstance(b, AdaptedBump)], xi))
        out = np.zeros(self.grid.n, dtype=np.complex128)
        for _, bump, coeff in self.scales[k]:
            out += coeff * (next(rows) if isinstance(bump, AdaptedBump) else bump(xi))
        return out

    def value_at(self, k: int, lam: float) -> complex:
        """Value at lam of the scale-k multiplier on the interval containing lam."""
        for iv, bump, coeff in self.scales[k]:
            if iv.contains_point(lam):
                return complex(coeff * bump(np.array([lam]))[0])
        return 0.0 + 0.0j


def random_family(
    grid: Grid,
    freqs: FrequencySet,
    scales,
    rng: np.random.Generator,
    c_const: float = 1.0,
) -> MultiplierFamily:
    """Adapted bumps on the covering intervals with random coefficients in [1/2, 1]."""
    per_scale = {}
    for k in scales:
        entries = []
        for iv in covering_intervals(freqs, k):
            bump = make_adapted_bump(iv.to_interval(), c_const, modulation_index=int(rng.integers(0, 2)))
            mag = rng.uniform(0.5, 1.0)
            phase = np.exp(2j * np.pi * rng.uniform())
            entries.append((iv, bump, complex(mag * phase)))
        per_scale[int(k)] = entries
    return MultiplierFamily(grid, freqs, per_scale)


def apply_scale(fam: MultiplierFamily, f: SampledFunction, k: int) -> SampledFunction:
    """Fourier multiplier sum of scale k applied to f."""
    if k not in fam.scales:
        raise ValueError(f"family has no scale {k}")
    fhat = dft(f)
    return idft(SampledFunction(f.grid, fam.total_multiplier(k) * fhat.values))


def sup_over_scales(fam: MultiplierFamily, f: SampledFunction) -> SampledFunction:
    """Pointwise sup over scales of |scale projection of f|."""
    out = np.zeros(f.grid.n)
    for k in fam.scale_list():
        np.maximum(out, np.abs(apply_scale(fam, f, k).values), out=out)
    return SampledFunction(f.grid, out)


def scale_variation(fam: MultiplierFamily, freqs: FrequencySet, r: float) -> float:
    """Max over frequencies of the r-variation across scales of the family values.

    For each frequency the sequence collects, scale by scale, the value at
    that frequency of the multiplier on the covering interval; the variation
    runs over the scales the family defines.
    The (scale, frequency) table takes one :func:`bump_values` call for all adapted bumps
    (any other bump: one call on the frequencies it covers), then one exact variation per
    column; it matches ``value_at`` up to rounding.
    """
    ks = fam.scale_list()
    lams = np.asarray(freqs.lambdas, dtype=float)
    table = np.zeros((len(ks), lams.size), dtype=np.complex128)
    adapted = []  # (row, column, bump, coefficient) per frequency an adapted bump covers
    for row, k in enumerate(ks):
        free = np.ones(lams.size, dtype=bool)  # the first covering interval wins
        for iv, bump, coeff in fam.scales[k]:
            cols = np.flatnonzero(free & (iv.left <= lams) & (lams < iv.right))
            free[cols] = False
            if isinstance(bump, AdaptedBump):
                adapted += [(row, col, bump, coeff) for col in cols]
            elif cols.size:
                table[row, cols] = coeff * bump(lams[cols])
    if adapted:
        rows, cols, bumps, coeffs = zip(*adapted)
        table[rows, cols] = np.array(coeffs) * bump_values(bumps, lams[list(cols)][:, None])[:, 0]
    return float(variational_norm_field(table, r).max())


@dataclass(frozen=True)
class ScanRow:
    q: float
    r: float
    eps: float
    n: int
    trial_count: int
    max_ratio: float
    max_numerator: float
    fitted_slope: float


def growth_scan(
    grid: Grid,
    q: float,
    r: float,
    eps: float,
    n_list,
    trials: int,
    seed: int,
    scales=range(0, 6),
    c_const: float = 1.0,
) -> list[ScanRow]:
    """Scaling scan of the maximal projection norm in the frequency-set size.

    For each N draws random (frequency set, family, input) triples, records
    the max over trials of

        || sup_k |scale_k f| ||_q / (N^(1/q - 1/r + eps) (C + variation) ||f||_q)

    and fits the log-log slope of the unnormalized numerator against N; the
    slope is NaN when ``n_list`` holds fewer than two distinct N.
    Deterministic given the seed; trials are seeded independently.
    """
    if not 1 < q < 2:
        raise ValueError("the scan targets 1 < q < 2")
    if not r > 2:
        raise ValueError("variation exponent must exceed 2")
    lam_box = grid.freq_halfwidth / 2.0
    rows = []
    per_n_max_num = []
    for n in n_list:
        max_ratio = 0.0
        max_num = 0.0
        for trial in range(trials):
            rng = np.random.default_rng([seed, n, trial])
            lam = rng.uniform(-lam_box, lam_box, size=n)
            while len(set(lam)) < n:
                lam = rng.uniform(-lam_box, lam_box, size=n)
            freqs = FrequencySet(tuple(lam))
            fam = random_family(grid, freqs, scales, rng, c_const)
            f = SampledFunction(
                grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
            )
            num = lp_norm(sup_over_scales(fam, f), q)
            vstar = scale_variation(fam, freqs, r)
            den = n ** (1.0 / q - 1.0 / r + eps) * (c_const + vstar) * lp_norm(f, q)
            ratio = num / den if den > 0 else 0.0
            max_ratio = max(max_ratio, ratio)
            max_num = max(max_num, num)
        per_n_max_num.append(max_num)
        rows.append((n, trials, max_ratio, max_num))
    slope = float("nan")
    if len(set(n_list)) >= 2:
        slope = float(
            np.polyfit(np.log2(np.asarray(n_list, dtype=float)), np.log2(per_n_max_num), 1)[0]
        )
    return [
        ScanRow(q, r, eps, n, tc, mr, mn, slope) for (n, tc, mr, mn) in rows
    ]
