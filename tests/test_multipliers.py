import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefreq import Grid, SampledFunction, dft, idft, lp_norm
from timefreq.dyadic import DyadicInterval, Interval
from timefreq.multipliers import (
    FrequencySet,
    MultiplierFamily,
    covering_intervals,
    growth_scan,
    random_family,
    scale_variation,
    sup_over_scales,
)
from timefreq.norms import AdaptedBump, bump_values, make_adapted_bump, variational_norm


def centred_bump(lam, k, value):
    """Bump on the length-2^k interval centred at a dyadic ``lam``, equal to ``value`` there.

    At the centre t = 1/2 exactly, where the base profile is exactly one.
    """
    half = math.ldexp(1.0, k - 1)
    return AdaptedBump(Interval(lam - half, lam + half), 0, value)


class TestCoveringIntervals:
    def test_single_frequency(self):
        out = covering_intervals(FrequencySet((0.3,)), 0)
        assert out == [DyadicInterval(0, 0)]

    def test_count_bounded_by_set_size(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 20))
            freqs = FrequencySet(tuple(rng.uniform(-16, 16, n)))
            for k in (-2, 0, 3):
                assert len(covering_intervals(freqs, k)) <= n

    def test_shared_interval(self):
        out = covering_intervals(FrequencySet((0.1, 0.2)), -1)
        assert out == [DyadicInterval(-1, 0)]

    def test_matches_brute_force(self):
        freqs = FrequencySet((0.3, 1.7, -2.4, 5.1))
        for k in (-1, 0, 1):
            length = math.ldexp(1.0, k)
            brute = set()
            m = -64
            while m * length < 8.0:
                iv = DyadicInterval(k, m)
                if any(iv.left <= lam < iv.right for lam in freqs.lambdas):
                    brute.add(iv)
                m += 1
            assert set(covering_intervals(freqs, k)) == brute

    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            FrequencySet((1.0, 1.0))


@pytest.fixture(scope="module")
def grid():
    return Grid(9, 8.0)


def small_family(grid, seed=3, scales=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    freqs = FrequencySet(tuple(rng.uniform(-8, 8, 5)))
    return freqs, random_family(grid, freqs, scales, rng)


def apply_scale(fam, f, k):
    """Oracle: the Fourier multiplier sum of scale k applied to f."""
    return idft(SampledFunction(f.grid, fam.scale_multipliers([k])[0] * dft(f).values))


def value_at(fam, k, lam):
    """Oracle: the value at lam of the scale-k multiplier on the first interval containing lam."""
    for bump, coeff in fam.scales[k]:
        if bump.omega.a <= lam < bump.omega.b:
            return complex(coeff * bump_values([bump], np.array([lam]))[0, 0])
    return 0.0 + 0.0j


class TestApplyScale:
    def test_zero_multipliers(self, grid):
        fam = MultiplierFamily(grid, {0: []})
        f = SampledFunction(grid, np.random.default_rng(0).standard_normal(grid.n))
        assert np.max(np.abs(apply_scale(fam, f, 0).values)) == 0.0

    def test_disjoint_spectrum(self, grid):
        freqs = FrequencySet((6.0,))
        fam = random_family(grid, freqs, [0], np.random.default_rng(1))
        # input supported at frequencies below 5: the covering interval [6,7) misses it
        xs = grid.xs()
        f = SampledFunction(grid, np.exp(2j * np.pi * 2.0 * xs))
        assert np.max(np.abs(apply_scale(fam, f, 0).values)) < 1e-10

    def test_direct_quadrature_oracle(self, grid):
        freqs, fam = small_family(grid)
        rng = np.random.default_rng(4)
        f = SampledFunction(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
        got = apply_scale(fam, f, 1).values
        mvals = fam.scale_multipliers([1])[0]
        fhat = dft(f).values
        xi = grid.freqs()
        for xin in (0, 17, 300):
            direct = np.sum(mvals * fhat * np.exp(2j * np.pi * xi * grid.xs()[xin])) * grid.dxi
            assert abs(got[xin] - direct) <= 1e-8

    def test_linear(self, grid):
        freqs, fam = small_family(grid)
        rng = np.random.default_rng(5)
        f = SampledFunction(grid, rng.standard_normal(grid.n))
        g2 = SampledFunction(grid, rng.standard_normal(grid.n))
        lhs = apply_scale(fam, SampledFunction(grid, 2.0 * f.values + 3j * g2.values), 0).values
        rhs = 2.0 * apply_scale(fam, f, 0).values + 3j * apply_scale(fam, g2, 0).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))

    def test_sup_dominates_each_scale(self, grid):
        freqs, fam = small_family(grid)
        rng = np.random.default_rng(6)
        f = SampledFunction(grid, rng.standard_normal(grid.n))
        sup = sup_over_scales(fam, f).values.real
        for k in fam.scale_list():
            assert np.all(sup >= np.abs(apply_scale(fam, f, k).values) - 1e-12)


def loop_sup_over_scales(fam, f):
    """Oracle for sup_over_scales: one apply_scale call per scale, running maximum."""
    out = np.zeros(f.grid.n)
    for k in fam.scale_list():
        np.maximum(out, np.abs(apply_scale(fam, f, k).values), out=out)
    return out


class TestSupOverScales:
    @given(st.integers(6, 11), st.integers(0, 2**32 - 1), st.lists(st.integers(-3, 3), max_size=6, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_scale_loop(self, j, seed, scales):
        g = Grid(j, 8.0)
        rng = np.random.default_rng(seed)
        freqs = FrequencySet(tuple(rng.uniform(-3, 3, 4)))
        fam = random_family(g, freqs, scales, rng)
        f = SampledFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        assert np.array_equal(sup_over_scales(fam, f).values, loop_sup_over_scales(fam, f))


class TestScaleVariation:
    def test_constant_multipliers(self, grid):
        # one frequency per covering interval at every scale, each bump centred on it
        freqs = FrequencySet((0.5, 6.5))
        per_scale = {}
        for k in (0, 1, 2):
            per_scale[k] = [(centred_bump(lam, k, 1.0), 1.0 + 0j) for lam in freqs.lambdas]
        fam = MultiplierFamily(grid, per_scale)
        assert all(value_at(fam, k, lam) == 1.0 for k in per_scale for lam in freqs.lambdas)
        assert scale_variation(fam, freqs, 3.0) == pytest.approx(1.0)

    def test_single_scale(self, grid):
        freqs = FrequencySet((0.4,))
        bump = make_adapted_bump(DyadicInterval(0, 0).to_interval(), 0)
        fam = MultiplierFamily(grid, {0: [(bump, 1.0 + 0j)]})
        expected = abs(bump_values([bump], np.array([0.4]))[0, 0])
        assert scale_variation(fam, freqs, 3.0) == pytest.approx(expected)

    def test_two_scales_jump(self, grid):
        freqs = FrequencySet((0.5,))
        per_scale = {
            0: [(centred_bump(0.5, 0, 0.0), 1.0)],
            1: [(centred_bump(0.5, 1, 1.0), 1.0)],
        }
        fam = MultiplierFamily(grid, per_scale)
        assert scale_variation(fam, freqs, 3.0) == pytest.approx(2.0)


def loop_scale_variation(fam, freqs, r):
    """Oracle for scale_variation: value_at point by point, one sequence per frequency."""
    ks = fam.scale_list()
    return max(variational_norm([value_at(fam, k, lam) for k in ks], r) for lam in freqs.lambdas)


@st.composite
def families(draw):
    """Random families on a J=9 grid; some entries hold a bump of another variant with a
    signed amplitude, and some scales repeat an interval, where the first entry covering
    a frequency counts."""
    g = Grid(9, 8.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 16))
    freqs = FrequencySet(tuple(rng.uniform(-g.freq_halfwidth, g.freq_halfwidth, n)))
    k_min = draw(st.integers(-3, 2))
    fam = random_family(g, freqs, range(k_min, k_min + draw(st.integers(1, 6))), rng)
    if draw(st.booleans()):
        for entries in fam.scales.values():
            for i, (bump, coeff) in enumerate(entries):
                if rng.random() < 0.3:
                    entries[i] = (AdaptedBump(bump.omega, int(rng.integers(8)), rng.uniform(-1, 1)), coeff)
    if draw(st.booleans()):
        for entries in fam.scales.values():
            bump, _ = entries[int(rng.integers(len(entries)))]
            entries.append((bump, complex(rng.uniform(-1, 1))))
    return fam, freqs


class TestFastPathOracles:
    @given(families(), st.sampled_from([2.5, 3.0, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_scale_variation_matches_value_at_loop(self, case, r):
        fam, freqs = case
        want = loop_scale_variation(fam, freqs, r)
        assert scale_variation(fam, freqs, r) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @given(families())
    @settings(max_examples=40, deadline=None)
    def test_total_multiplier_bit_identical_to_per_bump_sum(self, case):
        """Each scale alone, and all the scales from one bump evaluation, equal the per-bump sums."""
        fam, _ = case
        wants = []
        for k in fam.scale_list():
            want = np.zeros(fam.grid.n, dtype=np.complex128)
            for bump, coeff in fam.scales[k]:
                want += coeff * bump_values([bump], fam.grid.freqs())[0]
            assert np.array_equal(fam.scale_multipliers([k])[0], want)
            wants.append(want)
        assert np.array_equal(fam.scale_multipliers(fam.scale_list()), np.array(wants))


class TestGrowthScan:
    def test_calibration_single_bump(self, grid):
        # one frequency, one flat-profile bump, matched input: ratio at most one
        freqs = FrequencySet((0.5,))
        bump = make_adapted_bump(DyadicInterval(0, 0).to_interval(), 0)
        fam = MultiplierFamily(grid, {0: [(bump, 1.0 + 0j)]})
        from timefreq.grid import idft

        f = idft(SampledFunction(grid, bump_values([bump], grid.freqs())[0]))
        num = lp_norm(sup_over_scales(fam, f), 1.5)
        vstar = scale_variation(fam, freqs, 3.0)
        den = 1.0 ** (1 / 1.5 - 1 / 3.0 + 0.01) * (1.0 + vstar) * lp_norm(f, 1.5)
        assert num / den <= 1.0 + 1e-6

    def test_rows_and_determinism(self, grid):
        rows1 = growth_scan(grid, 1.5, 3.0, 0.01, [2, 4], trials=3, seed=9)
        rows2 = growth_scan(grid, 1.5, 3.0, 0.01, [2, 4], trials=3, seed=9)
        assert rows1 == rows2
        assert len(rows1[0]) == 2  # one (max ratio, max numerator) pair per N

    def test_ratios_not_exploding(self, grid):
        (small, large), _ = growth_scan(grid, 1.5, 3.0, 0.01, [2, 32], trials=10, seed=11)
        assert large[0] <= 4.0 * small[0]

    def test_parameter_validation(self, grid):
        with pytest.raises(ValueError):
            growth_scan(grid, 2.5, 3.0, 0.01, [2], 1, 0)
        with pytest.raises(ValueError):
            growth_scan(grid, 1.5, 1.5, 0.01, [2], 1, 0)
        # a NaN or infinite denominator would read as ratio 0.0
        for eps in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="eps must be finite"):
                growth_scan(grid, 1.5, 3.0, eps, [2, 4], 1, 0)
