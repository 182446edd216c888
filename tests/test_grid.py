import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefreq import Grid, SampledFunction, dft, hl_maximal, idft, lp_norm
from timefreq.grid import MAX_J, dft_values, idft_values, lp_norm_values


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


def random_function(grid, rng):
    return SampledFunction(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))


class TestDft:
    def test_delta_transforms_to_one(self):
        g = Grid(8, 8.0)
        vals = np.zeros(g.n, dtype=complex)
        vals[0] = 1.0 / g.dx
        fhat = dft(SampledFunction(g, vals))
        assert np.allclose(fhat.values, 1.0, atol=1e-12)

    def test_constant_transforms_to_delta(self):
        g = Grid(8, 8.0)
        fhat = dft(SampledFunction(g, np.ones(g.n, dtype=complex)))
        expected = np.zeros(g.n, dtype=complex)
        expected[g.n // 2] = g.length
        assert np.max(np.abs(fhat.values - expected)) < 1e-10

    def test_gaussian_pair(self):
        g = Grid(12, 32.0)
        xs = g.xs()
        x = np.where(xs < g.length / 2, xs, xs - g.length)
        f = SampledFunction(g, np.exp(-np.pi * x**2))
        fhat = dft(f)
        xi = g.freqs()
        assert np.max(np.abs(fhat.values - np.exp(-np.pi * xi**2))) <= 1e-8

    @pytest.mark.parametrize("j,length", [(8, 8.0), (10, 16.0), (12, 64.0)])
    def test_round_trip(self, j, length, rng):
        g = Grid(j, length)
        f = random_function(g, rng)
        back = idft(dft(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    @given(st.integers(1, 14), st.integers(-6, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_grid(self, j, log2_length, seed):
        g = Grid(j, 2.0**log2_length)
        rng = np.random.default_rng(seed)
        f = random_function(g, rng)
        for back in (idft(dft(f)).values, dft(idft(f)).values):
            assert np.max(np.abs(back - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    @given(st.integers(1, 11), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stacked_rows_match_single_transforms(self, j, rows, seed):
        g = Grid(j, 8.0)
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((rows, g.n)) + 1j * rng.standard_normal((rows, g.n))
        fwd, inv = dft_values(stack, g.dx), idft_values(stack, g.dx)
        for i, row in enumerate(stack):
            assert np.array_equal(fwd[i], dft(SampledFunction(g, row)).values)
            assert np.array_equal(inv[i], idft(SampledFunction(g, row)).values)


class TestSampledFunction:
    def test_difference_across_grids_refused(self):
        # equal sample counts on boxes of different length used to keep the left grid
        f = SampledFunction(Grid(8, 8.0), np.ones(256))
        with pytest.raises(ValueError, match="other must lie on the grid"):
            f - SampledFunction(Grid(8, 16.0), np.ones(256))


class TestGridExponent:
    def test_cap_accepts_largest_and_rejects_beyond(self):
        # constructing a Grid allocates nothing, so the cap is checked without arrays
        assert Grid(MAX_J, 8.0).n == 2**MAX_J
        for j in (MAX_J + 1, 60):
            with pytest.raises(ValueError, match="between 1 and"):
                Grid(j, 8.0)
        with pytest.raises(ValueError):
            Grid(0, 8.0)


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 7.0])
    def test_unit_indicator(self, p):
        g = Grid(10, 8.0)
        f = SampledFunction.indicator(g, [(0.0, 1.0)])
        assert lp_norm(f, p) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneity(self, rng):
        g = Grid(8, 8.0)
        f = random_function(g, rng)
        for p in (1.0, 2.0, 3.5, np.inf):
            assert lp_norm(SampledFunction(g, 2.0 * f.values), p) == pytest.approx(2.0 * lp_norm(f, p), rel=1e-12)

    def test_parseval(self, rng):
        g = Grid(10, 16.0)
        f = random_function(g, rng)
        lhs = lp_norm(f, 2) ** 2
        rhs = np.sum(np.abs(dft(f).values) ** 2) / g.length
        assert abs(lhs - rhs) <= 1e-10 * lhs

    def test_rejects_p_below_one(self):
        g = Grid(6, 8.0)
        with pytest.raises(ValueError):
            lp_norm(SampledFunction(g, np.zeros(g.n)), 0.5)

    def test_rejects_nan_p(self):
        g = Grid(6, 8.0)
        with pytest.raises(ValueError, match="p >= 1, got nan"):
            lp_norm(SampledFunction(g, np.ones(g.n)), float("nan"))
        with pytest.raises(ValueError, match="p >= 1, got nan"):
            lp_norm_values(np.ones(g.n), g.dx, float("nan"))


def brute_force_maximal(values, dx):
    a = np.abs(values)
    n = a.size
    out = np.zeros(n)
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            avg = a[lo:hi].mean()
            out[lo:hi] = np.maximum(out[lo:hi], avg)
    return out


def loop_maximal(values):
    """The O(n^2) row loop hl_maximal used before its divide and conquer."""
    a = np.abs(values)
    n = a.size
    prefix = np.concatenate([[0.0], np.cumsum(a)])
    out = np.zeros(n)
    for left in range(n):
        avgs = (prefix[left + 1 :] - prefix[left]) / np.arange(1, n - left + 1)
        best = np.maximum.accumulate(avgs[::-1])[::-1]
        np.maximum(out[left:], best, out=out[left:])
    return out


@st.composite
def indicators(draw):
    j = draw(st.integers(1, 10))
    g = Grid(j, 8.0)
    mask = np.zeros(g.n, dtype=bool)
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(0, g.n - 1))
        mask[lo : draw(st.integers(lo + 1, g.n))] = True
    return SampledFunction(g, mask.astype(np.complex128))


class TestMaximal:
    @given(indicators())
    @settings(max_examples=80, deadline=None)
    def test_indicator_bit_identical_to_loop(self, f):
        assert np.array_equal(hl_maximal(f).values.real, loop_maximal(f.values))

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_random_complex_matches_loop(self, j, seed, tail):
        g = Grid(j, 8.0)
        rng = np.random.default_rng(seed)
        # heavy-tailed magnitudes put the best intervals anywhere
        vals = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)) * rng.exponential(size=g.n) ** tail
        got = hl_maximal(SampledFunction(g, vals)).values.real
        expected = loop_maximal(vals)
        assert np.all(np.abs(got - expected) <= 1e-12 * expected)
        assert np.all(got >= np.abs(vals) * (1 - 1e-12))  # single-sample averages round

    def test_fine_indicator_bit_identical_to_loop(self):
        """A J = 13 indicator of a few blocks, as the maximal-function step of the refine workload draws."""
        g = Grid(13, 64.0)
        mask = np.zeros(g.n, dtype=bool)
        for start, width in [(700, 40), (2000, 480), (5100, 33)]:
            mask[start : start + width] = True
        f = SampledFunction(g, mask.astype(np.complex128))
        assert np.array_equal(hl_maximal(f).values.real, loop_maximal(f.values))

    def test_constant(self):
        g = Grid(8, 8.0)
        m = hl_maximal(SampledFunction(g, np.full(g.n, -3.0 + 0j)))
        assert np.allclose(m.values.real, 3.0, atol=1e-12)

    def test_indicator_at_distance(self):
        g = Grid(12, 8.0)
        f = SampledFunction.indicator(g, [(0.0, 1.0)])
        m = hl_maximal(f)
        at2 = m.values.real[round(2.0 / g.dx)]
        assert at2 == pytest.approx(0.5, abs=2 * g.dx)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, 0.0)])
    def test_non_finite_samples_refused(self, bad):
        # one such sample would turn the maximal function NaN at most points, with RuntimeWarnings
        g = Grid(8, 8.0)
        f = SampledFunction(g, np.ones(g.n, dtype=complex))
        f.values[100] = bad
        with pytest.raises(ValueError, match="hl_maximal needs finite samples of f, got 1 inf or NaN of 256"):
            hl_maximal(f)

    def test_matches_brute_force(self, rng):
        g = Grid(6, 8.0)
        f = random_function(g, rng)
        expected = brute_force_maximal(f.values, g.dx)
        got = hl_maximal(f).values.real
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_weak_type(self, rng):
        g = Grid(9, 8.0)
        for _ in range(50):
            ivs = []
            for _ in range(int(rng.integers(1, 4))):
                a = rng.uniform(0.0, 7.0)
                ivs.append((a, min(a + rng.uniform(0.1, 1.0), 8.0)))
            f = SampledFunction.indicator(g, ivs)
            measure_f = lp_norm(f, 1)
            m = hl_maximal(f).values.real
            for lam in np.arange(0.1, 1.0, 0.1):
                level = np.sum(m > lam) * g.dx
                assert level <= 4.0 * measure_f / lam + 1e-12

    def test_dominates_and_sublinear(self, rng):
        g = Grid(8, 8.0)
        f, h = random_function(g, rng), random_function(g, rng)
        mf, mh = hl_maximal(f).values.real, hl_maximal(h).values.real
        assert np.all(mf >= np.abs(f.values) - 1e-12)
        msum = hl_maximal(SampledFunction(g, f.values + h.values)).values.real
        assert np.all(msum <= mf + mh + 1e-12)
