import csv
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timefreq import Grid, SampledFunction, hl_maximal, lp_norm, variational_norm
from timefreq.cli import _trig_poly, main
from timefreq.ergodic import (
    AverageSeries,
    CircleRotation,
    heavy_tail_sweep,
    integral_tail,
    return_times_average,
    single_scale_blowup,
    tail_diagnostics,
)
from timefreq.ergodic import _BLOCK, _pair_average, _spike, _x_index
from timefreq.wavepackets import kernel_samples, scaled_kernel

from test_wavepackets import quadrature_khat


def kernel_average_at(f, g, x, z, k):
    """Oracle: direct quadrature of the kernel correlation at a single (x, z)."""
    grid = f.grid
    fv = np.roll(f.values, -int(round(x / grid.dx)))
    gv = np.roll(g.values, -int(round(z / grid.dx)))
    return complex(np.sum(fv * gv * scaled_kernel(grid, k)) * grid.dx)


def symmetric_window_max(f, g, x, t_grid):
    """sup over t of |(1/2t) integral_{-t}^{t} f(x+y) g(x-y) dy|, by the window sums of integral_tail."""
    half = [round(t / f.grid.dx) for t in t_grid]
    return float(np.max([_pair_average(f, g, _x_index(f.grid, x), -h, h, t) for h, t in zip(half, t_grid)]))


GOLDEN = (math.sqrt(5) - 1) / 2
SQRT2M1 = math.sqrt(2) - 1


def uniform_chisq(samples, bins=32):
    counts, _ = np.histogram(samples, bins=bins, range=(0.0, 1.0))
    expected = len(samples) / bins
    return float(np.sum((counts - expected) ** 2 / expected))


class TestSystems:
    @pytest.mark.parametrize("system", [CircleRotation(GOLDEN)])
    def test_measure_preserving_histogram(self, system):
        orbit = system.orbit(0.123, 40000)
        # 95th percentile of chi-square with 31 dof is ~45; equidistributed
        # orbits of uniquely ergodic systems land well under a lax threshold
        assert uniform_chisq(orbit) < 120.0

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
            CircleRotation(alpha)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_point_refused(self, x0):
        with pytest.raises(ValueError, match=f"x0 must be finite, got {x0}"):
            CircleRotation(GOLDEN).orbit(x0, 4)

    def test_orbit_exactness_no_drift(self):
        rot = CircleRotation(GOLDEN)
        one_step = rot.orbit(0.0, 1, start=10**6)[0]
        # recompute by modular arithmetic with integers
        step = int((GOLDEN % 1.0) * 2**64)
        expected = ((step * 10**6) % 2**64) / 2**64
        assert one_step == pytest.approx(expected, abs=1e-15)


class TestReturnTimesAverage:
    def test_constant_pair(self):
        tau, sg = CircleRotation(GOLDEN), CircleRotation(SQRT2M1)
        ones = lambda u: np.ones_like(np.asarray(u, dtype=float))
        series = return_times_average(ones, tau, 0.1, ones, sg, 0.9, [1, 4, 64, 1024])
        assert np.allclose(series.values, 1.0, atol=1e-14)

    def test_birkhoff_geometric_bound(self):
        tau = CircleRotation(GOLDEN)
        sg = CircleRotation(SQRT2M1)
        alpha_fixed = int((GOLDEN % 1.0) * 2**64) / 2**64
        bound_const = 2.0 / abs(1.0 - np.exp(2j * np.pi * alpha_fixed))
        ones = lambda u: np.ones_like(np.asarray(u, dtype=float))
        wave = lambda u: np.exp(2j * np.pi * np.asarray(u, dtype=float))
        series = return_times_average(wave, tau, 0.3, ones, sg, 0.4,
                                      [2**i for i in range(3, 15)])
        for n, val in zip(series.n_list, series.values):
            assert abs(val) <= bound_const / n + 1e-12

    def test_birkhoff_cross_check(self):
        # with g identically one the series is the plain Birkhoff average of f
        tau, sg = CircleRotation(GOLDEN), CircleRotation(SQRT2M1)
        f = lambda u: np.cos(2 * np.pi * np.asarray(u, dtype=float)) + 0.25
        ones = lambda u: np.ones_like(np.asarray(u, dtype=float))
        n_list = [10, 100, 1000]
        series = return_times_average(f, tau, 0.3, ones, sg, 0.4, n_list)
        orbit = tau.orbit(0.3, max(n_list))
        direct = np.cumsum(f(orbit)) / np.arange(1, max(n_list) + 1)
        for n, val in zip(series.n_list, series.values):
            assert val.real == pytest.approx(direct[n - 1], abs=1e-12)

    def test_independent_rotations_converge(self):
        tau, sg = CircleRotation(GOLDEN), CircleRotation(SQRT2M1)
        f = lambda u: 0.4 + np.cos(2 * np.pi * np.asarray(u)) - 0.2 * np.sin(6 * np.pi * np.asarray(u))
        g2 = lambda u: -0.7 + 0.5 * np.sin(4 * np.pi * np.asarray(u))
        series = return_times_average(f, tau, 0.2, g2, sg, 0.7, [100000])
        assert abs(series.values[0] - 0.4 * (-0.7)) <= 1e-2


class TestDiagnostics:
    """Entry 0 of tail_diagnostics: the oscillation and variation of the whole series."""

    def test_constant_series(self):
        osc, vr = tail_diagnostics(AverageSeries((1, 2, 4), np.array([2.0, 2.0, 2.0])), 3.0)
        assert osc[0] == 0.0 and vr[0] == 2.0

    def test_single_jump(self):
        osc, vr = tail_diagnostics(AverageSeries((1, 2), np.array([0.0, 1.0])), 3.0)
        assert osc[0] == 1.0 and vr[0] == 2.0

    def test_geometric_tail(self):
        ns = list(range(3, 12))
        vals = np.array([2.0**-n for n in ns])
        osc, _ = tail_diagnostics(AverageSeries(tuple(ns), vals), 3.0)
        assert osc[0] <= 2.0 ** (-ns[0] + 1)

    def test_nan_value_kept(self):
        osc, vr = tail_diagnostics(AverageSeries((1, 2, 3), np.array([1.0, np.nan, 0.5])), 3.0)
        assert math.isnan(osc[0]) and math.isnan(vr[0])


def per_tail_diagnostics(values, r):
    """Oracle: each tail's oscillation and r-variation computed alone, as a per-tail loop."""
    tails = [values[i:] for i in range(values.size)]
    osc = [np.max([np.max(np.abs(v[i:] - v[i])) for i in range(v.size)]) for v in tails]
    return np.array(osc), np.array([variational_norm(v, r) for v in tails])


_SERIES = st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n),
    st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n),
    st.sets(st.integers(0, n - 1), max_size=2)))


class TestTailDiagnostics:
    """The one-pass diagnostics of every tail equal the per-tail loop bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(series=_SERIES, complex_values=st.booleans(), with_nan=st.booleans(),
           r=st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.7]))
    def test_matches_per_tail_loop(self, series, complex_values, with_nan, r):
        re_part, im_part, nan_at = series
        v = np.array(re_part) + (1j * np.array(im_part) if complex_values else 0.0)
        if with_nan:
            v[sorted(nan_at)] = np.nan
        avg = AverageSeries(tuple(range(1, v.size + 1)), v)
        osc, vr = tail_diagnostics(avg, r)
        want_osc, want_vr = per_tail_diagnostics(v, r)
        assert np.array_equal(osc, want_osc, equal_nan=True)
        assert np.array_equal(vr, want_vr, equal_nan=True)

    def test_rtt_sim_series(self):
        """The averages rtt-sim reports at its default 17 times, and at 22."""
        tau, x, sg, y, f, g = _SYSTEMS["real"]
        for top in (17, 22):
            avg = return_times_average(f, tau, x, g, sg, y, [2**i for i in range(1, top + 1)])
            osc, vr = tail_diagnostics(avg, 3.0)
            want_osc, want_vr = per_tail_diagnostics(avg.values, 3.0)
            assert np.array_equal(osc, want_osc) and np.array_equal(vr, want_vr)


@pytest.fixture(scope="module")
def corr_setup():
    return Grid(9, 8.0)


class TestKernelAverage:
    def test_constant_pair_gives_kernel_mass(self, corr_setup):
        g = corr_setup
        ones = SampledFunction(g, np.ones(g.n, dtype=complex))
        mass = float(quadrature_khat(np.array([0.0]))[0])  # the kernel integral
        for k in (-1, 0, 2):
            for z in (0.0, 1.0, 5.5):
                assert kernel_average_at(ones, ones, 1.0, z, k) == pytest.approx(mass, abs=1e-8)
        # the grid Riemann sum of K agrees with the quadrature integral
        # loosely at this coarse frequency resolution (tightly at L = 64,
        # covered in the kernel tests)
        assert lp_norm(kernel_samples(g), 1) == pytest.approx(mass, rel=0.05)

    def test_reduces_to_bilinear_quadrature(self, corr_setup):
        # matched-kernel consistency: reflecting g turns the correlation at
        # z = x into the kernel-weighted bilinear average at x
        g = corr_setup
        rng = np.random.default_rng(3)
        f = SampledFunction(g, rng.standard_normal(g.n))
        h = SampledFunction(g, rng.standard_normal(g.n))
        xin = 40
        x = xin * g.dx
        refl = SampledFunction(g, h.values[(2 * xin - np.arange(g.n)) % g.n])
        lhs = kernel_average_at(f, refl, x, x, 0)
        kk = scaled_kernel(g, 0)
        offs = np.arange(g.n)
        direct = np.sum(f.values[(xin + offs) % g.n] * h.values[(xin - offs) % g.n] * kk) * g.dx
        assert abs(lhs - direct) <= 1e-8


class TestBilinearMax:
    def test_constants(self, corr_setup):
        g = corr_setup
        ones = SampledFunction(g, np.ones(g.n, dtype=complex))
        assert symmetric_window_max(ones, ones, 2.0, [0.5, 1.0, 2.0]) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_by_maximal_function(self, corr_setup):
        g = corr_setup
        rng = np.random.default_rng(9)
        f = SampledFunction(g, rng.standard_normal(g.n))
        h = SampledFunction(g, rng.standard_normal(g.n))
        m = hl_maximal(f).values.real
        ginf = np.max(np.abs(h.values))
        ts = [g.dx * 2**i for i in range(2, 8)]
        for xin in (10, 200, 377):
            val = symmetric_window_max(f, h, xin * g.dx, ts)
            assert val <= m[xin] * ginf + 1e-10

    def test_matches_exhaustive_t(self):
        g = Grid(6, 8.0)
        ker_rng = np.random.default_rng(2)
        f = SampledFunction(g, ker_rng.standard_normal(g.n))
        h = SampledFunction(g, ker_rng.standard_normal(g.n))
        all_t = [m * g.dx for m in range(1, g.n // 2 + 1)]
        sparse = [g.dx * 2**i for i in range(0, 5)]
        x = 3.0
        assert symmetric_window_max(f, h, x, sparse) <= symmetric_window_max(f, h, x, all_t) + 1e-15
        best = 0.0
        xi = round(x / g.dx)
        for t in all_t:
            half = round(t / g.dx)
            offs = np.arange(-half, half)
            vals = f.values[(xi + offs) % g.n] * h.values[(xi - offs) % g.n]
            best = max(best, abs(np.sum(vals) * g.dx / (2 * t)))
        assert symmetric_window_max(f, h, x, all_t) == pytest.approx(best, rel=1e-12)

    def test_nan_sample_kept(self, corr_setup):
        # the NaN lies only in the second window, after a finite maximum of 1
        g = corr_setup
        f = SampledFunction(g, np.ones(g.n, dtype=complex))
        f.values[128 + 40] = np.nan
        assert math.isnan(symmetric_window_max(f, f, 128 * g.dx, [0.5, 1.0]))


class TestTails:
    def test_zero_function(self, corr_setup):
        g = corr_setup
        zero = SampledFunction(g, np.zeros(g.n))
        ones = SampledFunction(g, np.ones(g.n, dtype=complex))
        assert integral_tail(zero, ones, 4.0) == 0.0

    def test_integral_tail_windows(self, corr_setup):
        g = corr_setup
        f = SampledFunction.indicator(g, [(0.0, 8.0)])
        val = integral_tail(f, f, 4.0)  # at L = 8 the only window is t = 2
        assert val == pytest.approx(1.0 / (2 * 2.0), rel=1e-9)

    def test_integral_tail_nan_kept(self):
        # windows t = 2 and 4 at L = 16: t = 2 is finite (1/4); the NaN lies only in window t = 4
        g = Grid(10, 16.0)
        f = SampledFunction(g, np.ones(g.n, dtype=complex))
        f.values[64 + round(4.5 / g.dx)] = np.nan
        assert math.isnan(integral_tail(f, f, 64 * g.dx))

    @pytest.mark.parametrize("length", [2.0, 4.0])
    def test_integral_tail_without_window_refused(self, length):
        # below L = 8 no window t = 2, 4, ... has t + 1 < L/2; a sup over none is not the value 0
        g = Grid(8, length)
        f = SampledFunction(g, np.ones(g.n, dtype=complex))
        with pytest.raises(ValueError, match="raise --L to 8 or more"):
            integral_tail(f, f, 0.0)

    @pytest.mark.parametrize("j, length", [(11, 16.0), (9, 16.0), (10, 32.0)])
    def test_integral_tail_other_grid_refused(self, j, length):
        # g on another grid used to be read with f's step and return 0.0
        f = SampledFunction(Grid(10, 16.0), np.ones(1 << 10, dtype=complex))
        g = SampledFunction(Grid(j, length), np.ones(1 << j, dtype=complex))
        with pytest.raises(ValueError, match="g must lie on f's grid"):
            integral_tail(f, g, 4.0)

    def test_spike_sweep_empty_levels(self):
        assert heavy_tail_sweep([], CircleRotation(GOLDEN), 0.15, CircleRotation(SQRT2M1), 0.55, 100) == []

    @pytest.mark.parametrize("eps,message", [
        (0.0, "(0, 1/2), got 0"), (0.5, "(0, 1/2), got 0.5"), (-0.1, "(0, 1/2), got -0.1"),
        (math.nan, "(0, 1/2), got nan"), (1e-300, "level 1e-300 is too sharp"),
    ], ids=["zero", "half", "negative", "nan", "overflow"])
    def test_spike_sweep_bad_level(self, eps, message):
        """A bad level raises before any orbit is built; the overflow check warns of nothing."""
        class NoOrbits:
            def orbit(self, *args):
                raise AssertionError("orbit built before the levels were checked")

        with pytest.raises(ValueError, match=re.escape(message)):
            heavy_tail_sweep([0.02, eps], NoOrbits(), 0.15, NoOrbits(), 0.55, 100)

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_spike_sweep_bad_n_max(self, n_max):
        with pytest.raises(ValueError, match=re.escape(f"n_max >= 1 orbit steps, got n_max = {n_max}")):
            heavy_tail_sweep([0.02], CircleRotation(GOLDEN), 0.15, CircleRotation(SQRT2M1), 0.55, n_max)

    def test_spike_rows_are_the_same_for_every_n_max_from_8(self, tmp_path):
        """The first min(8, n_max) steps decide the spike rows, so they are the same bytes at
        every --n-max >= 8."""
        rows = {}
        for n_max in (8, 9, _BLOCK + 1, 500000):
            out = tmp_path / f"tails{n_max}.csv"
            assert main(["tails", "--n-max", str(n_max), "--out", str(out)]) == 0
            rows[n_max] = [line for line in out.read_text().splitlines() if line.startswith("orbit_tail_spike,")]
        assert len(rows[8]) == 4
        assert all(spike_rows == rows[8] for spike_rows in rows.values())

    def test_spike_sweep_monotone(self):
        tau, sg = CircleRotation(GOLDEN), CircleRotation(SQRT2M1)
        for (x, y) in [(0.15, 0.55), (0.9, 0.3)]:
            vals = heavy_tail_sweep([0.04, 0.02, 0.01, 0.005], tau, x, sg, y, 20000)
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n_max", [1, _BLOCK + 1, 500000])
    def test_bounded_row_is_the_orbit_tail(self, tmp_path, n_max):
        """tails writes its bounded row as the orbit tail of f = g = 1 over the whole walk."""
        out = tmp_path / "tails.csv"
        assert main(["tails", "--x", "0.3", "--y", "0.8", "--n-max", str(n_max), "--out", str(out)]) == 0
        rows = {stat: value for stat, _, value in csv.reader(out.read_text().splitlines()[1:])}
        one = lambda u: np.ones_like(np.asarray(u, dtype=float))
        want = whole_orbit_tail(one, CircleRotation(GOLDEN), 0.3, one, CircleRotation(SQRT2M1), 0.8, n_max)
        assert float(rows["orbit_tail_bounded"]) == want


def whole_return_times_average(f, tau, x, g, sigma, y, n_list):
    """Oracle: the averages from one cumulative sum over the whole orbit."""
    n_list = np.array(sorted(set(n_list)))
    w = np.asarray(f(tau.orbit(x, n_list[-1])), dtype=np.complex128)
    w = w * np.asarray(g(sigma.orbit(y, n_list[-1])), dtype=np.complex128)
    sums_re = np.cumsum(w.real.astype(np.longdouble))[n_list - 1]
    sums_im = np.cumsum(w.imag.astype(np.longdouble))[n_list - 1]
    return (sums_re / n_list).astype(np.float64) + 1j * (sums_im / n_list).astype(np.float64)


def whole_orbit_tail(f_obs, tau, x, g_obs, sigma, y, n_max):
    """Oracle: the tail statistic over the whole orbit at once."""
    fo = np.asarray(f_obs(tau.orbit(x, n_max)), dtype=np.complex128)
    go = np.asarray(g_obs(sigma.orbit(y, n_max)), dtype=np.complex128)
    return float(np.max(np.abs(fo * go) / np.arange(1, n_max + 1)))


def whole_heavy_tail_sweep(levels, tau, x, sigma, y, n_max):
    """Oracle: one whole-orbit tail per level, with that level's normalized spike observables."""
    def distance(u, center):
        d = np.abs(np.asarray(u, dtype=float) - center)
        return np.minimum(d, 1.0 - d)

    def observable(center, eps):
        def spike(u):
            return np.maximum(distance(u, center), eps) ** (-0.9)
        norm = float(spike(np.linspace(0.0, 1.0, 1 << 16, endpoint=False)).mean())
        return lambda u: spike(u) / norm

    n_star = int(np.argmin(distance(tau.orbit(x, min(8, n_max)), 0.5))) + 1
    center_f = float(tau.orbit(x, 1, start=n_star)[0])
    center_g = float(sigma.orbit(y, 1, start=n_star)[0])
    return [whole_orbit_tail(observable(center_f, eps), tau, x, observable(center_g, eps), sigma, y, n_max)
            for eps in levels]


# (tau, x, sigma, y, f, g): two rotations, with complex and with real observables
_SYSTEMS = {
    "rotations": (CircleRotation(GOLDEN), 0.2, CircleRotation(SQRT2M1), 0.7,
                  lambda u: 0.4 + np.cos(2 * np.pi * u) + 0.3j * np.sin(6 * np.pi * u),
                  lambda u: -0.7 + 0.5 * np.sin(4 * np.pi * u)),
    # real observables: rtt-sim's trigonometric polynomials, summed on the real path
    "real": (CircleRotation(GOLDEN), 0.2, CircleRotation(SQRT2M1), 0.7,
             _trig_poly(np.array([0.3, 1.0, -0.5, 0.25, 0.1, -0.05, 0.02])),
             _trig_poly(np.array([-0.7, 0.2, 0.6, -0.1, 0.05, 0.03, -0.01]))),
}
_N_MAX = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]


class TestBlockedStatistics:
    """The blocked orbit statistics equal their whole-orbit oracles bit for bit."""

    @pytest.mark.parametrize("n_max", _N_MAX)
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_return_times_average(self, system, n_max):
        tau, x, sg, y, f, g = _SYSTEMS[system]
        edges = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK, n_max]
        n_list = [n for n in edges if n <= n_max]
        got = return_times_average(f, tau, x, g, sg, y, n_list)
        assert got.n_list == tuple(sorted(set(n_list)))
        assert np.array_equal(got.values, whole_return_times_average(f, tau, x, g, sg, y, n_list))

    @pytest.mark.parametrize("n_max", _N_MAX)
    @pytest.mark.parametrize("system", ["rotations"])
    def test_heavy_tail_sweep(self, system, n_max):
        tau, x, sg, y, _, _ = _SYSTEMS[system]
        levels = [0.04, 0.02, 0.01, 0.005]
        assert heavy_tail_sweep(levels, tau, x, sg, y, n_max) == whole_heavy_tail_sweep(levels, tau, x, sg, y, n_max)

    @pytest.mark.parametrize("levels", [[0.01, 0.04, 0.005, 0.02], [0.02, 0.005, 0.02, 0.005], [0.01], [0.3]])
    def test_heavy_tail_sweep_level_lists(self, levels):
        """Unsorted, duplicated and single levels: each value is its level's own whole-orbit tail."""
        tau, x, sg, y, _, _ = _SYSTEMS["rotations"]
        n_max = _BLOCK + 1
        assert heavy_tail_sweep(levels, tau, x, sg, y, n_max) == whole_heavy_tail_sweep(levels, tau, x, sg, y, n_max)

    @pytest.mark.parametrize("n_max", [1, 8, 16384, 16385, 40000, 500000])
    def test_heavy_tail_sweep_skipped_blocks(self, n_max):
        """Orbits from one step to 31 blocks of the other statistics, at the tails defaults and at
        two other starts."""
        tau, _, sg, _, _, _ = _SYSTEMS["rotations"]
        levels = [0.04, 0.02, 0.01, 0.005]
        for x, y in [(0.15, 0.55), (0.9, 0.3), (0.61, 0.02)]:
            assert heavy_tail_sweep(levels, tau, x, sg, y, n_max) == whole_heavy_tail_sweep(levels, tau, x, sg, y, n_max)

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(0.0, 1.0, exclude_max=True), y=st.floats(0.0, 1.0, exclude_max=True),
           levels=st.lists(st.floats(1e-4, 0.49), min_size=1, max_size=4),
           n_max=st.integers(1, 3 * _BLOCK + 5))
    def test_heavy_tail_sweep_random_starts(self, x, y, levels, n_max):
        tau, _, sg, _, _, _ = _SYSTEMS["rotations"]
        assert heavy_tail_sweep(levels, tau, x, sg, y, n_max) == whole_heavy_tail_sweep(levels, tau, x, sg, y, n_max)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps_min=st.floats(6e-172, 0.49), lift=st.floats(0.0, 1.0))
    @example(seed=0, eps_min=0.005, lift=0.0)
    def test_spike_beyond_its_level_is_at_most_its_cap(self, seed, eps_min, lift):
        """The one floating-point premise of the sweep's first-steps rule: at a circle distance d
        above a level eps >= eps_min, the spike power _spike(d, eps_min) exceeds the level's cap
        _spike(eps, eps_min) by at most a factor 1 + 2^-45.  The distances are the 64 doubles
        just above eps and random ones up to 1/2, each power taken on an array, as the sweep does."""
        rng = np.random.default_rng(seed)
        eps = eps_min + lift * (0.49 - eps_min)
        near = eps + np.spacing(eps) * np.arange(1, 65)
        far = eps + (0.5 - eps) * rng.uniform(0.0, 1.0, 200) ** rng.uniform(1.0, 8.0)
        d = np.concatenate([near, far[far > eps]])
        cap = _spike(np.array([eps_min, eps]), eps_min)[1]
        assert np.all(_spike(d, eps_min) <= cap * (1.0 + 2.0**-45))

    @pytest.mark.parametrize("n_max", [1, 5, 8, 9, _BLOCK + 1, 500000])
    def test_heavy_tail_sweep_reads_only_the_first_steps(self, n_max):
        """The sweep asks each rotation for no orbit step beyond min(8, n_max), and its values are
        the whole-orbit oracle's."""
        class Recording:
            """A rotation that records the furthest orbit step it was asked for."""

            def __init__(self, rotation):
                self.rotation, self.last = rotation, 0

            def orbit(self, x0, n, start=1):
                self.last = max(self.last, start + n - 1)
                return self.rotation.orbit(x0, n, start)

        tau, x, sg, y, _, _ = _SYSTEMS["rotations"]
        levels = [0.04, 0.02, 0.01, 0.005]
        rec_tau, rec_sg = Recording(tau), Recording(sg)
        got = heavy_tail_sweep(levels, rec_tau, x, rec_sg, y, n_max)
        assert 1 <= rec_tau.last <= min(8, n_max) and 1 <= rec_sg.last <= min(8, n_max)
        assert got == whole_heavy_tail_sweep(levels, tau, x, sg, y, n_max)

    def test_return_times_average_mixed_blocks(self):
        """An observable that is complex only on the blocks that meet a short arc: the imaginary
        sums carry across its real blocks."""
        tau, x, sg, y, _, g = _SYSTEMS["rotations"]
        kinds = []

        def f(u):
            w = np.where(np.abs(u - 0.3) < 2e-5, u + 0.5j, u)
            kinds.append(bool(np.any(w.imag)))
            return w if kinds[-1] else w.real

        n_list = [1, _BLOCK, 2 * _BLOCK + 7, 4 * _BLOCK, 6 * _BLOCK - 1]
        got = return_times_average(f, tau, x, g, sg, y, n_list)
        assert True in kinds[:-1] and False in kinds[:-1]  # the oracle's call is the last
        assert np.array_equal(got.values, whole_return_times_average(f, tau, x, g, sg, y, n_list))

    def test_peak_memory(self):
        """Blocks bound the working set: each statistic's traced peak stays under 8 MB."""
        tau, x, sg, y, f, g = _SYSTEMS["rotations"]
        tracemalloc.start()
        try:
            return_times_average(f, tau, x, g, sg, y, [2**i for i in range(1, 21)])
            average_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            heavy_tail_sweep([0.04, 0.02, 0.01, 0.005], tau, 0.15, sg, 0.55, 500_000)
            sweep_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert average_peak < 8 << 20
        assert sweep_peak < 8 << 20


class TestBlowup:
    def test_symmetric_exponents_symmetric_values(self):
        rows = single_scale_blowup(1.5, 1.5, [8])
        assert rows[0].delta_f == rows[0].delta_g

    def test_bounded_regime_flat(self):
        rows = single_scale_blowup(1.25, 2.0, [8, 10])
        assert rows[1].value <= 1.2 * rows[0].value

    def test_unbounded_regime_grows(self):
        rows = single_scale_blowup(1 / 0.65, 1 / 0.95, [8, 10])
        assert rows[1].value >= 1.3 * rows[0].value
