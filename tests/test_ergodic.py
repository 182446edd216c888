import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefreq import Grid, SampledFunction, hl_maximal, lp_norm
from timefreq.ergodic import (
    CircleRotation,
    IntervalExchange,
    TorusProduct,
    bilinear_max,
    convergence_diagnostic,
    correlation_proxy,
    heavy_tail_sweep,
    integral_tail,
    kernel_average,
    kernel_average_at,
    kernel_average_max,
    orbit_tail,
    return_times_average,
    single_scale_blowup,
)
from timefreq.ergodic import _BLOCK
from timefreq.grid import dft_values, idft_values
from timefreq.wavepackets import build_kernel


def single_scale_average(f, g, ker, x, k):
    """Oracle: one scale's kernel correlation by 1-D transforms."""
    grid = f.grid
    h = np.roll(f.values, -int(round(x / grid.dx))) * ker.scaled_time(k)
    rev = dft_values(h, grid.dx)[(grid.n - np.arange(grid.n)) % grid.n]
    return idft_values(dft_values(g.values, grid.dx) * rev, grid.dx)


def loop_kernel_average_max(f, g, ker, x, k_list):
    """Oracle: the pointwise maximum over a loop of single-scale correlations."""
    out = np.zeros(f.grid.n)
    for k in k_list:
        np.maximum(out, np.abs(single_scale_average(f, g, ker, x, k)), out=out)
    return out


GOLDEN = (math.sqrt(5) - 1) / 2
SQRT2M1 = math.sqrt(2) - 1


def uniform_chisq(samples, bins=32):
    counts, _ = np.histogram(samples, bins=bins, range=(0.0, 1.0))
    expected = len(samples) / bins
    return float(np.sum((counts - expected) ** 2 / expected))


class TestSystems:
    @pytest.mark.parametrize(
        "system",
        [
            CircleRotation(GOLDEN),
            IntervalExchange(
                (math.sqrt(2) - 1, math.sqrt(3) - 1.5, 3.5 - math.sqrt(2) - math.sqrt(3)),
                (2, 1, 0),
            ),
        ],
    )
    def test_measure_preserving_histogram(self, system):
        orbit = system.orbit(0.123, 40000)
        # 95th percentile of chi-square with 31 dof is ~45; equidistributed
        # orbits of uniquely ergodic systems land well under a lax threshold
        assert uniform_chisq(orbit) < 120.0

    def test_torus_product_components(self):
        sys2 = TorusProduct(GOLDEN, SQRT2M1)
        orbit = sys2.orbit((0.2, 0.7), 40000)
        assert orbit.shape == (40000, 2)
        assert uniform_chisq(orbit[:, 0]) < 120.0
        assert uniform_chisq(orbit[:, 1]) < 120.0

    def test_orbit_exactness_no_drift(self):
        rot = CircleRotation(GOLDEN)
        one_step = rot.orbit(0.0, 1, start=10**6)[0]
        # recompute by modular arithmetic with integers
        step = int((GOLDEN % 1.0) * 2**64)
        expected = ((step * 10**6) % 2**64) / 2**64
        assert one_step == pytest.approx(expected, abs=1e-15)

    def test_interval_exchange_validation(self):
        with pytest.raises(ValueError):
            IntervalExchange((0.5, 0.6), (1, 0))
        with pytest.raises(ValueError):
            IntervalExchange((0.5, 0.5), (0, 0))


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
    def test_constant_series(self):
        from timefreq.ergodic import AverageSeries

        series = AverageSeries((1, 2, 4), np.array([2.0, 2.0, 2.0]))
        osc, vr = convergence_diagnostic(series, 3.0)
        assert osc == 0.0 and vr == 2.0

    def test_single_jump(self):
        from timefreq.ergodic import AverageSeries

        series = AverageSeries((1, 2), np.array([0.0, 1.0]))
        osc, vr = convergence_diagnostic(series, 3.0)
        assert osc == 1.0 and vr == 2.0

    def test_geometric_tail(self):
        from timefreq.ergodic import AverageSeries

        ns = list(range(3, 12))
        vals = np.array([2.0**-n for n in ns])
        osc, _ = convergence_diagnostic(AverageSeries(tuple(ns), vals), 3.0)
        assert osc <= 2.0 ** (-ns[0] + 1)


@pytest.fixture(scope="module")
def corr_setup():
    g = Grid(9, 8.0)
    return g, build_kernel(g)


class TestKernelAverage:
    def test_constant_pair_gives_kernel_mass(self, corr_setup):
        g, ker = corr_setup
        ones = SampledFunction(g, np.ones(g.n, dtype=complex))
        mass = float(ker.khat(np.array([0.0]))[0])  # the kernel integral
        for k in (-1, 0, 2):
            vals = kernel_average(ones, ones, ker, 1.0, k).values
            assert np.allclose(vals.real, mass, atol=1e-8)
        # the grid Riemann sum of K agrees with the quadrature integral
        # loosely at this coarse frequency resolution (tightly at L = 64,
        # covered in the kernel tests)
        assert lp_norm(ker.K, 1) == pytest.approx(mass, rel=0.05)

    def test_fft_matches_direct(self, corr_setup):
        g, ker = corr_setup
        rng = np.random.default_rng(12)
        f = SampledFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        h = SampledFunction(g, rng.standard_normal(g.n))
        x = 16 * g.dx
        for k in (0, 1):
            vals = kernel_average(f, h, ker, x, k).values
            for zi in (3, 100, 400):
                direct = kernel_average_at(f, h, ker, x, zi * g.dx, k)
                assert abs(vals[zi] - direct) <= 1e-8

    def test_reduces_to_bilinear_quadrature(self, corr_setup):
        # matched-kernel consistency: reflecting g turns the correlation at
        # z = x into the kernel-weighted bilinear average at x
        g, ker = corr_setup
        rng = np.random.default_rng(3)
        f = SampledFunction(g, rng.standard_normal(g.n))
        h = SampledFunction(g, rng.standard_normal(g.n))
        xin = 40
        x = xin * g.dx
        refl = SampledFunction(g, h.values[(2 * xin - np.arange(g.n)) % g.n])
        lhs = kernel_average_at(f, refl, ker, x, x, 0)
        kk = ker.scaled_time(0)
        offs = np.arange(g.n)
        direct = np.sum(f.values[(xin + offs) % g.n] * h.values[(xin - offs) % g.n] * kk) * g.dx
        assert abs(lhs - direct) <= 1e-8

    @given(st.integers(6, 10), st.sampled_from([2.0, 4.0, 8.0]), st.floats(0.0, 1.0),
           st.lists(st.integers(-2, 3), max_size=4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_max_matches_per_scale_loop(self, j, length, where, k_list, seed):
        g = Grid(j, length)
        ker = build_kernel(g)
        rng = np.random.default_rng(seed)
        f = SampledFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        h = SampledFunction(g, rng.standard_normal(g.n))
        x = int(where * (g.n - 1)) * g.dx
        expected = loop_kernel_average_max(f, h, ker, x, k_list)
        assert np.array_equal(kernel_average_max(f, h, ker, x, k_list).values, expected)
        for k in k_list:
            assert np.array_equal(kernel_average(f, h, ker, x, k).values, single_scale_average(f, h, ker, x, k))

    def test_max_dominates_scales(self, corr_setup):
        g, ker = corr_setup
        rng = np.random.default_rng(5)
        f = SampledFunction(g, rng.standard_normal(g.n))
        h = SampledFunction(g, rng.standard_normal(g.n))
        sup = kernel_average_max(f, h, ker, 0.5, [0, 1, 2]).values.real
        for k in (0, 1, 2):
            assert np.all(sup >= np.abs(kernel_average(f, h, ker, 0.5, k).values) - 1e-12)

    def test_proxy_refinement_drift(self):
        # duality-regime check (1/p + 1/q <= 1): the proxy norm ratio drifts
        # at most twenty percent across refinements
        p = 2.0
        vals = {}
        for j in (8, 10, 12):
            g = Grid(j, 8.0)
            ker = build_kernel(g)
            f = SampledFunction.indicator(g, [(2.0, 3.0)])
            idx = np.arange(0, g.n, g.n // 32)
            proxy = correlation_proxy(f, ker, 2.0, [0, 1], idx, n_candidates=4, seed=0)
            vals[j] = (np.sum(proxy**p) * (g.length / 32)) ** (1.0 / p) / lp_norm(f, p)
        drift = max(vals.values()) / min(vals.values())
        assert drift <= 1.2


class TestBilinearMax:
    def test_constants(self, corr_setup):
        g, _ = corr_setup
        ones = SampledFunction(g, np.ones(g.n, dtype=complex))
        assert bilinear_max(ones, ones, 2.0, [0.5, 1.0, 2.0]) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_by_maximal_function(self, corr_setup):
        g, _ = corr_setup
        rng = np.random.default_rng(9)
        f = SampledFunction(g, rng.standard_normal(g.n))
        h = SampledFunction(g, rng.standard_normal(g.n))
        m = hl_maximal(f).values.real
        ginf = np.max(np.abs(h.values))
        ts = [g.dx * 2**i for i in range(2, 8)]
        for xin in (10, 200, 377):
            val = bilinear_max(f, h, xin * g.dx, ts)
            assert val <= m[xin] * ginf + 1e-10

    def test_matches_exhaustive_t(self):
        g = Grid(6, 8.0)
        ker_rng = np.random.default_rng(2)
        f = SampledFunction(g, ker_rng.standard_normal(g.n))
        h = SampledFunction(g, ker_rng.standard_normal(g.n))
        all_t = [m * g.dx for m in range(1, g.n // 2 + 1)]
        sparse = [g.dx * 2**i for i in range(0, 5)]
        x = 3.0
        assert bilinear_max(f, h, x, sparse) <= bilinear_max(f, h, x, all_t) + 1e-15
        best = 0.0
        xi = round(x / g.dx)
        for t in all_t:
            half = round(t / g.dx)
            offs = np.arange(-half, half)
            vals = f.values[(xi + offs) % g.n] * h.values[(xi - offs) % g.n]
            best = max(best, abs(np.sum(vals) * g.dx / (2 * t)))
        assert bilinear_max(f, h, x, all_t) == pytest.approx(best, rel=1e-12)


class TestTails:
    def test_bounded_observables(self):
        tau, sg = CircleRotation(GOLDEN), CircleRotation(SQRT2M1)
        f = lambda u: 0.8 * np.ones_like(np.asarray(u, dtype=float))
        g2 = lambda u: 1.5 * np.ones_like(np.asarray(u, dtype=float))
        assert orbit_tail(f, tau, 0.2, g2, sg, 0.3, 500) <= 0.8 * 1.5 + 1e-12

    def test_zero_function(self, corr_setup):
        g, _ = corr_setup
        zero = SampledFunction.zero(g)
        ones = SampledFunction(g, np.ones(g.n, dtype=complex))
        assert integral_tail(zero, ones, 4.0) == 0.0
        tau, sg = CircleRotation(GOLDEN), CircleRotation(SQRT2M1)
        zf = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        of = lambda u: np.ones_like(np.asarray(u, dtype=float))
        assert orbit_tail(zf, tau, 0.1, of, sg, 0.2, 100) == 0.0

    def test_integral_tail_windows(self, corr_setup):
        g, _ = corr_setup
        f = SampledFunction.indicator(g, [(0.0, 8.0)])
        val = integral_tail(f, f, 4.0, t_list=[2.0])
        assert val == pytest.approx(1.0 / (2 * 2.0), rel=1e-9)
        with pytest.raises(ValueError):
            integral_tail(f, f, 4.0, t_list=[0.5])

    def test_spike_sweep_monotone(self):
        tau, sg = CircleRotation(GOLDEN), CircleRotation(SQRT2M1)
        for (x, y) in [(0.15, 0.55), (0.9, 0.3)]:
            vals = heavy_tail_sweep([0.04, 0.02, 0.01, 0.005], tau, x, sg, y, 20000)
            assert all(b > a for a, b in zip(vals, vals[1:]))


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


IET = IntervalExchange((math.sqrt(2) - 1, math.sqrt(3) - 1.5, 3.5 - math.sqrt(2) - math.sqrt(3)), (2, 1, 0))
# (tau, x, sigma, y, f, g): rotations, a torus against a rotation, one exchange walked from two points
_SYSTEMS = {
    "rotations": (CircleRotation(GOLDEN), 0.2, CircleRotation(SQRT2M1), 0.7,
                  lambda u: 0.4 + np.cos(2 * np.pi * u) + 0.3j * np.sin(6 * np.pi * u),
                  lambda u: -0.7 + 0.5 * np.sin(4 * np.pi * u)),
    "torus": (TorusProduct(GOLDEN, SQRT2M1), (0.2, 0.9), CircleRotation(SQRT2M1), 0.7,
              lambda p: np.cos(2 * np.pi * p[:, 0]) + 1j * np.sin(2 * np.pi * p[:, 1]),
              lambda u: np.exp(-u) + 0.1),
    "exchange": (IET, 0.123, IET, 0.456, lambda u: np.cos(2 * np.pi * u) - 0.2j, lambda u: u - 0.5),
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
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_orbit_tail(self, system, n_max):
        tau, x, sg, y, f, g = _SYSTEMS[system]
        assert orbit_tail(f, tau, x, g, sg, y, n_max) == whole_orbit_tail(f, tau, x, g, sg, y, n_max)

    @pytest.mark.parametrize("n_max", _N_MAX)
    @pytest.mark.parametrize("system", ["exchange", "rotations"])
    def test_heavy_tail_sweep(self, system, n_max):
        tau, x, sg, y, _, _ = _SYSTEMS[system]
        levels = [0.04, 0.02, 0.01, 0.005]
        assert heavy_tail_sweep(levels, tau, x, sg, y, n_max) == whole_heavy_tail_sweep(levels, tau, x, sg, y, n_max)

    def test_exchange_blocks_resume(self, monkeypatch):
        """A blocked walk over an interval exchange makes n steps per orbit, not a replay per block."""
        calls = []
        step = IntervalExchange._step
        monkeypatch.setattr(IntervalExchange, "_step", staticmethod(lambda *a: calls.append(1) or step(*a)))
        iet = IntervalExchange(IET.lengths, IET.permutation)
        n = 3 * _BLOCK + 5
        f = lambda u: u
        return_times_average(f, iet, 0.123, f, iet, 0.456, [n])
        assert len(calls) == 2 * n
        calls.clear()
        orbit_tail(f, iet, 0.3, f, iet, 0.8, n)
        assert len(calls) == 2 * n

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
