import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import timefreq.wavepackets as wavepackets
from timefreq import Grid, SampledFunction, dft, idft, lp_norm
from timefreq.dyadic import DyadicInterval, Tile
from timefreq.grid import dft_values, idft_values
from timefreq.norms import interval_weight
from timefreq.wavepackets import (
    _NODE_ETA,
    _NODES,
    _QUAD_NODES,
    _STEP_STACK,
    DEFAULT_ORDER,
    FRAME_CONSTANT,
    _eta,
    _lattice,
    frame_deviation,
    gabor_expand,
    gabor_reconstruct,
    kernel_samples,
    khat_lattice,
    khat_progression,
    partition_bump,
    scaled_kernel,
    smooth_step,
    theta_support,
    tile_packet_hat,
    x_slice,
)


@pytest.fixture(scope="module")
def fine():
    return Grid(12, 64.0)


@pytest.fixture(scope="module")
def coarse():
    return Grid(12, 16.0)


def loop_smooth_step(t):
    """Oracle for smooth_step: the Bernstein terms one loop pass each, added in k order."""
    m = DEFAULT_ORDER
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.where(t >= 1.0, 1.0, 0.0)
    inside = (t > 0) & (t < 1)
    ti = t[inside]
    acc = np.zeros_like(ti)
    for k in range(m + 1, 2 * m + 2):
        acc += math.comb(2 * m + 1, k) * ti**k * (1.0 - ti) ** (2 * m + 1 - k)
    out[inside] = acc
    return out


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestSmoothStep:
    def test_bit_identical_to_loop_on_a_million_points(self):
        rng = np.random.default_rng(0)
        near = np.linspace(0.94, 0.96, 20001)  # where the step starts to descend by a few ulps here and there
        t = np.concatenate([rng.uniform(-0.25, 1.25, 10**6), near,
                            [0.0, -0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0), 1e-300, 2.0]])
        assert same_bits(smooth_step(t), loop_smooth_step(t))
        assert np.diff(smooth_step(near).view(np.int64)).min() >= -3  # monotone up to 3 ulps

    def test_bit_identical_at_short_lengths_and_block_edges(self):
        # every count of stacked rows, from all 16 down to 1, on both sides of its length edge
        t = np.random.default_rng(1).uniform(0.0, 1.0, 2 * _STEP_STACK + 1)
        edges = [_STEP_STACK // rows + d for rows in range(1, 17) for d in (0, 1)]
        for size in [*range(1, 71), *edges, 2 * _STEP_STACK + 1]:
            assert same_bits(smooth_step(t[:size]), loop_smooth_step(t[:size])), size

    def test_each_point_equals_its_one_point_call(self):
        # a sum reordered by input length or position would differ here
        t = np.random.default_rng(2).uniform(0.0, 1.0, _STEP_STACK + 300)
        assert same_bits(smooth_step(t), [smooth_step(x)[0] for x in t])


class TestWindow:
    def test_frame_constant(self, fine):
        assert frame_deviation(fine) <= 1e-8

    def test_transform_support(self, fine):
        g = fine
        xi = g.freqs()
        outside = (xi < -1e-12) | (xi > 1.0 + 1e-12)
        assert np.max(np.abs(np.sqrt(partition_bump(xi))[outside])) < 1e-12

    def test_time_decay_envelope(self, fine):
        g = fine
        xs = g.xs()
        x = np.minimum(xs, g.length - xs)
        phi = idft(SampledFunction(g, np.sqrt(partition_bump(g.freqs()))))
        c = np.max(np.abs(phi.values) * (1.0 + x) ** 4)
        # fitted once: the envelope constant stays moderate relative to the peak
        assert c <= 60.0 * np.max(np.abs(phi.values))


def lattice_sizes(g, k):
    """(time positions w0, doubled frequency positions n_freq) of the scale-k lattice."""
    idx, prof = _lattice(g, k)
    return prof.size - 1, idx.shape[0]


def lattice_packet(g, k, m, l):
    """The lattice packet 2^(-k/2) phi(2^-k x - m) e^(2 pi i 2^-k x l), l a half-integer: the
    :func:`gabor_reconstruct` of one unit coefficient at time position m and doubled modulation 2l."""
    w0, n_freq = lattice_sizes(g, k)
    coeffs = np.zeros((n_freq, w0), dtype=np.complex128)
    coeffs[round(2 * l) % n_freq, m] = 1.0
    return gabor_reconstruct(g, coeffs, k)


class TestWavePacket:
    def test_base_packet_is_window(self, fine):
        g = fine
        pk = lattice_packet(g, 0, 0, 0.0)
        assert np.max(np.abs(pk.values - idft(SampledFunction(g, np.sqrt(partition_bump(g.freqs())))).values)) < 1e-12

    @pytest.mark.parametrize("kml", [(0, 3, 1.5), (2, 1, 3.0), (-1, 5, 2.5), (1, 2, -3.0)])
    def test_norm_preserved(self, fine, kml):
        g = fine
        k, m, l = kml
        phi = idft(SampledFunction(g, np.sqrt(partition_bump(g.freqs()))))
        assert lp_norm(lattice_packet(g, k, m, l), 2) == pytest.approx(lp_norm(phi, 2), rel=1e-8)

    def test_transform_support_window(self, fine):
        g = fine
        pk = lattice_packet(g, 2, 1, 3.0)
        xi = g.freqs()
        outside = (xi < 3 * 2.0**-2 - 1e-12) | (xi > 4 * 2.0**-2 + 1e-12)
        assert np.max(np.abs(dft(pk).values[outside])) < 1e-12

    def test_out_of_box_rejected(self, fine):
        # scales whose lattice does not fit the box: 2^8 > L, one time position (L 2^-6 = 1), and
        # more time positions than the frequency torus has rows for
        g = fine
        for k in (8, 6, -20):
            with pytest.raises(ValueError, match="lattice"):
                lattice_packet(g, k, 0, 0.0)


class TestGaborFrame:
    def test_empty_set_zero_coefficients(self, coarse):
        g = coarse
        coeffs = gabor_expand(SampledFunction(g, np.zeros(g.n)), 0)
        assert all(c == 0 for c in coeffs.ravel())
        recon = gabor_reconstruct(g, coeffs, 0)
        assert np.max(np.abs(recon.values)) == 0.0

    def test_parseval(self, coarse):
        g = coarse
        f = SampledFunction.indicator(g, [(0.5, 1.25), (9.0, 9.75)])
        coeffs = gabor_expand(f, 0)
        total = sum(abs(c) ** 2 for c in coeffs.ravel())
        assert total == pytest.approx(FRAME_CONSTANT * lp_norm(f, 2) ** 2, rel=1e-6)

    def test_reconstruction_unit_interval(self, coarse):
        g = coarse
        f = SampledFunction.indicator(g, [(0.0, 1.0)])
        recon = gabor_reconstruct(g, gabor_expand(f, 0), 0)
        assert lp_norm(recon - f, 2) / lp_norm(f, 2) <= 1e-6

    def test_reconstruction_scale_independent(self, coarse):
        g = coarse
        f = SampledFunction.indicator(g, [(2.0, 3.5)])
        r0 = gabor_reconstruct(g, gabor_expand(f, 0), 0)
        r2 = gabor_reconstruct(g, gabor_expand(f, 2), 2)
        assert lp_norm(r0 - r2, 2) / lp_norm(f, 2) <= 1e-6

    def test_random_unions_all_scales(self, coarse):
        g = coarse
        rng = np.random.default_rng(77)
        for _ in range(5):
            ivs = []
            for _ in range(int(rng.integers(1, 4))):
                a = rng.uniform(0, 14)
                ivs.append((a, min(a + rng.uniform(0.1, 1.5), 16.0)))
            f = SampledFunction.indicator(g, ivs)
            for k in (-2, 0, 2):
                recon = gabor_reconstruct(g, gabor_expand(f, k), k)
                assert lp_norm(recon - f, 2) / lp_norm(f, 2) <= 1e-6

    def test_coefficient_decay(self, fine):
        g = fine
        f = SampledFunction.indicator(g, [(0.0, 1.0)])
        coeffs = gabor_expand(f, 0)
        w0 = round(g.length)
        worst = max(
            abs(c) * (1 + min(m, w0 - m)) ** 3 for (l2, m), c in np.ndenumerate(coeffs)
        )
        assert worst <= 8.0  # fitted envelope constant


def _lattice_indices(g, k, l2):
    w0, _ = lattice_sizes(g, k)
    j_start = g.n // 2 + l2 * (w0 // 2)
    return (j_start + np.arange(w0 + 1)) % g.n


def loop_gabor_expand(g, f, k):
    """Oracle for gabor_expand: a dict keyed by (m, l2), one matrix-vector product per l2."""
    w0, n_freq = lattice_sizes(g, k)
    prof = _lattice(g, k)[1]
    fh = dft(f).values
    u = np.arange(w0 + 1) / w0
    mmat = np.exp(2j * np.pi * np.outer(np.arange(w0), u))  # (m, t)
    amp = 2.0 ** (k / 2.0) / g.length
    out: dict[tuple[int, int], complex] = {}
    for l2 in range(n_freq):
        jj = _lattice_indices(g, k, l2)
        gvec = fh[jj] * prof
        cm = amp * (mmat @ gvec)
        for m in range(w0):
            out[(m, l2)] = complex(cm[m])
    return out


def loop_gabor_reconstruct(g, coeffs, k):
    """Oracle for gabor_reconstruct from a (m, l2) dict; missing keys count as zero."""
    w0, n_freq = lattice_sizes(g, k)
    prof = _lattice(g, k)[1]
    u = np.arange(w0 + 1) / w0
    recon_hat = np.zeros(g.n, dtype=np.complex128)
    amp = 2.0 ** (k / 2.0)
    cm = np.zeros(w0, dtype=np.complex128)
    for l2 in range(n_freq):
        cm[:] = 0.0
        seen = False
        for m in range(w0):
            c = coeffs.get((m, l2))
            if c is not None:
                cm[m] = c
                seen = True
        if not seen:
            continue
        st = cm @ np.exp(-2j * np.pi * np.outer(np.arange(w0), u))
        jj = _lattice_indices(g, k, l2)
        np.add.at(recon_hat, jj, amp * prof * st)
    return idft(SampledFunction(g, recon_hat))


@st.composite
def _frame_case(draw):
    j = draw(st.integers(7, 11))
    length = draw(st.sampled_from([8.0, 16.0, 32.0]))
    k = draw(st.integers(-2, 2))
    g = Grid(j, length)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.uniform(0.0, length - 0.5)
        f = SampledFunction.indicator(g, [(a, min(a + rng.uniform(0.05, length / 4), length))])
    else:
        f = SampledFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    return g, f, k


class TestGaborOracles:
    @settings(max_examples=40, deadline=None)
    @given(_frame_case())
    def test_expand_matches_loop(self, case):
        g, f, k = case
        got = gabor_expand(f, k)
        want = loop_gabor_expand(g, f, k)
        w0, n_freq = lattice_sizes(g, k)
        assert got.shape == (n_freq, w0)
        ref = np.array([want[(m, l2)] for l2 in range(n_freq) for m in range(w0)]).reshape(n_freq, w0)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(_frame_case())
    def test_reconstruct_matches_loop(self, case):
        g, f, k = case
        coeffs = gabor_expand(f, k)
        got = gabor_reconstruct(g, coeffs, k).values
        want = loop_gabor_reconstruct(g, {(m, l2): c for (l2, m), c in np.ndenumerate(coeffs)}, k).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_reconstruct_rejects_wrong_shape(self, coarse):
        g = coarse
        coeffs = gabor_expand(SampledFunction(g, np.zeros(g.n)), 0)
        with pytest.raises(ValueError):
            gabor_reconstruct(g, coeffs.T, 0)


class TestKernel:
    def test_positive_with_positive_origin(self, fine):
        g = fine
        vals = kernel_samples(g).values
        assert np.max(np.abs(vals.imag)) == 0.0
        assert np.min(vals.real) >= -1e-12
        assert vals.real[0] > 0.0

    def test_transform_support(self, fine):
        g = fine
        kh = dft(kernel_samples(g))
        xi = g.freqs()
        assert np.max(np.abs(kh.values[np.abs(xi) > 1.0 + 1e-12])) < 1e-12

    def test_two_quadratures_agree(self, fine):
        g = fine
        grid_val = dft(kernel_samples(g)).values[g.n // 2].real
        quad_val = float(quadrature_khat(np.array([0.0]))[0])
        assert abs(grid_val - quad_val) <= 1e-8

    def test_eta_support_and_integral(self):
        xi = np.linspace(-4.0, 4.0, 8193)
        vals = _eta(xi)
        assert np.all(vals[np.abs(xi) > 0.5] == 0.0)
        # the half-shifts of the partition bump sum to one, so its integral is 1/2
        assert np.sum(vals) * (xi[1] - xi[0]) == pytest.approx(0.5, abs=1e-12)

    def test_small_frequency_box_rejected(self):
        """Each function that samples the kernel or the window on a grid refuses a box without its support."""
        g = Grid(6, 64.0)  # the box is [-1/2, 1/2)
        kernel, window = r"must contain the kernel support \[-1, 1\]", r"must contain \[0, 1\]$"
        cases = [
            (lambda: khat_lattice(g, 0), kernel),
            (lambda: scaled_kernel(g, 0), kernel),
            (lambda: x_slice(g, Tile(DyadicInterval(0, 3), DyadicInterval(0, 0)), 0.25), kernel),
            (lambda: kernel_samples(g), kernel),
            (lambda: gabor_expand(SampledFunction(g, np.zeros(g.n)), 0), window),
            (lambda: gabor_reconstruct(g, np.zeros((2, 64)), 0), window),
            (lambda: frame_deviation(g), window),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=message):
                call()

    def test_used_kernels_compare_equal(self):
        """The kernel is a function of its grid: reading its lattice, a scaled kernel and an off-lattice
        slice on two equal grids keeps them equal."""
        grids = [Grid(9, 8.0), Grid(9, 8.0)]
        for g in grids:
            khat_lattice(g, 0)
            scaled_kernel(g, 1)
            x_slice(g, Tile(DyadicInterval(0, 3), DyadicInterval(0, 3)), 3.3)
        assert grids[0] == grids[1]


def quadrature_khat(xi):
    """The test oracle: khat = (eta * eta~)(xi) by the midpoint rule on the 4096 nodes, point by point."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty(xi.shape, dtype=float)
    chunk = 1 << 12
    for i in range(0, xi.size, chunk):
        block = xi[i : i + chunk]
        shifted = _eta(_NODES[None, :-1] - block[:, None])
        out[i : i + chunk] = (shifted * _NODE_ETA[None, :-1]).sum(axis=1) / _QUAD_NODES
    return out


def assert_same_as_quadrature(fast, slow):
    assert np.max(np.abs(fast - slow)) <= 1e-15
    assert np.array_equal(fast == 0.0, slow == 0.0)


@st.composite
def kernel_cases(draw, fractional=False):
    """A kernel on a random grid with a scale k whose lattice is on the nodes, or, with ``fractional``,
    one whose lattice spacing 2^k * 4096 / L is 1/2, 1/4, 1/8 or 1/16 of a node spacing: up to
    J = 15, so the lattice runs past [-1, 1] when q = 1/2 and J = 15."""
    j = draw(st.integers(6, 15 if fractional else 9))
    log_len = draw(st.integers(0, j - 1))  # the frequency box contains [-1, 1]
    if fractional:
        k = log_len - 12 - draw(st.integers(1, 4))
    else:
        # a scale-k tile at the origin fits the box in time and in frequency
        k = draw(st.integers(max(-3, log_len + 1 - j), min(3, log_len)))
    length = 2.0 ** log_len
    g = Grid(j, length)
    return g, k


class TestKernelCorrelation:
    @given(kernel_cases())
    @settings(max_examples=25, deadline=None)
    def test_lattice_matches_quadrature(self, case):
        g, k = case
        assert_same_as_quadrature(khat_lattice(g, k), quadrature_khat(math.ldexp(1.0, k) * g.freqs()))

    # the sub-progressions of a fractional spacing, on the lattice and off it, against the
    # quadrature at up to 32 drawn points (the quadrature of a whole J = 15 lattice takes seconds)
    @given(kernel_cases(fractional=True), st.floats(-1.0, 1.0), st.data())
    @settings(max_examples=25, deadline=None)
    def test_fractional_spacing_matches_quadrature(self, case, where, data):
        g, k = case
        idx = np.array(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=32)))
        step = math.ldexp(1.0, k) * g.dxi
        assert_same_as_quadrature(khat_lattice(g, k)[idx], quadrature_khat(math.ldexp(1.0, k) * g.freqs()[idx]))
        xi = math.ldexp(1.0, k) * (where * g.freq_halfwidth - g.freqs())
        assert_same_as_quadrature(khat_progression(xi, -step)[idx], quadrature_khat(xi[idx]))

    # where = +-1 is the edge of the frequency box, so thetas past it are drawn too
    @given(kernel_cases(), st.floats(-3.0, 3.0), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_x_slice_matches_quadrature(self, case, where, on_lattice):
        g, k = case
        s = Tile(DyadicInterval(k, 0), DyadicInterval(-k, 0))
        theta = where * g.freq_halfwidth
        if on_lattice:
            theta = round(theta / g.dxi) * g.dxi
        xi = math.ldexp(1.0, k) * (theta - g.freqs())
        slow = quadrature_khat(xi)
        assert_same_as_quadrature(khat_progression(xi, -math.ldexp(1.0, k) * g.dxi), slow)
        expected = idft(SampledFunction(g, tile_packet_hat(g, s) * slow)).values
        assert np.max(np.abs(x_slice(g, s, theta) - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_x_slice_near_lattice_not_snapped(self):
        # theta 3.2e-11 off the lattice point 0: reading the lattice there is off by 3e-10 relative
        g = Grid(6, 1.0)
        k, theta = -1, 1e-12 * g.freq_halfwidth
        s = Tile(DyadicInterval(k, 0), DyadicInterval(-k, 0))
        slow = quadrature_khat(math.ldexp(1.0, k) * (theta - g.freqs()))
        expected = idft(SampledFunction(g, tile_packet_hat(g, s) * slow)).values
        assert np.max(np.abs(x_slice(g, s, theta) - expected)) <= 1e-12 * np.max(np.abs(expected))

    # lattice thetas past the box [-32, 32): 32 meets the tile [31, 32) within the kernel
    # support, -96.625 lies beyond it, so its slice is exactly zero
    @pytest.mark.parametrize("theta", [32.0, -96.625])
    def test_x_slice_outside_box(self, theta):
        g = Grid(9, 8.0)
        s = Tile(DyadicInterval(0, 3), DyadicInterval(0, 31))
        expected = idft(SampledFunction(g, tile_packet_hat(g, s) * quadrature_khat(theta - g.freqs()))).values
        got = x_slice(g, s, theta)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.any(got) == np.any(expected) == (theta > 0)

    # f = r / 2^20 keeps every point (c + f) / N exact, so the fraction read back is f itself
    @given(st.integers(0, 2**20 - 1))
    @example(0)
    @settings(max_examples=25, deadline=None)
    def test_each_lag_matches_full_correlation(self, r):
        """At xi = (c + f) / N the read is lag N - 1 - c of the full np.correlate of eta on the nodes
        moved by -f / N with eta on the nodes, bit for bit, at each of the 2N lags."""
        n, f = 4096, r / 2**20
        nodes = -0.5 + (np.arange(n + 1) + 0.5) / n
        corr = np.correlate(_eta(nodes - f / n), _eta(nodes[:-1]), "full") / n
        got = khat_progression((np.arange(-n, n) + f) / n, 1.0 / n)
        assert np.array_equal(got, corr[::-1])

    def test_no_correlation_built_or_kept(self, monkeypatch):
        """With np.correlate refused, the lattice, a progression, a scaled kernel and an off-lattice
        slice still run."""
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel reads lags, not a full correlation")

        monkeypatch.setattr(np, "correlate", refuse)
        g = Grid(9, 8.0)
        khat_lattice(g, 0)
        khat_progression(0.3 + g.dxi * np.arange(16), g.dxi)
        scaled_kernel(g, 1)
        x_slice(g, Tile(DyadicInterval(0, 3), DyadicInterval(0, 3)), 3.3)

    def test_off_node_spacing_matches_quadrature(self):
        g = Grid(6, 8.0)
        k = -10  # 2^k * 4096 / L = 1/2
        assert_same_as_quadrature(khat_lattice(g, k), quadrature_khat(math.ldexp(1.0, k) * g.freqs()))
        xi = 0.3 + math.ldexp(1.0, k) * np.arange(5) / 3
        assert_same_as_quadrature(khat_progression(xi, math.ldexp(1.0, k) / 3), quadrature_khat(xi))

    def test_fractional_spacing_samples_eta_once_per_sub_progression(self, monkeypatch):
        """At q = 2^k * 4096 / L = 1/2 the lattice is two sub-progressions of spacing 1: eta is sampled
        on the nodes at most once for each (the one at f = 0 reads the stored node samples), not on
        4096 nodes for each of the 64 points."""
        sizes = []
        eta = wavepackets._eta
        monkeypatch.setattr(wavepackets, "_eta", lambda xi: sizes.append(np.size(xi)) or eta(xi))
        khat_lattice(Grid(6, 8.0), -10)
        assert sum(sizes) <= 2 * (_QUAD_NODES + 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_xi_refused(self, bad):
        with pytest.raises(ValueError, match="finite xi"):
            khat_progression(np.array([bad, 0.1]), 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_step_refused(self, bad):
        with pytest.raises(ValueError, match="finite step"):
            khat_progression(np.array([0.0, 0.1]), bad)

    def test_empty_progression(self):
        got = khat_progression(np.array([]), 0.25)
        assert got.shape == (0,) and got.dtype == float

    # far outside the support [-1, 1]: the node offsets overflow the integers, and the first step * 4096 is inf
    @pytest.mark.parametrize("xi,step", [([1e306, 2e306], 1e306), ([0.0, 1e17], 1e17), ([3e15, 3e15 + 0.5], 0.5)])
    def test_huge_finite_progression_matches_quadrature(self, xi, step):
        got = khat_progression(np.array(xi), step)
        assert_same_as_quadrature(got, quadrature_khat(xi))

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_x_slice_non_finite_theta_refused(self, theta):
        g = Grid(9, 8.0)
        with pytest.raises(ValueError, match="finite theta"):
            x_slice(g, Tile(DyadicInterval(0, 3), DyadicInterval(0, 3)), theta)


def extended_lattice_slice(g, k):
    """khat on the grid points read as a slice of the extended lattice i 2^k / L, |i| <= n - 1."""
    n = g.n
    step = math.ldexp(1.0, k) * g.dxi
    return khat_progression(step * np.arange(-(n - 1), n), step)[(n - 1) + np.arange(n) - n // 2]


# (J, L, k): integer lattice spacings, and at J, L = 6, 8 with k = -10, -11 the spacings 1/2 and 1/4
@pytest.mark.parametrize("j,length,k", [
    *((j, length, k) for j, length in ((9, 8.0), (11, 32.0), (12, 64.0), (6, 1.0)) for k in range(-2, 2)),
    (6, 8.0, -10), (6, 8.0, -11),
])
def test_khat_lattice_bit_identical_to_extended_slice(j, length, k):
    g = Grid(j, length)
    want = extended_lattice_slice(g, k)
    assert np.array_equal(khat_lattice(g, k), want)
    assert np.array_equal(scaled_kernel(g, k), idft_values(want, g.dx))


def random_tile(g, rng, freq_max=8.0):
    k = int(rng.integers(-2, 2))
    mt = int(rng.integers(0, g.length * 2.0**-k - 1))
    mf = int(rng.integers(0, max(1, int(freq_max * 2.0**k))))
    return Tile(DyadicInterval(k, mt), DyadicInterval(-k, mf))


def theta_slice(g, s, x_index):
    """Oracle: phi_s(x, theta) over all grid thetas at one grid x, one FFT of the shifted packet
    times the scaled kernel; the tile-by-tile form of the check_pointwise_bound families."""
    shifted = np.roll(idft_values(tile_packet_hat(g, s), g.dx), -x_index)
    return dft_values(shifted * scaled_kernel(g, s.scale), g.dx)


class TestModelFunction:
    def test_window_and_kernel_share_a_grid(self):
        # the one test of the names perfbench/workloads.py calls
        from timefreq.wavepackets import build_kernel, build_window, model_function

        w = build_window(Grid(9, 8.0))
        s = Tile(DyadicInterval(0, 0), DyadicInterval(0, 0))
        # equal but distinct Grid objects are one grid
        assert np.array_equal(model_function(w, build_kernel(Grid(9, 8.0)), s).x_slice(0.5), x_slice(w, s, 0.5))
        with pytest.raises(ValueError, match="must share a grid"):
            model_function(w, build_kernel(Grid(9, 16.0)), s)

    def test_theta_support(self, fine):
        g = fine
        s = Tile(DyadicInterval(0, 30), DyadicInterval(0, 3))
        xi = g.freqs()
        sup = theta_support(s)
        vals = theta_slice(g, s, round(s.time.center / g.dx))
        outside = (xi < sup.a - 1e-9) | (xi > sup.b + 1e-9)
        assert np.max(np.abs(vals[outside])) < 1e-10

    def test_x_decay_single_constant(self, fine):
        g = fine
        rng = np.random.default_rng(11)
        cs = []
        for _ in range(20):
            s = random_tile(g, rng)
            vals = np.abs(x_slice(g, s, s.freq.center))
            weight = interval_weight(s.time.to_interval(), g.xs(), 4.0, period=g.length)
            cs.append(np.max(vals / weight) * math.sqrt(s.time.length))
        assert max(cs) <= 12.0  # single fitted constant across tiles

    def test_slice_paths_agree(self, fine):
        g = fine
        s = Tile(DyadicInterval(1, 7), DyadicInterval(-1, 5))
        for jtheta in (g.n // 2 + 100, g.n // 2 + 200):
            theta = (jtheta - g.n // 2) * g.dxi
            xsl = x_slice(g, s, theta)
            for xin in (64, 900, 2048):
                tsl = theta_slice(g, s, xin)
                assert abs(tsl[jtheta] - xsl[xin]) < 1e-12

    def test_against_direct_quadrature(self, fine):
        g = fine
        s = Tile(DyadicInterval(0, 31), DyadicInterval(0, 2))
        packet = idft_values(tile_packet_hat(g, s), g.dx)
        kk = scaled_kernel(g, s.scale)
        ys = g.xs()
        rng = np.random.default_rng(4)
        for _ in range(4):
            xin = int(rng.integers(0, g.n))
            jtheta = int(rng.integers(g.n // 2 - 300, g.n // 2 + 300))
            theta = (jtheta - g.n // 2) * g.dxi
            direct = np.sum(
                np.roll(packet, -xin) * kk * np.exp(-2j * np.pi * theta * ys)
            ) * g.dx
            assert abs(x_slice(g, s, theta)[xin] - direct) < 1e-8


class TestTilePacket:
    def test_unit_norm_and_support(self, fine):
        g = fine
        s = Tile(DyadicInterval(0, 20), DyadicInterval(0, 5))
        pk = SampledFunction(g, idft_values(tile_packet_hat(g, s), g.dx))
        assert lp_norm(pk, 2) == pytest.approx(1.0, abs=1e-9)
        ph = dft(pk).values
        xi = g.freqs()
        outside = (xi < s.freq.left - 1e-12) | (xi > s.freq.right + 1e-12)
        assert np.max(np.abs(ph[outside])) < 1e-12

    def test_vanishes_at_interval_multiples(self, fine):
        g = fine
        s = Tile(DyadicInterval(0, 20), DyadicInterval(0, 5))
        ph = tile_packet_hat(g, s)
        for xi_val in (5.0, 6.0, 4.0):
            j = round(xi_val / g.dxi) + g.n // 2
            assert abs(ph[j]) < 1e-12
