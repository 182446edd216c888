import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timefreq import Grid, SampledFunction, norms, trees
from timefreq.dyadic import DyadicInterval, Interval, Tile, TileUniverse
from timefreq.grid import dft, idft, idft_values, lp_norm_values
from timefreq.norms import (
    _POSITIONS,
    AdaptedBump,
    _base_profile,
    adapted_family,
    bump_values,
    interval_weight,
    make_adapted_bump,
    maximal_multiplier_lower,
    per_tile_sizes,
    tile_size,
    variational_norm,
)
from timefreq.wavepackets import tile_packet_hat


def oracle_variation(seq, r):
    """Exhaustive maximum over all increasing index subsequences."""
    seq = list(seq)
    n = len(seq)
    best = 0.0
    for size in range(2, n + 1):
        for idx in itertools.combinations(range(n), size):
            tot = sum(abs(seq[b] - seq[a]) ** r for a, b in zip(idx, idx[1:]))
            best = max(best, tot)
    sup = max(abs(v) for v in seq)
    return sup + best ** (1.0 / r) if best > 0 else sup


class TestVariationalNorm:
    def test_constant_sequence(self):
        # no variation: the norm is the sup part exactly
        assert variational_norm([3.0, 3.0, 3.0], 2.0) == 3.0

    def test_single_jump(self):
        for r in (1.0, 2.0, 3.0, 7.5):
            assert variational_norm([0.0, 1.0], r) == pytest.approx(2.0)

    def test_up_down(self):
        assert variational_norm([0.0, 1.0, 0.0], 2.0) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_rejects_r_below_one(self):
        with pytest.raises(ValueError):
            variational_norm([1.0, 2.0], 0.9)

    @pytest.mark.parametrize("values,r", [
        ([1.0, 2.0], math.nan),  # r NaN
        ([], 2.0),  # empty sequence
        (np.zeros((0, 3)), 2.0),  # no scales
        (np.zeros((2, 3, 4)), 2.0),  # 3-D
        (1.0, 2.0),  # scalar
    ])
    def test_rejects_bad_input(self, values, r):
        with pytest.raises(ValueError):
            variational_norm(values, r)

    @given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=12),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]))
    @settings(max_examples=100, deadline=None)
    def test_sequence_equals_one_column(self, seq, r):
        got = variational_norm(seq, r)
        assert type(got) is float
        column = variational_norm(np.array(seq)[:, None], r)
        assert column.shape == (1,) and got == column[0]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_small(self, n):
        for seq in itertools.product((-1, 0, 1), repeat=n):
            got = variational_norm(np.array(seq, dtype=float), 3.0)
            assert got == pytest.approx(oracle_variation(seq, 3.0), abs=1e-12)

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8),
           st.sampled_from([1.5, 2.0, 3.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_random(self, seq, r):
        got = variational_norm(seq, r)
        assert got == pytest.approx(oracle_variation(seq, r), abs=1e-10)

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_r_and_dominates_sup(self, seq):
        v2 = variational_norm(seq, 2.0)
        v3 = variational_norm(seq, 3.0)
        v5 = variational_norm(seq, 5.0)
        assert v2 >= v3 - 1e-12 >= v5 - 2e-12
        assert v3 >= max(abs(v) for v in seq) - 1e-12

    def test_subadditive(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.standard_normal(9)
            b = rng.standard_normal(9)
            va = variational_norm(a, 3.0)
            vb = variational_norm(b, 3.0)
            assert variational_norm(a + b, 3.0) <= va + vb + 1e-10

    def test_field_matches_scalar(self):
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
        field = variational_norm(vals, 3.0)
        assert field.shape == (40,)
        for i in (0, 7, 39):
            assert field[i] == pytest.approx(variational_norm(vals[:, i], 3.0), abs=1e-12)

    @given(st.integers(1, 7), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 2.0, 3.0, 4.5]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_field_matches_scalar_every_column(self, k, n, seed, r, quantized):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        if quantized:  # ties and repeated values
            vals = np.round(vals)
        field = variational_norm(vals, r)
        for i in range(n):
            scalar = variational_norm(vals[:, i], r)
            assert field[i] == pytest.approx(scalar, rel=1e-12, abs=1e-15)


class TestIntervalWeight:
    def test_center_and_one_length(self):
        iv = Interval(2.0, 4.0)
        assert interval_weight(iv, 3.0, 1.0, period=16.0) == pytest.approx(1.0)
        assert interval_weight(iv, 5.0, 1.0, period=16.0) == pytest.approx(0.5)  # distance == length

    def test_monotone(self):
        iv = Interval(0.0, 1.0)
        xs = np.linspace(0.5, 10.0, 50)
        w = interval_weight(iv, xs, power=4.0, period=32.0)  # a period past twice every distance
        assert np.all(np.diff(w) <= 1e-15)

    def test_periodic_distance(self):
        iv = Interval(0.0, 1.0)  # center 0.5
        near_wrap = float(interval_weight(iv, 15.6, 1.0, period=16.0))
        assert near_wrap == pytest.approx(1.0 / (1.0 + 0.9), rel=1e-12)
        plain = float(interval_weight(iv, 15.6, 1.0, period=32.0))  # 32 - 15.1 > 15.1: no wrap
        assert plain == pytest.approx(1.0 / (1.0 + 15.1), rel=1e-12)


def single_bump(bump, xi):
    """Oracle for bump_values: one bump evaluated on its own."""
    pos = _POSITIONS[bump.variant % len(_POSITIONS)]
    mod = bump.variant // len(_POSITIONS)
    a = bump.omega.a + pos[0] * bump.omega.length
    w = (pos[1] - pos[0]) * bump.omega.length
    t = (np.asarray(xi, dtype=float) - a) / w
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros(t.shape, dtype=np.complex128)
    tv = t[inside]
    out[inside] = bump.amplitude * _base_profile(tv) * np.exp(2j * np.pi * mod * tv)
    return out


class TestAdaptedBump:
    def test_support_exact(self):
        g = Grid(10, 16.0)
        bump = make_adapted_bump(Interval(1.0, 3.0), 0)
        xi = g.freqs()
        vals = bump_values([bump], xi)[0]
        assert np.all(vals[(xi <= 1.0) | (xi >= 3.0)] == 0.0)

    @pytest.mark.parametrize("variant", range(8))
    def test_derivative_bound(self, variant):
        iv = Interval(0.0, 2.0)
        bump = make_adapted_bump(iv, variant)
        t = np.linspace(-0.5, 2.5, 20001)
        vals = bump_values([bump], t)[0]
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        deriv = np.abs(np.diff(vals)) / (t[1] - t[0])
        assert np.max(deriv) <= 1.0 / iv.length + 0.05

    def test_dilation_covariance(self):
        small = make_adapted_bump(Interval(0.0, 1.0), 1)
        big = make_adapted_bump(Interval(-0.5, 1.5), 1)
        ts = np.linspace(0.0, 1.0, 257)
        assert np.allclose(bump_values([small], ts)[0], bump_values([big], -0.5 + 2.0 * ts)[0], atol=0)

    @given(st.lists(st.tuples(st.floats(-20, 20), st.floats(0.01, 8), st.integers(0, 15),
                              st.floats(1e-3, 3)), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bump_values_bit_identical_to_single_bump(self, specs, seed):
        bumps = [AdaptedBump(Interval(a, a + length), v, amplitude) for a, length, v, amplitude in specs]
        rng = np.random.default_rng(seed)
        ends = [p for b in bumps for p in (b.omega.a, b.omega.b, b.omega.center)]
        xi = np.concatenate([rng.uniform(-25, 30, 40), ends])
        table = bump_values(bumps, xi)
        for bump, row in zip(bumps, table):
            assert np.array_equal(row, single_bump(bump, xi))
        # one point per bump
        own = rng.uniform(-25, 30, len(bumps))
        column = bump_values(bumps, own[:, None])[:, 0]
        for bump, x, val in zip(bumps, own, column):
            assert np.array_equal(val, single_bump(bump, np.array([x]))[0])


def loop_maximal_multiplier_lower(multipliers, grid, q, search_budget=60, seed=0):
    """Oracle for maximal_multiplier_lower: one FFT per multiplier."""
    ms = [np.asarray(m, dtype=np.complex128) for m in multipliers]
    if not ms or all(np.max(np.abs(m)) == 0.0 for m in ms):
        return 0.0
    rng = np.random.default_rng(seed)
    qq = q / (q - 1.0) if q > 1 else math.inf

    def dual_map(v, p):
        a = np.abs(v)
        top = a.max()
        if top == 0.0:
            return v
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(a > 0, (a / top) ** (p - 1.0), 0.0) * np.where(a > 0, v / a, 0.0)

    def objective(ghat):
        fields = np.stack([idft(SampledFunction(grid, m * ghat)).values for m in ms])
        gq = lp_norm_values(idft(SampledFunction(grid, ghat)).values, grid.dx, q)
        if gq == 0.0:
            return 0.0, None, None
        sup = np.abs(fields).max(axis=0)
        return lp_norm_values(sup, grid.dx, q) / gq, fields, np.abs(fields).argmax(axis=0)

    n = grid.n
    stack = []
    for m in ms[: max(1, search_budget // 6)]:
        a = np.abs(m)
        if a.max() > 0:
            stack.append(np.conj(m) / a.max())
            bump = np.zeros(n, dtype=np.complex128)
            peak = int(np.argmax(a))
            bump[max(0, peak - 4) : min(n, peak + 5)] = 1.0
            stack.append(bump)
    flat = np.zeros(n, dtype=np.complex128)
    flat[n // 2] = 1.0
    stack += [flat, np.ones(n, dtype=np.complex128)]
    best, evals = 0.0, 0
    while evals < search_budget:
        ghat = stack.pop(0) if stack else rng.standard_normal(n) + 1j * rng.standard_normal(n)
        evals += 1
        val, fields, argmax = objective(ghat)
        best = max(best, val)
        if fields is None:
            continue
        for _ in range(3):
            if evals >= search_budget:
                break
            u = dual_map(fields[argmax, np.arange(n)], q)
            what = np.zeros(n, dtype=np.complex128)
            for ki, m in enumerate(ms):
                mask = (argmax == ki).astype(np.complex128)
                what += np.conj(m) * dft(SampledFunction(grid, u * mask)).values
            if np.max(np.abs(what)) == 0.0:
                break
            gnew = dual_map(idft(SampledFunction(grid, what)).values, qq if q > 1 else 2.0)
            evals += 1
            val, fields, argmax = objective(dft(SampledFunction(grid, gnew)).values)
            best = max(best, val)
            if fields is None:
                break
    return best


class TestMaximalMultiplierLower:
    @given(st.integers(3, 10), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 1.3, 1.5, 2.0]), st.integers(1, 60), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_multiplier_loop(self, j, count, seed, q, budget, sparse):
        g = Grid(j, 8.0)
        rng = np.random.default_rng(seed)
        fam = rng.standard_normal((count, g.n)) + 1j * rng.standard_normal((count, g.n))
        if sparse:  # bump-like multipliers, some of them zero
            fam *= rng.random((count, g.n)) < rng.uniform(0.0, 0.3, (count, 1))
        fam = list(fam)
        got = maximal_multiplier_lower(fam, g, q, budget, seed % 7)
        assert got == loop_maximal_multiplier_lower(fam, g, q, budget, seed % 7)

    @given(st.integers(3, 9), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 1.3, 1.5, 2.0]), st.integers(0, 60))
    # one or two rows have 4 or 6 starts, so budgets above 16 or 24 reach the random restarts
    @example(j=6, families=4, rows=1, seed=11, q=1.5, budget=60)
    @example(j=5, families=3, rows=2, seed=12, q=1.3, budget=45)
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_each_family_alone(self, j, families, rows, seed, q, budget):
        g = Grid(j, 8.0)
        rng = np.random.default_rng(seed)
        shape = (families, rows, g.n)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack *= rng.random(shape) < rng.uniform(0.0, 0.3, (families, rows, 1))  # bump-like rows
        stack[rng.random((families, rows)) < 0.25] = 0.0  # some all-zero rows
        stack[rng.integers(families)] = 0.0  # and an all-zero family
        got = maximal_multiplier_lower(stack, g, q, budget, seed % 7)
        assert got.shape == (families,)
        for family, value in zip(stack, got):
            assert value == loop_maximal_multiplier_lower(list(family), g, q, budget, seed % 7)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_ties_match_loop(self, q):
        # a repeated multiplier ties with its copy at every point, where the first index must win as in
        # argmax (a last-index rule moves the copy's term in the ascent's sum over scales); an all-zero
        # multiplier ties with the other fields wherever they vanish
        g = Grid(6, 8.0)
        rng = np.random.default_rng(3)
        a, b, c = rng.standard_normal((3, g.n)) + 1j * rng.standard_normal((3, g.n))
        zero = np.zeros(g.n, dtype=complex)
        for family in ([a, b, c, a], [a, a], [zero, a], [zero, zero], [a, zero, b, a]):
            assert maximal_multiplier_lower(family, g, q, 40, 2) == loop_maximal_multiplier_lower(family, g, q, 40, 2)

    def test_non_finite_multiplier_refused(self):
        # a NaN or infinite entry would spread through every field of its multiplier, so no evaluation
        # is a number; the search refuses the stack before it starts and names the family
        g = Grid(6, 8.0)
        rng = np.random.default_rng(3)
        fam = rng.standard_normal((3, g.n)) + 1j * rng.standard_normal((3, g.n))
        for row, col in [(0, 5), (1, 0), (2, 63)]:
            bad = fam.copy()
            bad[row, col] = np.nan
            for q in (1.0, 1.5, 2.0):
                with pytest.raises(ValueError, match="multiplier family 0 has a non-finite entry"):
                    maximal_multiplier_lower(bad, g, q, 30, 1)
        bad = np.stack([fam, fam])
        bad[1, 0, 9] = np.nan
        with pytest.raises(ValueError, match="multiplier family 1 has a non-finite entry"):
            maximal_multiplier_lower(bad, g, 1.5, 30, 1)
        for value in (np.inf, complex(0.0, -np.inf)):
            bad = np.stack([fam, fam, fam])
            bad[2, 1, 7] = value
            with pytest.raises(ValueError, match="multiplier family 2 has a non-finite entry"):
                maximal_multiplier_lower(bad, g, 1.5, 30, 1)

    @pytest.mark.parametrize("shape", [(6, 512), (2, 3, 512), (512,)])
    def test_family_off_the_grid_refused(self, shape):
        # rows of 512 samples on a 256-sample grid: (6, 512) used to be read as (1, 12, 256)
        with pytest.raises(ValueError, match=r"multipliers must have shape \(m, 256\)"):
            maximal_multiplier_lower(np.ones(shape, dtype=complex), Grid(8, 8.0), 1.5, 20, 0)

    def test_identity_family(self):
        g = Grid(8, 8.0)
        val = maximal_multiplier_lower([np.ones(g.n, dtype=complex)], g, 1.5, 20, 0)
        assert val >= 1.0 - 1e-6

    def test_zero_family(self):
        g = Grid(8, 8.0)
        assert maximal_multiplier_lower([np.zeros(g.n, dtype=complex)], g, 1.5, 60, 0) == 0.0
        assert maximal_multiplier_lower([], g, 1.5, 60, 0) == 0.0
        assert maximal_multiplier_lower(np.zeros((2, 0, g.n)), g, 1.5, 60, 0).tolist() == [0.0, 0.0]

    def test_deterministic(self):
        g = Grid(7, 8.0)
        rng = np.random.default_rng(2)
        fam = [rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n) for _ in range(3)]
        a = maximal_multiplier_lower(fam, g, 1.3, 30, seed=5)
        b = maximal_multiplier_lower(fam, g, 1.3, 30, seed=5)
        assert a == b

    def test_budget_monotone_oracle(self):
        # the larger-budget run with the same seed explores a superset of
        # candidates, so it dominates and serves as the net oracle
        g = Grid(6, 8.0)
        bump = make_adapted_bump(Interval(0.0, 2.0), 0)
        fam = bump_values([bump], g.freqs())
        small = maximal_multiplier_lower(fam, g, 1.5, search_budget=40, seed=0)
        oracle = maximal_multiplier_lower(fam, g, 1.5, search_budget=400, seed=0)
        assert small <= oracle + 1e-12
        assert small >= 0.95 * oracle


def loop_tile_sizes(tiles, f, family_size=8, weight_power=10.0):
    """Oracle for per_tile_sizes: each tile's bump family, one bump at a time."""
    grid = f.grid
    fhat = dft(f).values
    out = {}
    for s in tiles:
        omega10 = s.freq.to_interval().dilate(10.0)
        omega10 = Interval(max(omega10.a, -grid.freq_halfwidth), min(omega10.b, grid.freq_halfwidth))
        weight = interval_weight(s.time.to_interval(), grid.xs(), weight_power, period=grid.length)
        inv_sqrt = 1.0 / math.sqrt(s.time.length)
        best = 0.0
        for bump in adapted_family(omega10, family_size):
            tvals = idft(SampledFunction(grid, bump_values([bump], grid.freqs())[0] * fhat)).values
            best = max(best, inv_sqrt * lp_norm_values(weight * tvals, grid.dx, 2))
        out[s] = best
    return out


@st.composite
def size_cases(draw):
    """A grid, an input (random or an indicator) and a box universe of tiles."""
    j = draw(st.integers(7, 10))
    g = Grid(j, 2.0 ** draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        f = SampledFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    else:
        a = rng.uniform(0.0, 0.8 * g.length)
        f = SampledFunction.indicator(g, [(a, a + rng.uniform(0.1, 0.2) * g.length)])
    k_min = draw(st.integers(-2, 1))
    fbox = min(4.0, g.freq_halfwidth)
    universe = TileUniverse(k_min, k_min + draw(st.integers(0, 1)),
                            Interval(0.0, g.length), Interval(-fbox, fbox))
    return f, universe, draw(st.sampled_from([4, 6, 8])), rng


def group_weight_sizes(tiles, f, family_size):
    """Oracle for per_tile_sizes bit for bit: its arithmetic with each tile's weight built in each group."""
    grid, fhat, out = f.grid, dft(f).values, {}
    for freq in dict.fromkeys(s.freq for s in tiles):
        group = [s for s in tiles if s.freq == freq]
        omega10 = freq.to_interval().dilate(10.0)
        omega10 = Interval(max(omega10.a, -grid.freq_halfwidth), min(omega10.b, grid.freq_halfwidth))
        power = np.abs(idft_values(bump_values(adapted_family(omega10, family_size), grid.freqs()) * fhat,
                                   grid.dx)) ** 2
        weights = np.stack([interval_weight(s.time.to_interval(), grid.xs(), 10.0, period=grid.length)
                            for s in group])
        for s, norm in zip(group, np.sqrt((power @ (weights**2).T * grid.dx).max(axis=0))):
            out[s] = 1.0 / math.sqrt(s.time.length) * float(norm)
    return out


class TestPerTileSizes:
    def test_time_intervals_shared_across_frequency_groups(self, monkeypatch):
        """Three time intervals in each of three frequency groups: one weight per interval, sizes equal to
        the per-group weights bit for bit and to the per-tile loop within 1e-12."""
        g = Grid(9, 8.0)
        rng = np.random.default_rng(3)
        f = SampledFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        tiles = [Tile(DyadicInterval(k, mt), DyadicInterval(-k, mf))
                 for mf in (-3, 0, 5) for k, mt in [(0, 2), (-1, 7), (0, 5)]]
        weighed = []

        def counted(interval, *args, **kwargs):
            weighed.append(interval)
            return interval_weight(interval, *args, **kwargs)

        monkeypatch.setattr(norms, "interval_weight", counted)
        got = per_tile_sizes(tiles, f, 6)
        assert len(weighed) == len(set(weighed)) == 3
        assert got == group_weight_sizes(tiles, f, 6) and list(got) == tiles
        want = loop_tile_sizes(tiles, f, 6)
        assert all(got[s] == pytest.approx(want[s], rel=1e-12, abs=0.0) for s in tiles)

    @given(size_cases())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_tile_loop(self, case):
        f, universe, family_size, rng = case
        tiles = [s for s in universe.all_tiles() if rng.random() < 0.6]
        rng.shuffle(tiles)
        got = per_tile_sizes(tiles, f, family_size)
        want = loop_tile_sizes(tiles, f, family_size)
        assert list(got) == list(want)
        for s in tiles:
            assert got[s] == pytest.approx(want[s], rel=1e-12, abs=0.0)

    @given(size_cases())
    @settings(max_examples=8, deadline=None)
    def test_forest_levels_match_per_tile_loop(self, case):
        f, universe, family_size, _ = case
        tiles = universe.all_tiles()
        got = trees.select_forests(tiles, f, family_size)
        with mock.patch.object(trees, "per_tile_sizes", loop_tile_sizes):
            want = trees.select_forests(tiles, f, family_size)
        assert got.to_text() == want.to_text()
        rows, want_rows = got.summary_rows(), want.summary_rows()
        assert [r[:-1] for r in rows] == [r[:-1] for r in want_rows]
        assert [r[-1] for r in rows] == pytest.approx([r[-1] for r in want_rows], rel=1e-12)


@pytest.fixture(scope="module")
def size_setup():
    return Grid(9, 8.0)


class TestTileSize:
    def test_zero_function(self, size_setup):
        g = size_setup
        tiles = [Tile(DyadicInterval(0, 2), DyadicInterval(0, 1))]
        assert tile_size(tiles, SampledFunction(g, np.zeros(g.n)), 8) == 0.0

    def test_monotone_under_inclusion(self, size_setup):
        g = size_setup
        rng = np.random.default_rng(17)
        f = SampledFunction(g, rng.standard_normal(g.n))
        tiles = [Tile(DyadicInterval(0, mt), DyadicInterval(0, mf))
                 for mt in range(4) for mf in range(3)]
        full = tile_size(tiles, f, 6)
        part = tile_size(tiles[:5], f, 6)
        assert part <= full + 1e-15

    def test_size_bound_by_maximal_function(self, size_setup):
        # collection size is controlled by sup over tiles of inf over I_s of M 1_F
        from timefreq import hl_maximal

        g = size_setup
        rng = np.random.default_rng(7)
        tiles = [Tile(DyadicInterval(k, mt), DyadicInterval(-k, mf))
                 for k in (-1, 0, 1)
                 for mt in range(int(8 * 2.0**-k))
                 for mf in range(int(8 * 2.0**k))]
        ratios = []
        for _ in range(20):
            ivs = []
            for _ in range(int(rng.integers(1, 4))):
                a = rng.uniform(0.0, 7.0)
                ivs.append((a, min(a + rng.uniform(0.2, 1.0), 8.0)))
            F = SampledFunction.indicator(g, ivs)
            sub = [s for s in tiles if rng.random() < 0.3]
            if not sub:
                continue
            m_vals = hl_maximal(F).values.real
            sup_inf = 0.0
            for s in sub:
                lo, hi = g.index_range(s.time.left, s.time.right)
                sup_inf = max(sup_inf, m_vals[lo:hi].min())
            ratios.append(tile_size(sub, F, 6) / sup_inf)
        # single fitted constant across instances
        assert max(ratios) <= 0.12

    def test_own_packet_scale(self, size_setup):
        # two-path check: the estimator value against a direct quadrature of
        # the same best-bump integrand
        from timefreq.grid import dft, lp_norm_values
        from timefreq.norms import adapted_family

        g = size_setup
        s = Tile(DyadicInterval(0, 3), DyadicInterval(0, 2))
        f = SampledFunction(g, idft_values(tile_packet_hat(g, s), g.dx))
        got = tile_size([s], f, 8)
        omega10 = s.freq.to_interval().dilate(10.0)
        omega10 = Interval(max(omega10.a, -g.freq_halfwidth), min(omega10.b, g.freq_halfwidth))
        weight = interval_weight(s.time.to_interval(), g.xs(), 10.0, period=g.length)
        fhat = dft(f).values
        best = 0.0
        for bump in adapted_family(omega10, 8):
            mvals = bump_values([bump], g.freqs())[0]
            tv = np.array([np.sum(mvals * fhat * np.exp(2j * np.pi * g.freqs() * x)) * g.dxi
                           for x in g.xs()[::8]])
            wgt = weight[::8]
            direct = lp_norm_values(wgt * tv, g.dx * 8, 2) / math.sqrt(s.time.length)
            best = max(best, direct)
        assert got >= 0.5 * best
