import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import timefreq.exceptional as exceptional_mod
from timefreq import Grid, SampledFunction, hl_maximal, lp_norm
from timefreq.dyadic import DyadicInterval, Interval, Tile, TileUniverse, Tree, is_convex
from timefreq.exceptional import (
    GridSet,
    ParamLedger,
    ParameterError,
    check_pointwise_bound,
    maximal_exceptional_set,
    overlap_exceptional_set,
    run_pipeline,
    split_tiles,
    variation_exceptional_set,
)
from timefreq.norms import maximal_multiplier_lower, variational_norm
from timefreq.trees import tree_decompose
from timefreq.wavepackets import build_kernel, build_window, model_function

from test_wavepackets import theta_slice


def group_by_escape_level(trapped, eset):
    """Oracle: trapped tiles grouped by the first dilation exponent reaching the complement.

    Tile s lands in group kappa when 2^kappa I_s meets the complement but
    2^(kappa-1) I_s does not.  When the complement is empty the group index
    is capped at the dilation covering the whole box.
    """
    grid = eset.grid
    out = {}
    for s in trapped:
        cap = max(1, math.ceil(math.log2(2.0 * grid.length / s.time.length)) + 1)
        kappa = cap
        for j in range(1, cap + 1):
            iv = s.time.to_interval().dilate(math.ldexp(1.0, j))
            lo, hi = grid.index_range(iv.a, iv.b)
            if not np.all(eset.mask[lo:hi]):
                kappa = j
                break
        out.setdefault(kappa, set()).add(s)
    return out


@pytest.fixture(scope="module")
def setup():
    g = Grid(9, 8.0)
    return g, build_window(g), build_kernel(g)


class TestParamLedger:
    def test_reference_values(self):
        led = ParamLedger(1.8, 1.5, 0.01, 0.5)
        assert led.Q == pytest.approx(0.176667, abs=1e-6)
        assert led.b == pytest.approx(1.054639, abs=1e-6)

    def test_degenerate_limit(self):
        led = ParamLedger(1.5, 1.999999, 1e-9, 0.5)
        assert led.Q == pytest.approx(0.0, abs=1e-6)
        assert led.b == pytest.approx(1.0, abs=1e-5)

    def test_lambda_powers_drop_at_one(self):
        led = ParamLedger(1.6, 1.5, 0.01, 1.0)
        for n in (2, 5):
            lv = led.level(n)
            assert lv.beta == pytest.approx(2.0 ** ((2 + 0.01) * n), rel=1e-12)
            assert lv.gamma == pytest.approx(
                2.0 ** (-n * ((2 + 0.01) * led.Q + 0.01)), rel=1e-12
            )
            assert lv.sigma == 2.0**-n

    def test_exponent_sum_violation_named(self):
        with pytest.raises(ParameterError, match="exponent-sum"):
            ParamLedger(1.2, 1.4, 0.01, 0.5)

    def test_range_violations(self):
        with pytest.raises(ParameterError, match="q-range"):
            ParamLedger(1.5, 2.5, 0.01, 0.5)
        with pytest.raises(ParameterError, match="threshold"):
            ParamLedger(1.8, 1.5, 0.01, 1.5)
        with pytest.raises(ParameterError, match="eps must be positive, got nan"):
            ParamLedger(1.6, 1.5, math.nan, 0.5)

    def test_level_params_helper(self):
        lv = ParamLedger(1.8, 1.5, 0.01, 0.5).level(3)
        assert lv.sigma == 0.125

    def test_checks_hold_for_every_accepted_input(self):
        for p in (1.1, 1.4, 1.7, 1.9):
            for q in (1.2, 1.5, 1.9):
                if 1.0 / p + 1.0 / q >= 1.5:
                    with pytest.raises(ParameterError):
                        ParamLedger(p, q, 0.01, 0.5)
                    continue
                for eps in (1e-4, 0.01, 0.05):
                    try:
                        ParamLedger(p, q, eps, 0.5)
                    except ParameterError:
                        continue  # eps too large for this corner of the range


class TestMaximalExceptionalSet:
    def test_contains_the_set_at_lambda_one(self, setup):
        g, _, _ = setup
        f = SampledFunction.indicator(g, [(1.0, 2.5)])
        es = maximal_exceptional_set(f, 1.0, 1.05)
        assert np.all(es.mask[f.values.real > 0.5])

    def test_empty_input(self, setup):
        g, _, _ = setup
        es = maximal_exceptional_set(SampledFunction(g, np.zeros(g.n)), 0.5, 1.05)
        assert es.measure == 0.0

    def test_weak_type_measure_bound(self, setup):
        g, _, _ = setup
        rng = np.random.default_rng(3)
        for _ in range(20):
            ivs = []
            for _ in range(int(rng.integers(1, 4))):
                a = rng.uniform(0, 7)
                ivs.append((a, min(a + rng.uniform(0.1, 0.8), 8.0)))
            f = SampledFunction.indicator(g, ivs)
            mf = lp_norm(f, 1)
            for lam in np.arange(0.1, 1.0, 0.1):
                es = maximal_exceptional_set(f, lam, 1.0)
                assert es.measure <= 4.0 * mf / lam + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(J=st.integers(1, 13), seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
           runs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=4))
    @example(J=3, seed=0, density=0.0, runs=[(0.25, 0.5)])  # ones at 2..5: fl(4/5) = 0.8 exceeds 4/5
    # achieved averages with an odd last significand bit: fl(1/3) and fl(1/6) of a single one, and
    # fl(2/3), fl(3/7), fl(3/5), fl(1/3), fl(3/10) and fl(5/19) of blocks of two and three ones
    @example(J=4, seed=0, density=0.0, runs=[(0.5, 1 / 16)])
    @example(J=5, seed=0, density=0.0, runs=[(0.25, 2 / 32), (0.75, 3 / 32)])
    def test_matches_hl_maximal(self, J, seed, density, runs):
        """The O(n) sweep's mask is the maximal function's level set at thresholds that are achieved
        averages and their neighbours, at 1, at the smallest double, at an underflow and above 1.
        Adjacent doubles alternate the last significand bit, so every achieved average brings
        thresholds with an odd one, where ties rounding to even would part ``>`` from ``>=``."""
        g = Grid(J, 8.0)
        mask = np.random.default_rng(seed).random(g.n) < density
        for start, width in runs:
            mask[int(start * g.n):int(start * g.n) + int(width * g.n)] = True
        f = SampledFunction(g, mask.astype(complex))
        m_vals = hl_maximal(f).values.real
        averages = np.unique(m_vals)
        averages = averages[np.linspace(0, averages.size - 1, min(averages.size, 24)).astype(int)]
        thresholds = {1.0, 5e-324}
        for t in averages.tolist():
            thresholds |= {t, math.nextafter(t, 0.0), math.nextafter(t, 2.0)}
        for t in sorted(u for u in thresholds if 0.0 < u <= 1.0):
            assert np.array_equal(maximal_exceptional_set(f, t, 1.0).mask, m_vals >= t), t
        for lam, b in [(0.5, 1100.0), (0.5, -1.0)]:  # t underflows to 0, t = 2
            assert np.array_equal(maximal_exceptional_set(f, lam, b).mask, m_vals >= lam**b)

    @pytest.mark.parametrize("bad", [0.5, 2.0, np.nan, np.inf])
    def test_refuses_non_indicator(self, setup, bad):
        g, _, _ = setup
        values = SampledFunction.indicator(g, [(1.0, 2.5)]).values
        values[7] = bad
        with pytest.raises(ValueError, match="needs an indicator"):
            maximal_exceptional_set(SampledFunction(g, values), 0.5, 1.05)

    def test_threshold_monotone(self, setup):
        g, _, _ = setup
        f = SampledFunction.indicator(g, [(2.0, 3.0)])
        lo = maximal_exceptional_set(f, 0.3, 1.0)
        hi = maximal_exceptional_set(f, 0.6, 1.0)
        assert np.all(hi.mask <= lo.mask)


class TestSplits:
    def _tiles(self):
        return TileUniverse(-1, 1, Interval(0, 8), Interval(0, 4)).all_tiles()

    def test_empty_set_all_escape(self, setup):
        g, _, _ = setup
        tiles = self._tiles()
        esc, trap = split_tiles(tiles, GridSet.empty(g))
        assert esc == set(tiles) and not trap

    def test_full_box_none_escape(self, setup):
        g, _, _ = setup
        tiles = self._tiles()
        esc, trap = split_tiles(tiles, GridSet(g, np.ones(g.n, dtype=bool)))
        assert trap == set(tiles) and not esc

    def test_rule_matches_direct_masks(self, setup):
        g, _, _ = setup
        rng = np.random.default_rng(8)
        mask = rng.random(g.n) < 0.6
        es = GridSet(g, mask)
        tiles = self._tiles()
        esc, trap = split_tiles(tiles, es)
        assert esc | trap == set(tiles) and not (esc & trap)
        for s in tiles:
            lo, hi = g.index_range(s.time.left, s.time.right)
            meets_complement = bool(np.any(~mask[lo:hi]))
            assert (s in esc) == meets_complement

    def test_escape_levels(self, setup):
        g, _, _ = setup
        mask = np.ones(g.n, dtype=bool)
        mask[: g.n // 16] = False  # complement at the left edge
        es = GridSet(g, mask)
        tiles = self._tiles()
        esc, trap = split_tiles(tiles, es)
        groups = group_by_escape_level(trap, es)
        assert set().union(*groups.values()) == trap
        for s in trap:
            if s.time.to_interval().dilate(2.0).a < g.length / 16:
                assert s in groups.get(1, set())

    def test_escape_preserves_convexity(self, setup):
        g, _, _ = setup
        rng = np.random.default_rng(5)
        mask = hl_maximal(SampledFunction.indicator(g, [(1.0, 3.0)])).values.real >= 0.4
        es = GridSet(g, mask)
        tiles = self._tiles()
        assert is_convex(tiles)
        esc, trap = split_tiles(tiles, es)
        assert is_convex(esc)
        groups = group_by_escape_level(trap, es)
        for group in groups.values():
            assert is_convex(group)


class TestOverlapSet:
    def _trees(self, g, rng, count):
        trees = []
        for _ in range(count):
            mt = int(rng.integers(0, 7))
            top = Tile(DyadicInterval(0, mt), DyadicInterval(0, 1))
            trees.append(Tree.with_top_tile(top, {top}, top_freq=top.freq.left))
        return trees

    def test_single_tree_empty(self, setup):
        g, _, _ = setup
        trees = self._trees(g, np.random.default_rng(0), 1)
        assert overlap_exceptional_set(trees, 1.0, g).measure == 0.0

    def test_requires_beta_at_least_one(self, setup):
        g, _, _ = setup
        with pytest.raises(ValueError):
            overlap_exceptional_set([], 0.5, g)

    def test_counting_two_ways(self, setup):
        g, _, _ = setup
        rng = np.random.default_rng(7)
        trees = self._trees(g, rng, 12)
        es = overlap_exceptional_set(trees, 1.0, g)
        # direct recomputation: per-tree accumulation at each level whose threshold 4^l a count can exceed
        mask = np.zeros(g.n, dtype=bool)
        for l in [l for l in range(64) if 4.0**l <= len(trees)]:
            count = np.zeros(g.n)
            for t in trees:
                iv = t.top_interval.dilate(2.0**l)
                lo, hi = g.index_range(max(iv.a, 0.0), min(iv.b, g.length))
                count[lo:hi] += 1.0
            mask |= count > 4.0**l
        assert np.array_equal(es.mask, mask)

    def test_chebyshev_measure_bound(self, setup):
        g, _, _ = setup
        rng = np.random.default_rng(11)
        for count in (6, 12, 24):
            trees = self._trees(g, rng, count)
            es = overlap_exceptional_set(trees, 1.0, g)
            top_sum = sum(t.top_interval.length for t in trees)
            assert es.measure <= 2.0 * top_sum + 1e-9

    def test_threshold_monotone(self, setup):
        g, _, _ = setup
        trees = self._trees(g, np.random.default_rng(3), 20)
        lo = overlap_exceptional_set(trees, 1.0, g)
        hi = overlap_exceptional_set(trees, 2.0, g)
        assert np.all(hi.mask <= lo.mask)


class TestVariationSet:
    def _window_trees(self, g):
        top = Tile(DyadicInterval(0, 3), DyadicInterval(0, 4))
        members = [top,
                   Tile(DyadicInterval(-1, 6), DyadicInterval(1, 2)),
                   Tile(DyadicInterval(-1, 7), DyadicInterval(1, 2))]
        tree = Tree.with_top_tile(top, members, top_freq=4.0)
        return {(0, 0): [tree]}, members

    def test_zero_coefficients(self, setup):
        g, w, ker = setup
        windows, members = self._window_trees(g)
        coeffs = {s: 0.0 for s in members}
        es = variation_exceptional_set(windows, coeffs, 0.5, 3.0, 1.0, ker, l_decay=10.0)
        assert es.measure == 0.0

    def test_huge_threshold(self, setup):
        g, w, ker = setup
        windows, members = self._window_trees(g)
        coeffs = {s: 0.5 * math.sqrt(s.time.length) for s in members}
        es = variation_exceptional_set(windows, coeffs, 1e9, 3.0, 1.0, ker, l_decay=10.0)
        assert es.measure == 0.0

    def test_normalization_enforced(self, setup):
        g, w, ker = setup
        windows, members = self._window_trees(g)
        coeffs = {s: 5.0 * math.sqrt(s.time.length) for s in members}
        with pytest.raises(ValueError, match="normalization"):
            variation_exceptional_set(windows, coeffs, 0.5, 3.0, 1.0, ker, l_decay=10.0)

    def test_mask_matches_pointwise_recomputation(self, setup):
        g, w, ker = setup
        windows, members = self._window_trees(g)
        rng = np.random.default_rng(2)
        coeffs = {s: complex(rng.uniform(0.2, 0.9)) * math.sqrt(s.time.length)
                  for s in members}
        gamma = 0.05
        es = variation_exceptional_set(windows, coeffs, gamma, 3.0, 1.0, ker, l_decay=10.0)
        tree = windows[(0, 0)][0]
        scales = tree.scales()
        fields = np.zeros((len(scales), g.n), dtype=np.complex128)
        for i, k in enumerate(scales):
            for s in tree.tiles_at_scale(k):
                pieces = tree_decompose(s, 0, g)
                phi = model_function(w, ker, s).x_slice(tree.top_freq)
                fields[i] += coeffs[s] * pieces.tail_slice(phi, tree.top_freq)
        for xin in rng.integers(0, g.n, 50):
            vr = variational_norm(fields[:, xin], 3.0)
            assert (vr > gamma) == bool(es.mask[xin])

    def test_threshold_monotone(self, setup):
        g, w, ker = setup
        windows, members = self._window_trees(g)
        coeffs = {s: 0.5 * math.sqrt(s.time.length) for s in members}
        lo = variation_exceptional_set(windows, coeffs, 0.02, 3.0, 1.0, ker, l_decay=10.0)
        hi = variation_exceptional_set(windows, coeffs, 0.08, 3.0, 1.0, ker, l_decay=10.0)
        assert np.all(hi.mask <= lo.mask)


class TestPointwiseBound:
    def test_zero_coefficients(self, setup):
        g, w, ker = setup
        params = ParamLedger(1.6, 1.5, 0.01, 0.5).level(4)
        (lhs,), rhs = check_pointwise_bound([10], {}, params, 1.5, 3.0, 0.01, ker,
                                            search_budget=40, seed=0)
        assert lhs == 0.0 and rhs > 0.0

    def test_single_tile_calibration(self, setup):
        g, w, ker = setup
        s = Tile(DyadicInterval(0, 3), DyadicInterval(0, 2))
        params = ParamLedger(1.6, 1.5, 0.01, 0.5).level(2)
        coeffs = {s: params.sigma * math.sqrt(s.time.length)}
        xin = round(s.time.center / g.dx)
        (lhs,), rhs = check_pointwise_bound([xin], coeffs, params, 1.5, 3.0, 0.01, ker,
                                            search_budget=25, seed=1)
        assert 0.0 < lhs and rhs > 0.0
        assert lhs / rhs < 10.0  # calibration ratio stays moderate

    def test_points_together_match_points_alone(self, setup, monkeypatch):
        # 3 scales at J = 9 make blocks of 6 points, so 13 points run as blocks of 6, 6 and 1
        g, w, ker = setup
        rng = np.random.default_rng(4)
        tiles = [Tile(DyadicInterval(-1, 5), DyadicInterval(1, 3)), Tile(DyadicInterval(0, 2), DyadicInterval(0, 1)),
                 Tile(DyadicInterval(0, 6), DyadicInterval(0, -3)), Tile(DyadicInterval(1, 1), DyadicInterval(-1, 0))]
        coeffs = {s: complex(rng.standard_normal(), rng.standard_normal()) for s in tiles}
        params = ParamLedger(1.6, 1.5, 0.01, 0.5).level(2)
        xs = [0, 40, 77, 120, 200, 263, 301, 350, 400, 450, 470, 490, 511]
        blocks = []

        def counted(ms, *args, **kwargs):
            blocks.append(len(ms))
            return maximal_multiplier_lower(ms, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(exceptional_mod, "maximal_multiplier_lower", counted)
            lhs, rhs = check_pointwise_bound(xs, coeffs, params, 1.5, 3.0, 0.01, ker, search_budget=30, seed=3)
        assert blocks == [6, 6, 1]
        alone = [check_pointwise_bound([x], coeffs, params, 1.5, 3.0, 0.01, ker, search_budget=30, seed=3)
                 for x in xs]
        assert lhs.tolist() == [one[0][0] for one in alone]
        assert all(one[1] == rhs for one in alone)
        assert np.all(lhs > 0.0)


def loop_pointwise_multipliers(x_index, coeffs, w, ker):
    """Oracle: per scale, the sum over its tiles of a_s times the theta-slice of the tile's model function."""
    by_scale = {}
    for s, a in coeffs.items():
        if a == 0.0:
            continue
        vals = a * theta_slice(model_function(w, ker, s), x_index)
        if s.scale in by_scale:
            by_scale[s.scale] += vals
        else:
            by_scale[s.scale] = vals
    return [by_scale[k] for k in sorted(by_scale)]


@functools.lru_cache(maxsize=None)
def _window_kernel(j, length):
    g = Grid(j, length)
    return build_window(g), build_kernel(g)


@st.composite
def pointwise_cases(draw):
    """A grid (J 7..10, L 4..16), 1..10 distinct tiles of scales -2..1 inside its box,
    zero-coefficient flags for all tiles but the first, a coefficient seed and 1..8 grid points.

    The points lie in the first tile's time interval, whose coefficient is
    nonzero: at points many tile lengths from every tile the multipliers are
    packet tails of about 1e-7, and the two paths differ there only by
    roundoff of the packets' size.
    """
    j = draw(st.integers(7, 10))
    length = 2.0 ** draw(st.integers(2, 4))
    fh = 2.0 ** (j - 1) / length
    tiles = []
    for _ in range(draw(st.integers(1, 10))):
        k = draw(st.integers(-2, 1))
        mt = draw(st.integers(0, int(length / 2.0**k) - 1))
        nf = int(fh * 2.0**k)
        mf = draw(st.integers(-nf, nf - 1))
        tiles.append(Tile(DyadicInterval(k, mt), DyadicInterval(-k, mf)))
    tiles = list(dict.fromkeys(tiles))
    zeros = [False] + draw(st.lists(st.booleans(), min_size=len(tiles) - 1, max_size=len(tiles) - 1))
    g = Grid(j, length)
    lo, hi = g.index_range(tiles[0].time.left, tiles[0].time.right)
    points = draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=8))
    return j, length, tiles, zeros, draw(st.integers(0, 2**31 - 1)), points


class TestPointwiseOracle:
    @settings(max_examples=40, deadline=None)
    @given(pointwise_cases())
    # one scale at J = 10 makes blocks of 6 points: 13 points cross two block boundaries
    @example((10, 8.0, [Tile(DyadicInterval(0, 3), DyadicInterval(0, 2))], [False], 5,
              [384, 390, 400, 408, 417, 430, 441, 455, 470, 482, 490, 500, 511]))
    def test_multipliers_match_per_tile_loop(self, case):
        j, length, tiles, zeros, seed, x_indices = case
        w, ker = _window_kernel(j, length)
        rng = np.random.default_rng(seed)
        coeffs = {s: 0.0 if zero else complex(rng.standard_normal(), rng.standard_normal())
                  for s, zero in zip(tiles, zeros)}
        captured = []

        def capture(ms, grid, q, search_budget, seed):
            captured.append(np.array(ms))
            return 0.0

        params = ParamLedger(1.6, 1.5, 0.01, 0.5).level(2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exceptional_mod, "maximal_multiplier_lower", capture)
            check_pointwise_bound(x_indices, coeffs, params, 1.5, 3.0, 0.01, ker, search_budget=40, seed=0)
        families = np.concatenate(captured)
        assert len(families) == len(x_indices)
        # a block stacks at most 192 KiB of fields, scales + 1 rows per point: 6 points of one scale at J = 10
        block = max(1, 3 * 2**16 // ((families.shape[1] + 1) * w.grid.n * 16))
        assert [len(c) for c in captured] == [min(block, len(x_indices) - i) for i in range(0, len(x_indices), block)]
        for got, x_index in zip(families, x_indices):
            want = loop_pointwise_multipliers(x_index, coeffs, w, ker)
            assert got.shape == (len(want), w.grid.n)
            scale = max(np.max(np.abs(m)) for m in want)
            assert np.max(np.abs(got - np.array(want))) <= 1e-12 * scale


class TestPipeline:
    def test_report_shape_and_stability(self, setup):
        g, w, ker = setup
        ratios = []
        for seed in range(4):
            rep = run_pipeline(g, 1.6, 1.5, 0.01, 0.5, seed=seed)
            assert rep.measure_estar <= g.length
            assert rep.measure_f > 0
            ratios.append(rep.estar_ratio)
            assert rep.level_rows, "expected at least one selected level"
        assert max(ratios) / min(ratios) <= 4.0

    def test_rejects_bad_exponents(self, setup):
        g, w, ker = setup
        with pytest.raises(ParameterError):
            run_pipeline(g, 1.2, 1.4, 0.01, 0.5, seed=0)
