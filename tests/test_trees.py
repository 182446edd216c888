import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefreq import Grid, SampledFunction, trees
from timefreq.dyadic import DyadicInterval, Interval, Tile, TileUniverse, Tree, is_convex
from timefreq.grid import idft_values, wrapped_distance
from timefreq.norms import interval_weight, tile_size, variational_norm
from timefreq.trees import (
    ZERO_SIZE_LEVEL,
    select_forests,
    tail_variation,
    tree_coefficients,
    tree_decompose,
    tree_variation_report,
)
from timefreq.wavepackets import theta_support, tile_packet_hat, x_slice


@pytest.fixture(scope="module")
def setup9():
    return Grid(9, 8.0)


@pytest.fixture(scope="module")
def setup11():
    return Grid(11, 32.0)


@pytest.fixture(scope="module")
def universe9():
    return TileUniverse(-1, 1, Interval(0.0, 8.0), Interval(0.0, 8.0))


def left_aligned_tree(mt, sub_offset=0):
    """Three-scale tree whose member frequencies share the left endpoint 4."""
    tiles = [
        Tile(DyadicInterval(0, mt), DyadicInterval(0, 4)),
        Tile(DyadicInterval(-1, 2 * mt), DyadicInterval(1, 2)),
        Tile(DyadicInterval(-1, 2 * mt + 1), DyadicInterval(1, 2)),
        Tile(DyadicInterval(-2, 4 * mt + sub_offset), DyadicInterval(2, 1)),
    ]
    return Tree.with_top_tile(tiles[0], tiles, top_freq=4.0)


class TestSelectForests:
    def test_partition_and_certificates(self, setup9, universe9):
        g = setup9
        tiles = universe9.all_tiles()
        f = SampledFunction.indicator(g, [(1.0, 1.5), (4.0, 5.0)])
        dec = select_forests(tiles, f, family_size=6)
        assert set().union(*(forest.tiles() for forest in dec.levels)) == set(tiles)
        assert sum(len(forest.tiles()) for forest in dec.levels) == len(tiles)
        for forest in dec.levels:
            level_size = tile_size(forest.tiles(), f, 6)
            assert level_size <= math.ldexp(1.0, -forest.level) + 1e-15

    def test_levels_convex_and_disjoint_trees(self, setup9, universe9):
        g = setup9
        rng = np.random.default_rng(23)
        f = SampledFunction(g, rng.standard_normal(g.n))
        dec = select_forests(universe9.all_tiles(), f, family_size=6)
        for forest in dec.levels:
            assert is_convex(forest.tiles())
            seen = set()
            for tree in forest.trees:
                assert not (seen & tree.tiles)
                seen |= tree.tiles

    def test_zero_function_single_level(self, setup9, universe9):
        g = setup9
        dec = select_forests(universe9.all_tiles(), SampledFunction(g, np.zeros(g.n)), family_size=4)
        assert len(dec.levels) == 1
        assert dec.levels[0].level == ZERO_SIZE_LEVEL
        assert dec.levels[0].tiles() == set(universe9.all_tiles())

    def test_packet_input_selects_its_tile_first(self, setup9, universe9):
        g = setup9
        s0 = Tile(DyadicInterval(0, 3), DyadicInterval(0, 2))
        f = SampledFunction(g, idft_values(tile_packet_hat(g, s0), g.dx))
        dec = select_forests(universe9.all_tiles(), f, family_size=6)
        first = dec.levels[0]
        assert any(s0 in tree.tiles for tree in first.trees)
        single = tile_size([s0], f, 6)
        assert abs(first.level - math.ceil(-math.log2(single))) <= 2

    def test_non_convex_rejected(self, setup9):
        g = setup9
        bad = [Tile(DyadicInterval(0, 0), DyadicInterval(0, 0)),
               Tile(DyadicInterval(2, 0), DyadicInterval(-2, 0))]
        with pytest.raises(ValueError):
            select_forests(bad, SampledFunction(g, np.zeros(g.n)), 8)

    def test_counting_data_recorded(self, setup9, universe9):
        g = setup9
        rng = np.random.default_rng(31)
        f = SampledFunction(g, rng.standard_normal(g.n))
        dec = select_forests(universe9.all_tiles(), f, family_size=6)
        rows = dec.summary_rows()
        assert all(row[3] > 0 for row in rows)
        assert dec.to_text().count("\n") == len(universe9.all_tiles())


class TestTreeDecompose:
    def test_pieces_sum_to_model(self, setup11):
        g = setup11
        tree = left_aligned_tree(mt=14)
        for s in tree.tiles:
            sup = theta_support(s)
            for level in (0, 1, 2, 3):
                pieces = tree_decompose(s, level, g)
                for frac in (0.25, 0.7):
                    theta = sup.a + frac * sup.length
                    phi = x_slice(g, s, theta)
                    total = pieces.local_slice(phi, tree.top_freq) + pieces.tail_slice(phi, tree.top_freq)
                    assert np.max(np.abs(total - phi)) <= 1e-12 * max(1.0, np.max(np.abs(phi)))

    def test_level_zero_is_whole_model(self, setup11):
        g = setup11
        tree = left_aligned_tree(mt=14)
        s = next(iter(tree.tiles))
        pieces = tree_decompose(s, 0, g)
        phi = x_slice(g, s, tree.top_freq)
        assert np.array_equal(pieces.tail_slice(phi, tree.top_freq), phi)
        assert np.max(np.abs(pieces.local_slice(phi, tree.top_freq))) == 0.0

    def test_local_piece_support(self, setup11):
        g = setup11
        tree = left_aligned_tree(mt=14)
        s = tree.top_tile
        for level in (1, 2, 3):
            pieces = tree_decompose(s, level, g)
            loc = pieces.local_slice(x_slice(g, s, tree.top_freq), tree.top_freq)
            dist = wrapped_distance(g.xs(), s.time.center, g.length)
            outside = dist > math.ldexp(s.time.length, level - 1) + g.dx
            assert np.max(np.abs(loc[outside])) == 0.0

    @pytest.mark.parametrize("mt,sub", [(3, 0), (7, 2), (14, 2), (22, 1), (27, 3)])
    def test_mean_zero_random_trees(self, setup11, mt, sub):
        g = setup11
        tree = left_aligned_tree(mt=mt, sub_offset=sub)
        osc = np.exp(-2j * np.pi * tree.top_freq * g.xs())
        for s in tree.tiles:
            sup = theta_support(s)
            for level in (1, 2, 3):
                pieces = tree_decompose(s, level, g)
                for frac in (0.3, 0.6):
                    theta = sup.a + frac * sup.length
                    tail = pieces.tail_slice(x_slice(g, s, theta), tree.top_freq)
                    mean = abs(np.sum(tail * osc) * g.dx)
                    l1 = np.sum(np.abs(tail)) * g.dx
                    assert mean <= 1e-8 * l1

    def test_decay_gain(self, setup11):
        g = setup11
        tree = left_aligned_tree(mt=14)
        for s in [tree.top_tile, next(t for t in tree.tiles if t.scale == -1)]:
            weight = interval_weight(s.time.to_interval(), g.xs(), 4.0, period=g.length)
            envs = []
            for level in range(1, 5):
                pieces = tree_decompose(s, level, g)
                tail = pieces.tail_slice(x_slice(g, s, tree.top_freq), tree.top_freq)
                envs.append(np.max(np.abs(tail) * weight) * math.sqrt(s.time.length))
            slope = np.polyfit(range(1, 5), np.log2(envs), 1)[0]
            assert slope <= -3.5

    def test_theta_derivative_bound(self, setup11):
        # finite-difference check of the theta-derivative envelope of the tail
        g = setup11
        tree = left_aligned_tree(mt=14)
        s = tree.top_tile
        h = g.dxi / 4.0
        theta0 = tree.top_freq + 0.3
        pieces = tree_decompose(s, 1, g)
        tail_plus, tail_minus = (pieces.tail_slice(x_slice(g, s, theta0 + d), tree.top_freq) for d in (h, -h))
        d_tail = (tail_plus - tail_minus) / (2 * h)
        weight = interval_weight(s.time.to_interval(), g.xs(), 4.0, period=g.length)
        env = np.max(np.abs(d_tail) * weight) / math.sqrt(s.time.length)
        assert env <= 50.0  # fitted once; scales with |I_s|^(1/2) per the envelope form


class TestTreeVariationReport:
    def test_zero_function(self, setup9):
        g = setup9
        tree = left_aligned_tree(mt=3)
        [rep] = tree_variation_report(tree, SampledFunction(g, np.zeros(g.n)), [1], 3.0, 2.0)
        assert rep.lhs == 0.0

    def test_single_tile_two_paths(self, setup9):
        g = setup9
        s = Tile(DyadicInterval(0, 3), DyadicInterval(0, 4))
        tree = Tree.with_top_tile(s, [s], top_freq=4.0)
        f = SampledFunction.indicator(g, [(2.75, 4.0)])
        [rep] = tree_variation_report(tree, f, [0], 3.0, 2.0)
        coeffs = tree_coefficients(tree, f)
        field = coeffs[s] * x_slice(g, s, 4.0)
        # one-term scale sequence: variation norm equals the absolute value
        direct = (np.sum(np.abs(field) ** 2) * g.dx) ** 0.5
        assert abs(rep.lhs - direct) <= 1e-10 * max(direct, 1.0)

    def test_ratio_bounded_across_levels(self, setup9):
        g = setup9
        rng = np.random.default_rng(13)
        ratios = []
        for _ in range(10):
            mt = int(rng.integers(1, 6))
            tree = left_aligned_tree(mt=mt, sub_offset=int(rng.integers(0, 4)))
            a = mt + rng.uniform(-0.5, 0.5)
            f = SampledFunction.indicator(g, [(max(a, 0.0), min(a + rng.uniform(0.3, 1.5), 8.0))])
            for rep in tree_variation_report(tree, f, (0, 1, 2), 3.0, 2.0):
                if rep.rhs_scale > 0:
                    ratios.append(rep.ratio)
        assert max(ratios) <= 150.0  # single fitted constant

    def test_parameter_validation(self, setup9):
        g = setup9
        tree = left_aligned_tree(mt=3)
        f = SampledFunction(g, np.zeros(g.n))
        with pytest.raises(ValueError):
            tree_variation_report(tree, f, 0, 2.0, 2.0)
        with pytest.raises(ValueError):
            tree_variation_report(tree, f, 0, 3.0, 1.0)

    def test_levels_equal_one_call_per_level(self, setup9):
        """One call over levels [2, 0, 1, 1], sharing its coefficients, size and slice cache, equals
        (==) a fresh one-level call per level, in order and with the repeat."""
        g = setup9
        rng = np.random.default_rng(21)
        trees = [left_aligned_tree(mt=3), left_aligned_tree(mt=2, sub_offset=1),
                 Tree.with_top_tile(Tile(DyadicInterval(0, 5), DyadicInterval(0, 2)),
                                    [Tile(DyadicInterval(0, 5), DyadicInterval(0, 2)),
                                     Tile(DyadicInterval(-1, 10), DyadicInterval(1, 1)),
                                     Tile(DyadicInterval(-1, 11), DyadicInterval(1, 1))], top_freq=2.0)]
        for tree in trees:
            a = rng.uniform(0.0, 6.0)
            f = SampledFunction.indicator(g, [(a, a + rng.uniform(0.3, 2.0))])
            levels = [2, 0, 1, 1]
            got = tree_variation_report(tree, f, levels, 3.0, 2.0)
            assert got == [tree_variation_report(tree, f, [level], 3.0, 2.0)[0]
                           for level in levels]
        assert tree_variation_report(trees[0], f, [], 3.0, 2.0) == []

    def test_small_frequency_box_rejected(self):
        # the box [-1/2, 1/2) misses the kernel support: refused before any level or coefficient
        g = Grid(6, 64.0)
        with pytest.raises(ValueError, match=r"must contain the kernel support \[-1, 1\]"):
            tree_variation_report(left_aligned_tree(mt=3), SampledFunction(g, np.zeros(g.n)), [], 3.0, 2.0)


def loop_tail_variation(tree, coeffs, level, r, g):
    """Oracle for tail_variation: a fresh model function and tree_decompose per tile."""
    fields = np.zeros((len(tree.scales()), g.n), dtype=np.complex128)
    for i, k in enumerate(tree.scales()):
        for s in tree.tiles_at_scale(k):
            if coeffs.get(s, 0.0) != 0.0:
                phi = x_slice(g, s, tree.top_freq)
                fields[i] += coeffs[s] * tree_decompose(s, level, g).tail_slice(phi, tree.top_freq)
    return variational_norm(fields, r)


def test_tail_variation_shared_cache_bit_identical_to_per_tile_loop(setup9, monkeypatch):
    """One cache across trees and levels: every result equals the per-tile loop bit for bit, and each
    (time interval, level > 0) cutoff is built once though trees repeat intervals and top frequencies."""
    g = setup9
    tiles5 = [Tile(DyadicInterval(0, 3), DyadicInterval(0, 5)), Tile(DyadicInterval(-1, 6), DyadicInterval(1, 2)),
              Tile(DyadicInterval(-2, 13), DyadicInterval(2, 1))]
    tree_list = [left_aligned_tree(mt=3), left_aligned_tree(mt=3, sub_offset=1),
                 Tree.with_top_tile(tiles5[0], tiles5, top_freq=5.0)]
    rng = np.random.default_rng(7)
    coeffs = {s: complex(rng.standard_normal(), rng.standard_normal()) for t in tree_list for s in t.tiles}
    coeffs[Tile(DyadicInterval(-1, 7), DyadicInterval(1, 2))] = 0.0
    calls = []

    def counted(s, level, grid):
        calls.append((s.time, level))
        return tree_decompose(s, level, grid)

    monkeypatch.setattr(trees, "tree_decompose", counted)
    cache = {}
    for level in (1, 0, 2, 1):
        for tree in tree_list:
            got = tail_variation(tree, coeffs, level, 3.0, g, cache)
            assert np.array_equal(got, loop_tail_variation(tree, coeffs, level, 3.0, g))
    assert len(calls) == len(set(calls)) == 2 * len({s.time for t in tree_list for s in t.tiles if coeffs[s] != 0.0})


def loop_tree_coefficients(tree, f):
    """Oracle: each <f, packet_s> as a time-domain sum against the inverse-transformed packet."""
    out = {}
    for s in sorted(tree.tiles, key=Tile.sort_key):
        pk = idft_values(tile_packet_hat(f.grid, s), f.grid.dx)
        out[s] = complex(np.sum(f.values * np.conj(pk)) * f.grid.dx)
    return out


@st.composite
def coefficient_cases(draw):
    """A grid (J 7..11, L 4..32), 1..8 tiles of scales -1..1 inside its box, an input kind and seed.

    The first tile drawn is returned too: an indicator input sits inside its
    time interval, so that the largest coefficient is not a far tail of a
    packet, which would leave only roundoff to compare.
    """
    j = draw(st.integers(7, 11))
    length = 2.0 ** draw(st.integers(2, 5))
    fh = 2.0 ** (j - 1) / length
    tiles = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(-1, 1))
        mt = draw(st.integers(0, int(length / 2.0**k) - 1))
        nf = int(fh * 2.0**k)
        mf = draw(st.integers(-nf, nf - 1))
        tiles.append(Tile(DyadicInterval(k, mt), DyadicInterval(-k, mf)))
    return j, length, tiles, draw(st.sampled_from(["indicator", "complex"])), draw(st.integers(0, 2**31 - 1))


class TestTreeCoefficientsOracle:
    @settings(max_examples=40, deadline=None)
    @given(coefficient_cases())
    def test_matches_time_domain_loop(self, case):
        j, length, tiles, kind, seed = case
        g = Grid(j, length)
        rng = np.random.default_rng(seed)
        if kind == "indicator":
            iv = tiles[0].time
            a = iv.left + rng.uniform(0.0, 0.5) * iv.length
            f = SampledFunction.indicator(g, [(a, a + 0.5 * iv.length)])
        else:
            f = SampledFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        tree = Tree(Interval(0.0, length), 0.0, frozenset(tiles))
        got = tree_coefficients(tree, f)
        want = loop_tree_coefficients(tree, f)
        assert list(got) == list(want)
        scale = max(abs(c) for c in want.values())
        assert max(abs(got[s] - want[s]) for s in want) <= 1e-12 * scale


class TestTailVariation:
    def test_one_model_function_per_tile_and_top(self, setup9, monkeypatch):
        import timefreq.wavepackets as wavepackets_mod
        from timefreq.exceptional import variation_exceptional_set

        g = setup9
        built, sliced = [], []
        real_build, real_slice = wavepackets_mod.tile_packet_hat, wavepackets_mod.x_slice
        monkeypatch.setattr(wavepackets_mod, "tile_packet_hat", lambda grid, s: built.append(s) or real_build(grid, s))
        monkeypatch.setattr(trees, "x_slice",
                            lambda grid, s, theta: sliced.append((s, theta)) or real_slice(grid, s, theta))
        tree = left_aligned_tree(mt=3)
        other = Tree.with_top_tile(tree.top_tile, tree.tiles, top_freq=4.5)
        zero = next(s for s in tree.tiles if s.scale == -2)
        coeffs = {s: (0.0 if s == zero else 0.3) * math.sqrt(s.time.length) for s in tree.tiles}
        # the same tree under two window keys, and the same tiles under a second top frequency
        windows = {(0, 0): [tree], (1, 0): [tree, other]}
        variation_exceptional_set(windows, coeffs, 0.05, 3.0, 1.0, g, l_decay=10.0)
        distinct = {(s, t.top_freq) for t in (tree, other) for s in t.tiles if s != zero}
        assert len(built) == len(sliced) == len(distinct) == 6
        assert set(sliced) == distinct
