import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefreq.dyadic import (
    DyadicInterval,
    Interval,
    Tile,
    TileUniverse,
    Tree,
    decay_level,
    is_convex,
    saturation,
    tile_le,
    tiles_from_text,
    tiles_to_text,
    window_partition,
)


def T(kt, mt, mf):
    return Tile(DyadicInterval(kt, mt), DyadicInterval(-kt, mf))


def is_proper(tree):
    """Oracle: I_s inside I_T and xi_T in omega_s for every tile s of the tree."""
    return all(tree.top_interval.contains(s.time.to_interval()) and s.freq.left <= tree.top_freq < s.freq.right
               for s in tree.tiles)


tiles_strategy = st.builds(
    T,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)


class TestTileOrder:
    def test_reflexive(self):
        s = T(0, 0, 0)
        assert tile_le(s, s)

    def test_example_pair(self):
        s = T(0, 0, 0)          # [0,1) x [0,1)
        t = T(1, 0, 0)          # [0,2) x [0,1/2)
        assert tile_le(s, t)
        assert not tile_le(t, s)

    def test_disjoint_times(self):
        s = T(0, 0, 0)
        t = T(0, 2, 0)
        assert not tile_le(s, t) and not tile_le(t, s)

    @given(tiles_strategy, tiles_strategy)
    @settings(max_examples=200)
    def test_antisymmetry(self, s, t):
        if tile_le(s, t) and tile_le(t, s):
            assert s == t

    @given(tiles_strategy, tiles_strategy, tiles_strategy)
    @settings(max_examples=200)
    def test_transitivity(self, a, b, c):
        if tile_le(a, b) and tile_le(b, c):
            assert tile_le(a, c)


def brute_force_convex(tiles, universe):
    ts = set(tiles)
    allt = universe.all_tiles()
    for s in ts:
        for t2 in ts:
            for mid in allt:
                if tile_le(s, mid) and tile_le(mid, t2) and mid not in ts:
                    return False
    return True


class TestConvexity:
    def test_empty_and_singleton(self):
        assert is_convex([])
        assert is_convex([T(0, 1, 2)])

    def test_missing_middle(self):
        s = T(0, 0, 0)   # [0,1) x [0,1)
        t = T(2, 0, 0)   # [0,4) x [0,1/4)
        assert not is_convex({s, t})
        assert is_convex({s, T(1, 0, 0), t})

    def test_full_downward_tree(self):
        top = T(2, 0, 0)
        tiles = {top}
        for k in (0, 1):
            for mt in range(int(4 * 2.0**-k)):
                tiles.add(Tile(DyadicInterval(k, mt), DyadicInterval(-k, 0)))
        assert is_convex(tiles)

    def test_matches_brute_force(self):
        uni = TileUniverse(-2, 2, Interval(0, 4), Interval(0, 4))
        allt = uni.all_tiles()
        assert len(allt) <= 10_000
        rng = np.random.default_rng(3)
        for _ in range(25):
            sub = {s for s in allt if rng.random() < 0.4}
            assert is_convex(sub) == brute_force_convex(sub, uni)


class TestSaturation:
    def test_tree_saturates_itself(self):
        top = T(1, 0, 1)
        members = {top, T(0, 0, 2), T(0, 1, 2), T(0, 0, 3)}
        members = {s for s in members if tile_le(s, top) or s == top}
        tree = Tree.with_top_tile(top, members, top_freq=top.freq.center)
        got = saturation(tree, members)
        assert got == {s for s in members if s.freq.contains(top.freq)}
        assert top in got

    def test_disjoint_frequencies(self):
        top = T(0, 0, 0)
        tree = Tree.with_top_tile(top, {top}, top_freq=top.freq.center)
        assert saturation(tree, {T(0, 5, 3), T(1, 1, 2)}) == set()

    def test_no_spatial_restriction(self):
        top = T(0, 0, 1)                  # omega_T = [1, 2)
        tree = Tree.with_top_tile(top, {top}, top_freq=top.freq.center)
        far = T(-1, 100, 0)               # omega = [0, 2) contains omega_T, I_s = [50, 50.5)
        assert far in saturation(tree, {far})


def fraction_window_partition(tiles, tree, level):
    """Oracle: :func:`window_partition` in exact rational arithmetic."""
    top = tree.top_tile
    if top is None:
        raise ValueError("window partition requires a tree with a top tile")
    w = Fraction(2) ** top.time.k
    center = (Fraction(top.time.m) + Fraction(1, 2)) * w
    width = (Fraction(2) ** level) * w
    base = center - width / 2
    groups = {}
    for s in tiles:
        if s.time.length > top.time.length:
            raise ValueError("window partition requires |I_s| <= |I_T| for every tile")
        p = Fraction(s.time.m) * Fraction(2) ** s.time.k
        q = Fraction(s.time.m + 1) * Fraction(2) ** s.time.k
        i_first = math.floor((p - base) / width)
        iq = (q - base) / width
        i_last = int(iq) - 1 if iq == int(iq) else math.floor(iq)
        if i_last - i_first > 1:
            raise ValueError("tile meets more than two adjacent windows")
        if i_first <= 0 <= i_last:
            m = 0
        elif i_first >= 1:
            m = i_first
        else:
            m = i_last
        groups.setdefault(m, set()).add(s)
    factor = float(Fraction(2) ** level + 2)
    return {m: Tree(top.time.to_interval().dilate(factor).shift(float(width * m)), tree.top_freq,
                    frozenset(members), top_tile=None)
            for m, members in groups.items()}


@st.composite
def partition_cases(draw):
    """A top tile at scale -6..8, a dilation level 0..6 and tiles up to six
    scales finer whose left ends lie up to 40 windows from the top; now and
    then one tile one or two scales coarser than the top, which must raise."""
    kt = draw(st.integers(-6, 8))
    top = T(kt, draw(st.integers(-8, 8)), draw(st.integers(-4, 4)))
    level = draw(st.integers(0, 6))
    reach = 40 * 2**level * 64  # 40 windows, in units of 2^(kt - 6)
    scales = draw(st.lists(st.integers(kt - 6, kt), min_size=1, max_size=12))
    if draw(st.integers(0, 9)) == 0:
        scales.append(kt + draw(st.integers(1, 2)))
    tiles = []
    for ks in scales:
        left = top.time.m * 64 + draw(st.integers(-reach, reach))
        tiles.append(T(ks, left >> (ks - kt + 6), 0))
    return Tree.with_top_tile(top, {top}, top_freq=top.freq.left), tiles, level


class TestWindowPartition:
    @given(partition_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle(self, case):
        tree, tiles, level = case
        try:
            expected = fraction_window_partition(tiles, tree, level)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                window_partition(tiles, tree, level)
            return
        assert window_partition(tiles, tree, level) == expected

    def _tree(self, kt=1, mt=2, mf=1):
        top = T(kt, mt, mf)
        return top, Tree.with_top_tile(top, {top}, top_freq=top.freq.left)

    def test_inside_lands_at_zero(self):
        top, tree = self._tree()
        inner = T(0, 4, 2)  # I = [4,5) inside I_T = [4,6)
        for level in (0, 1, 3):
            part = window_partition({inner, top}, tree, level)
            assert inner in part[0].tiles

    def test_partition_property(self):
        top, tree = self._tree(kt=0, mt=8, mf=3)
        rng = np.random.default_rng(8)
        tiles = set()
        for _ in range(60):
            k = int(rng.integers(-2, 1))
            mt = int(rng.integers(0, 16 * 2**-k))
            tiles.add(Tile(DyadicInterval(k, mt), DyadicInterval(-k, int(rng.integers(0, 4)))))
        for level in (0, 1, 2):
            part = window_partition(tiles, tree, level)
            union = set()
            for m, wtree in part.items():
                assert not (union & wtree.tiles)
                union |= wtree.tiles
            assert union == tiles

    def test_outputs_are_trees_over_saturation(self):
        top = T(0, 8, 2)
        tree = Tree.with_top_tile(top, {top}, top_freq=top.freq.left)
        uni = TileUniverse(-2, 0, Interval(0, 16), Interval(0, 8))
        sat = saturation(tree, uni.all_tiles())
        for level in (0, 1):
            for m, wtree in window_partition(sat, tree, level).items():
                assert is_proper(wtree)

    def test_oversized_tile_rejected(self):
        top, tree = self._tree(kt=0, mt=4, mf=1)
        with pytest.raises(ValueError):
            window_partition({T(1, 0, 0)}, tree, 0)


class TestDecayLevel:
    @pytest.mark.parametrize(
        "l,m,expected",
        [(0, 0, 0), (2, -1, 2), (2, 1, 2), (1, 4, 3), (3, -5, 6), (0, 2, 1), (5, 0, 5)],
    )
    def test_values(self, l, m, expected):
        assert decay_level(l, m) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decay_level(-1, 0)


class TestSerialization:
    def test_round_trip(self):
        tiles = [T(0, 3, 1), T(-2, 17, -1), T(1, 0, 5)]
        text = tiles_to_text(tiles)
        assert tiles_from_text(text) == sorted(tiles, key=Tile.sort_key)
        assert tiles_to_text(tiles_from_text(text)) == text

    @given(st.lists(tiles_strategy, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_lists(self, tiles):
        text = tiles_to_text(tiles)
        assert tiles_from_text(text) == sorted(tiles, key=Tile.sort_key)
        assert tiles_to_text(tiles_from_text(text)) == text

    def test_empty(self):
        assert tiles_to_text([]) == ""
        assert tiles_from_text("") == []
