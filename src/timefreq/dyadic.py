"""Dyadic intervals, tiles, the tile partial order, trees, convexity,
saturation, the spatial window partition of a saturated tree, and tile-set
serialization.

Tiles are rectangles I x omega of dyadic intervals with |I| * |omega| = 1.
Tree tops may be arbitrary (non-dyadic) intervals; those are represented by
:class:`Interval` with dyadic-rational float endpoints, which double precision
stores exactly at the scales used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "Interval",
    "DyadicInterval",
    "Tile",
    "Tree",
    "Forest",
    "TileUniverse",
    "tile_le",
    "is_convex",
    "saturation",
    "window_partition",
    "decay_level",
    "tiles_to_text",
    "tiles_from_text",
]


@dataclass(frozen=True)
class Interval:
    """Half-open interval [a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"empty interval [{self.a}, {self.b})")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains_point(self, x: float) -> bool:
        return self.a <= x < self.b

    def contains(self, other: "Interval") -> bool:
        return self.a <= other.a and other.b <= self.b

    def dilate(self, factor: float) -> "Interval":
        """Dilation about the center: factor * length, same center."""
        h = 0.5 * factor * self.length
        c = self.center
        return Interval(c - h, c + h)

    def shift(self, t: float) -> "Interval":
        return Interval(self.a + t, self.b + t)


@dataclass(frozen=True)
class DyadicInterval:
    """[m * 2^k, (m+1) * 2^k) with integer scale k and position m."""

    k: int
    m: int

    @property
    def length(self) -> float:
        return math.ldexp(1.0, self.k)

    @property
    def left(self) -> float:
        return math.ldexp(self.m, self.k)

    @property
    def right(self) -> float:
        return math.ldexp(self.m + 1, self.k)

    @property
    def center(self) -> float:
        return math.ldexp(self.m + 0.5, self.k)

    def contains_point(self, x: float) -> bool:
        return self.left <= x < self.right

    def contains(self, other: "DyadicInterval") -> bool:
        """Exact containment other subseteq self, decided by integer arithmetic."""
        if other.k > self.k:
            return False
        return (other.m >> (self.k - other.k)) == self.m

    def ancestor(self, k: int) -> "DyadicInterval":
        """The unique dyadic interval of scale k >= self.k containing self."""
        if k < self.k:
            raise ValueError("ancestor scale must be coarser")
        return DyadicInterval(k, self.m >> (k - self.k))

    def to_interval(self) -> Interval:
        return Interval(self.left, self.right)


@dataclass(frozen=True)
class Tile:
    """Time-frequency rectangle I_s x omega_s of area one."""

    time: DyadicInterval
    freq: DyadicInterval

    def __post_init__(self):
        if self.time.k + self.freq.k != 0:
            raise ValueError("tile must have area one: time.k + freq.k == 0")

    @property
    def scale(self) -> int:
        """Time scale k; |I_s| = 2^k and |omega_s| = 2^-k."""
        return self.time.k

    def sort_key(self):
        return (self.time.k, self.time.m, self.freq.m)


def tile_le(s: Tile, t: Tile) -> bool:
    """Tile order: s <= t iff I_s subseteq I_t and omega_t subseteq omega_s."""
    return t.time.contains(s.time) and s.freq.contains(t.freq)


@dataclass(frozen=True)
class TileUniverse:
    """Bounded universe of tiles: a scale range plus time/frequency boxes."""

    k_min: int
    k_max: int
    time_box: Interval
    freq_box: Interval

    def all_tiles(self) -> list[Tile]:
        out = []
        for k in range(self.k_min, self.k_max + 1):
            tl = math.ldexp(1.0, k)
            fl = math.ldexp(1.0, -k)
            mt0 = int(math.ceil(self.time_box.a / tl))
            mt1 = int(math.floor(self.time_box.b / tl))
            mf0 = int(math.ceil(self.freq_box.a / fl))
            mf1 = int(math.floor(self.freq_box.b / fl))
            for mt in range(mt0, mt1):
                for mf in range(mf0, mf1):
                    out.append(Tile(DyadicInterval(k, mt), DyadicInterval(-k, mf)))
        return out


def is_convex(tiles: Iterable[Tile]) -> bool:
    """Convexity in the sandwich sense.

    True iff for all s, s'' in the set and every tile s' with
    omega_s'' subseteq omega_s' subseteq omega_s and I_s subseteq I_s'
    subseteq I_s'', also s' is in the set.  The sandwich condition is exactly
    s <= s' <= s'', and for each intermediate scale there is a unique
    candidate tile, so the check is quadratic in the set size.  No universe
    is needed: a candidate between two tiles of a :class:`TileUniverse` lies
    in it, as its scale lies between theirs, I_s' inside I_s'' and omega_s'
    inside omega_s.
    """
    ts = set(tiles)
    by_scale = sorted(ts, key=lambda t: t.scale)
    for s in by_scale:
        for t in by_scale:
            if t.scale <= s.scale + 1:
                continue
            if not tile_le(s, t):
                continue
            for k in range(s.scale + 1, t.scale):
                cand = Tile(s.time.ancestor(k), t.freq.ancestor(-k))
                if cand not in ts:
                    return False
    return True


@dataclass(frozen=True)
class Tree:
    """Collection of tiles hanging below a top (I_T, xi_T).

    A proper tree satisfies I_s subseteq I_T and xi_T in omega_s for every
    member; the test oracle ``is_proper`` (``tests/test_dyadic.py``) checks
    this.  Trees produced by the greedy forest selection use a wider
    frequency-association rule and may fail the xi_T membership for outlying
    tiles, so properness is not enforced at construction.
    """

    top_interval: Interval
    top_freq: float
    tiles: frozenset[Tile]
    top_tile: Optional[Tile] = None

    @classmethod
    def with_top_tile(cls, top: Tile, tiles: Iterable[Tile], top_freq: float) -> "Tree":
        return cls(top.time.to_interval(), top_freq, frozenset(tiles), top_tile=top)

    def scales(self) -> list[int]:
        return sorted({s.scale for s in self.tiles})

    def tiles_at_scale(self, k: int) -> list[Tile]:
        return sorted((s for s in self.tiles if s.scale == k), key=Tile.sort_key)

    def find_top_tile(self) -> Optional[Tile]:
        """The unique member above all others in the tile order, if present."""
        for t in self.tiles:
            if all(tile_le(s, t) for s in self.tiles):
                return t
        return None


@dataclass(frozen=True)
class Forest:
    """Pairwise tile-disjoint trees collected at one size level n."""

    trees: tuple[Tree, ...]
    level: int

    def __post_init__(self):
        seen: set[Tile] = set()
        for t in self.trees:
            if seen & t.tiles:
                raise ValueError("trees in a forest must be pairwise tile-disjoint")
            seen |= t.tiles

    def tiles(self) -> set[Tile]:
        return set().union(*(t.tiles for t in self.trees))

    def top_length_sum(self) -> float:
        return sum(t.top_interval.length for t in self.trees)


def saturation(tree: Tree, tiles: Iterable[Tile]) -> set[Tile]:
    """All tiles whose frequency interval contains the top tile's omega_T.

    No spatial restriction is applied; the tree must carry a top tile.
    """
    top = tree.top_tile or tree.find_top_tile()
    if top is None:
        raise ValueError("saturation requires a tree with a top tile")
    return {s for s in tiles if s.freq.contains(top.freq)}


def window_partition(tiles: Iterable[Tile], tree: Tree, level: int) -> dict[int, Tree]:
    """Partition a saturated collection into spatially localized trees.

    Window m at dilation level l covers 2^l I_T + 2^l m |I_T|; a tile joins
    window 0 if it meets it, otherwise the adjacent window on its side closest
    to the center.  The returned tree for window m has top interval
    (2^l + 2) I_T + 2^l m |I_T| and the frequency of the parent tree's top.
    Requires |I_s| <= |I_T| for every input tile.
    """
    top = tree.top_tile or tree.find_top_tile()
    if top is None:
        raise ValueError("window partition requires a tree with a top tile")
    width = math.ldexp(1.0, top.time.k + level)
    base = top.time.center - width / 2

    groups: dict[int, set[Tile]] = {}
    for s in tiles:
        if s.time.length > top.time.length:
            raise ValueError("window partition requires |I_s| <= |I_T| for every tile")
        i_first = math.floor((s.time.left - base) / width)
        i_last = math.ceil((s.time.right - base) / width) - 1
        if i_last - i_first > 1:
            raise ValueError("tile meets more than two adjacent windows")
        if i_first <= 0 <= i_last:
            m = 0
        elif i_first >= 1:
            m = i_first
        else:
            m = i_last
        groups.setdefault(m, set()).add(s)

    out: dict[int, Tree] = {}
    factor = 2.0**level + 2
    for m, members in groups.items():
        top_iv = top.time.to_interval().dilate(factor).shift(width * m)
        out[m] = Tree(top_iv, tree.top_freq, frozenset(members), top_tile=None)
    return out


def decay_level(l: int, m: int) -> int:
    """Decomposition level for window (l, m): l for |m| <= 1, else l + ceil(log2 |m|)."""
    if l < 0:
        raise ValueError("dilation level must be >= 0")
    if abs(m) <= 1:
        return l
    return l + (abs(m) - 1).bit_length()


def tiles_to_text(tiles: Iterable[Tile]) -> str:
    """One tile per line as four integers: k_time m_time k_freq m_freq."""
    lines = [
        f"{s.time.k} {s.time.m} {s.freq.k} {s.freq.m}"
        for s in sorted(tiles, key=Tile.sort_key)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def tiles_from_text(text: str) -> list[Tile]:
    """Tiles of the lines ``k_time m_time k_freq m_freq``; a malformed line raises ValueError naming it."""
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kt, mt, kf, mf = (int(tok) for tok in line.split())
            out.append(Tile(DyadicInterval(kt, mt), DyadicInterval(kf, mf)))
        except ValueError as exc:
            raise ValueError(f"tile file line {number}: {exc}; expected four integers "
                             f"k_time m_time k_freq m_freq with k_time + k_freq = 0, got {line!r}") from None
    return out
