"""Semiconjugating a quasi-isometric Z-action to an isometric one.

Pipeline: the sup-displacement metric dbar over the words of length <= B
makes the action isometric; the Rips 2-complex of (Z, dbar) is a thickened
line; a family of disjoint, invariant, essential tracks cuts it into
bounded blocks; collapsing blocks gives the equivariant block map onto Z
with an induced isometric action, packaged as a branched line with one tip
per integer.

Tracks are represented by the vertex bipartitions they induce.  An
essential track crosses each edge of its cut once (triangles meet a
bipartition in 0 or 2 sides, so the normal-coordinate conditions hold
automatically), so a minimum-weight essential track is a minimum cut
between the two rim tails: one max-flow computation gives its weight, and
its residual graph gives the leftmost such cut.

dbar(x, y) is the maximum of |w(x) - w(y)| over the words w of length <= B
defined at x and y, the empty word included.  Over lengths <= k it is D_k:
D_0(x, y) = |x - y| and D_k(x, y) = max(D_{k-1}(x, y), D_{k-1}(gx, gy) for
the generators g defined at x and y), with D(z, z) = 0, as a word of length
k is a generator and then a word of length k - 1.  D is kept as rows by
position over every point a table passes through.  Each round reads only
the last round's rows (same-round values would count longer words), and a
round that changes nothing is a fixpoint every later round repeats, so the
loop stops there.  Some word of length <= B defined nowhere exhausts the
window; g after w is empty iff w's image misses the domain of g, so a BFS
over image sets meets the shortlex-first such word, as a BFS over the
words' tables does, and raises the same error.

A Rips2Complex derives its incidence from its edges, once: `adj` (vertex
-> neighbours), the triangles, `span` (the longest edge span) and
`cofaces`, which maps each edge to the other two sides of every triangle
on it.  The track tests walk a cut through `adj` and `cofaces` instead of
rescanning the edges and triangles.

`dbar`'s image-set BFS, `_orbit_closure` and `_reach` run
`cube_complex.bfs_ball`; `Track.connected` (hot) and `_leftmost_min_cut`'s
path search do not.

Orientation invariant: every Track built here stores as `left` the side
of its bipartition that holds the window minimum (`_oriented` is the one
place a side is complemented).  Tracks are then compared by inclusion and
counted into blocks by `_block_index` without re-orienting them; uncrossing
by meet and join ends at the level sets of that count (`_uncross`).

`line_isometry` is the one sign-and-offset fit of a map between lines of
blocks, and `BranchedLine.of_block_map` the one branched-line assembly;
`collapse`, `building.class_isometry` and `wallspace_dual` use them.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter

from .cube_complex import TruncationError, bfs_ball


class ActionError(ValueError):
    pass


@dataclass
class ZActionSpec:
    """Generator tables of an action on a window of Z by quasi-isometries."""

    window: int
    L: float
    A: float
    generators: dict             # name -> {int: int}, partial on the window
    inverses: dict               # name -> name of the inverse table
    relations: list = field(default_factory=list)

    def validate(self):
        """Check 1 <= L and 0 <= A, both at most 2**53 so that int(L*B + A)
        and the weight cap stay finite, the inverse tables, injectivity, the
        (L, A) bounds, and that each relation moves points by at most A + 2."""
        if not (1 <= self.L <= 2**53 and 0 <= self.A <= 2**53):
            raise ActionError(
                f"L={self.L}, A={self.A}: need 1 <= L, 0 <= A, both <= 2**53")
        if not isinstance(self.inverses, dict):
            raise ActionError("inverses must map generator names to names")
        for name, t in self.generators.items():
            inv_name = self.inverses.get(name)
            if not isinstance(inv_name, str) or inv_name not in self.generators:
                raise ActionError(f"generator {name!r} lacks an inverse table")
            ti = self.generators[inv_name]
            for x, y in t.items():
                if y in ti and ti[y] != x:
                    raise ActionError(f"{name!r} and {inv_name!r} disagree")
            vals = list(t.values())
            if len(set(vals)) != len(vals):
                raise ActionError(f"table {name!r} is not injective")
            for x in t:
                for y in t:
                    if x < y:
                        d, di = y - x, abs(t[y] - t[x])
                        if di > self.L * d + self.A or \
                           di < d / self.L - self.A:
                            raise ActionError(
                                f"table {name!r} breaks the ({self.L},{self.A}) "
                                f"bounds at {x},{y}")
        for rel in self.relations:
            if not all(isinstance(n, str) and n in self.generators for n in rel):
                raise ActionError(f"relation {rel} names an unknown generator")
            t = self.compose(rel)
            for x, y in t.items():
                if abs(x - y) > self.A + 2:
                    raise ActionError(f"relation {rel} moves {x} to {y}")
        return True

    def compose(self, names):
        """Table of a word in the generators (rightmost acts first)."""
        t = {n: n for n in range(-self.window, self.window + 1)}
        for name in reversed(list(names)):
            g = self.generators[name]
            t = {x: g[y] for x, y in t.items() if y in g}
        return t

    @staticmethod
    def from_json(text: str) -> "ZActionSpec":
        data = json.loads(text)
        gens = {name: {int(k): int(v) for k, v in t.items()}
                for name, t in data["generators"].items()}
        inverses = data.get("inverses")
        if inverses is None:
            inverses = add_inverses(gens)
        return ZActionSpec(int(data["window"]), float(data["L"]),
                           float(data["A"]), gens, inverses,
                           [list(r) for r in data.get("relations", [])])

    def to_json(self) -> str:
        return json.dumps({
            "window": self.window, "L": self.L, "A": self.A,
            "generators": {n: {str(k): v for k, v in t.items()}
                           for n, t in self.generators.items()},
            "inverses": dict(self.inverses),
            "relations": [list(r) for r in self.relations],
        })


def add_inverses(gens: dict) -> dict:
    """Name an inverse for every table of `gens`: tables `<name>` and
    `<name>_inv` are each other's inverse, and a table with neither partner
    gets the inverted table `<name>_inv` added."""
    inverses = {}
    for name, t in list(gens.items()):
        if name in inverses:
            continue
        inv_name = f"{name}_inv"
        if name.endswith("_inv") and name[:-4] in gens:
            inv_name = name[:-4]
        elif inv_name not in gens:
            gens[inv_name] = {v: k for k, v in t.items()}
        inverses[name] = inv_name
        inverses[inv_name] = name
    return inverses


def least_L(tables) -> float:
    """The least L for which `ZActionSpec.validate` accepts injective
    `tables` with A = 0: the largest ratio |t[y] - t[x]| / |y - x| or its
    inverse, raised by ulps where validate's float bounds reject it."""
    L = 1.0
    for t in tables:
        for x in t:
            for y in t:
                d, di = y - x, abs(t[y] - t[x])
                if x < y and di:
                    L = max(L, di / d, d / di)
                    while di > L * d or di < d / L:
                        L = math.nextafter(L, math.inf)
    return L


def two_flipping_spec(window: int) -> ZActionSpec:
    """a swaps 2n <-> 2n+1, b translates by 2 (H = Z/2 + Z)."""
    a = {}
    for n in range(-window, window + 1):
        m = n + 1 if n % 2 == 0 else n - 1
        if abs(m) <= window:
            a[n] = m
    b = {n: n + 2 for n in range(-window, window - 1)}
    b_inv = {n: n - 2 for n in range(-window + 2, window + 1)}
    return ZActionSpec(window, 3, 2,
                       {"a": a, "b": b, "b_inv": b_inv},
                       {"a": "a", "b": "b_inv", "b_inv": "b"},
                       relations=[["a", "a"],
                                  ["a", "b", "a", "b_inv"]])


def translation_spec(window: int) -> ZActionSpec:
    b = {n: n + 1 for n in range(-window, window)}
    bi = {n: n - 1 for n in range(-window + 1, window + 1)}
    return ZActionSpec(window, 1, 0, {"b": b, "b_inv": bi},
                       {"b": "b_inv", "b_inv": "b"})


def identity_spec(window: int) -> ZActionSpec:
    e = {n: n for n in range(-window, window + 1)}
    return ZActionSpec(window, 1, 0, {"e": dict(e)}, {"e": "e"})


def reflection_spec(window: int) -> ZActionSpec:
    r = {n: -n for n in range(-window, window + 1)}
    return ZActionSpec(window, 1, 0, {"r": dict(r)}, {"r": "r"},
                       relations=[["r", "r"]])


# ---------------------------------------------------------------------------
# the invariant metric
# ---------------------------------------------------------------------------

def dbar(spec: ZActionSpec, B: int = 8, check_invariance: bool = True):
    """Sup displacement metric over group elements of word length <= B."""
    def step(img):
        for name, g in spec.generators.items():
            img2 = frozenset(g[y] for y in img if y in g)
            if not img2:
                raise TruncationError(
                    f"window exhausted before depth {B} "
                    f"(a composition through {name!r} has empty domain)")
            yield name, img2

    pts = list(range(-spec.window, spec.window + 1))
    bfs_ball([frozenset(pts)], step, B)
    # every point a word can pass through; the window is a run of them
    gens = spec.generators.values()
    univ = sorted(set(pts).union(*gens, *(g.values() for g in gens)))
    n, at = len(univ), {x: i for i, x in enumerate(univ)}
    # rows of D by position, plus a column n of 0 read where g is undefined
    D = [[abs(x - y) for y in univ] + [0] for x in univ]
    moves = [(itemgetter(*[at[g[x]] if x in g else n for x in univ], n),
              [(i, at[g[x]]) for i, x in enumerate(univ) if x in g])
             for g in gens]
    for _ in range(B):
        new = list(D)
        for image_row, dom in moves:
            for i, gi in dom:
                new[i] = [a if a >= b else b
                          for a, b in zip(new[i], image_row(D[gi]))]
        if new == D:
            break
        D = new
    lo, hi = at[pts[0]], at[pts[-1]] + 1
    metric = {(x, y): d for i, x in enumerate(pts)
              for y, d in zip(pts[i + 1 :], D[lo + i][lo + i + 1 : hi])}
    if check_invariance:
        margin = int(spec.L * B + spec.A) + 2
        lim = spec.window - margin
        for name, g in spec.generators.items():
            for x, y in combinations(range(-lim, lim + 1), 2):
                if x in g and y in g:
                    gx, gy = sorted((g[x], g[y]))
                    if abs(gx) <= lim and abs(gy) <= lim:
                        if metric[(gx, gy)] != metric[x, y]:
                            raise TruncationError(
                                f"dbar not {name!r}-invariant at ({x},{y}); "
                                "raise B or the window")
    return metric


# ---------------------------------------------------------------------------
# the Rips 2-complex
# ---------------------------------------------------------------------------

@dataclass
class Rips2Complex:
    spec: ZActionSpec
    radius: float                # the Rips parameter
    vertices: list
    edges: set                   # frozenset pairs
    metric: dict                 # dbar on sorted pairs
    adj: dict = field(init=False, repr=False, compare=False)
    triangles: list = field(init=False)      # sorted triples
    span: int = field(init=False, repr=False, compare=False)
    cofaces: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.adj = {x: set() for x in self.vertices}
        for e in self.edges:
            x, y = tuple(e)
            self.adj[x].add(y)
            self.adj[y].add(x)
        self.triangles = [(x, y, z) for x in self.vertices
                          for y in sorted(self.adj[x]) if y > x
                          for z in sorted(self.adj[x] & self.adj[y]) if z > y]
        self.span = max((y - x for x in self.vertices for y in self.adj[x]),
                        default=1)
        self.cofaces = {e: [] for e in self.edges}
        for x, y, z in self.triangles:
            xy, xz, yz = frozenset((x, y)), frozenset((x, z)), frozenset((y, z))
            self.cofaces[xy].append((xz, yz))
            self.cofaces[xz].append((xy, yz))
            self.cofaces[yz].append((xy, xz))


def rips2(spec: ZActionSpec, B: int = 8, radius: float | None = None) -> Rips2Complex:
    """2-skeleton of the Rips complex of (Z, dbar) at the given radius."""
    if radius is None:
        radius = 3 * (spec.L + spec.A)
    metric = dbar(spec, B)
    pts = list(range(-spec.window, spec.window + 1))
    edges = {frozenset(pair) for pair, d in metric.items() if d <= radius}
    K = Rips2Complex(spec, radius, pts, edges, metric)
    if len(_reach(K, pts[0], ())) != len(pts):
        raise ActionError("Rips complex disconnected; the radius is too small")
    _check_two_ended(K)
    return K


def _reach(K: Rips2Complex, start, avoid):
    """Vertices joined to `start` by edges of K that miss `avoid`."""
    def step(x):
        return [(None, w) for w in K.adj[x] if w not in avoid]

    return bfs_ball([start], step, len(K.vertices)).keys()


def _check_two_ended(K: Rips2Complex):
    """Removing a middle block must leave the two rim tails separated."""
    span = K.span
    lo, hi = min(K.vertices), max(K.vertices)
    if hi - lo <= 4 * span:
        return
    middle = {x for x in K.vertices if abs(x) <= span}
    if _reach(K, lo, middle) & _reach(K, hi, middle):
        raise ActionError("Rips complex is not two-ended on the interior")


# ---------------------------------------------------------------------------
# tracks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Track:
    """An essential track presented by its vertex bipartition.

    `left` is the side holding the window minimum (see `_oriented`).  The
    realized curve crosses each cut edge once.  Every triangle meets the
    cut in 0 or 2 sides, so the normal-coordinate conditions always hold and
    a track is valid when it is connected and essential.
    """

    left: frozenset

    def cut_edges(self, K: Rips2Complex):
        return frozenset(frozenset((x, y)) for x in self.left
                         for y in K.adj[x] if y not in self.left)

    def weight(self, K: Rips2Complex) -> int:
        """The number of cut edges, counted from `left` without a set."""
        left = self.left
        return sum(1 for x in left for y in K.adj[x] if y not in left)

    def connected(self, K: Rips2Complex) -> bool:
        """The cut edges form one curve: linked through shared triangles."""
        cut = self.cut_edges(K)
        if not cut:
            return False
        start = next(iter(cut))
        seen = {start}
        dq = deque([start])
        while dq:
            for sides in K.cofaces[dq.popleft()]:
                for f in sides:
                    if f in cut and f not in seen:
                        seen.add(f)
                        dq.append(f)
        return len(seen) == len(cut)

    def essential(self, K: Rips2Complex) -> bool:
        """Both complement pieces contain a full rim tail of the window.

        Requiring whole tails (of length the longest edge span) rules out
        the spurious cheap cuts that clip a corner off the truncation.
        """
        lo, hi = min(K.vertices), max(K.vertices)
        left = self.left
        lo_tail = range(lo, lo + K.span + 1)
        hi_tail = range(hi - K.span, hi + 1)
        return (left.issuperset(lo_tail) and left.isdisjoint(hi_tail)) or \
            (left.isdisjoint(lo_tail) and left.issuperset(hi_tail))


def _oriented(K: Rips2Complex, side) -> Track:
    """The track of the bipartition (side, rest), presented by the part
    that holds the window minimum."""
    if min(K.vertices) in side:
        return Track(frozenset(side))
    return Track(frozenset(K.vertices).difference(side))


def _leftmost_min_cut(K: Rips2Complex, left_seed, right_seed):
    """Edmonds-Karp max flow between the seeds over unit-capacity edges.

    Returns (weight, left): the flow value and the window vertices reachable
    from the source in the final residual graph.  By Picard-Queyranne that
    reachable set is the leftmost minimum cut, contained in the source side
    of every other minimum cut.
    """
    SRC, SNK = "S", "T"
    # residual capacities; a window arc not listed still has its unit
    cap = {}
    for s in left_seed:
        cap[(SRC, s)] = 1 << 30
    for t in right_seed:
        cap[(t, SNK)] = 1 << 30
    flow = 0
    while True:
        parent = {SRC: None}
        dq = deque([SRC])
        while dq and SNK not in parent:
            u = dq.popleft()
            if u == SRC:
                nbrs = left_seed
            else:
                nbrs = K.adj[u] | {SNK} if (u, SNK) in cap else K.adj[u]
            for w in nbrs:
                if w not in parent and cap.get((u, w), 1) > 0:
                    parent[w] = u
                    dq.append(w)
        if SNK not in parent:
            return flow, set(parent) - {SRC}
        path = []
        node = SNK
        while parent[node] is not None:
            path.append((parent[node], node))
            node = parent[node]
        push = min(cap.get(arc, 1) for arc in path)
        for a, b in path:
            cap[(a, b)] = cap.get((a, b), 1) - push
            cap[(b, a)] = cap.get((b, a), 1) + push
        flow += push


def min_essential_track(K: Rips2Complex) -> Track:
    """Least-weight essential track: the leftmost minimum cut between the
    two rim tails.

    The max flow from the low tail to the high tail finds the least weight;
    its residual graph gives the leftmost minimum cut, which is the
    tie-break among equal-weight tracks.  A weight above 4(L*radius + A) or
    a cut that is not a connected essential track raises ActionError; a
    window too short for two disjoint tails raises TruncationError.
    """
    spec = K.spec
    w_max = int(4 * (spec.L * K.radius + spec.A))
    lo, hi = min(K.vertices), max(K.vertices)
    seed = max(K.span, 1)
    if lo + seed >= hi - seed:
        raise TruncationError(f"window {lo}..{hi} cannot hold two disjoint "
                              f"rim tails of width {seed}")
    weight, left = _leftmost_min_cut(
        K, [v for v in K.vertices if v <= lo + seed],
        [v for v in K.vertices if v >= hi - seed])
    if weight > w_max:
        raise ActionError(
            f"least essential cut has weight {weight} > w_max={w_max}")
    track = Track(frozenset(left))
    if not track.essential(K) or not track.connected(K):
        raise ActionError(
            f"least cut of weight {weight} is not a connected essential track")
    return track


def _apply_table_to_track(K: Rips2Complex, t, track: Track):
    """Image bipartition under a group table, None where the window clips."""
    img_left = set()
    img_right = set()
    for x in K.vertices:
        if x in t:
            (img_left if x in track.left else img_right).add(t[x])
    if not img_left or not img_right:
        return None
    # extend to the full window by the dominant side at each rim
    left_has_lo = min(img_left) < min(img_right)
    full_left = set(img_left)
    for v in K.vertices:
        if v not in img_left and v not in img_right:
            if (v < min(img_right)) if left_has_lo else (v > max(img_right)):
                full_left.add(v)
    return _oriented(K, full_left)


def _uncross(tracks, K: Rips2Complex):
    """The chain, smallest side first, at which replacing crossing pairs by
    their meet and join ends.  Meet and join keep each vertex's count of
    sides containing it, a chain is fixed by its counts (its k-th side is
    {x : count >= k}), and dropping a join that is the whole window lowers
    every count by one.  So the chain is {x : f(x) <= v} for every value v
    but the largest of f, the `_block_index` of the distinct sides.  Cut
    weight is submodular: a chain that differs from those sides weighs no
    more than they do, which is checked.
    """
    f = _block_index(tracks, K)
    values = sorted(set(f.values()))
    chain = [Track(frozenset(x for x in K.vertices if f[x] <= v))
             for v in values[:-1]]
    distinct = set(tracks)
    if set(chain) != distinct and sum(tr.weight(K) for tr in chain) > \
            sum(tr.weight(K) for tr in distinct):
        raise AssertionError("uncrossing increased total weight")
    return chain


def _orbit_closure(spec: ZActionSpec, K: Rips2Complex, seeds):
    """Close a track set under the generators, inside the window, for at
    most 16 |V| rounds: the seeds, then their essential, connected images
    in BFS order.  Each distinct image is tested once."""
    valid = {}

    def step(tr):
        for name, g in spec.generators.items():
            img = _apply_table_to_track(K, g, tr)
            if img is None:
                continue
            if img not in valid:
                valid[img] = img.essential(K) and img.connected(K)
            if valid[img]:
                yield name, img

    return list(bfs_ball(seeds, step, 16 * len(K.vertices)))


def track_family(spec: ZActionSpec, K: Rips2Complex, B: int = 4):
    """Disjoint invariant family, smallest side first: the window orbit of
    a minimal track, greedily filled until every complementary block has
    diameter at most D1 = 2 * weight + 5 * radius.  B is unused."""
    def closed(seeds):
        family = _uncross(_orbit_closure(spec, K, seeds), K)
        return [tr for tr in family if tr.essential(K) and tr.connected(K)]

    base = min_essential_track(K)
    D1 = 2 * base.weight(K) + 5 * K.radius
    family = closed([base])
    # greedy fill of wide blocks
    lo, hi = min(K.vertices), max(K.vertices)
    guard = 0
    while guard < 4 * len(K.vertices):
        guard += 1
        blocks = _blocks_of(family, K)
        wide = [b for b in blocks if len(b) > D1
                and min(b) > lo + K.radius and max(b) < hi - K.radius]
        if not wide:
            break
        b = max(wide, key=len)
        mid = sorted(b)[len(b) // 2]
        cut = Track(frozenset(v for v in K.vertices if v <= mid))
        if not cut.connected(K) or not cut.essential(K):
            break
        family = closed(family + [cut])
    return family


def _block_index(family, K: Rips2Complex):
    """f(x) = #{tracks whose left side misses x}: the block of each window
    vertex, counted from the window minimum."""
    sides = {tr.left for tr in family}
    return {x: sum(1 for L in sides if x not in L) for x in K.vertices}


def _blocks_of(family, K: Rips2Complex):
    blocks = {}
    for x, m in _block_index(family, K).items():
        blocks.setdefault(m, []).append(x)
    return list(blocks.values())


# ---------------------------------------------------------------------------
# branched lines
# ---------------------------------------------------------------------------

def line_isometry(pairs):
    """The isometry x -> sign*x + off of the integer line through the least
    and greatest of the (a, b) pairs, as (sign, off); None when those two
    pairs are not the same distance apart.  When every pair has the same a
    it is the translation through the least pair.  The other pairs are not
    checked: each caller checks them against its own error."""
    (a1, b1), (a2, b2) = min(pairs), max(pairs)
    if a1 == a2:
        return 1, b1 - a1
    if abs(b2 - b1) != a2 - a1:
        return None
    sign = 1 if b2 > b1 else -1
    return sign, b1 - sign * a1


@dataclass
class BranchedLine:
    """A line over a window of integers with whisker tips attached.

    tips[m] lists the tip ids attached at base integer m; when a base point
    has no whiskers it is itself a tip (valence 2).
    """

    window: tuple                # (lo, hi) inclusive base range
    tips: dict                   # base int -> tuple of tip ids

    @classmethod
    def of_block_map(cls, fmap):
        """The branched line of a block map {x: block}: its window spans
        the blocks, and every block hit by two or more x carries them as
        tips.  Blocks are keyed in order of first appearance in `fmap`."""
        fibers = {}
        for x, m in fmap.items():
            fibers.setdefault(m, []).append(x)
        tips = {m: tuple(sorted(xs)) for m, xs in fibers.items()
                if len(xs) >= 2}
        return cls((min(fibers), max(fibers)), tips)

    def branching_number(self) -> int:
        worst = 2
        for m in range(self.window[0], self.window[1] + 1):
            k = len(self.tips.get(m, ()))
            if k:
                worst = max(worst, 2 + k)
        return worst


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

@dataclass
class SemiconjugacyResult:
    spec: ZActionSpec
    block_map: dict              # window int -> block int
    isometric_action: dict       # generator name -> (sign, offset)
    branched_line: BranchedLine
    tip_map: dict                # window int -> (block, tip id or None)
    measured: dict


def collapse(spec: ZActionSpec, family, K: Rips2Complex) -> SemiconjugacyResult:
    """Collapse complementary blocks to points; the induced generator maps
    must be isometries of the block line, with exact equivariance on the
    interior, which stays span + radius + 2 away from the window ends.  The
    tracks are oriented, as `track_family` returns them."""
    lo, hi = min(K.vertices), max(K.vertices)
    fmap = _block_index(family, K)
    margin = K.span + int(K.radius) + 2
    interior = [x for x in K.vertices if lo + margin <= x <= hi - margin]
    iso = {}
    for name, g in spec.generators.items():
        pairs = sorted((fmap[x], fmap[g[x]]) for x in interior if x in g)
        if not pairs:
            raise TruncationError(f"window too small for generator {name!r}")
        iso[name] = line_isometry(pairs)
        if iso[name] is None:
            raise ActionError(f"{name!r} does not act isometrically on blocks")
        sign, off = iso[name]
        for a, b in pairs:
            if sign * a + off != b:
                raise ActionError(
                    f"{name!r}: block map not equivariant at block {a}")
    if not interior:
        raise TruncationError("window too small for the collapse interior")
    for rel in spec.relations:
        # rel = g1 g2 ... acts as g1 after g2 after ...
        sign, off = 1, 0
        for name in reversed(rel):
            s, o = iso[name]
            sign, off = s * sign, s * off + o
        if (sign, off) != (1, 0):
            raise ActionError(f"relation {rel} acts as ({sign},{off}) on blocks")
    # measured quasi-isometry constants of f on the interior
    worst_fiber = max(
        len([x for x in interior if fmap[x] == m])
        for m in {fmap[x] for x in interior})
    stretch = 1.0
    for x in interior[:: max(1, len(interior) // 40)]:
        for y in interior[:: max(1, len(interior) // 40)]:
            if x < y and fmap[y] != fmap[x]:
                stretch = max(stretch, abs(x - y) / abs(fmap[y] - fmap[x]))
    measured = {"L": stretch, "A": float(worst_fiber),
                "blocks": len({fmap[x] for x in interior})}
    # branched line over the interior blocks
    line = BranchedLine.of_block_map({x: fmap[x] for x in interior})
    tip_map = {x: (fmap[x], x if fmap[x] in line.tips else None)
               for x in interior}
    return SemiconjugacyResult(spec, fmap, iso, line, tip_map, measured)


def semiconjugate(spec: ZActionSpec, B: int = 8,
                  radius: float | None = None) -> SemiconjugacyResult:
    """End-to-end: dbar, Rips complex, track family, collapse."""
    K = rips2(spec, B, radius)
    family = track_family(spec, K)
    return collapse(spec, family, K)


def result_to_json(res: SemiconjugacyResult) -> str:
    return json.dumps({
        "block_map": {str(k): v for k, v in sorted(res.block_map.items())},
        "isometries": {k: {"sign": s, "offset": o}
                       for k, (s, o) in res.isometric_action.items()},
        "branched_line": {
            "window": list(res.branched_line.window),
            "tips": {str(m): list(t) for m, t in res.branched_line.tips.items()},
        },
        "measured": res.measured,
    })
