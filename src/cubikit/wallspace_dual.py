"""Finite wallspaces, Sageev duals, and the invariant wallspace of a RAAG.

Walls are bipartitions of a finite point set, stored one side at a time as
bitmasks for fast pairwise-intersection checks.  `_orientations` flips
walls breadth first from a point-realized consistent orientation (a
hand-written BFS, as it records every flip); for finite wallspaces this
enumerates every 0-cube.  Orientations are bitmasks over the walls, and a
flip is one AND and one compare against two masks per wall side, filled by
one pass over unordered wall pairs.  A wallspace owns the result,
`Wallspace.flips`, which is the dual's set of 0-cubes and its edges; every
point's state, one transpose of the sides' bit strings (`point_state`
indexes it); and its maximal cubes, from one cube search over the flips
(`Wallspace.maximal_cubes`), which `maximal_cubes` and `dual_dimension`
read.  `dual_cube_complex` assembles the dual as a plain cube-complex
ball, each square read once from its lowest corner (no wall of it on the
stored side).  `phi_map` reads point states and flips and builds no
complex.

The invariant wallspace gives each class the `semiconjugacy.BranchedLine`
of its block map (`building.resolved_table`), and moves its cut walls by
the one `building.class_isometry` of each (class, generator) pair and its
tip walls by `building.transport_height`.  Each class's heights come from
one `raag_geometry.class_heights` pass over the points, which inherits
each point's height from its prefix (a v-letter adds its exponent inside
the class's parallel set and nothing outside it), so only the empty word
costs a `height_of`.  A class keeps its heights as levels, one bitmask of
the points per height, and every wall side is a level (tip walls) or an
OR of levels (cut walls).  That wall closure and the density search of
`phi_map` run `cube_complex.bfs_ball`.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import deque
from dataclasses import dataclass, field

from .building import (
    class_isometry,
    image_class,
    resolved_table,
    transport_height,
)
from .cube_complex import (
    CubeComplexBall,
    bfs_ball,
    hyperplanes,
)
from .graph_core import DefiningGraph
from .raag_geometry import (
    class_heights,
    class_of_geodesic,
    extension_adjacent,
    group_ball,
    inv,
    mul,
)
from .semiconjugacy import BranchedLine


@dataclass(frozen=True)
class Wallspace:
    """Walls over a finite point set; frozen, so `flips` cannot go stale."""

    points: tuple
    sides: list                  # bitmask of the stored side, per wall
    tags: list                   # arbitrary per-wall tags (same length)
    _pindex: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_pindex",
                           {p: i for i, p in enumerate(self.points)})
        if len(self._pindex) != len(self.points):
            raise ValueError("the points repeat")
        full = (1 << len(self.points)) - 1
        seen = {}
        for i, s in enumerate(self.sides):
            if s == 0 or s == full:
                raise ValueError(f"wall {self.tags[i]!r} has an empty side")
            key = min(s, full ^ s)
            if key in seen:
                raise ValueError(
                    f"walls {self.tags[seen[key]]!r} and {self.tags[i]!r} "
                    "induce the same partition")
            seen[key] = i

    @staticmethod
    def make(points, walls):
        """walls: iterable of point subsets (one side each), tagged by
        their position."""
        points = tuple(points)
        pi = {p: i for i, p in enumerate(points)}
        sides = []
        for w in walls:
            m = 0
            for p in w:
                m |= 1 << pi[p]
            sides.append(m)
        return Wallspace(points, sides, list(range(len(sides))))

    @property
    def full_mask(self):
        return (1 << len(self.points)) - 1

    def n_walls(self):
        return len(self.sides)

    def transverse(self, i, j) -> bool:
        a, b = self.sides[i], self.sides[j]
        fa, fb = self.full_mask ^ a, self.full_mask ^ b
        return bool(a & b) and bool(a & fb) and bool(fa & b) and bool(fa & fb)

    def point_state(self, p) -> int:
        """The 0-cube realized by a point, as orientation bits (bit i set:
        p lies on the stored side of wall i)."""
        return self._point_states[self._pindex[p]]

    @functools.cached_property
    def _point_states(self) -> list:
        """Every point's state: row k of the transpose of the sides' bit
        strings, last wall first, is point m-1-k's state in binary (the
        zero column gives a row per point also when there are no walls)."""
        m = len(self.points)
        cols = ["0" * m] + [f"{s:0{m}b}" for s in reversed(self.sides)]
        return [int("".join(row), 2) for row in zip(*cols)][::-1]

    @functools.cached_property
    def flips(self) -> dict:
        """`_orientations`, run on first read: state -> flippable walls,
        for every consistent orientation."""
        return _orientations(self)

    @functools.cached_property
    def maximal_cubes(self) -> tuple:
        """`_cube_search`, run on first read: (family, cube vertex ids) for
        every maximal pairwise-transverse wall family."""
        return _cube_search(self)

    def to_json(self) -> str:
        return json.dumps({
            "points": [str(p) for p in self.points],
            "walls": [[p for p in range(len(self.points)) if s >> p & 1]
                      for s in self.sides],
        })


def hyperplane_wallspace(ball: CubeComplexBall, margin: int = 1) -> Wallspace:
    """The wallspace of a ball's own non-truncated hyperplanes.

    Points are the margin-interior vertices; a wall keeps the points off a
    hyperplane's far side when both sides hold one, tagged by its direction.
    """
    ids = ball.vertex_ids
    keep = [i for i, v in enumerate(ids) if ball.depth[v] >= margin]
    bit = [0] * len(ids)
    for k, i in enumerate(keep):
        bit[i] = 1 << k
    full = (1 << len(keep)) - 1
    sides, tags = [], []
    for h in hyperplanes(ball):
        # the points' bits on the far side: distinct, so the sum is their OR
        far = 0 if h.truncated else sum(map(bit.__getitem__, h.far))
        if 0 < far < full:
            sides.append(full ^ far)
            tags.append(h.direction)
    return Wallspace(tuple(ids[i] for i in keep), sides, tags)


# ---------------------------------------------------------------------------
# the dual cube complex
# ---------------------------------------------------------------------------

MAX_ORIENTATIONS = 1 << 20       # enumeration guard: raise MemoryError beyond


def _vertex_id(n_walls: int, state: int) -> str:
    return f"c{state:0{n_walls}b}" if n_walls else "c"


def _orientations(ws: Wallspace):
    """All consistent orientations, discovered by BFS wall flips.

    Returns state -> the walls whose flip leads to another 0-cube, in
    increasing order, with states in discovery order; the dual's edges are
    (s, s ^ 1 << i) for each i in flips[s].  Flipping wall i keeps a
    consistent orientation consistent iff the new side of i meets the chosen
    side of every other wall: with on[b][i] (off[b][i]) the walls whose
    stored (other) side misses the side that bit b of wall i flips to,
    `state & (on | off) == off`, as the masks are disjoint (no side is
    empty) and leave out bit i.  Walls with distinct partitions miss in at
    most one of their four quadrants, so one pass over unordered pairs
    fills the masks of both walls.
    """
    n = ws.n_walls()
    if not ws.points:
        raise ValueError("empty wallspace")
    sides = ws.sides
    comp = [ws.full_mask ^ s for s in sides]
    on = [[0] * n, [0] * n]        # b = 0 flips to the stored side
    off = [[0] * n, [0] * n]
    for i, (si, ci) in enumerate(zip(sides, comp)):
        bi = 1 << i
        for j in range(i + 1, n):
            sj, cj, bj = sides[j], comp[j], 1 << j
            if not si & sj:
                on[0][i] |= bj
                on[0][j] |= bi
            elif not si & cj:
                off[0][i] |= bj
                on[1][j] |= bi
            elif not ci & sj:
                on[1][i] |= bj
                off[0][j] |= bi
            elif not ci & cj:
                off[1][i] |= bj
                off[1][j] |= bi
    masks = [tuple((on[b][i] | off[b][i], off[b][i]) for b in (0, 1))
             for i in range(n)]

    start = ws.point_state(ws.points[0])
    seen = {start}
    dq = deque([start])
    flips = {}
    while dq:
        state = dq.popleft()
        fl = []
        for i, pair in enumerate(masks):
            both, need = pair[state >> i & 1]
            if state & both != need:
                continue
            fl.append(i)
            nxt = state ^ 1 << i
            if nxt not in seen:
                if len(seen) >= MAX_ORIENTATIONS:
                    raise MemoryError("orientation enumeration cap exceeded")
                seen.add(nxt)
                dq.append(nxt)
        flips[state] = tuple(fl)
    return flips


def dual_cube_complex(ws: Wallspace) -> CubeComplexBall:
    """The Sageev dual: every consistent orientation, from `ws.flips`.

    Vertex ids are 'c<bits>' strings over the wall choices (bit i set means
    the stored side of wall i), indexed in increasing state order.  Edge
    labels are the wall tags.  Each square is emitted once, from its lowest
    corner s (neither wall on its stored side), as the indices of
    (s, s^i, s^i^j, s^j) with i < j: already canonical, and in sorted
    order, so the complex is built without `make`'s normalising.
    """
    n = ws.n_walls()
    flips = ws.flips
    order = sorted(flips)
    index = {s: k for k, s in enumerate(order)}
    squares = []
    for s in order:
        up = [i for i in flips[s] if not s >> i & 1]
        for i, j in itertools.combinations(up, 2):
            s_ij = s ^ (1 << i) ^ (1 << j)
            if s_ij in flips:
                squares.append((index[s], index[s ^ (1 << i)], index[s_ij],
                                index[s ^ (1 << j)]))
    adj = tuple({} for _ in order)
    for s, fl in flips.items():
        a = index[s]
        for i in fl:
            b = index[s ^ 1 << i]
            adj[a][b] = adj[b][a] = str(ws.tags[i])
    return CubeComplexBall(tuple(_vertex_id(n, s) for s in order), adj,
                           tuple(squares), None)


def _transverse_families(ws: Wallspace):
    """Maximal pairwise-transverse wall families (Bron-Kerbosch)."""
    n = ws.n_walls()
    adj = [set() for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if ws.transverse(i, j):
            adj[i].add(j)
            adj[j].add(i)
    families = []

    def bron(R, P, X):
        if not P and not X:
            families.append(frozenset(R))
            return
        for v in sorted(P):
            bron(R | {v}, P & adj[v], X & adj[v])
            P = P - {v}
            X = X | {v}

    bron(set(), set(range(n)), set())
    return families


def _cube_corners(state, walls):
    """The 2^k orientations of the cube at `state` spanned by `walls`."""
    for bits in range(1 << len(walls)):
        s = state
        for k, i in enumerate(walls):
            if bits >> k & 1:
                s ^= 1 << i
        yield s


def dual_dimension(ws: Wallspace) -> int:
    """Largest pairwise-transverse wall family, from `ws.maximal_cubes`;
    as that asserts one cube per maximal family, and a cube's walls are
    pairwise transverse, this is the dual's largest cube dimension."""
    return max(len(fam) for fam, _ in ws.maximal_cubes)


def maximal_cubes(ws: Wallspace):
    """A fresh list of `ws.maximal_cubes`: maximal pairwise-transverse
    families, each with the list of its cube's vertex ids."""
    return [(fam, list(cube)) for fam, cube in ws.maximal_cubes]


def _cube_search(ws: Wallspace) -> tuple:
    """(family, cube) for each maximal pairwise-transverse family, the
    cube's 0-cube vertex ids sorted.  The correspondence family <-> maximal
    cube is asserted to be a bijection (a cube's corners differ in its
    family's walls alone, so no cube serves two families).  The 0-cubes are
    read from `ws.flips`; no complex is built.

    Each cube is read from its lowest corner, the one orientation with no
    wall of the family on its stored side: every cube spanned by the family
    has exactly one.
    """
    n = ws.n_walls()
    flips = ws.flips
    # per state, the walls that flip up to their stored side
    up = {s: sum(1 << i for i in fl if not s >> i & 1)
          for s, fl in flips.items()}
    out = []
    for fam in sorted(_transverse_families(ws), key=sorted):
        walls = sorted(fam)
        fam_mask = sum(1 << i for i in walls)
        cubes = set()
        for s, m in up.items():
            if m & fam_mask == fam_mask:
                corners = list(_cube_corners(s, walls))
                if all(t in flips for t in corners):
                    cubes.add(frozenset(_vertex_id(n, t) for t in corners))
        if len(cubes) != 1:
            raise AssertionError(
                f"family {walls} supports {len(cubes)} maximal cubes")
        out.append((tuple(walls), tuple(sorted(next(iter(cubes))))))
    return tuple(out)


# ---------------------------------------------------------------------------
# the invariant wallspace of a flat-preserving action
# ---------------------------------------------------------------------------

@dataclass
class InvariantWallspace:
    wallspace: Wallspace
    graph: DefiningGraph
    classes: dict                # class id -> ParallelClass
    branched_lines: dict         # class id -> BranchedLine
    levels: dict                 # class id -> {height: mask over points}
    block_maps: dict             # class id -> {height: block}
    domain: tuple                # the height-box hull; phi is injective on
                                 # it when the class reach covers it


def invariant_wallspace(g: DefiningGraph, action_tables, resolutions,
                        wall_window: int = 1, class_reach: int = 0,
                        points_radius: int | None = None) -> InvariantWallspace:
    """The H-invariant wallspace of v-walls over a height band.

    Classes are those of geodesics through the ball of radius `class_reach`;
    each contributes block-cut walls (and tip walls where the resolution's
    block map is 2-to-1) for heights within `wall_window` of zero.  The
    points carry a larger ball so that neighbouring quadrants stay inhabited;
    walls are closed under the action and deduplicated by partition.

    `resolutions` maps an orbit-representative class id to a block map
    {height: block}; identity tables give line resolutions.  Every class's
    block map is that resolution pulled back by `building.resolved_table`,
    which raises `TruncationError` when a resolution is too short.  A
    generator whose `building.class_isometry` misses a pair of blocks
    raises `semiconjugacy.ActionError`.

    Each class, seed or image, gets its heights in one
    `raag_geometry.class_heights` pass over the points (normal forms listed
    by length, so a word's prefix comes first and lends it its height) and
    keeps them as levels, {height: bitmask of the points at that height},
    heights in order of first appearance.  A tip wall's
    side is one level, a cut wall's the OR of the levels whose clamped
    block is at most its cut; walls are deduplicated by min(side,
    complement), and the domain is the AND of every class's band levels.
    """
    if points_radius is None:
        points_radius = 2 * (wall_window + 1)
    points = tuple(group_ball(g, points_radius))
    full = (1 << len(points)) - 1
    classes = {}
    for p in group_ball(g, class_reach):
        for v in g.vertices:
            pc = class_of_geodesic(g, p, v)
            classes.setdefault(pc.id, pc)
    tags = []
    lines = {}
    levels = {}       # class id -> {height: bitmask of the points at it}
    block_maps = {}
    band = range(-wall_window, wall_window + 1)

    def levels_of(pc):
        lv = {}
        for i, h in enumerate(class_heights(g, pc, points).values()):
            lv[h] = lv.get(h, 0) | 1 << i
        return lv

    def wall_side(tag):
        """The side of a tagged wall, as a bitmask over the points: one level
        for a tip wall, the levels whose block is at most m for a cut wall.
        A cut wall clamps heights outside the block map's keys to its ends;
        block maps are monotone, so the side matches the infinite wall."""
        lv = levels[tag[0]]
        if tag[1] == "tip":
            return lv.get(tag[3], 0)
        fmap = block_maps[tag[0]]
        lo, hi = min(fmap), max(fmap)
        side = 0
        for h, mask in lv.items():
            if fmap[max(lo, min(hi, h))] <= tag[2]:
                side |= mask
        return side

    for cid, pc in sorted(classes.items()):
        levels[cid] = levels_of(pc)
        block_maps[cid] = resolved_table(g, action_tables, resolutions, pc,
                                         band)
        lines[cid] = line = BranchedLine.of_block_map(block_maps[cid])
        lo, hi = line.window
        tags += [(cid, "cut", m) for m in range(lo, hi)]
        tags += [(cid, "tip", m, n)
                 for m, ns in sorted(line.tips.items()) for n in ns]
    sides = {tag: wall_side(tag) for tag in tags}
    images = {}       # (class id, generator) -> image class, None if it fails
    isos = {}         # (class id, generator) -> its class_isometry
    rejected = set()  # image classes whose heights or block map fail

    def image_of(cid, name):
        """The generator's image of a class, added to `classes` with its
        levels and block map on first sight; None where either fails."""
        if (cid, name) not in images:
            images[cid, name] = None
            try:
                img = image_class(g, action_tables, name, classes[cid])
            except (ValueError, KeyError):
                return None
            if img.id not in classes and img.id not in rejected:
                try:
                    lv = levels_of(img)
                    fmap = resolved_table(g, action_tables, resolutions, img,
                                          sorted(lv))
                except ValueError:
                    rejected.add(img.id)
                    return None
                classes[img.id] = img
                levels[img.id] = lv
                block_maps[img.id] = fmap
            if img.id in classes:
                images[cid, name] = img
        return images[cid, name]

    # orbit closure at the tag level, for at most 10000 rounds: transport
    # each wall to the image class and re-derive its side from that class's
    # levels (pushing raw point sets would distort the partition at the
    # window rim); only images with two non-empty sides are kept
    def step(tag):
        pc = classes[tag[0]]
        for name in action_tables.generators:
            img_pc = image_of(tag[0], name)
            if img_pc is None:
                continue
            f2 = block_maps[img_pc.id]
            if tag[1] == "tip":
                try:
                    n2 = transport_height(g, action_tables, (name,), pc,
                                          img_pc, tag[3])
                except (ValueError, KeyError):
                    continue
                m2 = f2.get(n2)
                if m2 is None:
                    continue
                new_tag = (img_pc.id, "tip", m2, n2)
            else:
                m = tag[2]
                if (tag[0], name) not in isos:
                    isos[tag[0], name] = class_isometry(
                        g, action_tables, name, pc, block_maps[tag[0]],
                        img_pc, f2)
                iso = isos[tag[0], name]
                if iso is None:
                    continue
                sgn, off = iso
                m2 = sgn * m + off if sgn == 1 else sgn * (m + 1) + off
                if not min(f2.values()) <= m2 < max(f2.values()):
                    continue
                new_tag = (img_pc.id, "cut", m2)
            if new_tag not in sides:
                side = wall_side(new_tag)
                if not side or side == full:
                    continue
                sides[new_tag] = side
            yield name, new_tag

    uniq_sides, uniq_tags, seen = [], [], set()
    for tag in bfs_ball(tags, step, 10000):
        w = sides[tag]
        key = min(w, full ^ w)
        if key and key not in seen:
            seen.add(key)
            uniq_sides.append(w)
            uniq_tags.append(tag)
    ws = Wallspace(points, uniq_sides, uniq_tags)
    inside = full
    for lv in levels.values():
        inside &= sum(lv.get(h, 0) for h in band)
    domain = tuple(p for i, p in enumerate(points) if inside >> i & 1)
    return InvariantWallspace(ws, g, classes, lines, levels, block_maps,
                              domain)


def transversality(iws: InvariantWallspace, i: int, j: int) -> bool:
    """Set transversality of tagged walls; asserted equivalent to adjacency
    of the class directions in the extension complex."""
    ws = iws.wallspace
    got = ws.transverse(i, j)
    cid1, cid2 = ws.tags[i][0], ws.tags[j][0]
    if cid1 == cid2:
        expected = False
    else:
        expected = extension_adjacent(iws.graph, iws.classes[cid1],
                                      iws.classes[cid2])
    if got != expected:
        raise AssertionError(
            f"walls {ws.tags[i]} / {ws.tags[j]}: transversality {got} but "
            f"class adjacency {expected}")
    return got


def phi_map(iws: InvariantWallspace):
    """Chambers -> dual vertices by their realized orientations.

    The map is defined on the height-box hull `iws.domain`, and injectivity
    there is asserted.  It holds when the class reach covers the points, as
    in criterion 11 (reach 2, points radius 3); past that, as at C5 reach 2
    and points radius 4, two points can share a state and this raises.  The
    image density and the sampled dual distances are BFS over the 0-cubes
    of `ws.flips`, whose edges flip one wall: no complex is built.
    """
    ws = iws.wallspace
    flips = ws.flips
    states = {p: ws.point_state(p) for p in iws.domain}
    for p, s in states.items():
        if s not in flips:
            raise KeyError(f"point {p!r} realizes an unseen orientation")
    if len(set(states.values())) != len(states):
        raise AssertionError("phi is not injective on the window")

    def step(s):
        return [(i, s ^ 1 << i) for i in flips[s]]

    dist = bfs_ball(states.values(), step, len(flips))
    density = max(dist.values()) if dist else 0
    # distortion of word metric vs dual metric on a sample of pairs
    worst = 1.0
    additive = 0
    pts = list(iws.domain)[:12]
    for a in pts:
        dual_dist = bfs_ball([states[a]], step, len(flips))
        for b in pts:
            if a == b:
                continue
            dw = len(mul(iws.graph, inv(a), b))
            dc = dual_dist[states[b]]
            if dw and dc:
                worst = max(worst, dw / dc, dc / dw)
            additive = max(additive, abs(dc - dw))
    vmap = {p: _vertex_id(ws.n_walls(), s) for p, s in states.items()}
    return vmap, {"density": density, "distortion": worst,
                  "additive": additive}
