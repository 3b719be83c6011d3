"""Finite cube-complex balls and their wall geometry.

A ball stores vertices, labeled edges and squares only; cubes of dimension
three and up are implied by the flag condition on links, so every algorithm
here (links, hyperplanes, convexity, quotients) works on the 2-skeleton.

Truncation policy: each vertex carries a depth (distance to the truncation
cut, `None` meaning the complex is not truncated at all).  Vertices of depth
<= 1 are flagged as boundary; metric and wall computations are reliable at
depth >= 1, link checks at depth >= 2 (`interior()`) and their 3-cube
fills at depth >= 3.

A ball stores its 1-skeleton, squares and hyperplanes once, by vertex
index: `adjacency` holds, per index in `vertex_ids` order, a dict neighbour
index -> label, `index_squares` the squares as index 4-tuples, and each
`Hyperplane` its edges as index pairs and its far side as an index set.
String ids are the boundary: `make` and `has_square` take id squares, the
id tables `edges`, `neighbors`, `squares` and the hyperplanes' `edge_class`
and `sides` are derived on read, and only vertex maps use ids.

Every ball of X, X_e and the Davis realization, and the blow-up Y, is
built by one builder, `rising_ball`, from index edge triples, checked for
loops and second labels in one pass (`_adjacency`, which `make` shares);
its squares are the 4-cycles that rise along the vertex order.  Each
caller indexes its own vertices: `raag_geometry._cover_ball` its BFS
points, `building.davis_ball` its residues and `blowup.blowup_complex`
its product coordinates.  Squares are canonical at birth: each has four
distinct corners and is its own `_canonical_square`, and `index_squares`
strictly increases.  `make` normalises raw squares to this; only
`rising_ball`, `span`, `restriction_quotient` (through `make`'s
normaliser) and the Sageev dual build a ball directly, each filling the
same index adjacency.  The dual emits each square from its lowest corner
itself: through `rising_ball` its bytes are the same, but assembling the
duals of the `walls` benchmark's wallspaces took a third longer.

`_hyperplanes` labels every vertex in one BFS per component with the set
of classes its tree path crosses, and takes each class's far side from the
labels when a certificate (one component, every edge changes exactly its
own class's label, no square with both edge pairs in one class) proves it.
Removing edges merges no components, so with three components or more
every class is truncated without a search; any other class gets its
pieces from `cut_components`.  Only the far side is stored.  A
ball owns its hyperplanes, a frozen tuple built on first read, as no
field changes after `__post_init__`: `hyperplanes(b)` returns it, so the
verifier reuses the source hyperplanes its caller picked K from.

`bfs_ball` is the one closure engine: group and cover balls, group tables,
track orbits, `_reach`, `class_levels`' parallel sets, the invariant
wallspace's closure and `phi_map`'s density run it.  Hand-written:
`_distances` (behind `bfs_from` and `distance`), `_connected`,
`Track.connected` (hot: a (label, neighbour) step made the metric BFS 3x
slower and `walls` and `tracks` 3-6 %),
`cut_components` (all components), `is_convex` (its walk collects the
outer boundary), the labelling BFS of `_hyperplanes` (records each tree
edge's class), `wallspace_dual._orientations` and
`building.class_orbit_word` (record flips, words) and `labeled_isomorphism`
(orders vertices seed by seed).
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

BIG_DEPTH = 10 ** 9


def _canonical_square(cycle):
    """Least rotation/reflection of an index 4-cycle with four distinct
    corners: start at the least corner, then go to its lesser neighbour."""
    k = cycle.index(min(cycle))
    a, b, c, d = cycle[k:] + cycle[:k]
    return (a, b, c, d) if b < d else (a, d, c, b)


class ComplexError(ValueError):
    pass


class DisconnectedPairError(ComplexError):
    pass


class TruncationError(ComplexError):
    """A computation ran out of safe interior."""


def _normal_squares(order, squares) -> tuple:
    """Raw index 4-cycles made canonical, deduplicated and sorted; a square
    that repeats a corner raises, naming the ids of `order`."""
    canon = set()
    for s in squares:
        if len(set(s)) != 4:
            raise ComplexError(
                f"square {tuple(order[x] for x in s)!r} repeats a corner")
        canon.add(_canonical_square(s))
    return tuple(sorted(canon))


def _adjacency(order, edges) -> tuple:
    """Per index of `order`, {neighbour index: label}, from the index
    triples (i, j, label) of `edges`, each neighbour inserted when its edge
    is first seen; loops and two labels on one pair raise, naming ids."""
    adj = tuple({} for _ in order)
    for i, j, lab in edges:
        if i == j:
            raise ComplexError(f"loop edge at {order[i]!r}")
        if adj[i].setdefault(j, lab) != lab:
            raise ComplexError(f"two edges between {order[i]!r},{order[j]!r}")
        adj[j][i] = lab
    return adj


@dataclass
class CubeComplexBall:
    """Finite portion of a cube complex.

    adjacency: the one stored 1-skeleton; per vertex index, in `vertex_ids`
    order, a dict neighbour index -> direction label.
    index_squares: canonical 4-tuples (a,b,c,d) of vertex indices in a
    cyclic order, so edges ab,bc,cd,da bound the square and ab||dc, bc||ad.

    The constructor trusts the squares to be canonical and sorted (see the
    module docstring); `validate` checks it.  Derived on first read: the
    vertex index; the id tables `edges` (frozenset{u,v} -> label, by lower
    index, each index's later neighbours in insertion order), `squares` and
    the id adjacency behind `neighbors`; the square tables; the hyperplanes.
    """

    vertex_ids: tuple
    adjacency: tuple
    index_squares: tuple
    depth: dict
    _dist_cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._dist_cache = {}          # source id -> distances by index
        if self.depth is None:
            self.depth = {v: BIG_DEPTH for v in self.vertex_ids}

    # -- static constructors ------------------------------------------------

    @classmethod
    def make(cls, vertices, edges, squares, depth=None):
        """edges: iterable of (u, v, label); squares: 4-cycles in any form,
        order and multiplicity, made canonical and sorted here."""
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        adj = _adjacency(vertices, ((index[u], index[v], lab)
                                    for u, v, lab in edges))
        return cls(vertices, adj, _normal_squares(
            vertices, (tuple(index[x] for x in s) for s in squares)), depth)

    # -- derived tables -------------------------------------------------------

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertex_ids)}

    @cached_property
    def edges(self) -> dict:
        ids = self.vertex_ids
        return {frozenset((ids[i], ids[j])): lab
                for i, nbrs in enumerate(self.adjacency)
                for j, lab in nbrs.items() if j > i}

    @cached_property
    def squares(self) -> tuple:
        ids = self.vertex_ids
        return tuple((ids[a], ids[b], ids[c], ids[d])
                     for a, b, c, d in self.index_squares)

    @cached_property
    def _id_adjacency(self) -> dict:
        ids = self.vertex_ids
        return {ids[i]: {ids[j]: lab for j, lab in nbrs.items()}
                for i, nbrs in enumerate(self.adjacency)}

    def _edge_pairs(self):
        """The edges as index pairs (i, j), i < j, in `edges` order."""
        return [(i, j) for i, nbrs in enumerate(self.adjacency)
                for j in nbrs if j > i]

    # -- basic queries --------------------------------------------------------

    def boundary_flag(self, v) -> bool:
        return self.depth[v] <= 1

    def interior(self):
        """Vertices at depth >= 2, the non-boundary ones."""
        return [v for v in self.vertex_ids if self.depth[v] >= 2]

    def neighbors(self, v):
        return self._id_adjacency[v]

    def edge_label(self, u, v):
        index = self._index
        return self.adjacency[index[u]][index[v]]

    def has_edge(self, u, v):
        index = self._index
        return index.get(v) in self.adjacency[index[u]]

    @cached_property
    def _square_set(self) -> frozenset:
        return frozenset(self.index_squares)

    @cached_property
    def _squares_at(self) -> list:
        out = [[] for _ in self.vertex_ids]
        for s in self.index_squares:
            for x in s:
                out[x].append(s)
        return out

    def has_square(self, cycle) -> bool:
        """Does the 4-cycle, in any rotation or reflection, bound a square?"""
        index = self._index
        return _canonical_square(tuple(index[x] for x in cycle)) \
            in self._square_set

    @cached_property
    def _hyperplane_tuple(self) -> tuple:
        return _hyperplanes(self)

    def cut_components(self, cut=()):
        """Components of the 1-skeleton minus the index pairs in `cut`.

        Components are lists of indices, in order of their least index, and
        each lists its indices in increasing order.
        """
        adj = self.adjacency
        banned = {}
        for i, j in cut:
            banned.setdefault(i, set()).add(j)
            banned.setdefault(j, set()).add(i)
        comp_of = [None] * len(adj)
        for start in range(len(adj)):
            if comp_of[start] is not None:
                continue
            comp_of[start] = start
            stack = [start]
            while stack:
                x = stack.pop()
                skip = banned.get(x, ())
                for y in adj[x]:
                    if comp_of[y] is None and y not in skip:
                        comp_of[y] = start
                        stack.append(y)
        comps = {}
        for v, c in enumerate(comp_of):
            comps.setdefault(c, []).append(v)
        return list(comps.values())

    def validate(self):
        """Check the structural invariants; raises ComplexError on failure."""
        ids, adj, squares = self.vertex_ids, self.adjacency, self.index_squares
        if _normal_squares(ids, squares) != squares:
            raise ComplexError("squares are not canonical and sorted")
        for s in squares:
            a, b, c, d = s
            for x, y in ((a, b), (b, c), (c, d), (d, a)):
                if y not in adj[x]:
                    raise ComplexError(f"square {tuple(ids[k] for k in s)} "
                                       f"missing edge {ids[x]!r}-{ids[y]!r}")
            if adj[a][b] != adj[d][c] or adj[b][c] != adj[a][d]:
                raise ComplexError(f"square {tuple(ids[k] for k in s)} "
                                   "has mismatched opposite labels")
        if len(self.cut_components()) > 1:
            raise ComplexError("1-skeleton is not connected")
        return True

    # -- metric ---------------------------------------------------------------

    def _distances(self, source) -> list:
        """Distance from `source` by vertex index, None where unreached."""
        dist = self._dist_cache.get(source)
        if dist is None:
            adj = self.adjacency
            dist = [None] * len(adj)
            s = self._index[source]
            dist[s] = 0
            order = [s]
            for x in order:
                d = dist[x] + 1
                for y in adj[x]:
                    if dist[y] is None:
                        dist[y] = d
                        order.append(y)
            self._dist_cache[source] = dist
        return dist

    def bfs_from(self, source) -> dict:
        """{vertex: distance from source}, over the vertices it reaches, in
        `vertex_ids` order."""
        return {v: d for v, d in zip(self.vertex_ids, self._distances(source))
                if d is not None}

    def distance(self, x, y) -> int:
        d = self._distances(x)[self._index[y]]
        if d is None:
            raise DisconnectedPairError(f"{x!r} and {y!r} are not connected")
        return d

    def interval(self, x, y):
        d = self.distance(x, y)
        return [z for z, a, b in zip(self.vertex_ids, self._distances(x),
                                     self._distances(y))
                if a is not None and b is not None and a + b == d]

    def ball_around(self, base, r: int):
        return [v for v, d in zip(self.vertex_ids, self._distances(base))
                if d is not None and d <= r]

    # -- subcomplexes ---------------------------------------------------------

    def span(self, vertices) -> "CubeComplexBall":
        """Induced subcomplex on a vertex subset."""
        keep = set(vertices)
        old = [i for i, v in enumerate(self.vertex_ids) if v in keep]
        new = {i: k for k, i in enumerate(old)}
        adj = tuple({new[j]: lab for j, lab in self.adjacency[i].items()
                     if j in new} for i in old)
        vs = tuple(self.vertex_ids[i] for i in old)
        # `new` is increasing, so the squares stay canonical and sorted
        squares = tuple(tuple(new[x] for x in s) for s in self.index_squares
                        if all(x in new for x in s))
        return CubeComplexBall(vs, adj, squares, {v: self.depth[v] for v in vs})

    # -- serialization ----------------------------------------------------------

    def _sorted_edges(self):
        """(i, j, label) per edge, i < j, sorted by (i, j)."""
        return [(i, j, nbrs[j]) for i, nbrs in enumerate(self.adjacency)
                for j in sorted(k for k in nbrs if k > i)]

    def json_body(self) -> dict:
        """The JSON object of `to_json`, which callers may extend first."""
        ids = self.vertex_ids
        eidx = {}
        edges_out = []
        for i, j, lab in self._sorted_edges():
            eidx[i, j] = len(edges_out)
            edges_out.append([str(ids[i]), str(ids[j]), str(lab)])
        squares_out = []
        for a, b, c, d in self.index_squares:
            squares_out.append([eidx[min(x, y), max(x, y)] for x, y in
                                ((a, b), (b, c), (c, d), (d, a))])
        return {
            "vertices": [{"id": str(v), "boundary": self.boundary_flag(v)}
                         for v in self.vertex_ids],
            "edges": edges_out,
            "squares": squares_out,
        }

    def to_json(self) -> str:
        return json.dumps(self.json_body())

    def to_dot(self) -> str:
        lines = ["graph ball {"]
        palette = ["red", "blue", "green", "orange", "purple", "brown",
                   "cyan", "magenta", "gray", "black"]
        color = {}
        for i, es in enumerate(_edge_classes(self)):
            for e in es:
                color[e] = palette[i % len(palette)]
        for v in self.vertex_ids:
            shape = "circle" if not self.boundary_flag(v) else "point"
            lines.append(f'  "{v}" [shape={shape}];')
        ids = self.vertex_ids
        for i, j, lab in self._sorted_edges():
            u, v, col = ids[i], ids[j], color.get((i, j), "black")
            lines.append(f'  "{u}" -- "{v}" [label="{lab}", color={col}];')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# growing balls
# ---------------------------------------------------------------------------

def bfs_ball(starts, step, radius: int) -> dict:
    """Distance from the nearest of `starts` of every point within `radius`
    steps, in BFS order (the starts first, in their order); `step(x)` lists
    (label, neighbour) pairs.  Stops early when a round finds nothing new."""
    dist = dict.fromkeys(starts, 0)
    frontier = list(dist)
    for d in range(1, radius + 1):
        if not frontier:
            break
        nxt = []
        for x in frontier:
            for _, y in step(x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def rising_ball(order, edges, depth) -> CubeComplexBall:
    """The ball on the vertex ids `order` whose edges are the index triples
    (i, j, label) of `edges`, and whose squares are the 4-cycles a-b-c-d
    that rise along the order: b and d later neighbours of a, and c a later
    neighbour of both.  `_adjacency` takes the triples in their order, and
    each index's later neighbours are then read off its adjacency.  Each
    square comes out once, as the index tuple (a, b, c, d) with a lowest
    and b < d; sorted, these are the canonical `index_squares`.

    This finds every square when each 4-cycle of the ball rises, which holds
    when `order` lists the vertices by distance from a root.  The 1-skeleton
    of a CAT(0) cube complex is a median graph, where every 4-cycle bounds a
    square (Chepoi 2000), and a 4-cycle with two corners nearest the root
    would put three common neighbours on those two, a K_{2,3}, which no
    median graph contains.  A Davis ball listed by rank also qualifies: two
    residues of one rank contain at most one common residue of the rank
    below.  So does the blow-up listed fiber by fiber in Davis order (see
    the `blowup` module docstring).  `edges` must list every edge, from
    either end, and may list one again with the same label."""
    adj = _adjacency(order, edges)
    up = [[j for j in nbrs if j > i] for i, nbrs in enumerate(adj)]
    squares = []
    for a, ups in enumerate(up):
        mids = {}                        # top corner c -> middles so far
        for d in sorted(ups):
            for c in up[d]:
                bs = mids.get(c)
                if bs is None:
                    mids[c] = [d]
                else:
                    squares += [(a, b, c, d) for b in bs]
                    bs.append(d)
    squares.sort()
    return CubeComplexBall(tuple(order), adj, tuple(squares), depth)


# ---------------------------------------------------------------------------
# links and the flag condition
# ---------------------------------------------------------------------------

def check_flag_links(b: CubeComplexBall):
    """Flag test at every vertex of depth >= 2 (the link checks' margin).

    Verifies the link is a simple graph and, at depth >= 3, that every link
    triangle is filled by a 3-cube (sufficient for flagness through
    dimension 3, which covers every complex this package builds): the far
    corner of a 3-cube is 3 steps from its vertex, so at depth 2 it may lie
    past the window.  `checked` counts the vertices of depth >= 2.  Returns
    a report dict with a list of (vertex, witness) failures.
    """
    ids, index, adj, at = b.vertex_ids, b._index, b.adjacency, b._squares_at
    depth = b.depth
    failures = []
    interior = b.interior()
    for v in interior:
        x = index[v]
        # link of x: an edge u1-u2 for each square corner u1, x, u2; two
        # squares on one corner pair share three edges (a non-simple link)
        corner = {}
        for s in at[x]:
            i = s.index(x)
            u1, u2, far = s[i - 1], s[(i + 1) % 4], s[(i + 2) % 4]
            key = (u1, u2) if u1 < u2 else (u2, u1)
            if key in corner and corner[key] != far:
                failures.append((v, ("three-shared-edges",
                                     (v, ids[u1], ids[u2]))))
            corner[key] = far
        # a 3-cube's far corner is 3 steps from x
        if depth[v] < 3:
            continue
        nbrs = sorted(adj[x])
        for i, u1 in enumerate(nbrs):
            for j in range(i + 1, len(nbrs)):
                u2 = nbrs[j]
                if (u1, u2) not in corner:
                    continue
                for k in range(j + 1, len(nbrs)):
                    u3 = nbrs[k]
                    if (u1, u3) not in corner or (u2, u3) not in corner:
                        continue
                    if not _three_cube_fills(b, u1, u2, u3, corner[u1, u2],
                                             corner[u1, u3], corner[u2, u3]):
                        failures.append((v, ("open-3-cube-corner",
                                             (ids[u1], ids[u2], ids[u3]))))
    return {"ok": not failures, "failures": failures, "checked": len(interior)}


def _three_cube_fills(b, u1, u2, u3, w12, w13, w23):
    adj, sq = b.adjacency, b._square_set
    for z in set(adj[w12]) & set(adj[w13]) & set(adj[w23]):
        if _canonical_square((u1, w12, z, w13)) in sq and \
           _canonical_square((u2, w12, z, w23)) in sq and \
           _canonical_square((u3, w13, z, w23)) in sq:
            return True
    return False


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    index: int
    edges: tuple           # index pairs (i, j), i < j, in `_edge_classes` order
    far: frozenset | None  # indices of the side without 0; None if truncated
    vertex_ids: tuple      # the ball's own tuple
    direction: str

    @property
    def truncated(self) -> bool:
        return self.far is None

    @property
    def edge_class(self) -> frozenset:
        ids = self.vertex_ids
        return frozenset(frozenset((ids[i], ids[j])) for i, j in self.edges)

    @property
    def sides(self) -> tuple:
        """Id sets (near, far), near holding index 0; () if truncated."""
        if self.far is None:
            return ()
        far = frozenset(map(self.vertex_ids.__getitem__, self.far))
        return frozenset(self.vertex_ids) - far, far


def _edge_classes(b: CubeComplexBall) -> list:
    """The square-opposite parallelism classes of edges, each a list of
    index pairs (i, j), i < j, in `edges` order, ordered by their least
    pair."""
    pairs = b._edge_pairs()
    parent = {e: e for e in pairs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a, bb, c, d in b.index_squares:
        union((a, bb) if a < bb else (bb, a), (d, c) if d < c else (c, d))
        union((bb, c) if bb < c else (c, bb), (a, d) if a < d else (d, a))
    classes = {}
    for e in pairs:
        classes.setdefault(find(e), []).append(e)
    return sorted(classes.values(), key=min)


def hyperplanes(b: CubeComplexBall) -> tuple:
    """The ball's hyperplanes, computed by `_hyperplanes` on first read and
    shared by every later caller: frozen, so no caller can edit them."""
    return b._hyperplane_tuple


def _hyperplanes(b: CubeComplexBall) -> tuple:
    """Partition of edges into square-opposite parallelism classes.

    Each class whose removal cuts the 1-skeleton into exactly two pieces
    stores one halfspace, `far`, the indices of the piece without index 0.
    Other classes are boundary artifacts,
    truncated with `far` None (excluded from wall-based computations).

    The sides of every class come from one labelling (the Djoković-Winkler
    relation of a median graph; Chepoi 2000): a BFS from the first vertex of
    each component gives each vertex the mask of its parent plus the bit of
    the tree edge's class, and a class's far side is the set of masks with
    its bit.  A class takes these sides when a certificate proves that
    removing its edges leaves exactly them:
    - the complex is connected;
    - every edge's endpoints differ in exactly its own class's bit (this
      also rules out a tree path that crosses a class twice, whose second
      crossing would leave the mask unchanged);
    - no square of the class has both pairs of opposite edges in it (such
      a square links the class's edges without joining their far
      endpoints; `tests/test_hyperplanes.py` has a complex that passes the
      other two clauses and splits into three pieces).
    Then the near side is connected along tree paths, the far endpoints of
    the class's edges are joined through the squares that link them, and
    every other edge stays on one side.

    A disconnected complex needs no search per class, as removing edges
    never merges components: the labelling counts them.  With three or
    more, every class leaves at least three pieces and is truncated.  With
    two, a class the other two clauses certify cuts its own component in
    two, so it leaves three pieces and is truncated too.  Any other class
    (one that the certificate misses, on one or two components) gets its
    pieces from `cut_components`.
    """
    classes = _edge_classes(b)
    ids, adj = b.vertex_ids, b.adjacency
    bit = {e: 1 << i for i, es in enumerate(classes) for e in es}
    # hand-written rather than `bfs_from`: it records each tree edge's class;
    # each component's root is its first vertex, with the empty mask
    mask = [None] * len(ids)
    components = 0
    for root in range(len(ids)):
        if mask[root] is not None:
            continue
        components += 1
        mask[root] = 0
        order = [root]
        for x in order:
            for y in adj[x]:
                if mask[y] is None:
                    mask[y] = mask[x] | bit[(x, y) if x < y else (y, x)]
                    order.append(y)
    far = [[] for _ in classes]
    # the bits of the classes the certificate misses
    uncertified = 0
    if components <= 2:
        for (u, v), m in bit.items():
            uncertified |= mask[u] ^ mask[v] ^ m
        for a, x, c, _ in b.index_squares:
            m = bit[(a, x) if a < x else (x, a)]
            if m == bit[(x, c) if x < c else (c, x)]:
                uncertified |= m
    if components == 1:
        for v, m in enumerate(mask):
            while m:
                low = m & -m
                far[low.bit_length() - 1].append(v)
                m ^= low
    out = []
    for i, es in enumerate(classes):
        direction = min(str(adj[u][v]) for u, v in es)
        if uncertified >> i & 1:
            # comps[0] holds index 0
            comps = b.cut_components(es)
            side = frozenset(comps[1]) if len(comps) == 2 else None
        elif components == 1:
            side = frozenset(far[i])
        else:
            # a certified class cuts its own component in two, and the
            # other components stay whole: three pieces or more
            side = None
        out.append(Hyperplane(i, tuple(es), side, ids, direction))
    return tuple(out)


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------

def is_convex(b: CubeComplexBall, S) -> bool:
    """Interval convexity of a vertex index set plus square completion.

    The hosts built by this package are median graphs, where connectedness,
    distance-2 interval closure and square-corner closure together are
    equivalent to full l1-interval convexity (cross-checked in the tests
    against the brute-force interval hull).

    Both closures can fail only at the outer boundary, and only at a vertex
    with two neighbours in S: the middle of a distance-2 path between two
    members, and the missing corner of a square with three corners in S
    (its two neighbours on the square are members), are such vertices.  So
    one walk over S decides connectedness and collects that boundary, and
    the two tests run only at its vertices with two or more members next
    to them.
    """
    adj = b.adjacency
    S = set(S)
    if not S:
        return True
    start = next(iter(S))
    seen = {start}
    stack = [start]
    boundary = set()
    while stack:
        for y in adj[stack.pop()]:
            if y not in S:
                boundary.add(y)
            elif y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(S):
        return False
    for z in boundary:
        inside = [x for x in adj[z] if x in S]
        if len(inside) < 2:
            continue
        for i, x in enumerate(inside):
            if any(y not in adj[x] for y in inside[i + 1:]):
                return False
        for s in b._squares_at[z]:
            if sum(x in S for x in s) == 3:
                return False
    return True


def _connected(nodes, nbrs) -> bool:
    """Is the non-empty collection `nodes` connected when each x is joined
    to the members of `nbrs(x)`?"""
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for y in nbrs(stack.pop()):
            if y in nodes and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(nodes)


# ---------------------------------------------------------------------------
# cubical maps and restriction quotients
# ---------------------------------------------------------------------------

@dataclass
class CubicalMap:
    vertex_map: dict
    source: CubeComplexBall
    target: CubeComplexBall

    def validate(self):
        ids, tgt = self.source.vertex_ids, self.target
        image = [self.vertex_map[v] for v in ids]
        for i, j in self.source._edge_pairs():
            fu, fv = image[i], image[j]
            if fu != fv and not tgt.has_edge(fu, fv):
                raise ComplexError(
                    f"edge {ids[i]!r}-{ids[j]!r} maps to a non-edge")
        for s in self.source.index_squares:
            img = [image[x] for x in s]
            distinct = len(set(img))
            if distinct == 4:
                ok = tgt.has_square(img)
            elif distinct == 2:
                a, bb, c, d = img
                ok = (a == d and bb == c and tgt.has_edge(a, bb)) or \
                     (a == bb and c == d and tgt.has_edge(a, c))
            else:
                ok = distinct == 1
            if not ok:
                raise ComplexError(f"square {tuple(ids[x] for x in s)} " + {
                    4: "maps to a non-square", 2: "degenerates badly",
                    3: "has a 3-point image"}[distinct])
        return True

    def surjective(self):
        return set(self.vertex_map.values()) >= set(self.target.vertex_ids)


@dataclass
class RestrictionQuotient:
    source: CubeComplexBall
    target: CubeComplexBall
    map: CubicalMap


def restriction_quotient(b: CubeComplexBall, K) -> RestrictionQuotient:
    """Quotient collapsing everything not separated by a wall of K.

    K-classes (maximal vertex sets not separated by any member of K) become
    the target vertices; edges and squares are induced by the walls of K.
    """
    K = list(K)
    for h in K:
        if h.truncated:
            raise ComplexError("K contains a truncated hyperplane")
    # K-classes = components after deleting the K-edges
    classes = b.cut_components(e for h in K for e in h.edges)
    cls_of = [0] * len(b.vertex_ids)
    for k, comp in enumerate(classes):
        for x in comp:
            cls_of[x] = k
    ids = [f"K{i}" for i in range(len(classes))]
    vmap = {v: ids[k] for v, k in zip(b.vertex_ids, cls_of)}
    wall_of_edge = {e: h.index for h in K for e in h.edges}
    adj = tuple({} for _ in ids)
    wall_of_pair = {}
    for i, j in b._edge_pairs():
        ci, cj = cls_of[i], cls_of[j]
        if ci != cj:
            w = wall_of_edge[i, j]
            if wall_of_pair.setdefault((min(ci, cj), max(ci, cj)), w) != w:
                raise ComplexError("two walls of K join the same K-classes")
            adj[ci][cj] = adj[cj][ci] = b.adjacency[i][j]
    images = (tuple(cls_of[x] for x in s) for s in b.index_squares)
    squares = _normal_squares(ids, (t for t in images if len(set(t)) == 4))
    depth = {}
    for i, members in enumerate(classes):
        depth[ids[i]] = max(b.depth[b.vertex_ids[m]] for m in members)
    target = CubeComplexBall(tuple(ids), adj, squares, depth)
    qm = CubicalMap(vmap, b, target)
    return RestrictionQuotient(b, target, qm)


# ---------------------------------------------------------------------------
# the five-way characterization
# ---------------------------------------------------------------------------

def _edge_ladder_connected(lifts, opposite) -> bool:
    """Is the fiber over the barycenter of a target edge connected?

    Nodes are the source edges `lifts` mapping onto it; two are adjacent when
    they are opposite sides of a source square (`opposite`: edge -> edges).
    """
    return bool(lifts) and _connected(set(lifts), lambda e: opposite.get(e, ()))


def _sheets_connected(src: CubeComplexBall, lifts) -> bool:
    """Connectivity of the square-barycenter fiber: `lifts` lists the source
    squares over one target square in the order of its corners, and two are
    adjacent when their matched corners bound a 3-cube's worth of edges and
    side squares."""
    adj, square_set = src.adjacency, src._square_set

    def adjacent(i, j):
        s1, s2 = lifts[i], lifts[j]
        return all(y in adj[x] for x, y in zip(s1, s2)) and all(
            _canonical_square((s1[k - 1], s1[k], s2[k], s2[k - 1]))
            in square_set for k in range(4))

    # test `seen` first: each adjacency test costs up to 8 lookups
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(len(lifts)):
            if j not in seen and adjacent(i, j):
                seen.add(j)
                stack.append(j)
    return len(seen) == len(lifts)


def verify_rq_characterization(q: CubicalMap, samples: int = 50, seed: int = 0):
    """Evaluate the five equivalent conditions for a surjective cubical map.

    (1) vertex fibers convex; (2) barycenter fibers connected (checked over
    edges and squares of the target via the product structure of the cubes
    mapping onto them); (3) preimages of sampled convex subcomplexes convex;
    (4) every target hyperplane pulls back to a single hyperplane; (5) the
    map agrees with the restriction quotient rebuilt from its own horizontal
    walls.  Returns the five booleans plus their agreement.  The hyperplanes
    are each ball's own, so those its caller already read cost nothing.

    Condition (3)'s family holds both sides and the carrier of every target
    hyperplane th, and `samples` intervals drawn with `seed`.  Its halfspace
    pairs need no walk where condition (4) finds the lifts of th's edges in
    one wall h, and th and h are untruncated.  Every source edge between
    the two preimages lifts an edge of th, so removing h's edges parts
    them: the preimages are h's two sides, which one size check and one
    pass over `h.far` confirm.  On the median host that `is_convex` already
    assumes, two complementary vertex sets are both convex exactly when
    they are the sides of one hyperplane (Mulder 1978; Bandelt-Chepoi
    2008).  So the comparison cannot fail when both hyperplane tuples are
    right: it stays as the cross-check of the two labellings.  Carriers,
    intervals, and the sides of a th whose lifts lie in no wall, several
    walls or a truncated one go through `is_convex`; a truncated th has no
    sides.  A disconnected target raises `DisconnectedPairError`, as its
    intervals are undefined.
    """
    q.validate()
    if not q.surjective():
        raise ComplexError("verify_rq_characterization needs a surjective map")
    if len(q.target.cut_components()) > 1:
        raise DisconnectedPairError(
            "verify_rq_characterization needs a connected target")
    rng = random.Random(seed)
    src, tgt = q.source, q.target
    ids, tindex = src.vertex_ids, tgt._index

    # fiber index: one pass over the source groups its vertices, horizontal
    # edges and squares with four distinct corner images by image cell
    image = [tindex[q.vertex_map[v]] for v in ids]
    fibers = [[] for _ in tindex]
    for v, t in enumerate(image):
        fibers[t].append(v)
    edge_lifts = {}
    for i, j in src._edge_pairs():
        s, t = image[i], image[j]
        if s != t:
            edge_lifts.setdefault((s, t) if s < t else (t, s), []).append(
                (i, j))
    square_lifts = {}
    opposite = {}
    for s in src.index_squares:
        a, b, c, d = s
        # only horizontal pairs: the ladders walk lifts of target edges, and
        # a pair's two edges are horizontal together in a cubical map
        for x, y, z, w in ((a, b, d, c), (b, c, a, d)):
            if image[x] != image[y]:
                e1 = (x, y) if x < y else (y, x)
                e2 = (z, w) if z < w else (w, z)
                opposite.setdefault(e1, []).append(e2)
                opposite.setdefault(e2, []).append(e1)
        img = tuple(image[x] for x in s)
        if len(set(img)) == 4:
            t, lift = _canonical_square(img), dict(zip(img, s))
            square_lifts.setdefault(t, []).append(tuple(lift[y] for y in t))

    cond1 = all(is_convex(src, fiber) for fiber in fibers)

    # sheets over a target square are adjacent when a (flag-implied) 3-cube
    # joins them
    cond2 = all(_edge_ladder_connected(edge_lifts.get(te), opposite)
                for te in tgt._edge_pairs()) and \
        all(s in square_lifts and _sheets_connected(src, square_lifts[s])
            for s in tgt.index_squares)

    src_hps = hyperplanes(src)
    wall_of_edge = {e: h.index for h in src_hps for e in h.edges}
    tgt_hps = hyperplanes(tgt)

    # per target hyperplane, the source walls its edge lifts lie in
    lifted = [{wall_of_edge[e] for te in th.edges
               for e in edge_lifts.get(te, ())} for th in tgt_hps]
    cond4 = all(len(ws) == 1 for ws in lifted)

    # sampled convex family of target index sets: halfspaces, carriers,
    # random intervals; the halfspace preimages of a wall that pulls back to
    # one untruncated h are both convex iff the far one is a side of h
    bounded, family = [], []
    for th, ws in zip(tgt_hps, lifted):
        h = src_hps[next(iter(ws))] if len(ws) == 1 else None
        if not (th.truncated or h is None or h.truncated):
            bounded.append((th.far, h.far))
        elif not th.truncated:
            family += [set(range(len(fibers))) - th.far, th.far]
        family.append({x for e in th.edges for x in e})
    tverts = list(tgt.vertex_ids)
    for _ in range(samples):
        x = rng.choice(tverts)
        y = rng.choice(tverts)
        family.append({tindex[z] for z in tgt.interval(x, y)})

    def is_side(tfar, hfar):
        size = sum(len(fibers[t]) for t in tfar)
        inside = sum(image[v] in tfar for v in hfar)
        return inside == size == len(hfar) or \
            inside == 0 and size == len(ids) - len(hfar)

    cond3 = all(is_side(*pair) for pair in bounded) and \
        all(is_convex(src, [v for t in A for v in fibers[t]]) for A in family)

    # rebuild from the horizontal walls, which must be untruncated and have
    # no vertical edge, and compare partitions and induced adjacency
    horiz = {wall_of_edge[e] for lifts in edge_lifts.values() for e in lifts}
    walls = [h for h in src_hps if h.index in horiz]
    cond5 = not any(h.truncated or any(image[u] == image[v] for u, v in h.edges)
                    for h in walls)
    if cond5:
        rq = restriction_quotient(src, walls)
        # the partitions agree iff fiber <-> K-class pairs form a bijection
        pairs = {(t, rq.map.vertex_map[v]) for v, t in zip(ids, image)}
        match = dict(pairs)
        cond5 = len(pairs) == len(fibers) == len(rq.target.vertex_ids) and \
            {frozenset(map(match.get, p)) for p in edge_lifts} == set(rq.target.edges)

    conds = (cond1, cond2, cond3, cond4, cond5)
    return {
        "conditions": conds,
        "all_true": all(conds),
        "all_false": not any(conds),
        "agree": all(conds) or not any(conds),
    }


# ---------------------------------------------------------------------------
# labeled isomorphism (used by round-trip and blow-up comparisons)
# ---------------------------------------------------------------------------

def labeled_isomorphism(b1: CubeComplexBall, b2: CubeComplexBall,
                        vlabel1=None, vlabel2=None, fix=None):
    """Find a square-respecting labeled graph isomorphism, or None.

    vlabel1/vlabel2 give per-vertex labels that must match; edge labels must
    match on the nose.  `fix` is an optional list of (v1, v2) seed pairs.
    """
    if len(b1.vertex_ids) != len(b2.vertex_ids) or len(b1.edges) != len(b2.edges) \
       or len(b1.index_squares) != len(b2.index_squares):
        return None
    vl1 = vlabel1 or (lambda v: None)
    vl2 = vlabel2 or (lambda v: None)

    def sig(b, vl, v):
        return (vl(v), tuple(sorted(str(l) for l in b.neighbors(v).values())))

    sig2pool = {}
    for w in b2.vertex_ids:
        sig2pool.setdefault(sig(b2, vl2, w), set()).add(w)

    order = []
    seen = set()
    seeds = [p[0] for p in (fix or [])] or [b1.vertex_ids[0]]
    for s in seeds:
        if s not in seen:
            seen.add(s)
            order.append(s)
            dq = deque([s])
            while dq:
                x = dq.popleft()
                for y in sorted(b1.neighbors(x), key=b1._index.get):
                    if y not in seen:
                        seen.add(y)
                        order.append(y)
                        dq.append(y)
    for v in b1.vertex_ids:
        if v not in seen:
            seen.add(v)
            order.append(v)

    mapping = {}
    used = set()
    fixed = dict(fix or [])

    def candidates(v):
        if v in fixed:
            return [fixed[v]]
        pool = sig2pool.get(sig(b1, vl1, v), ())
        out = []
        for w in pool:
            if w in used:
                continue
            ok = True
            for u in b1.neighbors(v):
                if u in mapping:
                    lab = b1.edge_label(v, u)
                    if not b2.has_edge(w, mapping[u]) or \
                       b2.edge_label(w, mapping[u]) != lab:
                        ok = False
                        break
            if ok:
                out.append(w)
        return out

    # depth-first backtrack over `order`, one candidate iterator per level on
    # an explicit stack, so that no ball size meets the recursion limit
    stack = [iter(candidates(order[0]))]
    while stack and len(mapping) < len(order):
        v = order[len(stack) - 1]
        if v in mapping:                  # back from a dead end below
            used.discard(mapping.pop(v))
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        mapping[v] = w
        used.add(w)
        if len(stack) < len(order):
            stack.append(iter(candidates(order[len(stack)])))
    if len(mapping) < len(order):
        return None
    for s in b1.squares:
        if not b2.has_square(mapping[x] for x in s):
            return None
    return dict(mapping)

