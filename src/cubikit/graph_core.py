"""Defining graphs and their clique combinatorics.

A defining graph is a finite simplicial graph: vertex labels are strings,
edges are unordered label pairs, no loops, no multi-edges.  Everything else
in the package (groups, buildings, complexes) is driven by one of these.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Base class for defining-graph construction problems."""


class MalformedGraphJSON(GraphError):
    pass


class DuplicateVertexError(GraphError):
    pass


class UnknownEndpointError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


@dataclass(frozen=True)
class DefiningGraph:
    """Finite simplicial graph with an ordered vertex list.

    The declaration order of `vertices` is canonical: vertex indices, clique
    order and every downstream id derive from it.  `__post_init__` fills the
    derived tables: `_adj` (vertex -> neighbours), `_index` (vertex ->
    position in `vertices`), `_star` (vertex v -> v, then its neighbours
    in `vertices` order: the star st(v) = {v} u v-perp) and, for the RAAG
    word algebra, the letters
    (v, e) coded by rank 2 * index + (e < 0): `_rank` (letter -> rank),
    `_letters` (rank -> letter) and `_commuting` (rank -> ranks of the
    letters whose generator is adjacent to v).
    """

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]
    _adj: dict = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _star: dict = field(init=False, repr=False, compare=False)
    _rank: dict = field(init=False, repr=False, compare=False)
    _letters: tuple = field(init=False, repr=False, compare=False)
    _commuting: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise DuplicateVertexError(f"duplicate vertex {v!r}")
            seen.add(v)
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            pair = sorted(e)
            if len(pair) != 2:
                raise SelfLoopError(f"self-loop at {pair[0]!r}")
            a, b = pair
            for x in (a, b):
                if x not in seen:
                    raise UnknownEndpointError(f"edge endpoint {x!r} not declared")
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(self, "_adj", {v: frozenset(s) for v, s in adj.items()})
        object.__setattr__(self, "_index",
                           {v: i for i, v in enumerate(self.vertices)})
        object.__setattr__(self, "_star", {
            v: (v, *(w for w in self.vertices if w in adj[v]))
            for v in self.vertices})
        letters = tuple((v, e) for v in self.vertices for e in (1, -1))
        rank = {x: r for r, x in enumerate(letters)}
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "_commuting", tuple(
            frozenset(rank[w, f] for w in adj[v] for f in (1, -1))
            for v, _ in letters))

    @staticmethod
    def make(vertices, edges) -> "DefiningGraph":
        return DefiningGraph(
            tuple(vertices),
            frozenset(frozenset(e) for e in edges),
        )

    def index(self, v: str) -> int:
        return self._index[v]

    def adjacent(self, u: str, v: str) -> bool:
        return v in self._adj[u]

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def has_vertex(self, v: str) -> bool:
        return v in self._adj

    def sorted_subset(self, subset) -> tuple[str, ...]:
        """Subset of vertices in canonical (declaration) order."""
        return tuple(sorted(subset, key=self._index.__getitem__))

    def is_clique(self, subset) -> bool:
        vs = list(subset)
        return all(self.adjacent(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])

    def to_json(self) -> str:
        return json.dumps(
            {"vertices": list(self.vertices),
             "edges": [sorted(e) for e in sorted(self.edges, key=sorted)]}
        )


def parse_graph(text: str) -> DefiningGraph:
    """Parse the graph JSON format: {"vertices": [...], "edges": [[u,v],...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedGraphJSON(str(exc)) from exc
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise MalformedGraphJSON("expected object with 'vertices' and 'edges'")
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise MalformedGraphJSON("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise MalformedGraphJSON("'edges' must be a list of pairs")
    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or \
                not all(isinstance(x, str) for x in e):
            raise MalformedGraphJSON(f"edge {e!r} is not a pair of strings")
        pairs.append(tuple(e))
    return DefiningGraph.make(vertices, pairs)


def cliques(g: DefiningGraph) -> list[tuple[str, ...]]:
    """All cliques of g as member tuples, including the empty clique.

    Sorted by (size, lexicographic member indices); the empty clique is
    always index 0.
    """
    found = [()]
    # grow cliques one canonical vertex at a time; each clique is produced
    # exactly once in sorted order
    stack = [((), 0)]
    while stack:
        members, start = stack.pop()
        for i in range(start, len(g.vertices)):
            v = g.vertices[i]
            if all(g.adjacent(u, v) for u in members):
                ext = members + (v,)
                found.append(ext)
                stack.append((ext, i + 1))
    found.sort(key=lambda m: (len(m), tuple(g.index(v) for v in m)))
    return found


def orthogonal_complement(g: DefiningGraph, subset) -> tuple[str, ...]:
    """J^perp: vertices adjacent to every vertex of J (disjoint from J)."""
    for v in subset:
        if not g.has_vertex(v):
            raise UnknownEndpointError(f"unknown vertex {v!r}")
    J = set(subset)
    out = [v for v in g.vertices if v not in J and all(g.adjacent(v, j) for j in J)]
    return tuple(out)


def join_decompose(g: DefiningGraph) -> tuple[tuple[str, ...], ...]:
    """Join factors: the connected components of the complement graph.

    Two vertices land in different factors exactly when they are adjacent to
    everything in the other factor, so the join of the factors gives back g.
    """
    if not g.vertices:
        raise GraphError("empty graph has no join decomposition")
    unvisited = set(g.vertices)
    factors = []
    while unvisited:
        seed = min(unvisited, key=g.index)
        comp = {seed}
        frontier = [seed]
        unvisited.discard(seed)
        while frontier:
            x = frontier.pop()
            for y in list(unvisited):
                if not g.adjacent(x, y):
                    comp.add(y)
                    unvisited.discard(y)
                    frontier.append(y)
        factors.append(g.sorted_subset(comp))
    factors.sort(key=lambda f: g.index(f[0]))
    return tuple(factors)


# Small graphs used throughout the test-suite and docs.

def pentagon() -> DefiningGraph:
    return DefiningGraph.make(
        "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
    )


def k2() -> DefiningGraph:
    return DefiningGraph.make(["u", "v"], [("u", "v")])


def single_vertex() -> DefiningGraph:
    return DefiningGraph.make(["v"], [])


def discrete(n: int) -> DefiningGraph:
    names = [chr(ord("x") + i) if n <= 3 else f"x{i}" for i in range(n)]
    return DefiningGraph.make(names, [])


def path3() -> DefiningGraph:
    return DefiningGraph.make(["p", "q", "r"], [("p", "q"), ("q", "r")])


def square4() -> DefiningGraph:
    return DefiningGraph.make("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
