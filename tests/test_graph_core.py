import itertools
import json

import pytest

from cubikit import graph_core as gc

from .test_raag_balls import HEIGHT_GRAPHS


def exhaustive_cliques(g):
    """Oracle: check every vertex subset for pairwise adjacency."""
    out = []
    for r in range(len(g.vertices) + 1):
        for sub in itertools.combinations(g.vertices, r):
            if all(g.adjacent(a, b) for a, b in itertools.combinations(sub, 2)):
                out.append(tuple(sub))
    return out


def test_parse_pentagon():
    text = json.dumps({"vertices": list("abcde"),
                       "edges": [["a", "b"], ["b", "c"], ["c", "d"],
                                 ["d", "e"], ["e", "a"]]})
    g = gc.parse_graph(text)
    assert len(g.vertices) == 5
    assert len(g.edges) == 5
    assert g.adjacent("a", "b") and not g.adjacent("a", "c")


def test_parse_single_vertex():
    g = gc.parse_graph('{"vertices": ["v"], "edges": []}')
    assert g.vertices == ("v",)
    assert not g.edges


def test_parse_errors_distinct():
    with pytest.raises(gc.SelfLoopError):
        gc.parse_graph('{"vertices": ["a"], "edges": [["a", "a"]]}')
    with pytest.raises(gc.DuplicateVertexError):
        gc.parse_graph('{"vertices": ["a", "a"], "edges": []}')
    with pytest.raises(gc.UnknownEndpointError):
        gc.parse_graph('{"vertices": ["a"], "edges": [["a", "b"]]}')
    with pytest.raises(gc.MalformedGraphJSON):
        gc.parse_graph('{"vertices": ')
    with pytest.raises(gc.MalformedGraphJSON):
        gc.parse_graph('{"vertices": ["a"]}')


def test_cliques_pentagon():
    g = gc.pentagon()
    cl = gc.cliques(g)
    oracle = exhaustive_cliques(g)
    assert sorted(cl) == sorted(oracle)
    assert len(cl) == 11
    assert cl[0] == ()


def test_cliques_k2_and_discrete():
    cl = gc.cliques(gc.k2())
    assert cl == [(), ("u",), ("v",), ("u", "v")]
    cl2 = gc.cliques(gc.discrete(2))
    assert len(cl2) == 3


def test_cliques_downward_closed():
    for g in (gc.pentagon(), gc.k2(), gc.square4(), gc.path3()):
        members = set(gc.cliques(g))
        for m in members:
            for r in range(len(m)):
                for sub in itertools.combinations(m, r):
                    assert tuple(sub) in members


def test_orthogonal_complement():
    g = gc.pentagon()

    def oracle(J):
        return tuple(v for v in g.vertices
                     if v not in J and all(g.adjacent(v, j) for j in J))

    assert gc.orthogonal_complement(g, ["a"]) == oracle(["a"]) == ("b", "e")
    assert gc.orthogonal_complement(g, ["a", "b"]) == ()
    assert gc.orthogonal_complement(gc.k2(), ["u"]) == ("v",)
    with pytest.raises(gc.UnknownEndpointError):
        gc.orthogonal_complement(g, ["zz"])


def test_star_table_is_each_vertex_star():
    for g in HEIGHT_GRAPHS.values():
        for v in g.vertices:
            assert g._star[v] == (v,) + gc.orthogonal_complement(g, [v])


def test_orthogonal_complement_antitone():
    g = gc.pentagon()
    subs = [(), ("a",), ("a", "b"), ("b",), ("a", "b", "c")]
    for j1 in subs:
        for j2 in subs:
            if set(j1) <= set(j2):
                assert set(gc.orthogonal_complement(g, j2)) <= \
                    set(gc.orthogonal_complement(g, j1))


def rejoin(g, factors):
    """Oracle for `join_decompose`: rebuild a graph from its join factors,
    induced edges plus all cross-factor edges."""
    edges = set()
    where = {}
    for i, f in enumerate(factors):
        for v in f:
            where[v] = i
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1 :]:
            if where[u] != where[v] or g.adjacent(u, v):
                edges.add(frozenset((u, v)))
    # cross-factor edges are total by construction; induced edges come from g
    keep = {e for e in edges
            if len({where[x] for x in e}) == 2 or e in g.edges}
    return gc.DefiningGraph(g.vertices, frozenset(keep))


def test_join_decompose():
    assert len(gc.join_decompose(gc.pentagon())) == 1
    d = gc.join_decompose(gc.k2())
    assert sorted(d) == [("u",), ("v",)]
    d4 = gc.join_decompose(gc.square4())
    assert len(d4) == 2
    assert sorted(len(f) for f in d4) == [2, 2]
    # complement of C4 is two disjoint edges; factors are discrete pairs
    g = gc.square4()
    for f in d4:
        assert not g.adjacent(f[0], f[1])


def test_rejoin_roundtrip():
    for g in (gc.pentagon(), gc.k2(), gc.square4(), gc.path3(), gc.discrete(3)):
        g2 = rejoin(g, gc.join_decompose(g))
        assert g2.vertices == g.vertices
        assert g2.edges == g.edges


def test_derived_tables_are_not_constructor_arguments():
    g = gc.DefiningGraph.make("ab", [("a", "b")])
    assert g == gc.DefiningGraph(("a", "b"), frozenset({frozenset("ab")}))
    assert g.neighbors("a") == {"b"} and g.index("b") == 1
    for name in ("_adj", "_index", "_star", "_rank", "_letters",
                 "_commuting"):
        with pytest.raises(TypeError):
            gc.DefiningGraph(g.vertices, g.edges, **{name: {}})
