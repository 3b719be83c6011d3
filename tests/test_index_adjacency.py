"""The index core of `CubeComplexBall` against the id path it replaced.

A ball stores its 1-skeleton as index adjacency, and its id tables
(`edges`, `neighbors`) are derived on first read.  The oracle is the old id
path: the builder's edge stream, as id triples, through `edge_map_oracle`
(the old `_edge_map`) and `id_adjacency_oracle` (the old adjacency loop of
`__post_init__`), and the old `to_json` over that edge map.  Every builder
behind `rising_ball` is checked on drawn graphs: `ball_X` and `ball_Xe` at
r2 and r3, `davis_ball` at r2 and the bijective blow-up at (r2, w2).
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubikit import blowup as bu
from cubikit import building as bd
from cubikit import cube_complex as cc
from cubikit import raag_geometry as rg

from .strategies import defining_graphs


def edge_map_oracle(triples):
    """frozenset{u, v} -> label, first seen first; loops and clashes raise."""
    em = {}
    for u, v, lab in triples:
        key = frozenset((u, v))
        if len(key) != 2:
            raise cc.ComplexError(f"loop edge at {u!r}")
        if em.setdefault(key, lab) != lab:
            raise cc.ComplexError(f"two edges between {u!r},{v!r}")
    return em


def id_adjacency_oracle(vertex_ids, em):
    """vertex -> {neighbour: label}, each neighbour in `em` order."""
    adj = {v: {} for v in vertex_ids}
    for e, lab in em.items():
        u, v = tuple(e)
        adj[u][v] = lab
        adj[v][u] = lab
    return adj


def to_json_oracle(b, em):
    """`CubeComplexBall.to_json` as it read the id edge map."""
    vid = {v: i for i, v in enumerate(b.vertex_ids)}
    eidx = {}
    edges_out = []
    for e, lab in sorted(em.items(),
                         key=lambda kv: tuple(sorted(vid[x] for x in kv[0]))):
        u, v = sorted(e, key=vid.get)
        eidx[e] = len(edges_out)
        edges_out.append([str(u), str(v), str(lab)])
    squares_out = [[eidx[frozenset(p)] for p in ((a, b_), (b_, c), (c, d),
                                                 (d, a))]
                   for a, b_, c, d in b.squares]
    return json.dumps({
        "vertices": [{"id": str(v), "boundary": b.boundary_flag(v)}
                     for v in b.vertex_ids],
        "edges": edges_out,
        "squares": squares_out,
    })


def build_with_stream(build):
    """(ball, its edge stream as id triples) of the `rising_ball` call that
    `build()` makes, from either front end."""
    streams = []
    real = cc.rising_ball

    def spy(order, edges, depth):
        triples = list(edges)
        streams.append([(order[i], order[j], lab) for i, j, lab in triples])
        return real(order, triples, depth)

    with mock.patch.object(cc, "rising_ball", spy), \
            mock.patch.object(bu, "rising_ball", spy):
        ball = build()
    return ball, streams[-1]


BUILDS = {
    "ball_X_r2": lambda g: rg.ball_X(g, 2),
    "ball_X_r3": lambda g: rg.ball_X(g, 3),
    "ball_Xe_r2": lambda g: rg.ball_Xe(g, 2),
    "ball_Xe_r3": lambda g: rg.ball_Xe(g, 3),
    "davis_r2": lambda g: bd.davis_ball(g, 2).ball,
}


def bijective_y(g):
    davis = bd.davis_ball(g, 2)
    data = bu.bijective_data(g, davis, 2)
    return bu.blowup_complex(bu.build_fiber_functor(data, davis)).Y


@pytest.fixture(scope="module")
def built():
    """Builds shared across draws: (graph JSON, kind) -> (ball, stream)."""
    return {}


def assert_matches_id_oracle(built, g, kind, build):
    key = (g.to_json(), kind)
    if key not in built:
        built[key] = build_with_stream(lambda: build(g))
    b, stream = built[key]
    em = edge_map_oracle(stream)
    assert list(b.edges.items()) == list(em.items())
    adj = id_adjacency_oracle(b.vertex_ids, em)
    for v in b.vertex_ids:
        assert list(b.neighbors(v).items()) == list(adj[v].items())
    assert b.to_json() == to_json_oracle(b, em)


@settings(max_examples=40, deadline=None)
@given(defining_graphs(), st.sampled_from(sorted(BUILDS)))
def test_balls_match_the_id_path(built, g, kind):
    assert_matches_id_oracle(built, g, kind, BUILDS[kind])


@settings(max_examples=15, deadline=None)
@given(defining_graphs(max_vertices=4))
def test_bijective_blowup_matches_the_id_path(built, g):
    assert_matches_id_oracle(built, g, "blowup_r2_w2", bijective_y)


@pytest.mark.parametrize("triples,message", [
    ([(0, 1, "u"), (1, 1, "v")], "loop edge at 'b'"),
    ([(0, 1, "u"), (1, 0, "u"), (1, 0, "v")], "two edges between 'b','a'"),
])
def test_rising_ball_raises_the_id_path_messages(triples, message):
    order = ["a", "b"]
    with pytest.raises(cc.ComplexError, match=message):
        edge_map_oracle([(order[i], order[j], lab) for i, j, lab in triples])
    with pytest.raises(cc.ComplexError, match=message):
        cc.rising_ball(order, triples, None)
