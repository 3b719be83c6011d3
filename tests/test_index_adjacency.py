"""The index core of `CubeComplexBall` against the id path it replaced.

A ball stores its 1-skeleton as index adjacency and its squares as index
4-tuples, and its id tables (`edges`, `neighbors`, `squares`) are derived
on first read.  The oracle is the old id path: the builder's edge stream,
as id triples, through `edge_map_oracle` (the old `_edge_map`) and
`id_adjacency_oracle` (the old adjacency loop of `__post_init__`), and the
old `to_json` over that edge map.  Every builder behind `rising_ball` is
checked on drawn graphs: `ball_X` and `ball_Xe` at r2 and r3, `davis_ball`
at r2 and the bijective blow-up at (r2, w2).

The square readers are checked against their old id-keyed bodies:
`canonical_square_id_oracle`, `squares_at_oracle`, `edge_classes_oracle`
and `check_flag_links_oracle`, on every producer of a complex: `ball_X`,
`ball_Xe`, the Davis ball, the bijective `Y`, the Sageev dual, a
restriction-quotient target and the span of a drawn connected subset,
with and without a drawn subset of its squares.
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
from cubikit import wallspace_dual as wd

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


# -- the square readers against their id-keyed bodies ------------------------

def canonical_square_id_oracle(cycle, index):
    """The old `_canonical_square`: least rotation/reflection of an id
    4-cycle with four distinct corners, by `index` (id -> vertex index)."""
    ranks = [index[x] for x in cycle]
    k = ranks.index(min(ranks))
    a, b, c, d = cycle[k:] + cycle[:k]
    return (a, b, c, d) if index[b] < index[d] else (a, d, c, b)


def squares_at_oracle(b):
    """The old `_squares_at`: id -> the id squares with a corner there, in
    `squares` order."""
    out = {v: [] for v in b.vertex_ids}
    for s in b.squares:
        for x in s:
            out[x].append(s)
    return out


def edge_classes_oracle(b):
    """The old `_edge_classes`, which mapped each id square to indices."""
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

    index = b._index
    for s in b.squares:
        a, bb, c, d = map(index.__getitem__, s)
        union((a, bb) if a < bb else (bb, a), (d, c) if d < c else (c, d))
        union((bb, c) if bb < c else (c, bb), (a, d) if a < d else (d, a))
    classes = {}
    for e in pairs:
        classes.setdefault(find(e), []).append(e)
    return sorted(classes.values(), key=min)


def check_flag_links_oracle(b):
    """The old `check_flag_links`, keyed by ids, with its `_three_cube_fills`
    on `has_square`."""
    ids, index, adj = b.vertex_ids, b._index, b.adjacency
    at = squares_at_oracle(b)

    def fills(u1, u2, u3, w12, w13, w23):
        cands = set(adj[index[w12]]) & set(adj[index[w13]]) & \
            set(adj[index[w23]])
        return any(b.has_square((u1, w12, z, w13)) and
                   b.has_square((u2, w12, z, w23)) and
                   b.has_square((u3, w13, z, w23))
                   for z in map(ids.__getitem__, cands))

    failures = []
    interior = b.interior()
    for v in interior:
        corner = {}
        for s in at[v]:
            i = s.index(v)
            u1, u2, far = s[i - 1], s[(i + 1) % 4], s[(i + 2) % 4]
            key = frozenset((u1, u2))
            if key in corner and corner[key] != far:
                failures.append((v, ("three-shared-edges", (v, u1, u2))))
            corner[key] = far
        nbrs = [ids[j] for j in sorted(adj[index[v]])]
        for i, u1 in enumerate(nbrs):
            for j in range(i + 1, len(nbrs)):
                u2 = nbrs[j]
                if frozenset((u1, u2)) not in corner:
                    continue
                for k in range(j + 1, len(nbrs)):
                    u3 = nbrs[k]
                    if frozenset((u1, u3)) not in corner or \
                       frozenset((u2, u3)) not in corner:
                        continue
                    if not fills(u1, u2, u3, corner[frozenset((u1, u2))],
                                 corner[frozenset((u1, u3))],
                                 corner[frozenset((u2, u3))]):
                        failures.append(
                            (v, ("open-3-cube-corner", (u1, u2, u3))))
    return {"ok": not failures, "failures": failures, "checked": len(interior)}


def grown_subcomplex(b, data, drop_squares):
    """A connected subcomplex of `b`: the span of a vertex set grown from a
    drawn vertex by drawn neighbours, with a drawn subset of its squares
    dropped when `drop_squares` is set."""
    grown = [data.draw(st.sampled_from(b.vertex_ids))]
    size = data.draw(st.integers(1, len(b.vertex_ids)))
    while len(grown) < size:
        frontier = {y for x in grown for y in b.neighbors(x)} - set(grown)
        if not frontier:
            break
        grown.append(data.draw(st.sampled_from(sorted(frontier,
                                                      key=b._index.get))))
    sub = b.span(grown)
    if drop_squares:
        n = len(sub.index_squares)
        keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        sub = cc.CubeComplexBall(
            sub.vertex_ids, sub.adjacency,
            tuple(s for s, k in zip(sub.index_squares, keep) if k), sub.depth)
    return sub


def checked_span(g, data):
    """A grown subcomplex of `ball_X(g, 3)`, whose squares must pass
    `validate` and be the squares of the host with every corner kept."""
    host = rg.ball_X(g, 3)
    sub = grown_subcomplex(host, data, False)
    assert sub.validate()
    kept = set(sub.vertex_ids)
    assert sub.squares == tuple(s for s in host.squares if set(s) <= kept)
    return sub


def rq_target(g, data):
    b = rg.ball_X(g, 3)
    walls = [h for h in cc.hyperplanes(b) if not h.truncated]
    keep = data.draw(st.lists(st.booleans(), min_size=len(walls),
                              max_size=len(walls)))
    return cc.restriction_quotient(
        b, [h for h, k in zip(walls, keep) if k]).target


PRODUCERS = {
    "ball_X": lambda g, data: rg.ball_X(g, 2),
    "ball_Xe": lambda g, data: rg.ball_Xe(g, 2),
    "davis": lambda g, data: bd.davis_ball(g, 2).ball,
    "Y": lambda g, data: bijective_y(g),
    "dual": lambda g, data: wd.dual_cube_complex(
        wd.hyperplane_wallspace(rg.ball_X(g, 3), margin=1)),
    "rq": rq_target,
    "span": checked_span,
    "dropped": lambda g, data: grown_subcomplex(rg.ball_X(g, 3), data, True),
}


@pytest.mark.parametrize("kind", sorted(PRODUCERS))
@settings(max_examples=15, deadline=None)
@given(defining_graphs(max_vertices=4), st.data())
def test_square_readers_match_the_id_path(kind, g, data):
    b = PRODUCERS[kind](g, data)
    ids, index = b.vertex_ids, b._index
    assert b.squares == tuple(tuple(ids[x] for x in s)
                              for s in b.index_squares)
    for s, t in zip(b.index_squares, b.squares):
        assert canonical_square_id_oracle(t, index) == t
        k = data.draw(st.integers(0, 3))
        cycle = s[k:] + s[:k]
        if data.draw(st.booleans()):
            cycle = cycle[::-1]
        assert tuple(ids[x] for x in cc._canonical_square(cycle)) == \
            canonical_square_id_oracle(tuple(ids[x] for x in cycle), index)
    at = squares_at_oracle(b)
    for v in ids:
        assert [tuple(ids[x] for x in s) for s in b._squares_at[index[v]]] \
            == at[v]
    assert cc._edge_classes(b) == edge_classes_oracle(b)
    assert cc.check_flag_links(b) == check_flag_links_oracle(b)


def test_flag_link_failures_match_the_id_path():
    # a K_{2,3}, whose links at the middles are not simple and whose link at
    # a is an unfilled triangle, and a 3-cube without its face (4, 5, 7, 6),
    # which leaves the link triangle at 0 open
    order = ["a", "b1", "b2", "b3", "c"]
    nbrs = {"a": [("x", b) for b in order[1:4]],
            **{b: [("y", "c")] for b in order[1:4]}}
    k23 = cc.grown_ball(order, lambda x: nbrs.get(x, []), None)
    faces = [(v, v | 1 << i, v | 1 << i | 1 << j, v | 1 << j)
             for i, j in ((0, 1), (0, 2), (1, 2)) for v in range(8)
             if not v & (1 << i | 1 << j)]
    cube = cc.CubeComplexBall.make(
        range(8), [(v, v | 1 << i, str(i)) for v in range(8)
                   for i in range(3) if not v >> i & 1],
        [f for f in faces if f != (4, 5, 7, 6)], None)
    kinds = []
    for b in (k23, cube):
        report = cc.check_flag_links(b)
        assert report == check_flag_links_oracle(b)
        kinds.append({kind for _, (kind, _) in report["failures"]})
    assert kinds == [{"three-shared-edges", "open-3-cube-corner"},
                     {"open-3-cube-corner"}]
