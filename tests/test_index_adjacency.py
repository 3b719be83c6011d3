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

Hyperplanes store index edges and an index far side; their id views are
checked against those fields on the same producers.  The old id-keyed
`cut_components`, `restriction_quotient` and `verify_rq_characterization`
are kept here as `cut_components_oracle`, `restriction_quotient_oracle`
and `verify_rq_oracle`; `tests/test_cube_complex.py` and
`tests/test_blowup_builder.py` compare the new code with them.
"""

import json
import random
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
    `build()` makes, from any of its callers."""
    streams = []
    real = cc.rising_ball

    def spy(order, edges, depth):
        triples = list(edges)
        streams.append([(order[i], order[j], lab) for i, j, lab in triples])
        return real(order, triples, depth)

    with mock.patch.object(rg, "rising_ball", spy), \
            mock.patch.object(bd, "rising_ball", spy), \
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
    on `has_square`, and with the 3-cube margin of the new one (fills are
    tested at depth >= 3)."""
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
        if b.depth[v] < 3:
            continue
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
    """The restriction quotient of `ball_X(g, 3)` by drawn walls."""
    b = rg.ball_X(g, 3)
    walls = [h for h in cc.hyperplanes(b) if not h.truncated]
    keep = data.draw(st.lists(st.booleans(), min_size=len(walls),
                              max_size=len(walls)))
    return cc.restriction_quotient(b, [h for h, k in zip(walls, keep) if k])


PRODUCERS = {
    "ball_X": lambda g, data: rg.ball_X(g, 2),
    "ball_Xe": lambda g, data: rg.ball_Xe(g, 2),
    "davis": lambda g, data: bd.davis_ball(g, 2).ball,
    "Y": lambda g, data: bijective_y(g),
    "dual": lambda g, data: wd.dual_cube_complex(
        wd.hyperplane_wallspace(rg.ball_X(g, 3), margin=1)),
    "rq": lambda g, data: rq_target(g, data).target,
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
    k23 = cc.rising_ball(["a", "b1", "b2", "b3", "c"],
                         [(0, b, "x") for b in (1, 2, 3)] +
                         [(b, 4, "y") for b in (1, 2, 3)], None)
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


# -- hyperplanes, restriction quotients and the verifier by id ----------------

def carrier(h):
    """The carrier of h as ids: the endpoints of its edges, as a square on
    an edge of the class has its opposite edge there too."""
    ids = h.vertex_ids
    return frozenset(ids[x] for e in h.edges for x in e)


def is_convex_ids(b, S):
    """`is_convex` on a set of vertex ids."""
    return cc.is_convex(b, [b._index[v] for v in S])


def cut_components_oracle(b, cut):
    """The old `cut_components`: components of the 1-skeleton minus the id
    edges `cut`, as id lists, in order of their first vertex."""
    index, adj = b._index, b.adjacency
    banned = {}
    for e in cut:
        i, j = map(index.__getitem__, e)
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
    for v, c in zip(b.vertex_ids, comp_of):
        comps.setdefault(c, []).append(v)
    return list(comps.values())


def restriction_quotient_oracle(b, K):
    """The old `restriction_quotient`, which cut the id edge classes and
    mapped each K-class member and K-edge back to its index."""
    K = list(K)
    for h in K:
        if h.truncated:
            raise cc.ComplexError("K contains a truncated hyperplane")
    classes = cut_components_oracle(b, [e for h in K for e in h.edge_class])
    index = b._index
    cls_of = [0] * len(index)
    for k, comp in enumerate(classes):
        for x in comp:
            cls_of[index[x]] = k
    ids = [f"K{i}" for i in range(len(classes))]
    vmap = {v: ids[k] for v, k in zip(b.vertex_ids, cls_of)}
    wall_of_edge = {}
    for h in K:
        for e in h.edge_class:
            i, j = sorted(map(index.__getitem__, e))
            wall_of_edge[i, j] = h.index
    adj = tuple({} for _ in ids)
    wall_of_pair = {}
    for i, j in b._edge_pairs():
        ci, cj = cls_of[i], cls_of[j]
        if ci != cj:
            w = wall_of_edge[i, j]
            if wall_of_pair.setdefault((min(ci, cj), max(ci, cj)), w) != w:
                raise cc.ComplexError(
                    "two walls of K join the same K-classes")
            adj[ci][cj] = adj[cj][ci] = b.adjacency[i][j]
    images = (tuple(cls_of[x] for x in s) for s in b.index_squares)
    squares = cc._normal_squares(ids,
                                 (t for t in images if len(set(t)) == 4))
    depth = {}
    for i, members in enumerate(classes):
        depth[ids[i]] = max(b.depth[m] for m in members)
    target = cc.CubeComplexBall(tuple(ids), adj, squares, depth)
    return cc.RestrictionQuotient(b, target, cc.CubicalMap(vmap, b, target))


def assert_same_quotient(got, want):
    assert got.target == want.target
    assert got.map.vertex_map == want.map.vertex_map


def verify_rq_oracle(q, samples=50, seed=0):
    """The old `verify_rq_characterization`, keyed by ids: fibers, edge
    lifts, `opposite` (every square's two pairs, vertical ones included),
    `wall_of_edge` and `lifted` by id, the condition-3 family as id sets."""
    q.validate()
    if not q.surjective():
        raise cc.ComplexError(
            "verify_rq_characterization needs a surjective map")
    if len(q.target.cut_components()) > 1:
        raise cc.DisconnectedPairError(
            "verify_rq_characterization needs a connected target")
    rng = random.Random(seed)
    src, tgt, vm = q.source, q.target, q.vertex_map
    fibers = {}
    for v in src.vertex_ids:
        fibers.setdefault(vm[v], []).append(v)
    edge_lifts = {}
    ids = src.vertex_ids
    for i, j in src._edge_pairs():
        u, v = ids[i], ids[j]
        if vm[u] != vm[v]:
            edge_lifts.setdefault(frozenset((vm[u], vm[v])), []).append(
                frozenset((u, v)))
    square_lifts = {}
    opposite = {}
    image = [tgt._index[vm[v]] for v in ids]
    for s in src.index_squares:
        a, b, c, d = map(ids.__getitem__, s)
        for e1, e2 in ((frozenset((a, b)), frozenset((d, c))),
                       (frozenset((b, c)), frozenset((a, d)))):
            opposite.setdefault(e1, []).append(e2)
            opposite.setdefault(e2, []).append(e1)
        img = tuple(image[x] for x in s)
        if len(set(img)) == 4:
            t, lift = cc._canonical_square(img), dict(zip(img, s))
            square_lifts.setdefault(t, []).append(tuple(lift[y] for y in t))

    cond1 = all(is_convex_ids(src, fibers[tv]) for tv in tgt.vertex_ids)
    cond2 = all(cc._edge_ladder_connected(edge_lifts.get(te), opposite)
                for te in tgt.edges) and \
        all(s in square_lifts and cc._sheets_connected(src, square_lifts[s])
            for s in tgt.index_squares)

    src_hps = cc.hyperplanes(src)
    wall_of_edge = {e: h.index for h in src_hps for e in h.edge_class}
    tgt_hps = cc.hyperplanes(tgt)
    lifted = [{wall_of_edge[e] for te in th.edge_class
               for e in edge_lifts.get(te, ())} for th in tgt_hps]
    cond4 = all(len(ws) == 1 for ws in lifted)

    bounded, family = [], []
    for th, ws in zip(tgt_hps, lifted):
        h = src_hps[next(iter(ws))] if len(ws) == 1 else None
        if th.truncated or h is None or h.truncated:
            family.extend(th.sides)
        else:
            bounded.append((th.sides[1], h.sides[1]))
        family.append(carrier(th))
    tverts = list(tgt.vertex_ids)
    for _ in range(samples):
        x = rng.choice(tverts)
        y = rng.choice(tverts)
        family.append(set(tgt.interval(x, y)))

    def is_side(tfar, hfar):
        size = sum(len(fibers[tv]) for tv in tfar)
        inside = sum(vm[v] in tfar for v in hfar)
        return inside == size == len(hfar) or \
            inside == 0 and size == len(ids) - len(hfar)

    cond3 = all(is_side(*pair) for pair in bounded) and \
        all(is_convex_ids(src, [v for tv in A for v in fibers[tv]])
            for A in family)

    horiz = {wall_of_edge[e] for lifts in edge_lifts.values() for e in lifts}
    walls = [h for h in src_hps if h.index in horiz]
    cond5 = not any(h.truncated or
                    any(vm[u] == vm[v] for u, v in map(tuple, h.edge_class))
                    for h in walls)
    if cond5:
        rq = restriction_quotient_oracle(src, walls)
        pairs = {(vm[v], rq.map.vertex_map[v]) for v in src.vertex_ids}
        match = dict(pairs)
        cond5 = len(pairs) == len(fibers) == len(rq.target.vertex_ids) and \
            {frozenset(match[t] for t in p) for p in edge_lifts} == \
            set(rq.target.edges)

    conds = (cond1, cond2, cond3, cond4, cond5)
    return {
        "conditions": conds,
        "all_true": all(conds),
        "all_false": not any(conds),
        "agree": all(conds) or not any(conds),
    }


@pytest.mark.parametrize("kind", sorted(PRODUCERS))
@settings(max_examples=10, deadline=None)
@given(defining_graphs(max_vertices=4), st.data())
def test_hyperplane_views_match_the_index_fields(kind, g, data):
    b = PRODUCERS[kind](g, data)
    ids, n = b.vertex_ids, len(b.vertex_ids)
    classes = cc._edge_classes(b)
    for h in cc.hyperplanes(b):
        assert list(h.edges) == classes[h.index]
        assert all(i < j for i, j in h.edges)
        assert h.edge_class == {frozenset((ids[i], ids[j]))
                                for i, j in h.edges}
        assert h.vertex_ids is ids
        if h.truncated:
            assert h.sides == ()
            continue
        assert h.far <= set(range(n)) and 0 not in h.far
        near = [ids[x] for x in range(n) if x not in h.far]
        assert h.sides == (frozenset(near), frozenset(ids[x] for x in h.far))


def horizontal_square_edges(q):
    """Every source edge on a square whose ends have different images, as
    an index pair, with the edges opposite it on those squares."""
    image = [q.target._index[q.vertex_map[v]] for v in q.source.vertex_ids]
    out = {}
    for a, b, c, d in q.source.index_squares:
        for e1, e2 in (((a, b), (d, c)), ((b, c), (a, d))):
            e1, e2 = tuple(sorted(e1)), tuple(sorted(e2))
            if image[e1[0]] != image[e1[1]]:
                out.setdefault(e1, []).append(e2)
                out.setdefault(e2, []).append(e1)
    return out


def opposite_seen_by_ladders(q):
    """The `opposite` table the verifier hands to its edge ladders."""
    seen = []
    real = cc._edge_ladder_connected

    def spy(lifts, opposite):
        seen.append(opposite)
        return real(lifts, opposite)

    with mock.patch.object(cc, "_edge_ladder_connected", spy):
        cc.verify_rq_characterization(q, samples=0)
    assert all(x is seen[0] for x in seen)
    return seen[0] if seen else None


@settings(max_examples=15, deadline=None)
@given(defining_graphs(max_vertices=4), st.data())
def test_verifier_stores_only_horizontal_opposite_pairs(g, data):
    # on the bijective blow-up most squares are vertical or map to an edge,
    # and on a drawn quotient some map to an edge or a point
    if data.draw(st.booleans()):
        davis = bd.davis_ball(g, 2)
        q = bu.blowup_complex(bu.build_fiber_functor(
            bu.bijective_data(g, davis, 2), davis)).q
    else:
        q = rq_target(g, data).map
    opposite = opposite_seen_by_ladders(q)
    if opposite is None:                 # a one-vertex target has no edge
        assert not q.target.edges
    else:
        assert opposite == horizontal_square_edges(q)

