import dataclasses
import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubikit import blowup as bu
from cubikit import building as bd
from cubikit import cube_complex as cc
from cubikit import graph_core as gc
from cubikit import raag_geometry as rg

from .strategies import defining_graphs
from .test_index_adjacency import (
    assert_same_quotient,
    carrier,
    grown_subcomplex,
    is_convex_ids,
    restriction_quotient_oracle,
    squares_at_oracle,
    verify_rq_oracle,
)


def separates(h, x, y):
    """Does the hyperplane h put the vertex indices x and y on different
    sides?  False when h is truncated."""
    return h.far is not None and (x in h.far) != (y in h.far)


def fiber(q, tv):
    """The source vertices that the cubical map q sends to tv."""
    return [v for v, w in q.vertex_map.items() if w == tv]


def grid(nx, ny, depth_big=True):
    """The full nx x ny square grid as a cube complex (no truncation)."""
    verts = [(i, j) for i in range(nx + 1) for j in range(ny + 1)]
    edges = []
    for i, j in verts:
        if i < nx:
            edges.append(((i, j), (i + 1, j), "u"))
        if j < ny:
            edges.append(((i, j), (i, j + 1), "v"))
    squares = []
    for i in range(nx):
        for j in range(ny):
            squares.append(((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)))
    return cc.CubeComplexBall.make(verts, edges, squares, None)


def open_three_corner():
    """Three squares around a vertex of a would-be 3-cube, nothing filling."""
    c = (0, 0, 0)
    xs, ys, zs = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    xy, xz, yz = (1, 1, 0), (1, 0, 1), (0, 1, 1)
    verts = [c, xs, ys, zs, xy, xz, yz]
    edges = [
        (c, xs, "x"), (c, ys, "y"), (c, zs, "z"),
        (xs, xy, "y"), (ys, xy, "x"),
        (xs, xz, "z"), (zs, xz, "x"),
        (ys, yz, "z"), (zs, yz, "y"),
    ]
    squares = [(c, xs, xy, ys), (c, xs, xz, zs), (c, ys, yz, zs)]
    return cc.CubeComplexBall.make(verts, edges, squares, None)


def test_validate_grid():
    b = grid(2, 2)
    assert b.validate()


def test_flag_links_grid_pass_and_corner_fail():
    assert cc.check_flag_links(grid(3, 3))["ok"]
    rep = cc.check_flag_links(open_three_corner())
    assert not rep["ok"]
    bad_vertices = {f[0] for f in rep["failures"]}
    assert (0, 0, 0) in bad_vertices


def test_hyperplanes_single_square():
    b = grid(1, 1)
    hps = cc.hyperplanes(b)
    assert len(hps) == 2
    assert all(not h.truncated for h in hps)


def test_hyperplanes_two_square_row():
    # closure computed by hand: the long wall has both vertical edge pairs
    b = grid(2, 1)
    hps = cc.hyperplanes(b)
    assert len(hps) == 3
    sizes = sorted(len(h.edge_class) for h in hps)
    assert sizes == [2, 2, 3]
    long = max(hps, key=lambda h: len(h.edge_class))
    assert long.direction == "v"


def test_l1_distance_equals_separating_walls():
    b = grid(3, 2)
    hps = cc.hyperplanes(b)
    for x, y in itertools.combinations(b.vertex_ids, 2):
        exp = abs(x[0] - y[0]) + abs(x[1] - y[1])
        assert b.distance(x, y) == exp
        i, j = b._index[x], b._index[y]
        assert sum(separates(h, i, j) for h in hps) == exp


def interval_hull(b, S):
    """Closure of S under l1-intervals (slow; the oracle for is_convex)."""
    S = set(S)
    changed = True
    while changed:
        changed = False
        for x in list(S):
            for y in list(S):
                if x is y:
                    continue
                for z in b.interval(x, y):
                    if z not in S:
                        S.add(z)
                        changed = True
    return S


def test_convexity():
    b = grid(2, 2)
    hps = cc.hyperplanes(b)
    for h in hps:
        assert cc.is_convex(b, set(range(len(b.vertex_ids))) - h.far)
        assert cc.is_convex(b, h.far)
        assert cc.is_convex(b, {x for e in h.edges for x in e})
    assert not is_convex_ids(b, [(0, 0), (1, 0), (1, 1), (0, 1)][0:3])
    # interval-hull oracle agrees on random subsets
    rng = random.Random(3)
    verts = list(b.vertex_ids)
    for _ in range(25):
        S = set(rng.sample(verts, rng.randint(1, 6)))
        assert is_convex_ids(b, S) == (interval_hull(b, S) == S)


def test_restriction_quotient_long_wall():
    b = grid(2, 1)
    hps = cc.hyperplanes(b)
    long = max(hps, key=lambda h: len(h.edge_class))
    rq = cc.restriction_quotient(b, [long])
    assert len(rq.target.vertex_ids) == 2
    assert len(rq.target.edges) == 1
    for tv in rq.target.vertex_ids:
        members = fiber(rq.map, tv)
        assert len(members) == 3
        assert is_convex_ids(b, members)


def test_restriction_quotient_all_and_none():
    b = grid(2, 2)
    hps = cc.hyperplanes(b)
    rq_all = cc.restriction_quotient(b, hps)
    assert len(rq_all.target.vertex_ids) == len(b.vertex_ids)
    assert len(rq_all.target.edges) == len(b.edges)
    assert len(rq_all.target.squares) == len(b.squares)
    rq_none = cc.restriction_quotient(b, [])
    assert len(rq_none.target.vertex_ids) == 1
    assert not rq_none.target.edges


def test_rq_idempotent():
    b = grid(2, 2)
    hps = cc.hyperplanes(b)
    rq = cc.restriction_quotient(b, hps[:2])
    hps2 = cc.hyperplanes(rq.target)
    rq2 = cc.restriction_quotient(rq.target, hps2)
    assert cc.labeled_isomorphism(rq.target, rq2.target,
                                  vlabel2=lambda v: None) is not None


def test_verify_characterization_constructed():
    b = grid(2, 2)
    hps = cc.hyperplanes(b)
    for K in ([hps[0]], hps[:2], hps):
        rq = cc.restriction_quotient(b, K)
        rep = cc.verify_rq_characterization(rq.map, samples=10)
        assert rep["all_true"], rep


def test_verify_characterization_identity():
    b = grid(1, 1)
    q = cc.CubicalMap({v: v for v in b.vertex_ids}, b, b)
    rep = cc.verify_rq_characterization(q, samples=5)
    assert rep["all_true"]


def fold_map():
    """Strip [0,3]x[0,1] folded onto a 2-edge boundary path, surjectively."""
    src = grid(3, 1)
    tgt = cc.CubeComplexBall.make(
        ["p0", "p1", "p2"], [("p0", "p1", "e"), ("p1", "p2", "e")], [], None)
    fold = [0, 1, 2, 1]
    vmap = {(i, j): f"p{fold[i]}" for i in range(4) for j in range(2)}
    return cc.CubicalMap(vmap, src, tgt)


def test_verify_characterization_fold_all_false():
    rep = cc.verify_rq_characterization(fold_map(), samples=10)
    assert rep["conditions"][0] is False
    assert rep["conditions"][3] is False
    assert rep["all_false"]
    assert rep["agree"]


def rq_pin_map(name):
    """`c5_r3_<j>`, `p3_r4_<j>`, `c4_r3_<j>`: the restriction quotient of
    `ball_X` by a seeded sample of one wall (j=0), a quarter (j=1) or half
    (j=2) of the untruncated walls.  `fold`: `fold_map()`.
    `k2_blowup_<radius>_<window>`: q of the bijective K2 blow-up."""
    if name == "fold":
        return fold_map()
    if name.startswith("k2_blowup_"):
        radius, window = map(int, name.split("_")[2:])
        return bijective_blowup_map(gc.k2(), radius, window)
    graph, r, j = name.split("_")
    b = rg.ball_X({"c5": gc.pentagon, "p3": gc.path3, "c4": gc.square4}[graph](),
                  int(r[1:]))
    walls = [h for h in cc.hyperplanes(b) if not h.truncated]
    K = random.Random(f"{graph}{r}{j}").sample(
        walls, max(1, len(walls) * int(j) // 4))
    q = cc.restriction_quotient(b, K)
    assert_same_quotient(q, restriction_quotient_oracle(b, K))
    return q.map


# the verifier's conditions, computed before is_convex checked only the
# outer boundary; (3, 2) is the known blowup-window-below-radius defect
T, F = True, False
GOLDEN_RQ = {
    **{f"{g}_{j}": (T, T, T, T, T) for g in ("c5_r3", "p3_r4", "c4_r3")
       for j in range(3)},
    "fold": (F, F, F, F, F),
    "k2_blowup_4_4": (T, T, T, T, T),
    "k2_blowup_3_2": (T, F, F, F, F),
}


def condition3_family(q, samples, seed):
    """The verifier's condition-3 family, as target vertex sets: both sides
    and the carrier of every target hyperplane, then `samples` intervals
    drawn from `random.Random(seed)` in the verifier's order."""
    rng = random.Random(seed)
    tgt = q.target
    family = []
    for th in cc.hyperplanes(tgt):
        family.extend(th.sides)
        family.append(carrier(th))
    tverts = list(tgt.vertex_ids)
    for _ in range(samples):
        x = rng.choice(tverts)
        y = rng.choice(tverts)
        family.append(set(tgt.interval(x, y)))
    return family


def preimage_convex(q):
    """A test of each target vertex set: is its preimage under q convex?"""
    fibers = {}
    for v in q.source.vertex_ids:
        fibers.setdefault(q.vertex_map[v], []).append(v)
    return lambda A: is_convex_ids(q.source, [v for t in A for v in fibers[t]])


def condition3_oracle(q, samples, seed):
    """Condition 3 with `is_convex` on the preimage of every set of the
    family, the halfspaces included: the oracle for the verifier's
    halfspace bound."""
    return all(map(preimage_convex(q), condition3_family(q, samples, seed)))


def assert_verifier_matches_oracles(q, samples, seed):
    """The verifier's report equals the id path's, and its condition 3 the
    whole-family `is_convex` oracle's."""
    rep = cc.verify_rq_characterization(q, samples=samples, seed=seed)
    assert rep == verify_rq_oracle(q, samples=samples, seed=seed)
    assert rep["conditions"][2] == condition3_oracle(q, samples, seed)
    return rep


@pytest.mark.parametrize("name", sorted(GOLDEN_RQ))
def test_golden_rq_conditions(name):
    samples, seed = (20, 0) if name.startswith("k2_blowup") else \
        (8, int(name[-1]) if name[-1].isdigit() else 0)
    rep = assert_verifier_matches_oracles(rq_pin_map(name), samples, seed)
    assert rep["conditions"] == GOLDEN_RQ[name]


def test_condition3_bound_takes_either_side():
    # with the target's vertices reversed, the far side of its hyperplane
    # pulls back to the near side of the source's long wall
    b = grid(2, 1)
    long = max(cc.hyperplanes(b), key=lambda h: len(h.edge_class))
    vmap = cc.restriction_quotient(b, [long]).map.vertex_map
    tgt = cc.CubeComplexBall.make(["K1", "K0"], [("K1", "K0", "v")], [])
    q = cc.CubicalMap(vmap, b, tgt)
    (th,) = cc.hyperplanes(tgt)
    assert {v for v in b.vertex_ids if vmap[v] in th.sides[1]} == \
        long.sides[0]
    assert assert_verifier_matches_oracles(q, 5, 0)["all_true"]


def bijective_blowup_map(g, radius, window):
    davis = bd.davis_ball(g, radius)
    data = bu.bijective_data(g, davis, window)
    return bu.blowup_complex(bu.build_fiber_functor(data, davis)).q


@pytest.fixture(scope="module")
def disconnected_target_map():
    """The quotient of the K2 blow-up at radius 3, window 2 by no walls: its
    `Y` has five components, so the target has five vertices and no edge."""
    Y = bijective_blowup_map(gc.k2(), 3, 2).source
    return cc.restriction_quotient(Y, []).map


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("samples", range(3))
def test_verifier_refuses_a_disconnected_target(disconnected_target_map,
                                                samples, seed):
    # intervals between components are undefined, so the verifier refuses
    # up front, whatever intervals `samples` and `seed` would draw
    q = disconnected_target_map
    assert len(q.target.vertex_ids) == len(q.target.cut_components()) == 5
    with pytest.raises(cc.DisconnectedPairError,
                       match="^verify_rq_characterization needs a connected "
                             "target$"):
        cc.verify_rq_characterization(q, samples=samples, seed=seed)


def three_cube_over_square(drop=(), target_order=("t0", "t1", "t2", "t3")):
    """The 3-cube on 0..7 (bit i the edge label "xyz"[i]) without the faces
    in `drop`, listed so that its top face (4, 5, 7, 6) is canonical from 7
    and its bottom face from 0, mapped onto a square by v -> t<v & 3>."""
    faces = [(v, v | 1 << i, v | 1 << i | 1 << j, v | 1 << j)
             for i, j in ((0, 1), (0, 2), (1, 2)) for v in range(8)
             if not v & (1 << i | 1 << j)]
    cube = cc.CubeComplexBall.make(
        [0, 1, 2, 3, 7, 6, 5, 4], [(v, v | 1 << i, "xyz"[i]) for v in range(8)
                                   for i in range(3) if not v >> i & 1],
        [f for f in faces if f not in drop], None)
    square = cc.CubeComplexBall.make(
        target_order, [("t0", "t1", "x"), ("t2", "t3", "x"),
                       ("t0", "t2", "y"), ("t1", "t3", "y")],
        [("t0", "t1", "t3", "t2")], None)
    return cc.CubicalMap({v: f"t{v & 3}" for v in range(8)}, cube, square)


@pytest.mark.parametrize("order", [("t0", "t1", "t2", "t3"),
                                   ("t1", "t3", "t0", "t2")])
def test_sheets_match_corners_by_their_image(order):
    # the two sheets over the square start their canonical forms at corners
    # 0 and 7, which lie over different target corners: condition 2 must
    # match corners by image, not by position
    rep = cc.verify_rq_characterization(three_cube_over_square((), order))
    assert rep["all_true"]
    # without a side face the sheets are not joined by a 3-cube
    q = three_cube_over_square([(0, 1, 5, 4)], order)
    assert not cc.verify_rq_characterization(q)["conditions"][1]


def test_condition3_cross_checks_the_two_labellings(monkeypatch):
    # the source ball's hyperplanes, corrupted for that ball only: one wall
    # of K carries another wall's far side.  Condition 4 reads edge classes
    # alone and holds; condition 3's halfspace comparison catches it.
    ball = rg.ball_X(gc.k2(), 2)
    real = cc._hyperplanes

    def corrupted(b):
        hps = real(b)
        if b is not ball:
            return hps
        h, other = [x for x in hps if not x.truncated][:2]
        assert h.far != other.far
        return tuple(dataclasses.replace(x, far=other.far) if x is h else x
                     for x in hps)

    def conditions(b):
        K = [h for h in cc.hyperplanes(b) if not h.truncated]
        q = cc.restriction_quotient(b, K).map
        return cc.verify_rq_characterization(q, samples=0)["conditions"]

    assert conditions(rg.ball_X(gc.k2(), 2)) == (True,) * 5
    monkeypatch.setattr(cc, "_hyperplanes", corrupted)
    assert conditions(ball)[2:4] == (False, True)


K3 = gc.DefiningGraph.make("abc", itertools.combinations("abc", 2))
PRISM = gc.DefiningGraph.make("abcdef", [
    *itertools.combinations("abc", 2), *itertools.combinations("def", 2),
    ("a", "d"), ("b", "e"), ("c", "f")])


@pytest.mark.parametrize("g", [K3, PRISM], ids=["k3", "prism"])
def test_condition3_on_triangle_blowups_fails_at_a_carrier(g):
    # ROADMAP item 5: condition 3 fails on these blow-ups of graphs with a
    # triangle, and the first set of the family to fail is a carrier, which
    # `is_convex` still decides
    q = bijective_blowup_map(g, 2, 2)
    rep = assert_verifier_matches_oracles(q, 20, 0)
    assert rep["conditions"] == (T, T, F, T, T)
    convex = preimage_convex(q)
    first = next(A for A in condition3_family(q, 20, 0) if not convex(A))
    assert first in {carrier(th) for th in cc.hyperplanes(q.target)}


@functools.lru_cache(maxsize=None)
def drawn_ball(g, radius):
    return rg.ball_X(g, radius)


@settings(max_examples=60, deadline=None)
@given(defining_graphs(max_vertices=4), st.integers(1, 2), st.data())
def test_condition3_matches_oracle_on_drawn_quotients(g, radius, data):
    ball = drawn_ball(g, radius)
    live = [h for h in cc.hyperplanes(ball) if not h.truncated]
    K = [live[i] for i in sorted(data.draw(st.sets(
        st.integers(0, len(live) - 1))))]
    q = cc.restriction_quotient(ball, K)
    assert_same_quotient(q, restriction_quotient_oracle(ball, K))
    assert_verifier_matches_oracles(q.map, 6, data.draw(st.integers(0, 99)))


def from_json(text):
    """The reader of `CubeComplexBall.to_json`, which only this round trip
    uses: a boundary vertex reads back at depth 0 and any other at
    `BIG_DEPTH`, as the JSON keeps only the boundary flag."""
    data = json.loads(text)
    verts = [v["id"] for v in data["vertices"]]
    depth = {v["id"]: (0 if v["boundary"] else cc.BIG_DEPTH)
             for v in data["vertices"]}
    edges = [(u, v, lab) for u, v, lab in data["edges"]]
    squares = []
    for eidxs in data["squares"]:
        es = [frozenset((data["edges"][i][0], data["edges"][i][1]))
              for i in eidxs]
        squares.append(edges_to_cycle(es))
    return cc.CubeComplexBall.make(verts, edges, squares, depth)


def edges_to_cycle(es):
    """The 4-cycle through the four edges `es` of a square."""
    adj = {}
    for e in es:
        u, v = tuple(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = next(iter(adj))
    cyc = [start]
    prev = None
    while len(cyc) < 4:
        nxts = [x for x in adj[cyc[-1]] if x != prev]
        prev = cyc[-1]
        cyc.append(nxts[0])
    return tuple(cyc)


def test_json_roundtrip():
    b = grid(2, 1)
    b2 = from_json(b.to_json())
    assert cc.labeled_isomorphism(b, b2, vlabel1=lambda v: None,
                                  vlabel2=lambda v: None) is not None


def test_dot_export():
    text = grid(1, 1).to_dot()
    assert "graph ball" in text and "--" in text


def test_labeled_isomorphism_respects_labels():
    b1 = grid(2, 1)
    # same shape, but transpose the labels: no label-preserving isomorphism
    verts = list(b1.vertex_ids)
    edges = []
    for e, lab in b1.edges.items():
        u, v = sorted(e)
        edges.append((u, v, "u" if lab == "v" else "v"))
    b2 = cc.CubeComplexBall.make(verts, edges, b1.squares, None)
    assert cc.labeled_isomorphism(b1, b2) is None


def test_rq_idempotent_randomized():
    from cubikit import graph_core as gc
    from cubikit import raag_geometry as rg

    rng = random.Random(17)
    for g in (gc.k2(), gc.path3(), gc.square4()):
        ball = rg.ball_X(g, 2)
        hps = [h for h in cc.hyperplanes(ball) if not h.truncated]
        for _ in range(6):
            K = rng.sample(hps, rng.randint(0, len(hps)))
            rq = cc.restriction_quotient(ball, K)
            hps2 = cc.hyperplanes(rq.target)
            rq2 = cc.restriction_quotient(rq.target,
                                          [h for h in hps2 if not h.truncated])
            assert cc.labeled_isomorphism(rq.target, rq2.target) is not None


def test_truncated_hyperplane_flagging():
    # an unfilled 4-cycle: no square closes the classes, and removing any
    # single edge leaves the cycle connected, so every class is an artifact
    ring = cc.CubeComplexBall.make(
        [0, 1, 2, 3],
        [(0, 1, "u"), (1, 2, "v"), (2, 3, "u"), (3, 0, "v")], [], None)
    hps = cc.hyperplanes(ring)
    assert len(hps) == 4
    assert all(h.truncated for h in hps)
    with pytest.raises(cc.ComplexError):
        cc.restriction_quotient(ring, [hps[0]])


def test_span_accepts_a_generator():
    b = rg.ball_X(gc.k2(), 2)
    inner = [v for v in b.vertex_ids if b.depth[v] >= 1]
    assert len(inner) == 5
    from_gen = b.span(v for v in inner)
    assert from_gen.vertex_ids == tuple(inner)
    assert from_gen.to_json() == b.span(inner).to_json()


def test_is_convex_runs_no_distance_search():
    b = grid(3, 3)
    assert not is_convex_ids(b, [(0, 0), (1, 0), (1, 1)])
    assert b._dist_cache == {}


def test_equality_ignores_derived_fields():
    # the distance cache is a derived field, and the vertex index, the id
    # tables and the square indexes are cached properties built on first
    # read: neither the constructor nor == sees them
    a, b = rg.ball_X(gc.k2(), 2), rg.ball_X(gc.k2(), 2)
    a.distance(a.vertex_ids[0], a.vertex_ids[-1])
    assert a._squares_at[0]
    a.has_square(a.squares[0])
    assert a._dist_cache != b._dist_cache
    assert {"squares", "_square_set", "_squares_at"} <= \
        set(vars(a)) - set(vars(b))
    assert a == b
    fields = dataclasses.fields(cc.CubeComplexBall)
    for f in fields:
        assert f.name.startswith("_") == (not f.init) == (not f.compare)
    assert [f.name for f in fields if not f.init] == ["_dist_cache"]


def diagonal_square():
    """A square a-b-c-d whose diagonal a-c is also an edge."""
    return cc.CubeComplexBall.make(
        "abcd", [("a", "b", "u"), ("b", "c", "v"), ("c", "d", "u"),
                 ("d", "a", "v"), ("a", "c", "w")], [("a", "b", "c", "d")], None)


def test_is_convex_square_corner_closure():
    # {a, b, c} passes the distance-2 test (a and c are adjacent), so only
    # the square-corner closure rejects it
    b = diagonal_square()
    assert not is_convex_ids(b, ["a", "b", "c"])
    assert not is_convex_ids(b, ["b", "c", "d"])
    assert is_convex_ids(b, ["a", "c"])


@functools.cache
def small_balls():
    """Radius-2 balls of X over K2, P3, discrete(2), square4 and the
    pentagon, and of X_e over K2."""
    balls = {name: rg.ball_X(g, 2) for name, g in (
        ("k2", gc.k2()), ("path3", gc.path3()), ("discrete2", gc.discrete(2)),
        ("square4", gc.square4()))}
    balls["k2_xe"] = rg.ball_Xe(gc.k2(), 2)
    balls["pentagon"] = rg.ball_X(gc.pentagon(), 2)
    return balls


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["k2", "path3", "discrete2", "square4"]), st.data())
def test_rq_five_way_agreement_on_random_K(name, data):
    ball = small_balls()[name]
    live = [h for h in cc.hyperplanes(ball) if not h.truncated]
    picks = data.draw(st.sets(st.integers(0, len(live) - 1)))
    rq = cc.restriction_quotient(ball, [live[i] for i in sorted(picks)])
    rep = cc.verify_rq_characterization(rq.map, samples=5,
                                        seed=data.draw(st.integers(0, 99)))
    assert rep["all_true"], rep


def hyperplanes_oracle(b):
    """Reference: square-opposite edge classes by closure; per class, the
    carrier by a scan of all squares and the sides by one search from the
    first vertex and one from the first vertex it misses.  Maps each edge
    class to (carrier, sides), sides None when the class is truncated."""
    opposite = {e: set() for e in b.edges}
    for a, x, c, d in b.squares:
        for e1, e2 in (((a, x), (d, c)), ((x, c), (a, d))):
            opposite[frozenset(e1)].add(frozenset(e2))
            opposite[frozenset(e2)].add(frozenset(e1))

    def closure(start, step, allowed=lambda y: True):
        seen, todo = {start}, [start]
        while todo:
            for y in step(todo.pop()):
                if y not in seen and allowed(y):
                    seen.add(y)
                    todo.append(y)
        return seen

    out = {}
    for e in b.edges:
        if any(e in cls for cls in out):
            continue
        cls = frozenset(closure(e, opposite.__getitem__))
        carrier = set().union(*cls)
        for s in b.squares:
            if frozenset(s[:2]) in cls or frozenset(s[1:3]) in cls:
                carrier |= set(s)

        def side(v):
            return closure(v, lambda x: [y for y in b.neighbors(x)
                                         if frozenset((x, y)) not in cls])

        first = side(b.vertex_ids[0])
        rest = [v for v in b.vertex_ids if v not in first]
        sides = None
        if rest:
            second = side(rest[0])
            if len(first) + len(second) == len(b.vertex_ids):
                sides = (frozenset(first), frozenset(second))
        out[cls] = (frozenset(carrier), sides)
    return out


def is_convex_oracle(b, S):
    """Convexity by three loops over S: connectedness, then every member's
    neighbours outside S, then every member's squares (the oracle for
    is_convex's boundary walk)."""
    S = set(S)
    if not S:
        return True
    if not cc._connected(S, b.neighbors):
        return False
    for x in S:
        for z in b.neighbors(x):
            if z in S:
                continue
            for y in b.neighbors(z):
                if y in S and y != x and not b.has_edge(x, y):
                    return False
    at = squares_at_oracle(b)
    for x in S:
        for s in at[x]:
            for i in range(4):
                a, mid, c = s[(i - 1) % 4], s[i], s[(i + 1) % 4]
                far = s[(i + 2) % 4]
                if a in S and mid in S and c in S and far not in S:
                    return False
    return True


def test_is_convex_matches_oracle_on_diagonal_square():
    b = diagonal_square()
    for r in range(5):
        for S in itertools.combinations("abcd", r):
            assert is_convex_ids(b, S) == is_convex_oracle(b, S), S


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(small_balls())),
       st.sampled_from(["whole", "grown", "grown-dropped"]),
       st.sampled_from(["grown", "halfspace", "singleton", "two-pieces",
                        "square-three", "subset"]),
       st.data())
def test_is_convex_matches_three_loop_oracle(name, host, kind, data):
    # hosts with dropped squares are not median, so the square-corner test
    # decides there; grown sets are connected, two grown pieces may not be
    b = small_balls()[name]
    if host != "whole":
        b = grown_subcomplex(b, data, host == "grown-dropped")
    if kind == "grown":
        S = grown_subcomplex(b, data, False).vertex_ids
    elif kind == "halfspace" and b.edges:
        h = data.draw(st.sampled_from(cc.hyperplanes(b)))
        S = data.draw(st.sampled_from(h.sides + (carrier(h),)))
    elif kind == "singleton":
        S = [data.draw(st.sampled_from(b.vertex_ids))]
    elif kind == "two-pieces":
        S = grown_subcomplex(b, data, False).vertex_ids + \
            grown_subcomplex(b, data, False).vertex_ids
    elif kind == "square-three" and b.squares:
        s = data.draw(st.sampled_from(b.squares))
        k = data.draw(st.integers(0, 3))
        S = [x for i, x in enumerate(s) if i != k]
    else:
        keep = data.draw(st.lists(st.booleans(), min_size=len(b.vertex_ids),
                                  max_size=len(b.vertex_ids)))
        S = [v for v, k in zip(b.vertex_ids, keep) if k]
    assert is_convex_ids(b, S) == is_convex_oracle(b, S)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(small_balls())),
       st.sampled_from(["whole", "span", "grown", "grown-dropped"]),
       st.data())
def test_hyperplanes_match_two_search_oracle(name, shape, data):
    # random spans are almost always disconnected; grown subcomplexes are
    # connected, and dropping squares splits their classes
    b = small_balls()[name]
    if shape == "span":
        keep = data.draw(st.lists(st.booleans(), min_size=len(b.vertex_ids),
                                  max_size=len(b.vertex_ids)))
        b = b.span([v for v, k in zip(b.vertex_ids, keep) if k])
    elif shape != "whole":
        b = grown_subcomplex(b, data, shape == "grown-dropped")
    hps = cc.hyperplanes(b)
    oracle = hyperplanes_oracle(b)
    assert [h.index for h in hps] == list(range(len(oracle)))
    assert {h.edge_class for h in hps} == set(oracle)
    for h in hps:
        hull, sides = oracle[h.edge_class]
        assert carrier(h) == hull
        assert h.truncated == (sides is None)
        assert h.sides == (() if sides is None else sides)
        assert h.direction == min(str(b.edges[e]) for e in h.edge_class)
    firsts = [min(sorted(b._index[x] for x in e) for e in h.edge_class)
              for h in hps]
    assert firsts == sorted(firsts)


def canonical_square_oracle(cycle, index):
    """The least of a 4-cycle's four rotations and four reflections."""
    a, b, c, d = cycle
    candidates = []
    for rot in ((a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c)):
        candidates.append(rot)
        candidates.append((rot[0], rot[3], rot[2], rot[1]))
    return min(candidates, key=lambda t: tuple(index[x] for x in t))


@settings(max_examples=300, deadline=None)
@given(st.permutations(range(9)).map(lambda p: tuple(p[:4])))
def test_canonical_square_matches_dihedral_minimum(cycle):
    index = {x: x for x in cycle}
    assert cc._canonical_square(cycle) == canonical_square_oracle(cycle, index)


def test_square_with_repeated_corner_raises():
    edges = [("a", "b", "u"), ("a", "c", "v")]
    with pytest.raises(cc.ComplexError,
                       match=r"^square \('a', 'b', 'a', 'c'\) repeats a corner$"):
        cc.CubeComplexBall.make(["a", "b", "c"], edges, [("a", "b", "a", "c")])


def test_loop_edge_raises():
    edges = [("a", "b", "u"), ("b", "b", "v")]
    with pytest.raises(cc.ComplexError, match="loop edge at 'b'"):
        cc.CubeComplexBall.make(["a", "b"], edges, [])


def test_two_labels_on_one_pair_raise():
    # the same label twice is one edge; a second label is an error
    edges = [("a", "b", "u"), ("b", "a", "u")]
    assert len(cc.CubeComplexBall.make(["a", "b"], edges, []).edges) == 1
    with pytest.raises(cc.ComplexError, match="two edges between 'b','a'"):
        cc.CubeComplexBall.make(["a", "b"], edges + [("b", "a", "v")], [])


def test_rising_ball_checks_edges_as_make_does():
    for i, j, message in ((1, 1, "loop edge at 'b'"),
                          (1, 0, "two edges between 'b','a'")):
        with pytest.raises(cc.ComplexError, match=message):
            cc.CubeComplexBall.make(["a", "b"], [("a", "b", "u"),
                                                 ("ab"[i], "ab"[j], "v")], [])
        with pytest.raises(cc.ComplexError, match=message):
            cc.rising_ball(["a", "b"], [(0, 1, "u"), (i, j, "v")], None)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["k2", "path3", "square4", "k2_xe", "pentagon"]),
       st.data())
def test_has_square_matches_dihedral_brute_force(name, data):
    b = small_balls()[name]
    cycle = list(data.draw(st.sampled_from(b.squares)))
    shift = data.draw(st.integers(0, 3))
    cycle = cycle[shift:] + cycle[:shift]
    if data.draw(st.booleans()):
        cycle.reverse()
    for i in data.draw(st.sets(st.integers(0, 3))):
        cycle[i] = data.draw(st.sampled_from(b.vertex_ids))
    stored = set(b.squares)
    rotations = [tuple(cycle[k:] + cycle[:k]) for k in range(4)]
    images = rotations + [t[::-1] for t in rotations]
    assert b.has_square(cycle) == any(t in stored for t in images)
