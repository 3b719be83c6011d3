"""Balls of X and X_e, flats, projections, levels, extension adjacency."""

import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubikit import building as bd
from cubikit import cube_complex as cc
from cubikit import graph_core as gc
from cubikit import raag_geometry as rg

from .strategies import defining_graphs
from .test_cube_complex import fiber, separates
from .test_raag_words import coset_member, growth_series, raw_words


HEIGHT_GRAPHS = {
    "single_vertex": gc.single_vertex(), "k2": gc.k2(), "path3": gc.path3(),
    "square4": gc.square4(), "discrete2": gc.discrete(2),
    "pentagon": gc.pentagon(),
    "hexagon": gc.DefiningGraph.make("abcdef", list(zip("abcdef", "bcdefa"))),
}


def project_to_geodesic(g, x, flat):
    """Oracle: gate of x on a standard geodesic, the unique closest vertex,
    by brute-force argmin over the coset (search range bounded by the
    distance from x to the geodesic's base point).  `flat` is a rank-1
    `building.Residue`."""
    if flat.rank != 1:
        raise ValueError("projection target must be a standard geodesic")
    v = flat.type_J[0]
    reach = len(rg.mul(g, rg.inv(flat.base), x)) + 1
    best = None
    best_d = None
    ties = 0
    for k in range(-reach, reach + 1):
        cand = rg.flat_element(g, flat.base, {v: k})
        d = len(rg.mul(g, rg.inv(cand), x))
        if best_d is None or d < best_d:
            best, best_d, ties = (k, cand), d, 1
        elif d == best_d:
            ties += 1
    if ties != 1:
        raise cc.TruncationError(f"non-unique gate for {rg.word_str(x)}")
    return best  # (height, vertex word)


def geodesic_of_class(g, pc):
    return bd.residue(g, pc.rep, (pc.direction,))


def flats_meeting(g, ball, margin=0):
    """Every standard flat base*G(J), J a clique, through a vertex of the
    ball at depth >= margin, as a `building.Residue`; by (rank, id)."""
    found = {}
    for vid in ball.vertex_ids:
        if ball.depth[vid] >= margin:
            for J in gc.cliques(g):
                r = bd.residue(g, rg.parse_word(vid), J)
                found[r.id] = r
    return sorted(found.values(), key=lambda r: (r.rank, r.id))


def levels(g, pc, ball, margin=1, verify=True):
    """{height: sorted vertex ids}: the ball's margin-interior split by
    `class_heights`, lowest height first.  With `verify`, also asserts
    that every standard flat not involving the class lies in one level."""
    verts = [v for v in ball.vertex_ids if ball.depth[v] >= margin]
    heights = rg.class_heights(g, pc, [rg.parse_word(v) for v in verts])
    out = {}
    for vid in verts:
        out.setdefault(heights[rg.parse_word(vid)], []).append(vid)
    if verify:
        for f in flats_meeting(g, ball, margin):
            if pc.id in {rg.class_of_geodesic(g, f.base, v).id
                         for v in f.type_J}:
                continue
            met = {k for h, k in heights.items()
                   if coset_member(g, h, f.base, f.type_J)}
            assert len(met) <= 1, \
                f"flat {f.id} meets several {pc.id}-levels: {sorted(met)}"
    return {k: tuple(sorted(vs)) for k, vs in sorted(out.items())}


def sphere_sizes(ball, radius):
    by_len = {}
    for vid in ball.vertex_ids:
        w = rg.parse_word(vid)
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    return [by_len.get(k, 0) for k in range(radius + 1)]


def test_ball_x_k2():
    b = rg.ball_X(gc.k2(), 2)
    assert len(b.vertex_ids) == 13
    assert sphere_sizes(b, 2) == [1, 4, 8]
    assert b.validate()
    assert cc.check_flag_links(b)["ok"]


def test_ball_x_f2_tree():
    b = rg.ball_X(gc.discrete(2), 3)
    assert sphere_sizes(b, 3) == [1, 4, 12, 36]
    assert not b.squares


def test_ball_x_c5_radius1():
    b = rg.ball_X(gc.pentagon(), 1)
    assert len(b.vertex_ids) == 11


def test_ball_x_growth_matches_clique_polynomial_oracle():
    for g in (gc.k2(), gc.pentagon(), gc.path3(), gc.discrete(2)):
        b = rg.ball_X(g, 3)
        assert sphere_sizes(b, 3) == growth_series(g, 3)


def test_ball_x_distance_is_word_length():
    g = gc.pentagon()
    b = rg.ball_X(g, 3)
    base = rg.word_str(())
    dist = b.bfs_from(base)
    for vid in b.vertex_ids:
        w = rg.parse_word(vid)
        if len(w) <= 2:   # margin-1 interior: ball distances are exact
            assert dist[vid] == len(w)


def test_ball_x_l1_equals_separating_walls():
    g = gc.k2()
    b = rg.ball_X(g, 3)
    hps = cc.hyperplanes(b)
    inside = [v for v in b.vertex_ids if b.depth[v] >= 1]
    for x in inside:
        for y in inside:
            if x < y:
                i, j = b._index[x], b._index[y]
                assert b.distance(x, y) == \
                    sum(separates(h, i, j) for h in hps)


def test_ball_xe_single_vertex_is_line_with_whiskers():
    g = gc.single_vertex()
    b = rg.ball_Xe(g, 3)
    words = {}
    for vid in b.vertex_ids:
        w, cl = rg.parse_xe_id(vid)
        words.setdefault(cl, []).append(w)
    line = sorted(len(w) for w in words[("v",)])
    tips = sorted(len(w) for w in words[()])
    assert len(line) == 5      # v^-2 .. v^2
    assert len(tips) == 3      # whiskers at v^-1, 1, v
    # every tip hangs off the line by one horizontal edge
    for vid in b.vertex_ids:
        w, cl = rg.parse_xe_id(vid)
        if cl == ():
            nbrs = list(b.neighbors(vid).items())
            assert all(lab == "h:v" for _, lab in nbrs)


def test_ball_xe_k2_flag_and_collapse():
    g = gc.k2()
    be = rg.ball_Xe(g, 4)
    assert be.validate()
    assert cc.check_flag_links(be)["ok"]
    # collapsing all vertical walls leaves only horizontal edges: the image
    # classes are the standard flats (vertex classes of ball_X)
    hps = cc.hyperplanes(be)
    vertical = [h for h in hps if h.direction.startswith("v:") and not h.truncated]
    rq = cc.restriction_quotient(be, [h for h in hps
                                      if h.direction.startswith("h:") and not h.truncated])
    # each fiber collapses to one flat: fibers are single flats' lattice windows
    for tv in rq.target.vertex_ids:
        members = fiber(rq.map, tv)
        flats = set()
        for vid in members:
            w, cl = rg.parse_xe_id(vid)
            flats.add((rg.word_str(rg.gate_representative(g, w, cl)), cl))
        assert len(flats) == 1


def test_standard_flats_k2():
    g = gc.k2()
    b = rg.ball_X(g, 2)
    flats = flats_meeting(g, b)
    by_rank = {}
    for f in flats:
        by_rank.setdefault(f.rank, []).append(f)
    assert len(by_rank[0]) == 13          # points = vertices
    assert len(by_rank[2]) == 1           # one 2-flat: the whole grid
    # lines: u-lines v^b<u> and v-lines u^a<v> with |a|,|b| <= 2
    assert len(by_rank[1]) == 10


def test_standard_flats_c5_through_identity():
    g = gc.pentagon()
    b = rg.ball_X(g, 1)
    flats = flats_meeting(g, b)
    through_e = [f for f in flats
                 if coset_member(g, (), f.base, f.type_J)]
    assert len(through_e) == 11   # one per clique


def test_project_to_geodesic():
    g = gc.k2()
    u_axis = bd.residue(g, (), ["u"])
    x = rg.normal_form(g, [("u", 1), ("u", 1), ("v", 1), ("v", 1), ("v", 1)])
    k, vert = project_to_geodesic(g, x, u_axis)
    assert k == 2 and vert == (("u", 1), ("u", 1))
    # a point on the geodesic projects to itself
    k2_, v2 = project_to_geodesic(g, (("u", -1),), u_axis)
    assert k2_ == -1 and v2 == (("u", -1),)
    f2 = gc.discrete(2)
    x_, y_ = f2.vertices
    ell = bd.residue(f2, (), [x_])
    w = rg.normal_form(f2, ((x_, 1), (y_, 1), (x_, 1)))
    k3, v3 = project_to_geodesic(f2, w, ell)
    assert v3 == ((x_, 1),)


def test_v_levels_k2_columns():
    g = gc.k2()
    b = rg.ball_X(g, 2)
    pc = rg.class_of_geodesic(g, (), "u")
    # heights -1, 0, 1 on the margin-1 interior (the plus shape at radius 1)
    got = {k: set(vs) for k, vs in levels(g, pc, b, margin=1).items()}
    assert set(got) == {-1, 0, 1}
    assert got[0] == {rg.word_str(()), rg.word_str((("v", 1),)),
                      rg.word_str((("v", -1),))}


def test_v_levels_f2_word_start():
    f2 = gc.discrete(2)
    x, y = f2.vertices
    b = rg.ball_X(f2, 3)
    pc = rg.class_of_geodesic(f2, (), x)
    for vid in levels(f2, pc, b, margin=1, verify=False)[0]:
        w = rg.parse_word(vid)
        assert not w or w[0][0] == y


def test_levels_partition_and_distance():
    g = gc.k2()
    b = rg.ball_X(g, 3)
    pc = rg.class_of_geodesic(g, (), "u")
    lv = levels(g, pc, b, margin=1)
    members = [m for vs in lv.values() for m in vs]
    assert len(members) == len(set(members)) == \
        len([v for v in b.vertex_ids if b.depth[v] >= 1])
    # distance between levels = height difference
    for k1, l1 in lv.items():
        for k2, l2 in lv.items():
            d = min(b.distance(a, bb) for a in l1 for bb in l2)
            assert d == abs(k1 - k2)


def test_extension_adjacent():
    g = gc.k2()
    cu = rg.class_of_geodesic(g, (), "u")
    cv = rg.class_of_geodesic(g, (), "v")
    assert rg.extension_adjacent(g, cu, cv)
    pent = gc.pentagon()
    ca = rg.class_of_geodesic(pent, (), "a")
    ccl = rg.class_of_geodesic(pent, (), "c")
    assert not rg.extension_adjacent(pent, ca, ccl)
    # adjacent directions but disjoint parallel-set cosets
    cb_far = rg.class_of_geodesic(pent, (("d", 1),), "b")
    assert not rg.extension_adjacent(pent, ca, cb_far)
    cb_near = rg.class_of_geodesic(pent, (), "b")
    assert rg.extension_adjacent(pent, ca, cb_near)
    # long representatives: the a-class through x = d c d and the b-class
    # through x e meet at x e, since e lies in st(a)
    x = rg.normal_form(pent, (("d", 1), ("c", 1), ("d", 1)))
    ca_x = rg.class_of_geodesic(pent, x, "a")
    cb_xe = rg.class_of_geodesic(pent, rg.mul(pent, x, (("e", 1),)), "b")
    assert ca_x.rep == x and cb_xe.rep == x + (("e", 1),)
    assert rg.extension_adjacent(pent, ca_x, cb_xe)
    assert extension_adjacent_oracle(pent, ca_x, cb_xe)


def extension_adjacent_oracle(g, c1, c2):
    """Oracle: walk the coset rep1*G(st v) breadth first and test each
    element for membership in rep2*G(st w).  The walk stops at length
    |rep1| + |rep2| + 2; that bound is not proven, so a False here says only
    that no meeting point lies within it."""
    v, w = c1.direction, c2.direction
    if not g.adjacent(v, w):
        return False
    bound = len(c1.rep) + len(c2.rep) + 2
    seen = {c1.rep}
    dq = deque([c1.rep])
    while dq:
        h = dq.popleft()
        if coset_member(g, h, c2.rep, g._star[w]):
            return True
        for x in g._star[v]:
            for e in (1, -1):
                h2 = rg.mul(g, h, ((x, e),))
                if len(h2) <= bound and h2 not in seen:
                    seen.add(h2)
                    dq.append(h2)
    return False


@pytest.mark.parametrize("name", ["k2", "path3", "square4"])
def test_extension_adjacent_matches_oracle_on_reach2_classes(name):
    g = HEIGHT_GRAPHS[name]
    pcs = classes_through(g)
    for c1 in pcs:
        for c2 in pcs:
            assert rg.extension_adjacent(g, c1, c2) == \
                extension_adjacent_oracle(g, c1, c2), (c1.id, c2.id)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["pentagon", "hexagon"]), st.data())
def test_extension_adjacent_matches_oracle(name, data):
    # the second direction is a neighbour of the first, so every draw
    # reaches the coset test
    g = HEIGHT_GRAPHS[name]
    v = data.draw(st.sampled_from(g.vertices))
    w = data.draw(st.sampled_from(sorted(g.neighbors(v))))
    c1, c2 = (rg.class_of_geodesic(
        g, rg.normal_form(g, data.draw(raw_words(g, max_size=3))), x)
        for x in (v, w))
    assert rg.extension_adjacent(g, c1, c2) == \
        extension_adjacent_oracle(g, c1, c2)


def test_height_shortcut_matches_gate_oracle():
    import random

    rng = random.Random(3)
    for g in (gc.pentagon(), gc.k2(), gc.path3(), gc.discrete(2)):
        letters = [(v, e) for v in g.vertices for e in (1, -1)]
        for _ in range(60):
            x = rg.normal_form(
                g, tuple(rng.choice(letters) for _ in range(rng.randint(0, 6))))
            base = rg.normal_form(
                g, tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))))
            v = rng.choice(g.vertices)
            pc = rg.class_of_geodesic(g, base, v)
            k, _ = project_to_geodesic(g, x, geodesic_of_class(g, pc))
            assert rg.height_of(g, pc, x) == k


def classes_through(g, radius=2):
    """Every class of a geodesic through the group ball of `radius`."""
    out = {}
    for p in rg.group_ball(g, radius):
        for v in g.vertices:
            pc = rg.class_of_geodesic(g, p, v)
            out.setdefault(pc.id, pc)
    return list(out.values())


def assert_class_heights_match(g, pcs, words):
    for pc in pcs:
        got = rg.class_heights(g, pc, words)
        assert list(got.items()) == [(p, rg.height_of(g, pc, p))
                                     for p in words], pc.id


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(HEIGHT_GRAPHS))
def test_class_heights_match_height_of(name, radius):
    g = HEIGHT_GRAPHS[name]
    assert_class_heights_match(g, classes_through(g), rg.group_ball(g, radius))


@settings(max_examples=30, deadline=None)
@example(gc.DefiningGraph.make("abc", ["ab", "bc", "ca"]))
@example(gc.DefiningGraph.make("abcd", ["ab", "bc", "ad", "bd", "cd"]))
@example(gc.DefiningGraph.make("abcde", ["ae", "be", "ce", "de", "ab"]))
@given(defining_graphs())
def test_class_heights_match_height_of_on_drawn_graphs(g):
    # the examples: a triangle, a cone on a path of three and a cone on
    # an edge and two points, where the parallel set of a cone vertex's
    # class is the whole group
    assert_class_heights_match(g, classes_through(g, 1), rg.group_ball(g, 3))


def test_class_heights_of_cone_vertices_search_no_parallel_set(monkeypatch):
    # in K2 both vertices are cone vertices, so the parallel set is the
    # whole group and holds every prefix: only the empty word costs a
    # `height_of`, and no `mul` runs outside it
    g = gc.k2()
    words = rg.group_ball(g, 4)
    real_mul, real_height = rg.mul, rg.height_of
    inside, heights, muls = [], [], []

    def height_of(g, pc, x):
        heights.append(x)
        inside.append(x)
        try:
            return real_height(g, pc, x)
        finally:
            inside.pop()

    monkeypatch.setattr(rg, "mul", lambda g, a, b:
                        muls.append(bool(inside)) or real_mul(g, a, b))
    monkeypatch.setattr(rg, "height_of", height_of)
    for pc in classes_through(g):
        heights.clear()
        muls.clear()
        got = rg.class_heights(g, pc, words)
        assert heights == [()] and muls and all(muls), pc.id
        assert got == {p: real_height(g, pc, p) for p in words}


@pytest.mark.parametrize("order", ["reversed", "margin", "shuffled"])
@pytest.mark.parametrize("name", ["pentagon", "path3"])
def test_class_heights_off_prefix_closed_lists(name, order):
    # prefixes come late or not at all, so most words take the fallback
    g = HEIGHT_GRAPHS[name]
    words = rg.group_ball(g, 3)
    if order == "reversed":
        words = words[::-1]
    elif order == "margin":
        words = [p for p in words if len(p) >= 2]
    else:
        random.Random(5).shuffle(words)
    assert_class_heights_match(g, classes_through(g), words)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["pentagon", "hexagon"]), st.data())
def test_class_heights_along_a_word_match_height_of(name, data):
    g = HEIGHT_GRAPHS[name]
    rep = rg.normal_form(g, data.draw(raw_words(g, max_size=5)))
    pc = rg.class_of_geodesic(g, rep, data.draw(st.sampled_from(g.vertices)))
    x = rg.normal_form(g, data.draw(raw_words(g, max_size=10)))
    prefixes = [x[:i] for i in range(len(x) + 1)]
    assert_class_heights_match(g, [pc], prefixes)


def test_canonical_quotient_is_davis_ball():
    # collapsing the vertical walls of ball_Xe (keeping the horizontal ones)
    # reproduces the Davis ball near the basepoint, rank labels included
    from cubikit import building as bdg

    g = gc.k2()
    be = rg.ball_Xe(g, 4)
    hps = cc.hyperplanes(be)
    horizontal = [h for h in hps
                  if h.direction.startswith("h:") and not h.truncated]
    rq = cc.restriction_quotient(be, horizontal)

    def qlabel(tv):
        member = fiber(rq.map, tv)[0]
        w, cl = rg.parse_xe_id(member)
        return (len(cl), tuple(cl))

    db = bdg.davis_ball(g, 3)

    def dlabel(vid):
        r = db.residue_of[vid]
        return (r.rank, r.type_J)

    base_q = rq.map.vertex_map[rg.xe_id((), ())]
    base_d = bdg.residue(g, (), ()).id
    sub_q = rq.target.span(rq.target.ball_around(base_q, 2))
    # the building is locally infinite: cut the Davis 2-ball down to the
    # base-length window the exploded ball's truncation can see
    sub_d = db.ball.span([v for v in db.ball.ball_around(base_d, 2)
                          if len(db.residue_of[v].base) <= 2])
    iso = cc.labeled_isomorphism(
        sub_q, sub_d, qlabel, dlabel,
        fix=[(base_q, base_d)])
    assert iso is not None


def test_collapse_horizontal_gives_group_elements():
    # killing the horizontal walls instead leaves one fiber per element of X
    g = gc.k2()
    be = rg.ball_Xe(g, 3)
    hps = cc.hyperplanes(be)
    vertical = [h for h in hps
                if h.direction.startswith("v:") and not h.truncated]
    rq = cc.restriction_quotient(be, vertical)
    for tv in rq.target.vertex_ids:
        words = {rg.parse_xe_id(m)[0] for m in fiber(rq.map, tv)}
        assert len(words) == 1


def test_l1_equals_walls_c5_exhaustive():
    g = gc.pentagon()
    b = rg.ball_X(g, 3)
    hps = cc.hyperplanes(b)
    inside = [v for v in b.vertex_ids if b.depth[v] >= 1]
    for k, x in enumerate(inside):
        for y in inside[k + 1:]:
            i, j = b._index[x], b._index[y]
            assert b.distance(x, y) == \
                sum(separates(h, i, j) for h in hps)


def test_v_levels_pentagon():
    g = gc.pentagon()
    b = rg.ball_X(g, 2)
    pc = rg.class_of_geodesic(g, (), "a")
    members = [m for vs in levels(g, pc, b, margin=1).values() for m in vs]
    assert len(members) == len(set(members)) == \
        len([v for v in b.vertex_ids if b.depth[v] >= 1])
