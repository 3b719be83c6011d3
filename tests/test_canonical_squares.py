"""Squares are canonical at birth.  `CubeComplexBall.make` is the one place
that canonicalises, deduplicates and sorts raw squares; every producer that
builds the dataclass directly must give exactly the squares and edges that
`make` gives from the same cells in raw form, which is the oracle here."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubikit import blowup as bu
from cubikit import building as bd
from cubikit import cube_complex as cc
from cubikit import raag_geometry as rg
from cubikit import wallspace_dual as wd

from .test_ball_builders import FIXTURES

KINDS = ("X", "Xe", "davis", "Y", "dual", "span", "relabel", "quotient")


def relabel_edges(b, fn):
    """Copy of the ball with edge labels mapped through fn: the squares are
    kept as they are, so they stay canonical and sorted."""
    adj = tuple({j: fn(lab) for j, lab in nbrs.items()}
                for nbrs in b.adjacency)
    return cc.CubeComplexBall(b.vertex_ids, adj, b.index_squares,
                              dict(b.depth))


@functools.lru_cache(maxsize=None)
def ball_x(name, radius):
    return rg.ball_X(FIXTURES[name](), radius)


def produce(kind, name, radius, rng):
    """The complex of one producer on a fixture at a radius; `rng` draws
    the span's centre and the quotient's walls."""
    g = FIXTURES[name]()
    if kind == "X":
        return rg.ball_X(g, radius)
    if kind == "Xe":
        return rg.ball_Xe(g, radius)
    if kind == "davis":
        return bd.davis_ball(g, radius).ball
    if kind == "Y":
        # window = radius keeps Y connected (k2 at radius 3, window 2 is not)
        radius = min(radius, 2)
        davis = bd.davis_ball(g, radius)
        data = bu.bijective_data(g, davis, radius)
        return bu.blowup_complex(bu.build_fiber_functor(data, davis)).Y
    b = ball_x(name, radius)
    if kind == "dual":
        return wd.dual_cube_complex(wd.hyperplane_wallspace(b, margin=1))
    if kind == "span":
        return b.span(b.ball_around(rng.choice(b.vertex_ids), radius - 1))
    if kind == "relabel":
        return relabel_edges(b, lambda lab: f"{lab}'")
    walls = [h for h in cc.hyperplanes(b) if not h.truncated]
    return cc.restriction_quotient(b, rng.sample(walls, len(walls) // 2)).target


def remade(b, rng):
    """`b` rebuilt through `make` from raw cells: each square at a drawn
    rotation and direction, some of them twice, in a shuffled order."""
    raw = []
    for s in b.squares:
        k = rng.randrange(4)
        cycle = s[k:] + s[:k]
        raw.append(cycle[::-1] if rng.random() < 0.5 else cycle)
    raw += rng.sample(raw, len(raw) // 3)
    rng.shuffle(raw)
    triples = [(*e, lab) for e, lab in b.edges.items()]
    return cc.CubeComplexBall.make(b.vertex_ids, triples, raw, b.depth)


def assert_canonical_at_birth(b, rng):
    assert b.validate()
    again = remade(b, rng)
    assert again.squares == b.squares
    assert again.edges == b.edges


@pytest.mark.parametrize("name,radius", [("k2", 3), ("path3", 2),
                                         ("square4", 2), ("pentagon", 2),
                                         ("pentagon", 3)])
@pytest.mark.parametrize("kind", KINDS)
def test_producer_squares_match_make(kind, name, radius):
    rng = random.Random(f"{kind}-{name}-{radius}")
    assert_canonical_at_birth(produce(kind, name, radius, rng), rng)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(sorted(FIXTURES)),
       st.integers(1, 3), st.randoms(use_true_random=False))
def test_producer_squares_match_make_drawn(kind, name, radius, rng):
    assert_canonical_at_birth(produce(kind, name, radius, rng), rng)


def test_rising_ball_sorts_squares_emitted_out_of_order():
    # a ladder of two squares on the rung a-b, listed so that the square on
    # the later corner d2 has the earlier top corner c2: emitted from a,
    # (a, b, c1, d1) comes before (a, b, c2, d2), which sorts first
    order = ["a", "b", "d1", "d2", "c2", "c1"]
    triples = [("a", "b", "x"), ("d1", "c1", "x"), ("d2", "c2", "x"),
               ("a", "d1", "y"), ("b", "c1", "y"), ("a", "d2", "z"),
               ("b", "c2", "z")]
    index = {x: i for i, x in enumerate(order)}
    risen = cc.rising_ball(order, [(index[u], index[v], lab)
                                   for u, v, lab in triples], None)
    assert risen.squares == (("a", "b", "c2", "d2"), ("a", "b", "c1", "d1"))
    assert risen.validate()
    made = cc.CubeComplexBall.make(order, triples, risen.squares[::-1])
    assert (made.squares, made.edges) == (risen.squares, risen.edges)


def test_rising_ball_squares_every_pair_of_middles():
    # a K_{2,3}, which no median graph contains: the three corners 1, 2, 3
    # between 0 and 4 give three rising 4-cycles, one per pair
    order = ["a", "b1", "b2", "b3", "c"]
    triples = [(0, b, "x") for b in (1, 2, 3)] + \
        [(b, 4, "y") for b in (1, 2, 3)]
    risen = cc.rising_ball(order, triples, None)
    assert risen.index_squares == ((0, 1, 4, 2), (0, 1, 4, 3), (0, 2, 4, 3))
    assert risen.squares == (("a", "b1", "c", "b2"), ("a", "b1", "c", "b3"),
                             ("a", "b2", "c", "b3"))


# -- `validate` checks the invariant the constructor trusts -----------------

def unit_square(squares):
    """The four-cycle a-b-c-d, built directly with the given index squares
    (a, b, c, d are the indices 0, 1, 2, 3)."""
    verts = ("a", "b", "c", "d")
    adj = cc.CubeComplexBall.make(verts, [
        ("a", "b", "x"), ("b", "c", "y"), ("c", "d", "x"),
        ("d", "a", "y")], []).adjacency
    return cc.CubeComplexBall(verts, adj, tuple(squares), None)


def test_validate_accepts_the_canonical_square():
    assert unit_square([(0, 1, 2, 3)]).validate()


@pytest.mark.parametrize("squares,message", [
    ([(1, 2, 3, 0)], "not canonical and sorted"),
    ([(0, 3, 2, 1)], "not canonical and sorted"),
    ([(0, 1, 2, 3), (0, 1, 2, 3)], "not canonical and sorted"),
    ([(0, 1, 0, 3)], "repeats a corner"),
])
def test_validate_rejects_squares_make_would_normalise(squares, message):
    with pytest.raises(cc.ComplexError, match=message):
        unit_square(squares).validate()


def test_validate_rejects_unsorted_squares():
    # two squares on a 2x1 grid, listed with the later one first
    verts = ("a", "b", "c", "d", "e", "f")
    triples = [("a", "b", "x"), ("b", "c", "x"), ("d", "e", "x"),
               ("e", "f", "x"), ("a", "d", "y"), ("b", "e", "y"),
               ("c", "f", "y")]
    adj = cc.CubeComplexBall.make(verts, triples, []).adjacency
    squares = ((1, 2, 5, 4), (0, 1, 4, 3))
    with pytest.raises(cc.ComplexError, match="not canonical and sorted"):
        cc.CubeComplexBall(verts, adj, squares, None).validate()
    id_squares = (("b", "c", "f", "e"), ("a", "b", "e", "d"))
    fixed = cc.CubeComplexBall.make(verts, triples, id_squares)
    assert fixed.index_squares == squares[::-1]
    assert fixed.squares == id_squares[::-1]
    assert fixed.validate()


@pytest.mark.parametrize("triples,extra,message", [
    ([("a", "b", "x"), ("b", "c", "y"), ("c", "d", "x")], (),
     "missing edge 'd'-'a'"),
    ([("a", "b", "x"), ("b", "c", "y"), ("c", "d", "y"), ("d", "a", "y")],
     (), "mismatched opposite labels"),
    ([("a", "b", "x"), ("b", "c", "y"), ("c", "d", "x"), ("d", "a", "y")],
     ("e",), "not connected"),
])
def test_validate_rejects_broken_cells(triples, extra, message):
    b = cc.CubeComplexBall.make(("a", "b", "c", "d", *extra), triples,
                                [("a", "b", "c", "d")])
    with pytest.raises(cc.ComplexError, match=message):
        b.validate()


# -- the square tables and the id view are built on first read --------------

def eager_square_tables(b):
    """Oracle: the square set and the squares at each corner index, in
    `index_squares` order, built from `index_squares` in one pass."""
    at = [[] for _ in b.vertex_ids]
    for s in b.index_squares:
        for x in s:
            at[x].append(s)
    return frozenset(b.index_squares), at


@pytest.mark.parametrize("name,radius", [("k2", 3), ("pentagon", 2)])
@pytest.mark.parametrize("kind", ["X", "davis", "Y"])
def test_square_tables_are_built_on_first_read(kind, name, radius):
    b = produce(kind, name, radius, random.Random(0))
    assert b.index_squares
    assert not {"squares", "_square_set", "_squares_at"} & set(vars(b))
    square_set, at = eager_square_tables(b)
    assert b._squares_at == at
    assert not {"squares", "_square_set"} & set(vars(b))
    ids = b.vertex_ids
    assert b.squares == tuple(tuple(ids[x] for x in s)
                              for s in b.index_squares)
    for a, x, c, d in b.squares:
        assert b.has_square((x, c, d, a)) and b.has_square((d, c, x, a))
        assert not b.has_square((a, x, d, c))
    assert b._square_set == square_set
