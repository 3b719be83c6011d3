"""`cube_complex.hyperplanes`: SHA-256 pins of its output on balls, Davis
balls, blow-ups and restriction-quotient targets, counts of the component
searches it falls back to, and hand-built complexes on which a halfspace
labelling alone would give the wrong sides."""

import functools
import hashlib
import json
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubikit import blowup as bu
from cubikit import building as bd
from cubikit import cube_complex as cc

from .strategies import defining_graphs
from .test_ball_builders import BUILDERS, FIXTURES
from .test_blowup_builder import drawn_davis
from .test_cube_complex import carrier, hyperplanes_oracle


def hyperplanes_digest(b):
    """SHA-256 of `hyperplanes(b)`: per hyperplane its index, sorted edge
    class, carrier and sides (as vertex indices), `truncated` and
    `direction`."""
    idx = b._index
    rows = [[h.index,
             sorted(sorted(idx[x] for x in e) for e in h.edge_class),
             sorted(idx[x] for x in carrier(h)),
             [sorted(idx[x] for x in side) for side in h.sides],
             h.truncated, h.direction]
            for h in cc.hyperplanes(b)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def blowup_y(name, radius, window):
    g = FIXTURES[name]()
    davis = bd.davis_ball(g, radius)
    psi = bu.build_fiber_functor(bu.bijective_data(g, davis, window), davis)
    return bu.blowup_complex(psi).Y


def rq_target(name, seed=14):
    """The restriction quotient of the complex `name` by a seeded quarter of
    its walls."""
    b = COMPLEXES[name]()
    rng = random.Random(seed)
    walls = [h for h in cc.hyperplanes(b) if not h.truncated]
    return cc.restriction_quotient(b, rng.sample(walls, len(walls) // 4)).target


COMPLEXES = {
    "X-pentagon-3": lambda: BUILDERS["X"](FIXTURES["pentagon"](), 3),
    "X-square4-4": lambda: BUILDERS["X"](FIXTURES["square4"](), 4),
    "X-path3-4": lambda: BUILDERS["X"](FIXTURES["path3"](), 4),
    "davis-pentagon-2": lambda: BUILDERS["davis"](FIXTURES["pentagon"](), 2),
    "Y-k2-4-4": lambda: blowup_y("k2", 4, 4),
    # five components: every class is truncated
    "Y-k2-3-2": lambda: blowup_y("k2", 3, 2),
}
for name in ("X-pentagon-3", "X-square4-4", "X-path3-4", "davis-pentagon-2"):
    COMPLEXES[f"rq-{name}"] = functools.partial(rq_target, name)

GOLDEN_HYPERPLANES = {
    "X-path3-4":
        "1183a2a3b05ec6491c3656aa871c812f53bcb9493aff54f869f4f7cb24f95de3",
    "X-pentagon-3":
        "da90fdcc2f808e1471604b2f97b4cc91bf4bee32dbe15e1d55b54bb1173abe58",
    "X-square4-4":
        "5d30cbca3b53e12c7ce718cea586a39c1a2f8e5d202cf6003fb1ee822cee3aec",
    "Y-k2-3-2":
        "7bce4818865fa234bed5f01e23443ade2872731e00b2e326c0cc2a6c4bdb224f",
    "Y-k2-4-4":
        "c90f8f703756e0b5de1d8cc8e7c6113ac058294f431d8e42dea0c8ca98449331",
    "davis-pentagon-2":
        "a2e637c4229ebc72bb7d8277f0f330a8c26b36d4e075de99dc60952fcdc485a6",
    "rq-X-path3-4":
        "72f7fe36f90244301e2191d77962355f01412c32525e50f00945b02c1d60bf03",
    "rq-X-pentagon-3":
        "9974eb52c5cff5728cc961c6ec6cdb15e47408bedb42e16247d6ee6006fd28c1",
    "rq-X-square4-4":
        "0b19d5bc7467335dbf0b95a532632c3a2bb1fec6235fc472cc32f3b38049691e",
    "rq-davis-pentagon-2":
        "19d984bc247ab40630e7e5914aa357cc6ab7a265c37acc7011d9db3a9cc8a318",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HYPERPLANES))
def test_hyperplanes_pins(name):
    assert hyperplanes_digest(COMPLEXES[name]()) == GOLDEN_HYPERPLANES[name]


def count_cut_components(monkeypatch):
    calls = []
    real = cc.CubeComplexBall.cut_components

    def counting(self, cut=()):
        calls.append(cut)
        return real(self, cut)

    monkeypatch.setattr(cc.CubeComplexBall, "cut_components", counting)
    return calls


@pytest.mark.parametrize("name", ["X-pentagon-3", "X-square4-4", "X-path3-4",
                                  "davis-pentagon-2"])
def test_ball_hyperplanes_run_no_component_search(name, monkeypatch):
    b = COMPLEXES[name]()
    calls = count_cut_components(monkeypatch)
    assert not any(h.truncated for h in cc.hyperplanes(b))
    assert calls == []


def test_disconnected_y_counts_components_once(monkeypatch):
    # five components: removing a class's edges merges none of them, so
    # the one count from the labelling BFS truncates all 38 classes, with
    # no search per class
    y = COMPLEXES["Y-k2-3-2"]()
    calls = count_cut_components(monkeypatch)
    hps = cc.hyperplanes(y)
    assert calls == [] and len(hps) == 38 and all(h.truncated for h in hps)
    assert len(y.cut_components()) == 5


def assert_matches_oracle(b):
    oracle = hyperplanes_oracle(b)
    for h in cc.hyperplanes(b):
        hull, sides = oracle[h.edge_class]
        assert carrier(h) == hull
        assert h.sides == (() if sides is None else sides)


def self_crossing_complex():
    """Eight vertices whose class `c` = {ab, bc', c'd, da, qt} holds both
    edge pairs of the square a-b-c'-d, linked through the ladders a-b-t-q,
    q-t-b-c' and r-a-q-p, p-q-c'-r.  Every edge of it changes the
    breadth-first labelling from r in exactly its own class's bit, yet
    deleting class c leaves three components: {r, a, c', p, q}, {b, t}
    and {d}."""
    edges = [("r", "a", "x"), ("r", "c'", "x"), ("r", "p", "y"),
             ("a", "q", "y"), ("p", "q", "x"), ("q", "c'", "y"),
             ("a", "b", "c"), ("b", "c'", "c"), ("c'", "d", "c"),
             ("d", "a", "c"), ("q", "t", "c"), ("b", "t", "y")]
    squares = [("r", "a", "q", "p"), ("p", "q", "c'", "r"),
               ("a", "b", "c'", "d"), ("a", "b", "t", "q"),
               ("q", "t", "b", "c'")]
    return cc.CubeComplexBall.make(["r", "a", "c'", "p", "q", "b", "d", "t"],
                                   edges, squares, None)


def test_self_crossing_class_is_truncated():
    b = self_crossing_complex()
    hps = cc.hyperplanes(b)
    crossing = [h for h in hps if frozenset(("a", "b")) in h.edge_class]
    assert len(crossing) == 1 and len(crossing[0].edge_class) == 5
    assert crossing[0].truncated
    assert len(b.cut_components(crossing[0].edges)) == 3
    assert_matches_oracle(b)


def test_disconnected_complex_truncates_every_class():
    # two squares with no path between them: deleting one class leaves
    # three components
    edges = [(0, 1, "u"), (1, 2, "v"), (2, 3, "u"), (3, 0, "v"),
             (4, 5, "u"), (5, 6, "v"), (6, 7, "u"), (7, 4, "v")]
    b = cc.CubeComplexBall.make(range(8), edges,
                                [(0, 1, 2, 3), (4, 5, 6, 7)], None)
    hps = cc.hyperplanes(b)
    assert len(hps) == 4 and all(h.truncated for h in hps)
    assert_matches_oracle(b)


@pytest.mark.parametrize("order", ["square first", "triangle first"])
def test_two_components_cut_only_what_splits(order, monkeypatch):
    # a square and a triangle, with no path between them: each class of the
    # square cuts it in two and leaves three pieces, so it is truncated with
    # no search; no edge of the triangle cuts it, so each leaves the two
    # components, and the one search per class finds them
    square = [(0, 1, "u"), (1, 2, "v"), (2, 3, "u"), (3, 0, "v")]
    triangle = [(4, 5, "x"), (5, 6, "y"), (6, 4, "z")]
    vertices = list(range(7)) if order == "square first" else \
        [4, 5, 6, 0, 1, 2, 3]
    b = cc.CubeComplexBall.make(vertices, square + triangle, [(0, 1, 2, 3)],
                                None)
    calls = count_cut_components(monkeypatch)
    hps = cc.hyperplanes(b)
    far = frozenset(range(4, 7) if order == "square first" else range(4))
    assert [h.far for h in hps if h.direction in "uv"] == [None, None]
    assert [h.sides[1] for h in hps if h.direction in "xyz"] == [far] * 3
    assert len(calls) == 3
    monkeypatch.undo()
    assert_matches_oracle(b)


@settings(max_examples=40, deadline=None)
@given(defining_graphs(max_vertices=3), st.integers(2, 3), st.data())
def test_window_below_radius_blowups_match_oracle(g, radius, data):
    # constants one past the window leave Davis edges without a plan, as in
    # the blow-up builder's drawn data; below the radius Y falls apart
    window = data.draw(st.integers(1, radius - 1))
    davis = drawn_davis(g, radius)
    values = st.integers(-window - 1, window + 1)
    psi = bu.build_fiber_functor(bu.data_from_function(
        g, davis, window, lambda pc, n: data.draw(values)), davis)
    assert_matches_oracle(bu.blowup_complex(psi).Y)


def test_a_ball_owns_its_hyperplanes():
    b = COMPLEXES["X-path3-4"]()
    hps = cc.hyperplanes(b)
    assert isinstance(hps, tuple) and cc.hyperplanes(b) is hps
    with pytest.raises(FrozenInstanceError):
        hps[0].far = None
    assert all(h.vertex_ids is b.vertex_ids for h in hps)


def test_verifier_reuses_the_hyperplanes_of_its_source(monkeypatch):
    # the quotient's K comes from the source's hyperplanes, as in
    # `cubikit check rq`, so the verifier computes only the target's
    b = COMPLEXES["X-pentagon-3"]()
    walls = [h for h in cc.hyperplanes(b) if not h.truncated]
    q = cc.restriction_quotient(b, random.Random(3).sample(walls, 9))
    calls = []
    real = cc._hyperplanes
    monkeypatch.setattr(cc, "_hyperplanes",
                        lambda c: calls.append(c) or real(c))
    assert cc.verify_rq_characterization(q.map, samples=4)["all_true"]
    assert len(calls) == 1 and calls[0] is q.target
