"""Normal form and coset machinery, checked against independent oracles."""

import random
from fractions import Fraction

import pytest

from cubikit import graph_core as gc
from cubikit import raag_geometry as rg


def rewriting_oracle(g, word):
    """Exhaustive rewriting closure: the set of words equivalent to `word`
    under single swaps of commuting letters and single cancellations, then
    the lexicographically least shortest word.  Exponential; tiny words only.
    """
    def key(w):
        return (len(w), tuple((g.index(v), 0 if e == 1 else 1) for v, e in w))

    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                (a, ea), (b, eb) = w[i], w[i + 1]
                if a == b and ea == -eb:
                    cand = w[:i] + w[i + 2:]
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
                elif a != b and g.adjacent(a, b):
                    cand = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return min(seen, key=key)


def test_normal_form_examples():
    k2 = gc.k2()
    assert rg.normal_form(k2, [("u", 1), ("v", 1), ("u", -1)]) == (("v", 1),)
    f2 = gc.discrete(2)
    x, y = f2.vertices
    w = ((x, 1), (y, 1), (x, -1))
    assert rg.normal_form(f2, w) == w
    pent = gc.pentagon()
    assert rg.normal_form(pent, [("b", 1), ("a", 1)]) == (("a", 1), ("b", 1))


def test_normal_form_against_rewriting_oracle():
    rng = random.Random(7)
    for g in (gc.pentagon(), gc.k2(), gc.path3(), gc.discrete(2)):
        letters = [(v, e) for v in g.vertices for e in (1, -1)]
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            assert rg.normal_form(g, w) == rewriting_oracle(g, w)


def test_normal_form_idempotent_and_multiplicative():
    rng = random.Random(11)
    for g in (gc.pentagon(), gc.square4()):
        letters = [(v, e) for v in g.vertices for e in (1, -1)]
        for _ in range(60):
            w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            n1, n2 = rg.normal_form(g, w1), rg.normal_form(g, w2)
            assert rg.normal_form(g, n1) == n1
            assert rg.normal_form(g, w1 + w2) == rg.mul(g, n1, n2)
            assert rg.mul(g, n1, rg.inv(n1)) == ()


def test_unknown_generator():
    with pytest.raises(gc.UnknownEndpointError):
        rg.normal_form(gc.k2(), [("zz", 1)])


def test_word_str_roundtrip():
    g = gc.pentagon()
    w = rg.normal_form(g, [("a", 1), ("c", -1), ("a", 1)])
    assert rg.parse_word(rg.word_str(w)) == w
    assert rg.word_str(()) == "1"
    assert rg.parse_word("1") == ()


def test_syllables():
    g = gc.k2()
    w = rg.normal_form(g, [("u", 1), ("u", 1), ("v", 1)])
    assert rg.syllables(w) == [("u", 2), ("v", 1)]


def test_gate_representative():
    g = gc.k2()
    uv2 = rg.normal_form(g, [("u", 1), ("v", 1), ("v", 1)])
    # gate of the coset (u v^2) <u> is v^2
    assert rg.gate_representative(g, uv2, ("u",)) == (("v", 1), ("v", 1))
    # gate on the whole group is the identity
    assert rg.gate_representative(g, uv2, ("u", "v")) == ()
    f2 = gc.discrete(2)
    x, y = f2.vertices
    xyx = rg.normal_form(f2, ((x, 1), (y, 1), (x, 1)))
    # the coset xyx<x> = {x y x^k} has unique shortest element xy
    assert rg.gate_representative(f2, xyx, (x,)) == ((x, 1), (y, 1))


def test_coset_membership():
    g = gc.pentagon()
    ab = rg.normal_form(g, [("a", 1), ("b", 1)])
    assert rg.coset_member(g, ab, (), ("a", "b"))
    assert not rg.coset_member(g, ab, (), ("a",))
    coords = rg.coset_coordinates(g, ab, (), ("a", "b"))
    assert coords == {"a": 1, "b": 1}


def growth_series(g, order):
    """Oracle: spherical growth of a RAAG from its clique polynomial,
    f(t) = 1 / C(-2t/(1+t)) with C the clique polynomial (each generator
    contributes two directions, so Z has growth (1+t)/(1-t)).
    """
    csizes = {}
    for c in gc.cliques(g):
        csizes[len(c)] = csizes.get(len(c), 0) + 1
    n = order + 1
    # u = -2t/(1+t) as a power series
    u = [Fraction(0)] * n
    for k in range(1, n):
        u[k] = Fraction(2) * (Fraction(-1)) ** k
    # C(u): compose
    comp = [Fraction(0)] * n
    comp[0] = Fraction(csizes.get(0, 1))
    upow = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, max(csizes) + 1):
        # upow = u^k
        new = [Fraction(0)] * n
        for i in range(n):
            for j in range(n - i):
                new[i + j] += upow[i] * u[j]
        upow = new
        c = csizes.get(k, 0)
        for i in range(n):
            comp[i] += c * upow[i]
    # invert comp
    inv = [Fraction(0)] * n
    inv[0] = 1 / comp[0]
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, k + 1):
            s += comp[j] * inv[k - j]
        inv[k] = -s / comp[0]
    return [int(x) for x in inv]


def test_growth_series_oracle_matches_known():
    assert growth_series(gc.k2(), 3) == [1, 4, 8, 12]
    assert growth_series(gc.discrete(2), 3) == [1, 4, 12, 36]


def test_caches_do_not_leak_between_graphs():
    # a path and a triangle on the same labels, built and freed in turn so
    # that a new graph object can reuse the memory of the previous one
    import gc as gcmod

    def make(triangle):
        edges = [("a", "b"), ("b", "c")] + [("a", "c")] * triangle
        return gc.DefiningGraph.make("abc", edges)

    base = (("c", 1), ("a", 1), ("b", 1))

    def answers(g):
        return (rg.gate_representative(g, base, ("b",)),
                rg.extension_adjacent(g, rg.class_of_geodesic(g, (), "a"),
                                      rg.class_of_geodesic(g, (), "c")))

    want = [((("c", 1), ("a", 1)), False), ((("a", 1), ("c", 1)), True)]
    stale = 0
    for k in range(100):
        gcmod.collect()
        stale += answers(make(k % 2)) != want[k % 2]
    assert stale == 0
