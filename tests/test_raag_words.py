"""Normal form and coset machinery, checked against independent oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubikit import graph_core as gc
from cubikit import raag_geometry as rg

from .strategies import defining_graphs


# -- reference implementations: the reduce-then-sort normal form and the
# greedy-descent gate, slow oracles for the insertion engine and the
# one-pass gate -------------------------------------------------------------

def reduce_oracle(g, word):
    """Cancel inverse pairs that can be brought together by commutations."""
    out = []
    for v, e in word:
        j = len(out) - 1
        placed = False
        while j >= 0:
            w, f = out[j]
            if w == v:
                if f == -e:
                    out.pop(j)
                    placed = True
                break
            if not g.adjacent(w, v):
                break
            j -= 1
        if not placed and not (j >= 0 and out[j][0] == v and out[j][1] == -e):
            out.append((v, e))
    return out


def lex_least_oracle(g, word):
    """Greedy lexicographically least shuffle of a reduced word."""
    word = list(word)
    out = []
    while word:
        best = None
        best_key = None
        for i, (v, e) in enumerate(word):
            if all(g.adjacent(w, v) for w, _ in word[:i]):
                key = (g.vertices.index(v), 0 if e == 1 else 1)
                if best is None or key < best_key:
                    best, best_key = i, key
        out.append(word.pop(best))
    return tuple(out)


def normal_form_oracle(g, word):
    return lex_least_oracle(g, reduce_oracle(g, word))


def gate_descent_oracle(g, base, support):
    """Greedy descent by right multiplication to the shortest coset element."""
    rep = normal_form_oracle(g, base)
    improved = True
    while improved:
        improved = False
        for v in support:
            for e in (1, -1):
                cand = normal_form_oracle(g, rep + ((v, e),))
                if len(cand) < len(rep):
                    rep = cand
                    improved = True
    return rep


def triangle_with_pendant():
    return gc.DefiningGraph.make(
        "abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])


ORACLE_GRAPHS = {
    "pentagon": gc.pentagon(), "k2": gc.k2(), "path3": gc.path3(),
    "square4": gc.square4(), "discrete3": gc.discrete(3),
    "single": gc.single_vertex(), "triangle_pendant": triangle_with_pendant(),
}


def raw_words(g, max_size=14):
    letters = [(v, e) for v in g.vertices for e in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ORACLE_GRAPHS)), st.data())
def test_mul_and_normal_form_match_oracle(name, data):
    g = ORACLE_GRAPHS[name]
    a = data.draw(raw_words(g))
    b = data.draw(raw_words(g))
    assert rg.normal_form(g, a) == normal_form_oracle(g, a)
    assert rg.mul(g, a, b) == normal_form_oracle(g, a + b)
    n = normal_form_oracle(g, a)
    for x in data.draw(raw_words(g, max_size=4)):
        assert rg.mul(g, n, (x,)) == normal_form_oracle(g, n + (x,))
        n = rg.mul(g, n, (x,))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ORACLE_GRAPHS)), st.data())
def test_gate_matches_descent_oracle(name, data):
    g = ORACLE_GRAPHS[name]
    base = data.draw(raw_words(g))
    support = g.sorted_subset(data.draw(st.sets(st.sampled_from(g.vertices))))
    assert rg.gate_representative(g, base, support) == \
        gate_descent_oracle(g, base, support)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ORACLE_GRAPHS)), st.data())
def test_gate_is_the_gate_of_every_smaller_coset(name, data):
    # the gate b of b*G(S) lies in b*G(T) for T in S and is shortest there
    # too: a class's rep names its line and a residue's base its factors
    g = ORACLE_GRAPHS[name]
    h = data.draw(raw_words(g))
    if data.draw(st.booleans()):
        support = data.draw(st.sampled_from(gc.cliques(g)))
    else:
        v = data.draw(st.sampled_from(g.vertices))
        support = g.sorted_subset({v, *g.neighbors(v)})
    smaller = tuple(v for v in support if data.draw(st.booleans()))
    gate = rg.gate_representative(g, h, support)
    assert rg.gate_representative(g, gate, smaller) == gate


@settings(max_examples=300, deadline=None)
@given(defining_graphs(), st.data())
def test_fold_from_a_normal_start_matches_the_full_fold(g, data):
    # a normal-form start word seeds the insertion rule as it stands; the
    # full fold of start + letters stays the oracle, as does the letter
    # step through `mul`
    h = rg.normal_form(g, data.draw(raw_words(g)))
    letters = data.draw(raw_words(g, max_size=6))
    assert rg._fold(g, letters, h) == rg.normal_form(g, h + letters) == \
        normal_form_oracle(g, h + letters)
    assert rg._letter_step(g, h) == \
        [(v, rg.mul(g, h, ((v, e),))) for v in g.vertices for e in (1, -1)]
    coords = {v: data.draw(st.integers(-3, 3)) for v in g.vertices}
    assert rg.flat_element(g, h, coords) == rg.normal_form(g, h + tuple(
        (v, 1 if k > 0 else -1) for v, k in coords.items()
        for _ in range(abs(k))))


@settings(max_examples=300, deadline=None)
@given(defining_graphs(), st.data())
def test_gate_pass_on_a_normal_form_matches_descent_oracle(g, data):
    base = data.draw(raw_words(g))
    support = g.sorted_subset(data.draw(st.sets(st.sampled_from(g.vertices))))
    assert rg._gate(g, rg.normal_form(g, base), support) == \
        gate_descent_oracle(g, base, support)


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


def coset_coordinates(g, h, base, support):
    """Oracle: exponent vector of base^-1 h inside the abelian group
    G(support)."""
    rel = rg.mul(g, rg.inv(base), h)
    coords = {v: 0 for v in support}
    for v, e in rel:
        if v not in coords:
            raise ValueError(f"{rg.word_str(h)} is not in the coset")
        coords[v] += e
    return coords


def coset_member(g, h, base, support):
    """Is h in base * G(support)?"""
    rel = rg.mul(g, rg.inv(base), h)
    return all(v in support for v, _ in rel)


def test_coset_membership():
    g = gc.pentagon()
    ab = rg.normal_form(g, [("a", 1), ("b", 1)])
    assert coset_member(g, ab, (), ("a", "b"))
    assert not coset_member(g, ab, (), ("a",))
    coords = coset_coordinates(g, ab, (), ("a", "b"))
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
