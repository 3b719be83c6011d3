"""The right-angled Artin group of a defining graph and its two covers.

Group elements are kept in a canonical normal form: a reduced word that is
the lexicographically least among its commutation shuffles, letters ordered
by rank 2 * (vertex index) + (e < 0).  Two words represent the same element
iff their canonical forms are equal.

Every product is built by right-multiplying a normal form by one letter
x = (v, e) at a time, which is one cancellation or one insertion (the
lexicographic normal form of the trace monoid: Anisimov-Knuth, "Inhomogeneous
sorting", 1979; the piling picture of Crisp-Godelle-Wiest, J. Topology 2009):
scan left from the end past the letters whose generator is adjacent to v; if
the scan stops on v^-e, delete that letter; otherwise insert x before the
first letter right of the stop whose rank exceeds the rank of x.

The gate of a coset base*G(S) (its unique shortest element) comes from one
right-to-left pass over the normal form of base that drops each letter of S
commuting with every letter kept to its right.  No gate is memoized: each
object keeps the gate it is named by.  If b is the gate of b*G(S), then b
is also the gate of b*G(T) for every T in S, since b lies in the smaller
coset and is already shortest in the larger one.  So a class's rep is the
gate of its line rep*<v>, and a residue's base the gate of each of its
rank-1 factors.

The gate of a point x on a standard flat base*G(S), S a clique, is
base * prod v^k_v with one scan per v in S (`gate_heights`): k_v is the
exponent sum of the v-letters of the normal form of base^-1 x up to the
first letter whose generator is not adjacent to v.  Those v-letters are
exactly the ones that can be shuffled to the front.  Write base^-1 x = a b
with a in G(S) the front-movable S-letters; b has none, so no letter of
p^-1 a cancels against b and |p^-1 a b| = |p^-1 a| + |b| for every p in
G(S), least exactly at p = a.  The height of x on a parallel class is the
one-direction case (`height_of`); `class_heights` inherits a class's
heights along prefixes of normal forms: a v-letter moves the height only
inside the parallel set rep*G(st v), which one `bfs_ball` from its gate
rep lists.

Two cosets x*G(X), y*G(Y) meet iff u = x^-1 y lies in the double coset
G(X) G(Y), and that is one gate: u lies there iff the gate of u*G(Y) is
a word in X.  If u = a b with a in G(X), b in G(Y), then u*G(Y) = a*G(Y),
whose gate is a with the Y-letters that shuffle to its end dropped, still
a word in X.  Conversely, if the gate r of u*G(Y) is in G(X), then u = r b
with b in G(Y).  The gate is reduced, so its letters are those of every
reduced word for it, and "a word in X" is a test on its letters.
Extension-complex adjacency (`extension_adjacent`) is this test with X, Y
the stars of the two class directions.

On top of the word algebra this module grows finite balls of the universal
cover X of the Salvetti complex and of the exploded cover X_e: a BFS
(`cube_complex.bfs_ball`) over a step function, the letter step for X and
the vertical, up and down steps for X_e, then `cube_complex.rising_ball`,
which takes the squares to be the 4-cycles.  It also gives gates on
standard flats, parallel classes with their heights, and adjacency of
parallel classes (the edges of the extension complex).  A standard flat
base*G(J) itself is a `building.Residue`, the one type for such a coset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .graph_core import DefiningGraph, UnknownEndpointError
from .cube_complex import CubeComplexBall, bfs_ball, rising_ball

# A letter is (generator label, +1 or -1); a word is a tuple of letters,
# and the identity is the empty word ().


def _check_letters(g: DefiningGraph, word):
    for v, e in word:
        if not g.has_vertex(v):
            raise UnknownEndpointError(f"unknown generator {v!r}")
        if e not in (1, -1):
            raise ValueError(f"exponent must be +-1, got {e!r}")


def _fold(g: DefiningGraph, letters) -> tuple:
    """Normal form of the product of `letters`, right-multiplied in one at a
    time by the insertion rule of the module docstring.  The word is kept as
    letter ranks; the inverse of rank r is r ^ 1."""
    rank, commuting = g._rank, g._commuting
    word = []
    for x in letters:
        r = rank[x]
        past = commuting[r]
        n = len(word)
        j = n - 1
        while j >= 0 and word[j] in past:
            j -= 1
        if j >= 0 and word[j] == r ^ 1:
            del word[j]
            continue
        j += 1
        while j < n and word[j] < r:
            j += 1
        word.insert(j, r)
    return tuple(map(g._letters.__getitem__, word))


def normal_form(g: DefiningGraph, word) -> tuple:
    """Canonical normal form of a raw generator word."""
    _check_letters(g, word)
    return _fold(g, word)


def mul(g: DefiningGraph, a, b) -> tuple:
    return _fold(g, (*a, *b))


def inv(a) -> tuple:
    return tuple((v, -e) for v, e in reversed(a))


def word_str(a) -> str:
    if not a:
        return "1"
    return " ".join(v if e == 1 else f"{v}^-1" for v, e in a)


def parse_word(text: str) -> tuple:
    if text.strip() in ("", "1"):
        return ()
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        else:
            out.append((tok, 1))
    return tuple(out)


def syllables(a):
    """Maximal same-generator runs of a normal form, as (gen, exponent sum)."""
    out = []
    for v, e in a:
        if out and out[-1][0] == v:
            out[-1][1] += e
        else:
            out.append([v, e])
    return [(v, e) for v, e in out if e != 0]


# ---------------------------------------------------------------------------
# cosets of standard subgroups
# ---------------------------------------------------------------------------

def gate_representative(g: DefiningGraph, base, support) -> tuple:
    """The unique minimal-length element of the coset base*G(support).

    One right-to-left pass over the normal form of base drops every letter
    of `support` that commutes with all letters kept to its right; no kept
    support letter can then be shuffled to the end, which characterises the
    shortest element of the coset.
    """
    kept = []
    blockers = set()        # generators of the kept letters
    for v, e in reversed(normal_form(g, base)):
        if v in support and blockers <= g.neighbors(v):
            continue
        kept.append((v, e))
        blockers.add(v)
    return tuple(reversed(kept))


def gate_heights(g: DefiningGraph, base, support, x) -> dict:
    """Coordinates k_v of the gate base * prod v^k_v of x on the flat
    base*G(support), for a clique `support` (see the module docstring)."""
    y = mul(g, inv(base), x)
    out = {}
    for v in support:
        s = 0
        for w, e in y:
            if w == v:
                s += e
            elif not g.adjacent(w, v):
                break
        out[v] = s
    return out


def flat_element(g: DefiningGraph, base, coords):
    w = tuple(base)
    for v, k in coords.items():
        if k:
            w = mul(g, w, tuple((v, 1 if k > 0 else -1) for _ in range(abs(k))))
    return w


# ---------------------------------------------------------------------------
# parallel classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelClass:
    direction: str
    rep: tuple           # gate representative of the ({v} u v-perp)-coset

    @cached_property
    def id(self) -> str:
        return f"{self.direction}@{word_str(self.rep)}"


def class_of_geodesic(g: DefiningGraph, base, v: str) -> ParallelClass:
    if not g.has_vertex(v):
        raise UnknownEndpointError(f"unknown vertex {v!r}")
    return ParallelClass(v, gate_representative(g, base, g._star[v]))


# ---------------------------------------------------------------------------
# the ball of X
# ---------------------------------------------------------------------------

def _letter_step(g: DefiningGraph, h):
    """Right multiplication of h by each letter, labelled by its generator."""
    return [(v, mul(g, h, ((v, e),))) for v in g.vertices for e in (1, -1)]


def group_ball(g: DefiningGraph, radius: int):
    """All group elements of word length <= radius, by BFS over right
    multiplication; sorted by (length, word)."""
    return sorted(bfs_ball([()], lambda h: _letter_step(g, h), radius),
                  key=lambda w: (len(w), w))


def _cover_ball(start, step, radius: int, name) -> CubeComplexBall:
    """`rising_ball` on the BFS ball of `radius` around `start`, its points
    by (distance, id) with ids `name(x)`; `step` runs once per point."""
    step = cache(step)
    dist = bfs_ball([start], step, radius)
    ids = {x: name(x) for x in dist}
    points = sorted(dist, key=lambda x: (dist[x], ids[x]))
    index = {x: i for i, x in enumerate(points)}
    return rising_ball([ids[x] for x in points],
                       ((i, index[y], lab) for i, x in enumerate(points)
                        for lab, y in step(x) if y in index),
                       {vid: radius - dist[x] for x, vid in ids.items()})


def ball_X(g: DefiningGraph, radius: int) -> CubeComplexBall:
    """Ball of the universal cover of the Salvetti complex.

    Vertices are canonical-form word strings of length <= radius; edges are
    right multiplications by generators; squares are the 4-cycles, which
    come from commuting pairs.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return _cover_ball((), lambda h: _letter_step(g, h), radius, word_str)


# ---------------------------------------------------------------------------
# the ball of X_e
# ---------------------------------------------------------------------------

def xe_id(word, clique_members) -> str:
    return f"{word_str(word)}|{{{','.join(clique_members)}}}"


def parse_xe_id(vid: str):
    wpart, cpart = vid.rsplit("|", 1)
    members = tuple(x for x in cpart.strip("{}").split(",") if x)
    return parse_word(wpart), members


def ball_Xe(g: DefiningGraph, radius: int) -> CubeComplexBall:
    """Ball of the universal cover of the exploded Salvetti complex.

    Vertices are pairs (group element, clique); a vertex sits in the unique
    standard flat base*G(clique).  Vertical edges move inside the flat,
    horizontal edges drop or add one clique vertex.  Truncation is by l1
    distance from (1, empty clique).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")

    def step(p):
        h, cl = p
        out = [(f"v:{v}", (mul(g, h, ((v, e),)), cl))
               for v in cl for e in (1, -1)]
        out += [(f"h:{w}", (h, tuple(x for x in cl if x != w))) for w in cl]
        out += [(f"h:{w}", (h, g.sorted_subset({*cl, w})))
                for w in g.vertices
                if w not in cl and all(g.adjacent(w, x) for x in cl)]
        return out

    return _cover_ball(((), ()), step, radius, lambda p: xe_id(*p))


# ---------------------------------------------------------------------------
# heights on a class line, adjacency of classes
# ---------------------------------------------------------------------------

def height_of(g: DefiningGraph, pc: ParallelClass, x) -> int:
    """Gate height of x on the class geodesic: `gate_heights` in the class
    direction, from pc.rep, which is also the gate of the geodesic.  This
    is the per-point path; `class_heights` inherits heights along word
    prefixes and calls it only where no prefix came earlier."""
    v = pc.direction
    return gate_heights(g, pc.rep, (v,), x)[v]


def class_heights(g: DefiningGraph, pc: ParallelClass, words) -> dict:
    """{word: `height_of` the word} for a list of normal forms, in order.

    A word p = q x whose prefix q came earlier in the list inherits its
    height: h(p) = h(q) + e if x = v^e, v the class direction, and q lies
    in the parallel set P = rep*G(st v); h(p) = h(q) otherwise.  Write
    y = rep^-1 q.  If y is a word in st v, so is y v^e, and `gate_heights`
    sums the v-exponents of the whole word.  If not, the fold of y x stops
    its scan at or after the first letter of y outside st v, so the front
    run of st v letters that `gate_heights` sums is unchanged.  rep is the
    gate of P, so lengths add along it and the points of P that are
    prefixes here are rep*s, s a word in st v of length at most
    max |p| - 1 - |rep|: one `bfs_ball` from rep finds them.  The test
    `q in P` compares words, hence the precondition: `group_ball` gives
    normal forms, and prefixes of normal forms are normal forms.  Other
    words (the empty word, or a list not closed under prefixes) call
    `height_of`.  If v is a cone vertex, P is the whole group and holds
    every prefix, so no search runs.
    """
    v = pc.direction
    inside = None                   # None: P is the whole group
    if len(g._star[v]) < len(g.vertices):
        star = [(u, e) for u in g._star[v] for e in (1, -1)]
        reach = max(map(len, words), default=0) - 1 - len(pc.rep)
        inside = bfs_ball([pc.rep],
                          lambda h: [(x, mul(g, h, (x,))) for x in star], reach)
    out = {}
    for p in words:
        k = out.get(p[:-1]) if p else None
        if k is None:
            k = height_of(g, pc, p)
        elif p[-1][0] == v and (inside is None or p[:-1] in inside):
            k += p[-1][1]
        out[p] = k
    return out


def extension_adjacent(g: DefiningGraph, c1: ParallelClass,
                       c2: ParallelClass) -> bool:
    """Edge test in the extension complex: the directions v, w are adjacent
    in the graph and the parallel-set cosets rep1*G(st v), rep2*G(st w)
    meet, i.e. rep1^-1 rep2 lies in the double coset G(st v) G(st w).

    That holds iff the gate of rep1^-1 rep2 * G(st w) is a word in st v
    (see the module docstring).
    """
    v, w = c1.direction, c2.direction
    if not g.adjacent(v, w):
        return False
    gate = gate_representative(g, mul(g, inv(c1.rep), c2.rep), g._star[w])
    return all(x in g._star[v] for x, _ in gate)
