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
first letter right of the stop whose rank exceeds the rank of x.  `_fold`
can start from a normal form h instead of the empty word, so a caller that
holds h (`_letter_step`, `ball_Xe`'s vertical step, `class_levels`' star
search, `flat_element`) takes one step per new letter instead of re-folding
h.  The start must be normal, which no check enforces; `mul` folds both
factors from the empty word, since callers pass words such as inv(base).

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
one-direction case (`height_of`).  `class_levels` reads a class's heights
off the tree that prefixes make of a list of normal forms (`prefix_tree`):
each root takes `height_of` and its subtree starts on that level, and a
v-letter shifts its subtree, which moves the height only inside the
parallel set rep*G(st v), listed by one `bfs_ball` from its gate rep.

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
which takes the squares to be the 4-cycles.  Only points inside the rim
take a step (`_cover_ball`).  It also gives gates on
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


def _fold(g: DefiningGraph, letters, start=()) -> tuple:
    """Normal form of `start` times the product of `letters`, right-multiplied
    in one at a time by the insertion rule of the module docstring.  `start`
    must be a normal form: it seeds the word as it stands, so a word that is
    not normal gives a wrong answer, not an error.  The word is kept as
    letter ranks; the inverse of rank r is r ^ 1."""
    rank, commuting = g._rank, g._commuting
    word = [rank[x] for x in start]
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
    """The unique minimal-length element of the coset base*G(support):
    `_gate` on the normal form of base."""
    return _gate(g, normal_form(g, base), support)


def _gate(g: DefiningGraph, h, support) -> tuple:
    """The gate of h*G(support) for a normal form h.

    One right-to-left pass over h drops every letter of `support` that
    commutes with all letters kept to its right; no kept support letter can
    then be shuffled to the end, which characterises the shortest element
    of the coset.
    """
    kept = []
    blockers = set()        # generators of the kept letters
    for v, e in reversed(h):
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
    """base * prod v^k_v over `coords` {v: k_v}, for a normal form base."""
    return _fold(g, [(v, 1 if k > 0 else -1) for v, k in coords.items()
                     for _ in range(abs(k))], base)


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
    """Right multiplication of the normal form h by each letter, labelled by
    its generator: one insertion step on h each."""
    return [(x[0], _fold(g, (x,), h)) for x in g._letters]


def group_ball(g: DefiningGraph, radius: int):
    """All group elements of word length <= radius, by BFS over right
    multiplication of normal forms by letters (`_letter_step`); sorted by
    (length, word)."""
    return sorted(bfs_ball([()], lambda h: _letter_step(g, h), radius),
                  key=lambda w: (len(w), w))


def _cover_ball(start, step, radius: int, name) -> CubeComplexBall:
    """`rising_ball` on the BFS ball of `radius` around `start`, its points
    by (distance, id) with ids `name(x)`; `step` runs at most once per point.

    The rim takes no step.  X and X_e are CAT(0), so their 1-skeleta are
    bipartite: no edge joins two points at one distance, and every edge of
    a rim point (distance `radius`) ends one step inside, at a point that
    comes earlier in the order and lists the edge itself.  `rising_ball`
    keeps an edge's first listing, so each adjacency, insertion order
    included, is what stepping the rim too would give.
    """
    step = cache(step)
    dist = bfs_ball([start], step, radius)
    ids = {x: name(x) for x in dist}
    points = sorted(dist, key=lambda x: (dist[x], ids[x]))
    index = {x: i for i, x in enumerate(points)}
    return rising_ball([ids[x] for x in points],
                       ((i, index[y], lab) for i, x in enumerate(points)
                        if dist[x] < radius
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
        out = [(f"v:{v}", (_fold(g, ((v, e),), h), cl))
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
    is the per-point path; `class_levels` shifts heights down a prefix tree
    and calls it only at the tree's roots."""
    v = pc.direction
    return gate_heights(g, pc.rep, (v,), x)[v]


def prefix_tree(words):
    """(index, parents, subtrees) for a list of distinct words: `index`
    maps each word to its position, parents[i] is the index of
    words[i][:-1] when that word comes earlier in the list, else -1 (a
    root), and subtrees[i] is the bitmask of i and every index below it.
    A parent comes before its children, so one backward pass ORs each
    subtree into its parent's."""
    index = {p: i for i, p in enumerate(words)}
    parents = []
    for i, p in enumerate(words):
        a = index.get(p[:-1], -1)       # the empty word finds itself
        parents.append(a if a < i else -1)
    subtrees = [1 << i for i in range(len(words))]
    for i in range(len(words) - 1, -1, -1):
        if parents[i] >= 0:
            subtrees[parents[i]] |= subtrees[i]
    return index, parents, subtrees


def class_levels(g: DefiningGraph, pc: ParallelClass, words, tree) -> dict:
    """{height: bitmask of the words at that `height_of`}, heights in order
    of first appearance, for a list of distinct normal forms and its
    `prefix_tree`.

    A word p = q x whose prefix q came earlier has the height of q plus e if
    x = v^e, v the class direction, and q lies in the parallel set
    P = rep*G(st v); otherwise the height of q.  Write y = rep^-1 q.  If y
    is a word in st v, so is y v^e, and `gate_heights` sums the v-exponents
    of the whole word.  If not, the fold of y x stops its scan at or after
    the first letter of y outside st v, so the front run of st v letters
    that `gate_heights` sums is unchanged.  So each root takes `height_of`
    and its whole subtree starts at that level, and each mover, a word
    v^e-child of a prefix in P, shifts its subtree by e.  Movers go in
    index order: an earlier mover is an ancestor, which shifts the whole
    subtree, or lies outside it, so the subtree sits on one level, that of
    the mover's parent, and moves by one XOR and one OR.

    rep is the gate of P, so lengths add along it and the points of P that
    are prefixes here are rep*s, s a word in st v of length at most
    max |p| - 1 - |rep|: one `bfs_ball` from rep finds them, and a mover is
    a word q + (v^e) that is not a root.  Prefixes of normal forms are
    normal forms, so the tree's parent words are.  If v is a cone vertex,
    P is the whole group and holds every prefix, so no search runs and
    every v-letter child moves.
    """
    index, parents, subtrees = tree
    v = pc.direction
    if len(g._star[v]) < len(g.vertices):
        star = [(u, e) for u in g._star[v] for e in (1, -1)]
        reach = max(map(len, words), default=0) - 1 - len(pc.rep)
        inside = bfs_ball([pc.rep],
                          lambda h: [(x, _fold(g, (x,), h)) for x in star],
                          reach)
        children = (index.get((*q, (v, e)), -1)
                    for q in inside for e in (1, -1))
        movers = sorted(i for i in children if i >= 0 and parents[i] >= 0)
    else:
        movers = [i for i, p in enumerate(words)
                  if parents[i] >= 0 and p[-1][0] == v]
    top = {}                        # root or mover -> height of its level
    out = {}
    covered, full = 0, (1 << len(words)) - 1
    while covered != full:
        # the first index outside the subtrees found so far has no parent
        # in them, and every earlier index is in them: it is a root
        i = (~covered & covered + 1).bit_length() - 1
        top[i] = k = height_of(g, pc, words[i])
        out[k] = out.get(k, 0) | subtrees[i]
        covered |= subtrees[i]
    for i in movers:
        a = parents[i]
        while a not in top:
            a = parents[a]
        k = top[a]
        top[i] = k2 = k + words[i][-1][1]
        out[k] ^= subtrees[i]
        if not out[k]:
            del out[k]
        out[k2] = out.get(k2, 0) | subtrees[i]
    # levels disjoint: a level's lowest bit is its first appearance
    return dict(sorted(out.items(), key=lambda kv: kv[1] & -kv[1]))


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
