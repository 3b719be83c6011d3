"""Independent oracles for the benchmark's checks.

Nothing here imports cubikit: every expected answer is computed from the
mathematics (growth series, pilings, brute force) or from the raw data of an
output (vertex and edge sets), so a defect in the code under test cannot
also hide in its check.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import comb


# -- growth series ------------------------------------------------------------

def ball_sizes(vertices, edges, radius):
    """Sizes of the word-metric balls of radius 0..radius in the RAAG.

    The spherical growth series over generators and inverses is
    1 / p(-2t / (1 + t)) with p the clique polynomial of the defining graph.
    Writing d for the largest clique size, this equals (1 + t)^d / Q(t) with
    Q(t) = sum_k c_k (-2t)^k (1 + t)^(d - k), and Q(0) = 1.
    """
    clique_sizes = [len(c) for c in Pilings(vertices, edges).cliques()]
    c = [clique_sizes.count(k) for k in range(max(clique_sizes) + 1)]
    d = len(c) - 1
    q = [0] * (d + 1)
    for k, ck in enumerate(c):
        for j in range(d - k + 1):
            q[k + j] += ck * (-2) ** k * comb(d - k, j)
    num = [comb(d, j) for j in range(d + 1)]
    series = []
    for n in range(radius + 1):
        acc = num[n] if n < len(num) else 0
        for j in range(1, min(n, d) + 1):
            acc -= q[j] * series[n - j]
        series.append(acc)
    sizes, total = [], 0
    for s in series:
        total += s
        sizes.append(total)
    return sizes


# -- pilings: a second solution of the word problem ----------------------------

class Pilings:
    """Group elements of a RAAG as pilings (Crisp-Godelle-Wiest).

    A piling has one column per generator.  Appending v^e pushes e onto
    column v and a blocker 0 onto the column of every generator that does
    not commute with v, unless the top of column v is -e, in which case the
    letter cancels and those blockers are popped.  Two words represent the
    same element iff their pilings are equal.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.pos = {v: i for i, v in enumerate(self.vertices)}
        adj = {v: set() for v in self.vertices}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = adj
        self.blocked = {v: tuple(self.pos[w] for w in self.vertices
                                 if w != v and w not in adj[v])
                        for v in self.vertices}
        self.identity = tuple(() for _ in self.vertices)

    def push(self, p, v, e):
        cols = list(p)
        i = self.pos[v]
        if cols[i] and cols[i][-1] == -e:
            cols[i] = cols[i][:-1]
            for j in self.blocked[v]:
                cols[j] = cols[j][:-1]
        else:
            cols[i] = cols[i] + (e,)
            for j in self.blocked[v]:
                cols[j] = cols[j] + (0,)
        return tuple(cols)

    def of_word(self, word):
        p = self.identity
        for v, e in word:
            p = self.push(p, v, e)
        return p

    def length(self, p):
        return sum(1 for col in p for x in col if x)

    def right_descent(self, p, v):
        """Does some reduced word for p end in a v-letter?"""
        col = p[self.pos[v]]
        return bool(col) and col[-1] != 0

    def ball(self, radius):
        """All elements of word length <= radius."""
        seen = {self.identity}
        frontier = [self.identity]
        for _ in range(radius):
            nxt = []
            for p in frontier:
                for v in self.vertices:
                    for e in (1, -1):
                        q = self.push(p, v, e)
                        if q not in seen and self.length(q) > self.length(p):
                            seen.add(q)
                            nxt.append(q)
            frontier = nxt
        return seen

    def cliques(self):
        """All cliques of the defining graph, the empty one included."""
        out = [()]
        layer = [(v,) for v in self.vertices]
        while layer:
            out.extend(layer)
            layer = [c + (w,) for c in layer for w in self.vertices
                     if self.pos[w] > self.pos[c[-1]]
                     and all(w in self.adj[x] for x in c)]
        return out

    def davis_vertex_count(self, radius):
        """Residues g*G(J), J a clique, whose shortest element has length
        <= radius: per J, the elements of the ball with no right descent in
        J (each coset has exactly one)."""
        ball = self.ball(radius)
        return sum(1 for J in self.cliques() for p in ball
                   if not any(self.right_descent(p, v) for v in J))

    def xe_vertex_count(self, radius):
        """Vertices of the exploded cover within l1 distance radius of
        (1, empty clique), by breadth-first search over (piling, clique)."""
        start = (self.identity, ())
        dist = {start: 0}
        dq = deque([start])
        while dq:
            h, cl = dq.popleft()
            d = dist[(h, cl)]
            if d == radius:
                continue
            nbrs = [(self.push(h, v, e), cl) for v in cl for e in (1, -1)]
            nbrs += [(h, tuple(x for x in cl if x != w)) for w in cl]
            for w in self.vertices:
                if w not in cl and all(w in self.adj[x] for x in cl):
                    nbrs.append((h, tuple(sorted(cl + (w,), key=self.pos.get))))
            for n in nbrs:
                if n not in dist:
                    dist[n] = d + 1
                    dq.append(n)
        return len(dist)


def random_geodesic(pilings, rng, length):
    """A random word of the given length that is geodesic (no cancellation)."""
    word = []
    p = pilings.identity
    while len(word) < length:
        v = rng.choice(pilings.vertices)
        e = rng.choice((1, -1))
        q = pilings.push(p, v, e)
        if pilings.length(q) > pilings.length(p):
            word.append((v, e))
            p = q
    return tuple(word)


# -- graphs and cube complexes given as raw vertex/edge/square data -------------

def components(vertices, edges):
    """Connected components (union-find) of a graph given by edge pairs."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps = {}
    for v in vertices:
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def square_classes(edges, squares):
    """Edge classes under the opposite-sides-of-a-square relation."""
    parent = {e: e for e in edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, c, d in squares:
        for e1, e2 in (((a, b), (d, c)), ((b, c), (a, d))):
            r1, r2 = find(frozenset(e1)), find(frozenset(e2))
            if r1 != r2:
                parent[r1] = r2
    classes = {}
    for e in edges:
        classes.setdefault(find(e), set()).add(e)
    return {frozenset(c) for c in classes.values()}


def walls_cut_exactly_their_edges(vertices, edges, walls):
    """Each (edge class, side) pair must split exactly the class's edges.

    `walls` is a list of (edge_class, side) with `side` one halfspace; a
    vertex's bit i says which side of wall i it lies on, so an edge crosses
    exactly the walls in which its endpoints' bits differ.
    """
    bits = {v: 0 for v in vertices}
    for i, (_, side) in enumerate(walls):
        for v in side:
            bits[v] |= 1 << i
    own = {}
    for i, (eclass, _) in enumerate(walls):
        for e in eclass:
            own[e] = 1 << i
    for e in edges:
        u, v = tuple(e)
        if bits[u] ^ bits[v] != own.get(e, 0):
            return False
    return True


# -- wallspaces ------------------------------------------------------------------

def count_orientations(sides, full):
    """Consistent orientations of a wallspace, by backtracking.

    An orientation picks one side of each wall; it is consistent when every
    two chosen sides meet.  `sides` are bitmasks over the points.
    """
    n = len(sides)
    found = 0
    chosen = []

    def extend(i):
        nonlocal found
        if i == n:
            found += 1
            return
        for s in (sides[i], full ^ sides[i]):
            if all(s & c for c in chosen):
                chosen.append(s)
                extend(i + 1)
                chosen.pop()

    extend(0)
    return found


def _transverse(a, b, full):
    """All four quarter intersections of two walls are non-empty."""
    return all(x & y for x in (a, full ^ a) for y in (b, full ^ b))


def largest_transverse_family(sides, full):
    """Size of the largest family of pairwise transverse walls."""
    n = len(sides)
    best = 0
    for k in range(1, n + 1):
        if any(all(_transverse(sides[i], sides[j], full)
                   for i, j in combinations(fam, 2))
               for fam in combinations(range(n), k)):
            best = k
        else:
            break
    return best


def maximal_transverse_families(sides, full):
    """Maximal families of pairwise transverse walls (Bron-Kerbosch)."""
    n = len(sides)
    adj = [{j for j in range(n) if j != i and _transverse(sides[i], sides[j], full)}
           for i in range(n)]
    found = []

    def grow(fam, cands, excluded):
        if not cands and not excluded:
            found.append(fam)
        for v in list(cands):
            grow(fam | {v}, cands & adj[v], excluded & adj[v])
            cands = cands - {v}
            excluded = excluded | {v}

    grow(frozenset(), set(range(n)), set())
    return found


# -- actions on Z ------------------------------------------------------------------

def two_flipping_facts(block_map, interior):
    """Criterion-9 facts for the two-flipping action on the collapse
    interior: interior fibers are the pairs {2k, 2k+1} and the block map is
    floor(n/2) up to an isometry of the line."""
    margin = max(interior) - 4
    fibers = {}
    for x in interior:
        fibers.setdefault(block_map[x], []).append(x)
    inner = [xs for xs in fibers.values() if all(abs(x) <= margin for x in xs)]
    if not inner:
        return False
    pairs_ok = all(sorted(xs) == [min(xs), min(xs) + 1] and min(xs) % 2 == 0
                   for xs in inner)
    sample = [x for x in interior if abs(x) <= margin]
    base = sample[0]
    sign = 1 if block_map[sample[-1]] > block_map[base] else -1
    shift = block_map[base] - sign * (base // 2)
    iso_ok = all(block_map[x] == sign * (x // 2) + shift for x in sample)
    return pairs_ok and iso_ok


def equivariant(block_map, interior, table, sign, offset):
    """f(g x) = sign * f(x) + offset wherever x and g x are interior."""
    inside = set(interior)
    return all(block_map[table[x]] == sign * block_map[x] + offset
               for x in interior if x in table and table[x] in inside)
