"""The right-angled building of a RAAG and its Davis realization.

Chambers are group elements; the J-residues are the left cosets of the
clique subgroups G(J), i.e. exactly the standard flats.  The Davis ball is
the cube complex of intervals in the poset of spherical residues whose gate
representative lies within a radius, built by `cube_complex.rising_ball`
from the edges that add one commuting vertex to a residue's type.

Gallery distance is computed algebraically: the Coxeter-valued distance of
chambers c1, c2 is the syllable sequence of nf(c1^-1 c2), whose length is
the gallery metric.  In the Davis realization every gallery step costs two
edges (chamber, up to the shared residue, down), so d_l1 = 2 * gallery;
the one-generator case pins the orientation of this identity and the tests
enforce it on ball geometry.

Actions are `ActionTables` on a chamber window.  `residue_image` is the one
flat-preserving test, and `resolved_table` pulls a representative's
resolution back to any class along `class_orbit_word` and
`transport_height`; `blowup.equivariant_blowup` and
`wallspace_dual.invariant_wallspace` both read their tables from it.
`class_isometry` is the one fit of a generator's action on a resolved
class line (the isometry of the branched line that moves its blocks); the
blow-up's induced maps on `Y` and the wallspace's cut transport both use it.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .cube_complex import CubeComplexBall, TruncationError, rising_ball
from .graph_core import DefiningGraph, cliques, orthogonal_complement
from .raag_geometry import (
    ParallelClass,
    class_of_geodesic,
    flat_element,
    gate_heights,
    gate_representative,
    group_ball,
    height_of,
    inv,
    mul,
    normal_form,
    syllables,
    word_str,
)
from .semiconjugacy import (
    ActionError,
    ZActionSpec,
    add_inverses,
    least_L,
    line_isometry,
)


@dataclass(frozen=True)
class Residue:
    base: tuple                  # gate representative of base*G(type_J)
    type_J: tuple                # sorted vertex tuple
    spherical: bool = True

    @property
    def rank(self) -> int:
        return len(self.type_J)

    @cached_property
    def id(self) -> str:
        return f"{word_str(self.base)}|{{{','.join(self.type_J)}}}"

    def to_json(self) -> str:
        return json.dumps({"base": word_str(self.base),
                           "type": list(self.type_J)})


def residue(g: DefiningGraph, base, type_J) -> Residue:
    members = g.sorted_subset(type_J)
    return Residue(gate_representative(g, base, members), members,
                   g.is_clique(members))


@dataclass
class DavisBall:
    ball: CubeComplexBall
    residue_of: dict            # vertex id -> Residue
    rank_of: dict               # vertex id -> int
    graph: DefiningGraph
    radius: int

    def chambers(self):
        return [v for v, r in self.rank_of.items() if r == 0]

    @cached_property
    def line_classes(self) -> dict:
        """{(base, v): class of base*<v>} over the rank-1 residues, in ball
        order, built on first read: blow-up data and fiber functors of one
        ball share it."""
        return {(r.base, r.type_J[0]):
                class_of_geodesic(self.graph, r.base, r.type_J[0])
                for r in self.residue_of.values() if r.rank == 1}


def davis_ball(g: DefiningGraph, radius: int) -> DavisBall:
    """Davis realization ball: spherical residues with short gate reps.

    Vertices are residues with base length <= radius, listed by (rank, id)
    and indexed by (gate base, type_J); one table holds the gate of h*G(J)
    for every h in the group ball and clique J.  Edges are codimension-1
    containments (add one commuting vertex to the type), looked up by index
    through that table; squares are the rank-2 intervals, which
    `rising_ball` finds as the 4-cycles rising in rank.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    types = cliques(g)
    # a residue's base lies in the ball, so its parents' gates are here
    gate = {(h, J): gate_representative(g, h, J)
            for h in group_ball(g, radius) for J in types}
    keys = dict.fromkeys((b, J) for (_, J), b in gate.items())
    order = sorted(itertools.starmap(Residue, keys),
                   key=lambda r: (r.rank, r.id))
    index = {(r.base, r.type_J): i for i, r in enumerate(order)}
    # type_J -> (label, type_J + w) for each w commuting with all of type_J
    up_types = {J: [(f"h:{w}", g.sorted_subset(J + (w,))) for w in g.vertices
                    if w not in J and all(g.adjacent(w, x) for x in J)]
                for J in types}
    edges = ((i, j, lab) for i, r in enumerate(order)
             for lab, K in up_types[r.type_J]
             if (j := index.get((gate[r.base, K], K))) is not None)
    ids = [r.id for r in order]
    ball = rising_ball(ids, edges,
                       {i: radius - len(r.base) for i, r in zip(ids, order)})
    return DavisBall(ball, dict(zip(ids, order)),
                     {i: r.rank for i, r in zip(ids, order)}, g, radius)


# ---------------------------------------------------------------------------
# gallery metric
# ---------------------------------------------------------------------------

def w_distance(g: DefiningGraph, c1, c2):
    """Coxeter-valued distance: one letter per syllable of nf(c1^-1 c2)."""
    # the syllables of a normal form are already in least shuffle order
    return tuple(v for v, _ in syllables(mul(g, inv(c1), c2)))


def gallery_distance(g: DefiningGraph, c1, c2) -> int:
    return len(w_distance(g, c1, c2))


# ---------------------------------------------------------------------------
# projections and parallelism
# ---------------------------------------------------------------------------

def chambers_of(g: DefiningGraph, r: Residue, window: int):
    """Chambers base * prod v^k with |k_v| <= window, with coordinates."""
    axes = [range(-window, window + 1)] * len(r.type_J)
    out = []
    for combo in itertools.product(*axes):
        coords = dict(zip(r.type_J, combo))
        out.append((coords, flat_element(g, r.base, coords)))
    return out


def proj_residue(g: DefiningGraph, r: Residue, c):
    """Gate of chamber c on the residue: its nearest chamber, by the gate
    formula of `raag_geometry.gate_heights`."""
    if not r.spherical:
        raise ValueError("projection target must be spherical")
    return flat_element(g, r.base, gate_heights(g, r.base, r.type_J, c))


def are_parallel(g: DefiningGraph, r1: Residue, r2: Residue, window: int = 3):
    """Mutual-projection test on a coordinate window.

    Returns (flag, bijection) where the bijection maps window chambers of r1
    to chambers of r2 (as word tuples) when the residues are parallel.
    """
    if r1.type_J != r2.type_J:
        return False, None
    fwd = {}
    for _, c in chambers_of(g, r1, window):
        fwd[c] = proj_residue(g, r2, c)
    back = {}
    for _, c in chambers_of(g, r2, window):
        back[c] = proj_residue(g, r1, c)
    for c, image in fwd.items():
        if back.get(image) != c:
            return False, None
    for c, image in back.items():
        if fwd.get(image) != c:
            return False, None
    return True, dict(fwd)


def parallel_set(g: DefiningGraph, r: Residue) -> Residue:
    """The (J u J-perp)-residue containing r; non-spherical when that set
    is not a clique (returned as a typed coset outside the graded poset)."""
    support = g.sorted_subset(set(r.type_J) |
                              set(orthogonal_complement(g, r.type_J)))
    return Residue(gate_representative(g, r.base, support), support,
                   g.is_clique(support))


# ---------------------------------------------------------------------------
# actions on chambers and factor actions
# ---------------------------------------------------------------------------

@dataclass
class ActionTables:
    """A group action on a chamber window, one bijection table per generator.

    Tables are dicts word-tuple -> word-tuple; `inverses` names the inverse
    table of each generator.
    """

    generators: dict
    inverses: dict = field(default_factory=dict)

    def apply(self, name, chamber):
        t = self.generators[name]
        if chamber not in t:
            raise TruncationError(f"{word_str(chamber)} outside action window")
        return t[chamber]

    def apply_word(self, names, chamber):
        for n in reversed(list(names)):
            chamber = self.apply(n, chamber)
        return chamber


def left_translation_action(g: DefiningGraph, elements, h) -> ActionTables:
    fwd = {c: mul(g, h, c) for c in elements}
    bwd = {c: mul(g, inv(h), c) for c in elements}
    return ActionTables({"t": fwd, "t_inv": bwd},
                        {"t": "t_inv", "t_inv": "t"})


def relabel_action(g: DefiningGraph, elements, perm: dict) -> ActionTables:
    """Action of a graph automorphism (a permutation of the vertex labels)."""
    def apply(c):
        return normal_form(g, tuple((perm[v], e) for v, e in c))

    inv_perm = {w: v for v, w in perm.items()}
    fwd = {c: apply(c) for c in elements}
    bwd = {c: normal_form(g, tuple((inv_perm[v], e) for v, e in c))
           for c in elements}
    return ActionTables({"s": fwd, "s_inv": bwd}, {"s": "s_inv", "s_inv": "s"})


def residue_image(g: DefiningGraph, tables: ActionTables, name: str,
                  r: Residue) -> Residue:
    """Image of a spherical residue under a generator: its base is moved,
    and each geodesic step from the base must map to a nonzero power of one
    generator (all chambers of a w-panel are w-adjacent), whose letter
    gives the image type."""
    base2 = tables.apply(name, r.base)
    dirs = []
    for v in r.type_J:
        step = mul(g, inv(base2), tables.apply(name, mul(g, r.base, ((v, 1),))))
        if len({w for w, _ in step}) != 1:
            raise ValueError(f"generator {name!r} is not flat-preserving on {r.id}")
        dirs.append(step[0][0])
    return residue(g, base2, tuple(dirs))


def image_class(g: DefiningGraph, tables: ActionTables, name: str,
                pc: ParallelClass) -> ParallelClass:
    """Class of the image of the class representative geodesic."""
    r = residue_image(g, tables, name, Residue(pc.rep, (pc.direction,)))
    return class_of_geodesic(g, r.base, r.type_J[0])


ORBIT_DEPTH = 6                  # longest generator word class_orbit_word tries


def class_orbit_word(g: DefiningGraph, tables: ActionTables,
                     pc: ParallelClass, rep_ids):
    """Shortest generator word carrying a class into the representative set.

    Returns (word, image class); the identity word if pc is already a
    representative.  Deterministic: BFS in generator declaration order.
    """
    if pc.id in rep_ids:
        return (), pc
    seen = {pc.id}
    dq = deque([((), pc)])
    names = sorted(tables.generators)
    while dq:
        word, cur = dq.popleft()
        if len(word) >= ORBIT_DEPTH:
            continue
        for name in names:
            try:
                img = image_class(g, tables, name, cur)
            except (TruncationError, ValueError):
                continue
            if img.id in rep_ids:
                return (name,) + word, img
            if img.id not in seen:
                seen.add(img.id)
                dq.append(((name,) + word, img))
    raise TruncationError(f"orbit of {pc.id} does not meet the representatives")


def transport_height(g: DefiningGraph, tables: ActionTables, word,
                     pc: ParallelClass, img: ParallelClass, n: int) -> int:
    """Height on the class `img` of the height-n chamber of pc's geodesic
    moved by the generator word (rightmost acts first); the empty word
    keeps every height."""
    if not word:
        return n
    return height_of(g, img, tables.apply_word(
        word, flat_element(g, pc.rep, {pc.direction: n})))


def resolved_table(g: DefiningGraph, tables: ActionTables, resolutions,
                   pc: ParallelClass, domain) -> dict:
    """A class's resolution pulled back along the action: each height in
    `domain` is transported to the orbit representative of the class and
    read off that representative's table in `resolutions` (class id ->
    {height: value})."""
    word, img = class_orbit_word(g, tables, pc, resolutions)
    f_img = resolutions[img.id]
    out = {}
    for n in domain:
        m = transport_height(g, tables, word, pc, img, n)
        if m not in f_img:
            raise TruncationError(
                f"resolution of {img.id} has no height {m}, needed for {pc.id}")
        out[n] = f_img[m]
    return out


def class_isometry(g: DefiningGraph, tables: ActionTables, name: str,
                   pc: ParallelClass, table: dict, img: ParallelClass,
                   img_table: dict):
    """The isometry (sign, off) of the block line by which a generator moves
    the resolution `table` (height -> block) of class pc to `img_table`,
    that of its image class img: the `line_isometry` fit of the blocks at
    heights n and `transport_height(..., n)`, which every such pair must
    fit (else `ActionError`).  None when fewer than two distinct blocks
    move."""
    pairs = []
    for n, a in table.items():
        try:
            m = transport_height(g, tables, (name,), pc, img, n)
        except TruncationError:
            continue
        if m in img_table:
            pairs.append((a, img_table[m]))
    if len({a for a, _ in pairs}) < 2:
        return None
    iso = line_isometry(pairs)
    if iso is None or any(iso[0] * a + iso[1] != b for a, b in pairs):
        raise ActionError(f"{name!r} does not move the resolution of {pc.id} "
                          f"to that of {img.id} by an isometry")
    return iso


def extract_factor_action(g: DefiningGraph, tables: ActionTables,
                          pc: ParallelClass, window: int,
                          names=None) -> ZActionSpec:
    """Induced action on the rank-1 factor of the parallel set of a class.

    For each stabilizing generator, chambers of the class geodesic are moved
    by the action and gated back onto it; the heights read off identify the
    factor with a window of Z.  A height whose image leaves the window is
    dropped, as it is not part of the windowed action.  The result has
    A = 0 and the least L it validates with; tables that `tables.inverses`
    pairs stay paired, and `add_inverses` pairs the rest.
    """
    out = {}
    for name in (names or tables.generators):
        if image_class(g, tables, name, pc).id != pc.id:
            raise ValueError(f"generator {name!r} does not stabilize {pc.id}")
        heights = ((n, transport_height(g, tables, (name,), pc, pc, n))
                   for n in range(-window, window + 1))
        out[name] = {n: m for n, m in heights if abs(m) <= window}
    inverses = {n: p for n in out if (p := tables.inverses.get(n)) in out}
    inverses |= {p: n for n, p in inverses.items()}
    unpaired = {n: t for n, t in out.items() if n not in inverses}
    inverses |= add_inverses(unpaired)
    out |= unpaired
    spec = ZActionSpec(window, least_L(out.values()), 0, out, inverses)
    spec.validate()
    return spec


def rank_preserving_check(davis: DavisBall, vertex_map: dict,
                          margin: int = 0) -> bool:
    """Does a vertex self-map of the Davis ball preserve ranks?"""
    for v in davis.ball.vertex_ids:
        if davis.ball.depth[v] < margin or v not in vertex_map:
            continue
        if davis.rank_of[vertex_map[v]] != davis.rank_of[v]:
            return False
    return True
