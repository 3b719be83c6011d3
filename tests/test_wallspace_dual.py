"""Wallspaces, Sageev duals, branched lines, the invariant wallspace."""

import collections
import functools
import hashlib
import itertools
import json
import operator
import random
from collections import deque
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubikit import cube_complex as cc
from cubikit import graph_core as gc
from cubikit import raag_geometry as rg
from cubikit import semiconjugacy as sc
from cubikit import wallspace_dual as wd
from cubikit.building import ActionTables, left_translation_action

from .strategies import defining_graphs
from .test_blowup import two_flipping_action
from .test_canonical_squares import relabel_edges
from .test_raag_words import coset_member


def enumerate_zero_cubes_oracle(ws):
    """Oracle: brute-force all orientations, keep the pairwise-consistent."""
    n = ws.n_walls()
    out = []
    for bits in range(1 << n):
        ok = True
        for i in range(n):
            si = ws.sides[i] if bits >> i & 1 else ws.full_mask ^ ws.sides[i]
            for j in range(i + 1, n):
                sj = ws.sides[j] if bits >> j & 1 else ws.full_mask ^ ws.sides[j]
                if not si & sj:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(bits)
    return out


@dataclass(frozen=True)
class ZeroCube:
    """Oracle: a pairwise-consistent orientation, as the chosen side index
    per wall (1 = the stored side).  The cofinite condition is automatic on
    finite wallspaces."""

    orientation: tuple

    def consistent(self, ws) -> bool:
        n = ws.n_walls()
        for i in range(n):
            si = ws.sides[i] if self.orientation[i] else \
                ws.full_mask ^ ws.sides[i]
            for j in range(i + 1, n):
                sj = ws.sides[j] if self.orientation[j] else \
                    ws.full_mask ^ ws.sides[j]
                if not si & sj:
                    return False
        return True


def zero_cube_of_state(ws, state) -> ZeroCube:
    return ZeroCube(tuple(state >> i & 1 for i in range(ws.n_walls())))


def dual_squares_oracle(ws):
    """Oracle: the dual as assembled with every square emitted from each of
    its four corners, left to `CubeComplexBall` to canonicalise and
    deduplicate.  The BFS flips walls in the same order as
    `dual_cube_complex`, but tests a flip against the brute-force set of
    consistent orientations."""
    n = ws.n_walls()
    consistent = set(enumerate_zero_cubes_oracle(ws))
    start = ws.point_state(ws.points[0])
    seen, dq, edges, flips = {start}, deque([start]), [], {}
    while dq:
        s = dq.popleft()
        flips[s] = [i for i in range(n) if s ^ (1 << i) in consistent]
        for i in flips[s]:
            t = s ^ (1 << i)
            edges.append((s, t, i))
            if t not in seen:
                seen.add(t)
                dq.append(t)
    order = sorted(seen)
    vid = {s: wd._vertex_id(n, s) for s in order}
    squares = []
    for s in order:
        for i, j in itertools.combinations(flips[s], 2):
            s_ij = s ^ (1 << i) ^ (1 << j)
            if s_ij in seen:
                squares.append((vid[s], vid[s ^ (1 << i)], vid[s_ij],
                                vid[s ^ (1 << j)]))
    return cc.CubeComplexBall.make(
        [vid[s] for s in order],
        [(vid[a], vid[b], str(ws.tags[i])) for a, b, i in edges], squares)


def test_two_points_one_wall():
    ws = wd.Wallspace.make(["p", "q"], [["p"]])
    dual = wd.dual_cube_complex(ws)
    assert len(dual.vertex_ids) == 2
    assert len(dual.edges) == 1


def test_square_wallspace():
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    walls = [[(0, 0), (0, 1)], [(0, 0), (1, 0)]]
    ws = wd.Wallspace.make(pts, walls)
    dual = wd.dual_cube_complex(ws)
    assert len(dual.vertex_ids) == 4
    assert len(dual.edges) == 4
    assert len(dual.squares) == 1
    assert len(enumerate_zero_cubes_oracle(ws)) == 4


def test_tripod_wallspace():
    ws = wd.Wallspace.make(["a", "b", "c"], [["a"], ["b"], ["c"]])
    dual = wd.dual_cube_complex(ws)
    assert len(dual.vertex_ids) == 4
    assert len(dual.edges) == 3
    assert not dual.squares
    assert len(enumerate_zero_cubes_oracle(ws)) == 4
    assert wd.dual_dimension(ws) == 1


def test_hypercube():
    pts = list(range(8))
    walls = [[p for p in pts if p >> i & 1] for i in range(3)]
    ws = wd.Wallspace.make(pts, walls)
    assert wd.dual_dimension(ws) == 3
    dual = wd.dual_cube_complex(ws)
    assert len(dual.vertex_ids) == 8
    assert len(dual.squares) == 6


def test_dim_2x2():
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    ws = wd.Wallspace.make(pts, [[(0, 0), (0, 1)], [(0, 0), (1, 0)]])
    assert wd.dual_dimension(ws) == 2


def test_duplicate_partition_rejected():
    with pytest.raises(ValueError):
        wd.Wallspace.make(["a", "b"], [["a"], ["b"]])


def test_maximal_cubes():
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    ws = wd.Wallspace.make(pts, [[(0, 0), (0, 1)], [(0, 0), (1, 0)]])
    mc = wd.maximal_cubes(ws)
    assert len(mc) == 1
    fam, cube = mc[0]
    assert len(fam) == 2 and len(cube) == 4
    ws3 = wd.Wallspace.make(["a", "b", "c"], [["a"], ["b"], ["c"]])
    mc3 = wd.maximal_cubes(ws3)
    assert len(mc3) == 3
    assert all(len(cube) == 2 for _, cube in mc3)


def test_maximal_cubes_random_suite():
    rng = random.Random(5)
    for trial in range(25):
        npts = rng.randint(3, 7)
        pts = list(range(npts))
        walls = []
        seen = set()
        for _ in range(rng.randint(1, 5)):
            side = frozenset(p for p in pts if rng.random() < 0.5)
            if not side or len(side) == npts:
                continue
            key = min(side, frozenset(pts) - side, key=sorted)
            if key in seen:
                continue
            seen.add(key)
            walls.append(side)
        if not walls:
            continue
        ws = wd.Wallspace.make(pts, walls)
        oracle = enumerate_zero_cubes_oracle(ws)
        dual = wd.dual_cube_complex(ws)
        assert len(dual.vertex_ids) == len(oracle)
        wd.dual_dimension(ws)       # asserts internally
        wd.maximal_cubes(ws)        # asserts the bijection internally


def seeded_wallspace_family(seed=11, count=30):
    """`count` wallspaces of 1-12 drawn walls on 3-8 points, one wall per
    partition."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        npts = rng.randint(3, 8)
        full = (1 << npts) - 1
        sides, seen = [], set()
        for _ in range(rng.randint(1, 12)):
            s = rng.randint(1, full - 1)
            if min(s, full ^ s) not in seen:
                seen.add(min(s, full ^ s))
                sides.append(s)
        out.append(wd.Wallspace(tuple(range(npts)), sides,
                                list(range(len(sides)))))
    return out


# computed before maximal_cubes read each cube from its lowest corner
GOLDEN_MAXIMAL_CUBES = \
    "0c8d82cc4710991095a06d7968b1e383daed4ee27d7e0c8421bd44b64e495e2e"


def test_golden_maximal_cubes():
    body = json.dumps([wd.maximal_cubes(ws) for ws in seeded_wallspace_family()])
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN_MAXIMAL_CUBES


# computed before the dual emitted each square from its lowest corner
GOLDEN_DUALS = {
    "seeded_family":
        "816f491a16aa6bf31ddd851357db9144acc6d86dc30a49fa8d5dcabd6cb1e802",
    "c5_hyperplanes_r3":
        "0cd405e25d735705f388d048b5d0f286940c59a49fbbdf54100bd4a48084701a",
    "criterion_11_c5":
        "e79bb340bf2724bf3581680fe12b82e67af26d8780590be570fdde7625150b4f",
}
GOLDEN_DUAL_DIMENSIONS = \
    "f89ed470d001c6fbe340f133f6ee1232c69fd703e87af1902007e2e9971903c1"


def golden_dual_wallspaces(name):
    if name == "seeded_family":
        return seeded_wallspace_family()
    if name == "c5_hyperplanes_r3":
        return [wd.hyperplane_wallspace(rg.ball_X(gc.pentagon(), 3), margin=1)]
    return [iws_case(name).wallspace]


@pytest.mark.parametrize("name", sorted(GOLDEN_DUALS))
def test_golden_dual_cube_complex(name):
    wss = golden_dual_wallspaces(name)
    bodies = [wd.dual_cube_complex(ws).to_json() for ws in wss]
    body = json.dumps(bodies) if name == "seeded_family" else bodies[0]
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN_DUALS[name]


def test_golden_dual_dimension():
    body = json.dumps([wd.dual_dimension(ws)
                       for ws in seeded_wallspace_family()])
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN_DUAL_DIMENSIONS


@st.composite
def wallspaces(draw):
    """Random wallspaces: up to 10 walls on 2-8 points, one per partition."""
    npts = draw(st.integers(2, 8))
    full = (1 << npts) - 1
    sides, seen = [], set()
    for s in draw(st.lists(st.integers(1, full - 1), max_size=10)):
        if min(s, full ^ s) not in seen:
            seen.add(min(s, full ^ s))
            sides.append(s)
    return wd.Wallspace(tuple(range(npts)), sides, list(range(len(sides))))


@settings(max_examples=150, deadline=None)
@given(wallspaces())
def test_dual_matches_pairwise_oracles(ws):
    n = ws.n_walls()
    dual = wd.dual_cube_complex(ws)
    assert sorted(ws.flips) == enumerate_zero_cubes_oracle(ws)
    assert dual.vertex_ids == tuple(wd._vertex_id(n, s)
                                    for s in sorted(ws.flips))
    for s in ws.flips:
        assert zero_cube_of_state(ws, s).consistent(ws)
        flippable = []
        for i in range(n):
            new = ws.full_mask ^ ws.sides[i] if s >> i & 1 else ws.sides[i]
            if all(new & (ws.sides[j] if s >> j & 1 else
                          ws.full_mask ^ ws.sides[j])
                   for j in range(n) if j != i):
                flippable.append(i)
        assert ws.flips[s] == tuple(flippable)
    largest = max(len(fam) for r in range(n + 1)
                  for fam in itertools.combinations(range(n), r)
                  if all(ws.transverse(i, j)
                         for i, j in itertools.combinations(fam, 2)))
    assert wd.dual_dimension(ws) == largest == \
        max_cube_dimension_oracle(ws)


@settings(max_examples=150, deadline=None)
@given(wallspaces())
def test_dual_matches_four_corner_oracle(ws):
    dual = wd.dual_cube_complex(ws)
    want = dual_squares_oracle(ws)
    assert dual.squares == want.squares
    assert list(dual.edges.items()) == list(want.edges.items())


def point_state_oracle(ws, p):
    """Oracle: a point's state from one test per wall."""
    bit = 1 << ws.points.index(p)
    return sum(1 << i for i, s in enumerate(ws.sides) if s & bit)


def orientations_oracle(ws):
    """Oracle: `_orientations` with its masks from ordered wall pairs, each
    side of wall i against both sides of every other wall, and the flip
    tested on the new state: a wall whose chosen side misses the new side
    of wall i blocks the flip."""
    n = ws.n_walls()
    full = ws.full_mask
    masks = []
    for i, s in enumerate(ws.sides):
        pair = []
        for side in (full ^ s, s):
            on = off = 0
            for j, t in enumerate(ws.sides):
                if j != i:
                    if not t & side:
                        on |= 1 << j
                    if not (full ^ t) & side:
                        off |= 1 << j
            pair.append((on, off))
        masks.append(pair)
    start = point_state_oracle(ws, ws.points[0])
    seen, dq, flips = {start}, deque([start]), {}
    while dq:
        state = dq.popleft()
        fl = []
        for i in range(n):
            nxt = state ^ (1 << i)
            on, off = masks[i][nxt >> i & 1]
            if nxt & on or off & ~nxt:
                continue
            fl.append(i)
            if nxt not in seen:
                seen.add(nxt)
                dq.append(nxt)
        flips[state] = tuple(fl)
    return flips


@settings(max_examples=150, deadline=None)
@given(wallspaces())
def test_flips_and_point_states_match_their_oracles(ws):
    # the draws of test_dual_matches_pairwise_oracles, no walls included
    assert list(ws.flips.items()) == list(orientations_oracle(ws).items())
    assert [ws.point_state(p) for p in ws.points] == \
        [point_state_oracle(ws, p) for p in ws.points]


def test_criterion_11_flips_match_the_oracle_in_order():
    ws = iws_case("criterion_11_c5").wallspace
    assert list(ws.flips.items()) == list(orientations_oracle(ws).items())
    assert len(ws.flips) == 431


def test_orientation_cap_raises_memory_error(monkeypatch):
    # the 3-cube's dual has 8 orientations, past a cap of 4
    pts = list(range(8))
    ws = wd.Wallspace.make(pts, [[p for p in pts if p >> i & 1]
                                 for i in range(3)])
    monkeypatch.setattr(wd, "MAX_ORIENTATIONS", 4)
    for build in (wd.dual_cube_complex, wd.dual_dimension, wd.maximal_cubes):
        with pytest.raises(MemoryError):
            build(ws)


def test_one_wallspace_enumerates_its_orientations_once(monkeypatch):
    calls = []
    real = wd._orientations
    monkeypatch.setattr(wd, "_orientations",
                        lambda ws: calls.append(ws) or real(ws))
    pts = list(range(8))
    ws = wd.Wallspace.make(pts, [[p for p in pts if p >> i & 1]
                                 for i in range(3)])
    assert len(wd.dual_cube_complex(ws).vertex_ids) == 8
    assert wd.dual_dimension(ws) == 3
    assert len(wd.maximal_cubes(ws)) == 1
    assert calls == [ws]
    with pytest.raises(FrozenInstanceError):
        ws.flips = {}


def max_cube_dimension_oracle(ws):
    """Oracle: the dual's largest cube dimension by a search of its own over
    `ws.flips`, each cube tried from its lowest corner, where all its walls
    flip up to their stored side."""
    flips = ws.flips
    best = 0
    for s, fl in flips.items():
        cand = [i for i in fl if not s >> i & 1]
        for r in range(len(cand), best, -1):
            if any(all(ws.transverse(i, j)
                       for i, j in itertools.combinations(combo, 2)) and
                   all(t in flips for t in wd._cube_corners(s, combo))
                   for combo in itertools.combinations(cand, r)):
                best = r
                break
    return best


def maximal_cubes_oracle(ws):
    """maximal_cubes by reading every cube from each of its 2^k corners."""
    n = ws.n_walls()
    out = []
    used_cubes = set()
    for fam in sorted(wd._transverse_families(ws), key=sorted):
        walls = sorted(fam)
        cubes = set()
        for s, fl in ws.flips.items():
            if fam <= set(fl):
                corners = list(wd._cube_corners(s, walls))
                if all(t in ws.flips for t in corners):
                    cubes.add(frozenset(wd._vertex_id(n, t)
                                        for t in corners))
        cubes = {c for c in cubes if c not in used_cubes}
        if len(cubes) != 1:
            raise AssertionError(
                f"family {walls} supports {len(cubes)} maximal cubes")
        used_cubes |= cubes
        out.append((tuple(walls), sorted(next(iter(cubes)))))
    return out


@settings(max_examples=150, deadline=None)
@given(wallspaces())
def test_maximal_cubes_match_every_corner_oracle(ws):
    try:
        want = maximal_cubes_oracle(ws)
    except AssertionError:
        with pytest.raises(AssertionError):
            wd.maximal_cubes(ws)
        return
    assert wd.maximal_cubes(ws) == want


def test_sageev_roundtrip_ball_k2():
    ball = rg.ball_X(gc.k2(), 2)
    ws = wd.hyperplane_wallspace(ball, margin=1)
    dual = wd.dual_cube_complex(ws)
    span = ball.span([v for v in ball.vertex_ids if ball.depth[v] >= 1])
    iso = cc.labeled_isomorphism(dual, span)
    assert iso is not None


def test_sageev_roundtrip_ball_c5():
    ball = rg.ball_X(gc.pentagon(), 2)
    ws = wd.hyperplane_wallspace(ball, margin=1)
    dual = wd.dual_cube_complex(ws)
    span = ball.span([v for v in ball.vertex_ids if ball.depth[v] >= 1])
    iso = cc.labeled_isomorphism(dual, span)
    assert iso is not None


def test_sageev_roundtrip_past_the_recursion_limit():
    # a search that recursed once per vertex raised RecursionError from
    # about 1,000 vertices
    ball = rg.ball_X(gc.k2(), 24)
    dual = wd.dual_cube_complex(wd.hyperplane_wallspace(ball, margin=1))
    span = ball.span([v for v in ball.vertex_ids if ball.depth[v] >= 1])
    assert len(dual.vertex_ids) == 1105
    assert cc.labeled_isomorphism(dual, span) is not None


def tip_list(bl):
    """The tips of a branched line: (m, tip id) per whisker, or (m, None)
    for a base point without whiskers, in base order."""
    out = []
    for m in range(bl.window[0], bl.window[1] + 1):
        ts = bl.tips.get(m, ())
        if ts:
            out.extend((m, t) for t in ts)
        else:
            out.append((m, None))
    return out


def wall_sides_on_tips(bl):
    """Walls of the tip set from the edges of the branched line.

    Line edge (m, m+1) separates tips by base <= m; a whisker edge cuts
    off its single tip.  Returns a list of (tag, side set of tips).
    """
    tips = tip_list(bl)
    walls = []
    lo, hi = bl.window
    for m in range(lo, hi):
        side = frozenset(t for t in tips if t[0] <= m)
        walls.append((("cut", m), side))
    for m, t in tips:
        if t is not None:
            walls.append((("tip", m, t), frozenset([(m, t)])))
    return walls


def as_complex(bl):
    """The branched line as a cube complex: a line of base points with one
    whisker edge per tip."""
    lo, hi = bl.window
    verts = [("b", m) for m in range(lo, hi + 1)]
    edges = [(("b", m), ("b", m + 1), "line") for m in range(lo, hi)]
    for m in range(lo, hi + 1):
        for t in bl.tips.get(m, ()):
            verts.append(("t", m, t))
            edges.append((("b", m), ("t", m, t), "whisker"))
    depth = {v: (min(v[1] - lo, hi - v[1]) + 1 if v[0] == "b"
                 else min(v[1] - lo, hi - v[1])) for v in verts}
    return cc.CubeComplexBall.make(verts, edges, [], depth)


def test_branched_line():
    bl = wd.BranchedLine((-2, 2), {0: ("p", "q"), 1: ("r",)})
    assert bl.branching_number() == 4
    tips = tip_list(bl)
    assert (0, "p") in tips and (-2, None) in tips
    cx = as_complex(bl)
    assert cx.validate()
    walls = wall_sides_on_tips(bl)
    cut0 = next(s for tag, s in walls if tag == ("cut", 0))
    assert (1, "r") not in cut0 and (0, "p") in cut0


def line_isometry_oracle(pairs):
    """Brute force: the first sign and offset through the least and the
    greatest pair, or through the least pair alone when every a agrees."""
    (a1, b1), (a2, b2) = min(pairs), max(pairs)
    ends = [(a1, b1)] if a1 == a2 else [(a1, b1), (a2, b2)]
    fits = [(s, o) for s in (1, -1) for o in range(-40, 41)
            if all(s * a + o == b for a, b in ends)]
    return fits[0] if fits else None


isometry_pairs = st.builds(
    lambda s, o, xs: [(x, s * x + o) for x in xs],
    st.sampled_from((1, -1)), st.integers(-10, 10),
    st.lists(st.integers(-10, 10), min_size=1, max_size=6))
any_pairs = st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                     min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(isometry_pairs, any_pairs))
def test_line_isometry_matches_oracle(pairs):
    iso = sc.line_isometry(pairs)
    assert iso == line_isometry_oracle(pairs)
    # pairs on one isometry, with two values of a, give back that isometry
    fits = [(s, o) for s in (1, -1) for o in range(-40, 41)
            if all(s * a + o == b for a, b in pairs)]
    if len({a for a, _ in pairs}) >= 2 and fits:
        assert [iso] == fits


def test_wallspace_point_index_is_derived():
    ws = wd.Wallspace.make(["p", "q"], [["p"]])
    assert ws == wd.Wallspace(("p", "q"), [1], [0])
    with pytest.raises(TypeError):
        wd.Wallspace(("p", "q"), [1], [0], {"p": 1, "q": 0})


def test_branched_line_of_block_map():
    bl = wd.BranchedLine.of_block_map({-2: 0, -1: 0, 0: -1, 1: 1, 2: -1})
    assert bl.window == (-1, 1)
    # blocks keyed in order of first appearance, tips sorted
    assert list(bl.tips.items()) == [(0, (-2, -1)), (-1, (0, 2))]


def line_resolutions(g):
    """Identity block maps for every class through the identity."""
    return {rg.class_of_geodesic(g, (), v).id: {n: n for n in range(-12, 13)}
            for v in g.vertices}


def trivial_action(g, radius):
    pts = wd.group_ball(g, radius)
    t = {p: p for p in pts}
    return ActionTables({"e": t}, {"e": "e"})


def span_of_domain(g, iws, ambient_radius):
    ball = rg.ball_X(g, ambient_radius)
    ids = [rg.word_str(p) for p in iws.domain]
    return ball.span(ids)


def direction_labeled_dual(iws):
    """The dual with each edge relabeled by its wall's class direction."""
    dual = wd.dual_cube_complex(iws.wallspace)
    tag_dir = {str(tag): iws.classes[tag[0]].direction
               for tag in iws.wallspace.tags}
    return relabel_edges(dual, lambda lab: tag_dir[lab])


def test_invariant_wallspace_trivial_action_k2():
    g = gc.k2()
    iws = wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                 wall_window=1)
    dual = direction_labeled_dual(iws)
    # the dual reproduces the span of the height-box hull (a 3x3 grid patch)
    span = span_of_domain(g, iws, 3)
    assert len(iws.domain) == 9
    assert cc.labeled_isomorphism(dual, span) is not None


def test_invariant_wallspace_short_resolution_raises_truncation():
    # the band -1..1 needs heights the {0: 0} resolutions do not have
    g = gc.k2()
    res = {rg.class_of_geodesic(g, (), v).id: {0: 0} for v in g.vertices}
    with pytest.raises(cc.TruncationError, match="no height -1"):
        wd.invariant_wallspace(g, trivial_action(g, 4), res, wall_window=1)


def test_invariant_wallspace_non_isometric_resolution_raises():
    # identity block maps are not moved by isometries under the swapping
    # generator of the two-flipping action, so no cut wall may be moved
    g = gc.single_vertex()
    res = {rg.class_of_geodesic(g, (), "v").id:
           {n: n for n in range(-16, 17)}}
    with pytest.raises(sc.ActionError, match="by an isometry"):
        wd.invariant_wallspace(g, two_flipping_action(16), res,
                               wall_window=3, points_radius=8)


def branched_flat_embed(iws, class_ids):
    """Embed the dual of the walls tagged by a maximal flat's classes.

    Walls outside the family are oriented to the side containing the flat's
    vertex set; the embedding of 0-cubes is asserted consistent, and its
    image convex in the full dual.
    """
    ws = iws.wallspace
    dual = wd.dual_cube_complex(ws)
    sel = [i for i in range(ws.n_walls()) if ws.tags[i][0] in class_ids]
    if not sel:
        raise ValueError("no walls carry the requested classes")
    flat_pts = flat_points(iws, class_ids)
    if not flat_pts:
        raise ValueError("flat does not meet the window")
    flat_states = [ws.point_state(p) for p in flat_pts]
    inside = functools.reduce(operator.and_, flat_states)
    touched = functools.reduce(operator.or_, flat_states)
    fixed = 0
    for i in range(ws.n_walls()):
        if i in sel:
            continue
        if inside >> i & 1:
            fixed |= 1 << i
        elif touched >> i & 1:
            raise AssertionError(
                f"flat is split by outside wall {ws.tags[i]}")
    sub = wd.Wallspace([p for p in ws.points],
                       [ws.sides[i] for i in sel], [ws.tags[i] for i in sel])
    sub_dual = wd.dual_cube_complex(sub)
    embedded = set()
    for s in sub.flips:
        target = fixed | sum(1 << i for k, i in enumerate(sel) if s >> k & 1)
        if target not in ws.flips:
            raise AssertionError("embedded orientation is not a 0-cube")
        embedded.add(wd._vertex_id(ws.n_walls(), target))
    if not cc.is_convex(dual, [dual._index[v] for v in embedded]):
        raise AssertionError("embedded branched flat is not convex")
    return sub_dual, embedded, dual




def flat_points(iws, class_ids):
    """Window vertices of the standard flat spanned by the given classes."""
    g = iws.graph
    pcs = [iws.classes[cid] for cid in class_ids]
    pts = []
    for p in iws.wallspace.points:
        ok = True
        for pc in pcs:
            if not coset_member(g, p, pc.rep, g._star[pc.direction]):
                ok = False
                break
        if not ok:
            continue
        # p lies in every parallel-set; the flat itself is the intersection
        # of the class cosets in the directions of the classes
        pts.append(p)
    if not pts:
        return pts
    base = min(pts, key=len)
    dirs = tuple(sorted({pc.direction for pc in pcs}, key=g.index))
    return [p for p in pts if coset_member(g, p, base, dirs)]


def test_invariant_wallspace_translations_c5():
    g = gc.pentagon()
    act = left_translation_action(g, wd.group_ball(g, 3), (("a", 1),))
    iws = wd.invariant_wallspace(g, act, line_resolutions(g), wall_window=1)
    # translations stabilize every through-identity class: the banded wall
    # set is already closed, and no rim artifacts appear
    assert all(len(t) == 3 for t in iws.wallspace.tags)
    dual = wd.dual_cube_complex(iws.wallspace)
    # dimension of the dual = max clique size of the pentagon
    assert wd.dual_dimension(iws.wallspace) == 2
    # the through-identity {a,b}-flat embeds as a grid patch
    ca = rg.class_of_geodesic(g, (), "a").id
    cb = rg.class_of_geodesic(g, (), "b").id
    sub_dual, embedded, _ = branched_flat_embed(iws, [ca, cb])
    assert len(sub_dual.squares) > 0


def point_heights(levels, n):
    """The height of each of n points, from a class's levels."""
    hs = [None] * n
    for h, mask in levels.items():
        for i, bit in enumerate(reversed(f"{mask:0{n}b}")):
            if bit == "1":
                hs[i] = h
    return hs


def levels_partition(levels, full):
    """The levels are disjoint and cover every point: their sum carries
    nowhere and equals their OR."""
    return sum(levels.values()) == \
        functools.reduce(operator.or_, levels.values(), 0) == full


@settings(max_examples=40, deadline=None)
@given(defining_graphs())
def test_levels_partition_the_points_by_class_height(g):
    iws = wd.invariant_wallspace(g, trivial_action(g, 2), line_resolutions(g),
                                 points_radius=2)
    points = iws.wallspace.points
    assert set(iws.levels) == set(iws.classes)
    for cid, lv in iws.levels.items():
        assert levels_partition(lv, iws.wallspace.full_mask), cid
        hs = rg.class_heights(g, iws.classes[cid], points)
        assert point_heights(lv, len(points)) == list(hs.values()), cid


def test_invariant_wallspace_heights_once_per_class(monkeypatch):
    # the closure meets the four classes c@a, d@a, c@a^-1 and d@a^-1 from
    # several walls; their block maps fail each time, but each class, kept
    # or not, computes one height, that of the empty word: every other
    # point of the group ball inherits its prefix's height
    g = gc.pentagon()
    calls = collections.Counter()
    height_of = rg.height_of

    def counting(g_, pc, p):
        calls[pc.id, p] += 1
        return height_of(g_, pc, p)

    monkeypatch.setattr(rg, "height_of", counting)
    act = left_translation_action(g, wd.group_ball(g, 3), (("a", 1),))
    iws = wd.invariant_wallspace(g, act, line_resolutions(g), wall_window=1)
    rejected = {"c@a", "d@a", "c@a^-1", "d@a^-1"}
    assert calls == {(cid, ()): 1 for cid in set(iws.classes) | rejected}
    assert set(iws.levels) == set(iws.classes)
    assert all(levels_partition(lv, iws.wallspace.full_mask)
               for lv in iws.levels.values())


def test_transversality_k2():
    g = gc.k2()
    iws = wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                 wall_window=1)
    ws = iws.wallspace
    u_walls = [i for i in range(ws.n_walls())
               if iws.classes[ws.tags[i][0]].direction == "u"]
    v_walls = [i for i in range(ws.n_walls())
               if iws.classes[ws.tags[i][0]].direction == "v"]
    for i in u_walls:
        for j in v_walls:
            assert wd.transversality(iws, i, j) is True
    assert wd.transversality(iws, u_walls[0], u_walls[1]) is False


def test_transversality_pentagon_exhaustive():
    g = gc.pentagon()
    iws = wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                 wall_window=1)
    ws = iws.wallspace
    import itertools as it

    for i, j in it.combinations(range(ws.n_walls()), 2):
        got = wd.transversality(iws, i, j)   # asserts the lemma internally
        d1 = iws.classes[ws.tags[i][0]].direction
        d2 = iws.classes[ws.tags[j][0]].direction
        assert got == (d1 != d2 and g.adjacent(d1, d2))


def test_branched_flat_embed_k2():
    g = gc.k2()
    iws = wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                 wall_window=1)
    cu = rg.class_of_geodesic(g, (), "u").id
    cv = rg.class_of_geodesic(g, (), "v").id
    sub_dual, embedded, dual = branched_flat_embed(iws, [cu, cv])
    # the unique maximal flat of K2 fills the entire dual ball
    assert len(embedded) == len(dual.vertex_ids)


def test_branched_flat_embed_pentagon():
    g = gc.pentagon()
    iws = wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                 wall_window=1)
    ca = rg.class_of_geodesic(g, (), "a").id
    cb = rg.class_of_geodesic(g, (), "b").id
    sub_dual, embedded, dual = branched_flat_embed(iws, [ca, cb])
    assert cc.is_convex(dual, [dual._index[v] for v in embedded])
    assert len(embedded) < len(dual.vertex_ids)
    # product structure: the sub-dual is a 2-dimensional grid patch
    assert len(sub_dual.squares) > 0


def test_flats_with_disjoint_windows_are_separated():
    g = gc.pentagon()
    iws = wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                 wall_window=1)
    ca = rg.class_of_geodesic(g, (), "a").id
    cb = rg.class_of_geodesic(g, (), "b").id
    ccd = rg.class_of_geodesic(g, (), "c").id
    cd = rg.class_of_geodesic(g, (), "d").id
    _, emb1, dual = branched_flat_embed(iws, [ca, cb])
    _, emb2, _ = branched_flat_embed(iws, [ccd, cd])
    assert emb1 != emb2


def test_phi_map_identity_embedding():
    g = gc.k2()
    iws = wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                 wall_window=1)
    vmap, rep = wd.phi_map(iws)
    assert len(set(vmap.values())) == len(iws.domain)
    assert rep["density"] == 0


def test_phi_map_two_flipping_class():
    # the single class resolved by the 2-flipping block map: phi injective
    g = gc.single_vertex()
    res = {rg.class_of_geodesic(g, (), "v").id:
           {n: n // 2 for n in range(-12, 13)}}
    iws = wd.invariant_wallspace(g, trivial_action(g, 8), res, wall_window=3,
                                 points_radius=8)
    vmap, rep = wd.phi_map(iws)
    assert len(set(vmap.values())) == len(iws.domain)
    # the dual is a branched line with paired whiskers
    dual = wd.dual_cube_complex(iws.wallspace)
    deg3 = [v for v in dual.vertex_ids if len(dual.neighbors(v)) >= 3]
    assert deg3
    # collapsing pairs stretches distances by at most 2 additively
    assert rep["additive"] <= 2


def test_k_walls_membership():
    # walls of a standard subcomplex: v-walls separate its window vertices
    # iff the class belongs to the subcomplex's simplex of classes
    g = gc.pentagon()
    iws = wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                 wall_window=1)
    ws = iws.wallspace
    ca = rg.class_of_geodesic(g, (), "a").id
    cb = rg.class_of_geodesic(g, (), "b").id
    flat_pts = set(flat_points(iws, [ca, cb]))
    assert flat_pts
    for i in range(ws.n_walls()):
        side = {p for k, p in enumerate(ws.points) if ws.sides[i] >> k & 1}
        separates = bool(flat_pts & side) and bool(flat_pts - side)
        in_family = ws.tags[i][0] in (ca, cb)
        assert separates == in_family, ws.tags[i]


def test_zero_cube_type():
    ws = wd.Wallspace.make(["a", "b", "c"], [["a"], ["b"], ["c"]])
    for s in ws.flips:
        assert zero_cube_of_state(ws, s).consistent(ws)
    # the all-stored-sides orientation of the tripod is inconsistent
    assert not ZeroCube((1, 1, 1)).consistent(ws)


def test_single_class_dual_is_branched_line():
    # the dual of one class's walls is that class's branched line
    g = gc.single_vertex()
    res = {rg.class_of_geodesic(g, (), "v").id:
           {n: n // 2 for n in range(-12, 13)}}
    iws = wd.invariant_wallspace(g, trivial_action(g, 8), res, wall_window=3,
                                 points_radius=8)
    dual = wd.dual_cube_complex(iws.wallspace)
    cid = next(iter(iws.branched_lines))
    model = as_complex(iws.branched_lines[cid])
    # compare unlabeled shapes: same vertex/edge counts and degree profile
    assert len(dual.vertex_ids) == len(model.vertex_ids)
    assert len(dual.edges) == len(model.edges)
    prof = sorted(len(dual.neighbors(v)) for v in dual.vertex_ids)
    prof_m = sorted(len(model.neighbors(v)) for v in model.vertex_ids)
    assert prof == prof_m


# -- byte-identity pins ----------------------------------------------------

def iws_digest(iws):
    """SHA-256 of everything invariant_wallspace returns, in its order."""
    ws = iws.wallspace
    body = json.dumps({
        "points": [rg.word_str(p) for p in ws.points],
        "sides": ws.sides,
        "tags": ws.tags,
        "classes": [[cid, pc.direction, rg.word_str(pc.rep)]
                    for cid, pc in iws.classes.items()],
        "heights": [[cid, [[rg.word_str(p), h] for p, h in
                           zip(ws.points, point_heights(lv, len(ws.points)))]]
                    for cid, lv in iws.levels.items()],
        "block_maps": [[cid, list(f.items())]
                       for cid, f in iws.block_maps.items()],
        "branched_lines": [[cid, bl.window, list(bl.tips.items())]
                           for cid, bl in iws.branched_lines.items()],
        "domain": [rg.word_str(p) for p in iws.domain],
    })
    return hashlib.sha256(body.encode()).hexdigest()


def iws_case(name):
    """Configurations whose action closure transports cut walls (translation
    by a on the pentagon), tip walls (the two-flipping action) or nothing
    (criterion 11's C5 wallspace, and the same classes on the points ball
    of radius 4)."""
    g = gc.pentagon()
    if name.startswith("c5_translation_r"):
        radius = int(name[-1])
        act = left_translation_action(g, wd.group_ball(g, radius),
                                      (("a", 1),))
        return wd.invariant_wallspace(g, act, line_resolutions(g),
                                      wall_window=1)
    if name == "two_flipping":
        sv = gc.single_vertex()
        res = {rg.class_of_geodesic(sv, (), "v").id:
               {n: n // 2 for n in range(-16, 17)}}
        return wd.invariant_wallspace(sv, two_flipping_action(16), res,
                                      wall_window=3, points_radius=8)
    res = {}
    for p in wd.group_ball(g, 2):
        for v in g.vertices:
            res.setdefault(rg.class_of_geodesic(g, p, v).id,
                           {n: n for n in range(-12, 13)})
    radius = 4 if name == "c5_reach2_r4" else 3
    return wd.invariant_wallspace(g, trivial_action(g, radius), res,
                                  wall_window=1, class_reach=2,
                                  points_radius=radius)


# computed before the closure was rebuilt on one block map and one class
# transport; (digest, walls, classes)
GOLDEN_IWS = {
    "c5_translation_r3": (
        "59ab9f4e9d142b310aa7d2f09c3e5c5e562c31d3b644e5afa19e22efc8b3f87d",
        10, 5),
    "c5_translation_r4": (
        "87c1955a0c134bc9bfe593b0ee2b7410ae11f868f53f9ef1d3fcb7a55ab08544",
        34, 17),
    "two_flipping": (
        "c4f329d023c2d123a729b0b84488a2c02dc3a54dda5df82e5bd972519212a908",
        10, 1),
    "criterion_11_c5": (
        "4596bb87545e563591cc1edde2468a6f3b775ea13a3d45c670cce76275ec9afc",
        290, 145),
    # computed before heights were inherited along word prefixes
    "c5_reach2_r4": (
        "a5620ab863c35386dcf162a0cfb013019fb21b5e7a00f5ee5708f9ee19c90beb",
        290, 145),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_IWS))
def test_golden_invariant_wallspace(name):
    iws = iws_case(name)
    assert (iws_digest(iws), iws.wallspace.n_walls(), len(iws.classes)) == \
        GOLDEN_IWS[name]


# criterion 11's wallspaces: (density, |domain|, SHA-256 of the vmap items)
GOLDEN_PHI = {
    "k2": (0, 9,
           "ed3ca8a3b449d280a61f54dcbebb0134bff735eed569eaca457ef11588099e94"),
    "criterion_11_c5": (
        1, 391,
        "7714cbf9278cbc0f58a864aceea7fc240b1f68f89edaed4526eff22f3c174aeb"),
}


def phi_case(name):
    """The `iws_case` configurations, and criterion 11's K2 wallspace."""
    if name != "k2":
        return iws_case(name)
    g = gc.k2()
    return wd.invariant_wallspace(g, trivial_action(g, 4), line_resolutions(g),
                                  wall_window=1)


@pytest.mark.parametrize("name", sorted(GOLDEN_PHI))
def test_golden_phi_map(name):
    iws = phi_case(name)
    vmap, rep = wd.phi_map(iws)
    body = json.dumps([[rg.word_str(p), v] for p, v in vmap.items()])
    assert (rep["density"], len(vmap),
            hashlib.sha256(body.encode()).hexdigest()) == GOLDEN_PHI[name]


def phi_map_oracle(iws):
    """Oracle: `phi_map` on the assembled dual complex, each point's vertex
    looked up among its vertex ids and each sampled distance read from it."""
    ws = iws.wallspace
    dual = wd.dual_cube_complex(ws)
    vertices = set(dual.vertex_ids)
    vmap = {}
    for p in iws.domain:
        v = wd._vertex_id(ws.n_walls(), ws.point_state(p))
        if v not in vertices:
            raise KeyError(f"point {p!r} realizes an unseen orientation")
        vmap[p] = v
    if len(set(vmap.values())) != len(vmap):
        raise AssertionError("phi is not injective on the window")
    dist = cc.bfs_ball(
        vmap.values(),
        lambda x: [(lab, y) for y, lab in dual.neighbors(x).items()],
        len(dual.vertex_ids))
    density = max(dist.values()) if dist else 0
    worst = 1.0
    additive = 0
    pts = list(iws.domain)[:12]
    for a in pts:
        for b in pts:
            if a == b:
                continue
            dw = len(rg.mul(iws.graph, rg.inv(a), b))
            dc = dual.distance(vmap[a], vmap[b])
            if dw and dc:
                worst = max(worst, dw / dc, dc / dw)
            additive = max(additive, abs(dc - dw))
    return vmap, {"density": density, "distortion": worst,
                  "additive": additive}


@pytest.mark.parametrize("name", sorted(GOLDEN_IWS) + ["k2"])
def test_phi_map_matches_the_dual_complex_oracle(name):
    iws = phi_case(name)
    try:
        want_vmap, want_rep = phi_map_oracle(iws)
    except (KeyError, AssertionError) as exc:
        with pytest.raises(type(exc)) as got:
            wd.phi_map(iws)
        assert str(got.value) == str(exc)
        return
    vmap, rep = wd.phi_map(iws)
    assert list(vmap.items()) == list(want_vmap.items())
    assert rep == want_rep
