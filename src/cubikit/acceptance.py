"""The property-based acceptance suite, one callable per criterion.

Every check pins a structural fact of the constructions and runs at desk
scale with fixed tolerances.  Each criterion returns a deterministic
result; `cubikit verify all` runs them in the order of `CRITERIA`.
"""

from __future__ import annotations

import itertools
import random
import time

from . import blowup as bu
from . import building as bd
from . import cube_complex as cc
from . import graph_core as gc
from . import raag_geometry as rg
from . import semiconjugacy as sc
from . import wallspace_dual as wd

# sample sizes of the random criteria 2, 4 and 7
RQ_INSTANCES = 100
DUAL_TRIALS = 40
ONE_DATA_PER_GRAPH = 50


def _graph_fixtures():
    return {
        "k2": gc.k2(),
        "c5": gc.pentagon(),
        "p3": gc.path3(),
        "discrete2": gc.discrete(2),
        "single": gc.single_vertex(),
    }


def _result(name, ok, witness):
    return {"name": name, "status": "pass" if ok else "fail",
            "witness": witness}


# -- 1: flag links ----------------------------------------------------------

def criterion_flag_links(seed=0, graphs=None):
    fixtures = _graph_fixtures()
    wanted = graphs or ["k2", "c5", "p3", "discrete2"]
    failures = []
    for key in wanted:
        g = fixtures[key]
        for radius in (2, 3):
            for builder, tag in ((rg.ball_X, "X"), (rg.ball_Xe, "Xe")):
                t0 = time.time()
                ball = builder(g, radius)
                rep = cc.check_flag_links(ball)
                dt = time.time() - t0
                if not rep["ok"] or dt > 10:
                    failures.append((key, tag, radius, rep["failures"][:2],
                                     f"over budget={dt > 10}"))
    return _result("1 flag-link suite", not failures,
                   f"failures={failures}" if failures else
                   "all interior links flag at radius <= 3")


# -- 2: restriction quotient characterization ---------------------------------

def criterion_rq_characterization(seed=0):
    rng = random.Random(seed)
    pool = [gc.k2(), gc.path3(), gc.discrete(2), gc.square4()]
    bad = []
    t0 = time.time()
    done = 0
    while done < RQ_INSTANCES:
        g = rng.choice(pool)
        ball = rg.ball_X(g, 2)
        hps = [h for h in cc.hyperplanes(ball) if not h.truncated]
        if not hps:
            continue
        k = rng.randint(0, len(hps))
        K = rng.sample(hps, k)
        q = cc.restriction_quotient(ball, K)
        rep = cc.verify_rq_characterization(q.map, samples=8,
                                            seed=rng.randint(0, 999))
        if not rep["all_true"]:
            bad.append((tuple(g.vertices), k, rep["conditions"]))
        done += 1
    # the adapted folding counterexample: all five false together
    fold = _fold_map()
    frep = cc.verify_rq_characterization(fold, samples=8, seed=seed)
    fold_ok = frep["all_false"] and frep["conditions"][0] is False \
        and frep["conditions"][3] is False
    dt = time.time() - t0
    ok = not bad and fold_ok and dt <= 60
    return _result(
        "2 restriction-quotient equivalence",
        ok,
        f"{done} constructed instances all-true={not bad}; "
        f"fold all-false={fold_ok}; within budget={dt <= 60}")


def _fold_map():
    verts = [(i, j) for i in range(4) for j in range(2)]
    edges = []
    for i, j in verts:
        if i < 3:
            edges.append(((i, j), (i + 1, j), "u"))
        if j < 1:
            edges.append(((i, j), (i, j + 1), "v"))
    squares = [((i, 0), (i + 1, 0), (i + 1, 1), (i, 1)) for i in range(3)]
    src = cc.CubeComplexBall.make(verts, edges, squares, None)
    tgt = cc.CubeComplexBall.make(
        ["p0", "p1", "p2"], [("p0", "p1", "e"), ("p1", "p2", "e")], [], None)
    fold = [0, 1, 2, 1]
    vmap = {(i, j): f"p{fold[i]}" for i in range(4) for j in range(2)}
    return cc.CubicalMap(vmap, src, tgt)


# -- 3: Sageev round-trip -----------------------------------------------------

def criterion_sageev_roundtrip(seed=0, graphs=None):
    fixtures = _graph_fixtures()
    wanted = graphs or ["k2", "c5"]
    t0 = time.time()
    failures = []
    for key in wanted:
        ball = rg.ball_X(fixtures[key], 2)
        ws = wd.hyperplane_wallspace(ball, margin=1)
        dual = wd.dual_cube_complex(ws)
        span = ball.span([v for v in ball.vertex_ids if ball.depth[v] >= 1])
        if cc.labeled_isomorphism(dual, span) is None:
            failures.append(key)
    dt = time.time() - t0
    return _result("3 Sageev round-trip", not failures and dt <= 60,
                   f"failures={failures}" if failures
                   else f"duals match interior spans; within budget={dt <= 60}")


# -- 4: dimension and maximal cubes -------------------------------------------

def criterion_dual_dimension(seed=0):
    rng = random.Random(seed)
    checked = 0
    for _ in range(DUAL_TRIALS):
        npts = rng.randint(3, 8)
        pts = list(range(npts))
        walls, seen = [], set()
        for _ in range(rng.randint(1, 12)):
            side = frozenset(p for p in pts if rng.random() < 0.5)
            if not side or len(side) == npts:
                continue
            key = min(side, frozenset(pts) - side, key=sorted)
            if key in seen:
                continue
            seen.add(key)
            walls.append(side)
        if not walls or len(walls) > 12:
            continue
        ws = wd.Wallspace.make(pts, walls)
        # brute-force 0-cube oracle
        oracle = _all_consistent(ws)
        dual = wd.dual_cube_complex(ws)
        if len(dual.vertex_ids) != len(oracle):
            return _result("4 dual dimension / maximal cubes", False,
                           f"0-cube count mismatch on trial {checked}")
        wd.dual_dimension(ws)    # the largest of ws.maximal_cubes
        wd.maximal_cubes(ws)     # asserts the bijection internally
        checked += 1
    return _result("4 dual dimension / maximal cubes", checked > 0,
                   f"{checked} random wallspaces verified")


def _all_consistent(ws):
    n = ws.n_walls()
    out = []
    for bits in range(1 << n):
        ok = True
        for i in range(n):
            si = ws.sides[i] if bits >> i & 1 else ws.full_mask ^ ws.sides[i]
            for j in range(i + 1, n):
                sj = ws.sides[j] if bits >> j & 1 else \
                    ws.full_mask ^ ws.sides[j]
                if not si & sj:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(bits)
    return out


# -- 5: Davis metric relation --------------------------------------------------

def criterion_davis_metric(seed=0, graphs=None):
    cases = {"k2": (gc.k2(), 6, 2), "c5": (gc.pentagon(), 4, 1)}
    wanted = graphs or ["k2", "c5"]
    bad = []
    pairs = 0
    for key in wanted:
        g, davis_radius, chamber_norm = cases[key]
        db = bd.davis_ball(g, davis_radius)
        chambers = [db.residue_of[v].base for v in db.chambers()
                    if len(db.residue_of[v].base) <= chamber_norm]
        extra = [db.residue_of[v].base for v in db.chambers()
                 if len(db.residue_of[v].base) == 3]
        for c1 in chambers:
            for c2 in chambers + extra[:20]:
                d = bd.gallery_distance(g, c1, c2)
                if not 1 <= d <= 3:
                    continue
                id1 = bd.residue(g, c1, ()).id
                id2 = bd.residue(g, c2, ()).id
                if db.ball.distance(id1, id2) != 2 * d:
                    bad.append((key, rg.word_str(c1), rg.word_str(c2), d))
                pairs += 1
    note = ("d_l1 = 2*gallery (orientation pinned by the one-generator case: "
            "adjacent chambers have gallery distance 1, realization "
            "distance 2)")
    return _result("5 Davis metric relation", not bad and pairs > 50,
                   f"{pairs} pairs; {note}" if not bad else f"bad={bad[:3]}")


# -- 6: bijective blow-up isomorphism ------------------------------------------

def criterion_bijective_blowup(seed=0, graphs=None):
    cases = {
        "single": (gc.single_vertex(), 4, 4, 4),
        "k2": (gc.k2(), 3, 3, 4),
        "c5": (gc.pentagon(), 2, 3, 4),
    }
    wanted = graphs or ["single", "k2", "c5"]
    t0 = time.time()
    failures = []
    for key in wanted:
        g, davis_radius, window, xe_radius = cases[key]
        davis = bd.davis_ball(g, davis_radius)
        data = bu.bijective_data(g, davis, window)
        bc = bu.blowup_complex(bu.build_fiber_functor(data, davis))
        xe = rg.ball_Xe(g, xe_radius)
        if _compare_blowup_with_xe(bc, xe, r=2) is None:
            failures.append(key)
    dt = time.time() - t0
    return _result("6 bijective blow-up isomorphism",
                   not failures and dt <= 30,
                   f"failures={failures}" if failures
                   else "label-preserving isomorphisms found; "
                        f"within budget={dt <= 30}")


def _compare_blowup_with_xe(bc, xe, r):
    base_y = next(yv for yv in bc.Y.vertex_ids
                  if bc.rank(yv) == 0 and
                  bc.davis.residue_of[bc.vertex_info[yv][0]].base == ())
    base_x = next(v for v in xe.vertex_ids if rg.parse_xe_id(v) == ((), ()))
    sub_y = bc.Y.span(bc.Y.ball_around(base_y, r))
    sub_x = xe.span(xe.ball_around(base_x, r))

    def ylab(yv):
        return ",".join(bc.clique_label(yv))

    def xlab(vid):
        return ",".join(rg.parse_xe_id(vid)[1])

    return cc.labeled_isomorphism(sub_y, sub_x, ylab, xlab,
                                  fix=[(base_y, base_x)])


# -- 7: one_data round trip ----------------------------------------------------

def criterion_one_data_roundtrip(seed=0):
    rng = random.Random(seed)
    bad = 0
    total = 0
    for g, davis_radius, window in ((gc.single_vertex(), 3, 3),
                                    (gc.k2(), 2, 2)):
        davis = bd.davis_ball(g, davis_radius)
        for _ in range(ONE_DATA_PER_GRAPH):
            offs = {}

            def fn(pc, n, _rng=rng, _offs=offs):
                key = (pc.id, n)
                if key not in _offs:
                    _offs[key] = _rng.randint(-window, window)
                return _offs[key]

            data = bu.data_from_function(g, davis, window, fn)
            try:
                psi = bu.build_fiber_functor(data, davis)
                bc = bu.blowup_complex(psi)
            except AssertionError:
                bad += 1
                continue
            back = bu.one_data(bc)
            for cid, t in back.tables.items():
                for n, v in t.items():
                    if n in data.tables[cid] and data.tables[cid][n] != v:
                        bad += 1
            total += 1
    return _result("7 one_data round trip",
                   bad == 0 and total >= 2 * ONE_DATA_PER_GRAPH,
                   f"{total} random data sets round-tripped exactly")


# -- 8: quasi-isometry criterion instrumentation -------------------------------

def criterion_qi_instrumentation(seed=0):
    g = gc.k2()
    davis = bd.davis_ball(g, 8)
    data = bu.data_from_function(g, davis, window=8, fn=lambda pc, n: n // 2)
    report = bu.local_finiteness_report(data)
    shape_ok = report == {"max_preimage": 2, "density": 0}
    bc = bu.blowup_complex(bu.build_fiber_functor(data, davis))
    chambers = [v for v in davis.chambers()]
    rng = random.Random(seed)
    rng.shuffle(chambers)
    worst = []
    for cid1 in chambers[:16]:
        y1 = bu.y_id(cid1, ())
        dist = bc.Y.bfs_from(y1)
        for cid2 in chambers[:16]:
            if cid1 >= cid2:
                continue
            c1 = davis.residue_of[cid1].base
            c2 = davis.residue_of[cid2].base
            dw = len(rg.mul(g, rg.inv(c1), c2))
            dy = dist[bu.y_id(cid2, ())]
            if dy > 4 * dw + 4 or dw > 4 * dy + 4:
                worst.append((rg.word_str(c1), rg.word_str(c2), dw, dy))
    ok = shape_ok and not worst
    return _result("8 quasi-isometry criterion instrumentation", ok,
                   f"report={report}; distortion within (4,4) on the window"
                   if ok else f"report={report}; violations={worst[:3]}")


# -- 9: semiconjugacy of the 2-flipping action ----------------------------------

def criterion_semiconjugacy(seed=0):
    t0 = time.time()
    spec = sc.two_flipping_spec(64)
    res = sc.semiconjugate(spec, B=8, radius=6)
    interior = sorted(res.tip_map)      # the collapse interior
    margin = max(interior) - 4
    fibers = {}
    for x in interior:
        fibers.setdefault(res.block_map[x], []).append(x)
    inner_blocks = [m for m, xs in fibers.items()
                    if all(abs(x) <= margin for x in xs)]
    fiber_ok = all(len(fibers[m]) == 2 for m in inner_blocks)
    pairing_ok = all(sorted(fibers[m])[1] == sorted(fibers[m])[0] + 1
                     and sorted(fibers[m])[0] % 2 == 0
                     for m in inner_blocks)
    a_ok = res.isometric_action["a"] == (1, 0)
    sb, ob = res.isometric_action["b"]
    b_ok = sb == 1 and abs(ob) == 1
    # block map equals floor(n/2) up to a line isometry
    sample = [x for x in interior if abs(x) <= margin]
    pairs = [(x // 2, res.block_map[x]) for x in sample]
    iso = sc.line_isometry(pairs)
    iso_ok = iso is not None and all(iso[0] * a + iso[1] == b
                                     for a, b in pairs)
    dt = time.time() - t0
    ok = fiber_ok and pairing_ok and a_ok and b_ok and iso_ok and dt <= 120
    return _result(
        "9 semiconjugacy (2-flipping)", ok,
        f"fibers=2 {fiber_ok}, pairing {pairing_ok}, a identity {a_ok}, "
        f"b translation {b_ok}, f=floor(n/2) up to isometry {iso_ok}; "
        f"within budget={dt <= 120}")


# -- 10: transversality on the pentagon -----------------------------------------

def criterion_transversality(seed=0):
    g = gc.pentagon()
    pts = wd.group_ball(g, 4)
    act = bd.ActionTables({"e": {p: p for p in pts}}, {"e": "e"})
    res = {rg.class_of_geodesic(g, (), v).id:
           {n: n for n in range(-12, 13)} for v in g.vertices}
    iws = wd.invariant_wallspace(g, act, res, wall_window=1)
    ws = iws.wallspace
    pairs = 0
    for i, j in itertools.combinations(range(ws.n_walls()), 2):
        got = wd.transversality(iws, i, j)   # raises on any disagreement
        d1 = iws.classes[ws.tags[i][0]].direction
        d2 = iws.classes[ws.tags[j][0]].direction
        expected = d1 != d2 and g.adjacent(d1, d2)
        if got != expected:
            return _result("10 transversality", False,
                           f"pair {ws.tags[i]}/{ws.tags[j]}")
        pairs += 1
    return _result("10 transversality", pairs > 0,
                   f"{pairs} wall pairs: transverse iff directions adjacent")


# -- 11: phi injectivity and density --------------------------------------------

def criterion_phi(seed=0):
    g = gc.k2()
    pts = wd.group_ball(g, 4)
    act = bd.ActionTables({"e": {p: p for p in pts}}, {"e": "e"})
    res = {rg.class_of_geodesic(g, (), v).id:
           {n: n for n in range(-12, 13)} for v in g.vertices}
    iws = wd.invariant_wallspace(g, act, res, wall_window=1)
    vmap, rep = wd.phi_map(iws)      # injectivity asserted inside
    k2_ok = rep["density"] <= 2
    g5 = gc.pentagon()
    pts5 = wd.group_ball(g5, 3)
    act5 = bd.ActionTables({"e": {p: p for p in pts5}}, {"e": "e"})
    res5 = {}
    # separating a window point of norm m needs classes through ball(m-1)
    for p in wd.group_ball(g5, 2):
        for v in g5.vertices:
            res5.setdefault(rg.class_of_geodesic(g5, p, v).id,
                            {n: n for n in range(-12, 13)})
    iws5 = wd.invariant_wallspace(g5, act5, res5, wall_window=1,
                                  class_reach=2, points_radius=3)
    vmap5, rep5 = wd.phi_map(iws5)
    c5_ok = rep5["density"] <= 2
    ok = k2_ok and c5_ok
    return _result("11 phi injectivity and density", ok,
                   f"K2 density {rep['density']}, C5 density {rep5['density']}"
                   f" (both injective on their windows)")


def graph_scoped():
    """The criteria that run on one fixture graph, with their fixtures."""
    every = tuple(_graph_fixtures())
    return {criterion_flag_links: every, criterion_sageev_roundtrip: every,
            criterion_davis_metric: ("k2", "c5"),
            criterion_bijective_blowup: ("single", "k2", "c5")}


CRITERIA = [
    criterion_flag_links,
    criterion_rq_characterization,
    criterion_sageev_roundtrip,
    criterion_dual_dimension,
    criterion_davis_metric,
    criterion_bijective_blowup,
    criterion_one_data_roundtrip,
    criterion_qi_instrumentation,
    criterion_semiconjugacy,
    criterion_transversality,
    criterion_phi,
]
