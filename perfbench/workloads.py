"""The three workloads: what each sample builds, times and checks.

Each workload is a `setup` that makes the inputs from the seed and a list
of jobs.  Jobs time only the calls into cubikit (through the runner) and
check every output against `oracles`, outside the timed calls.

Sizes ("full" for the benchmark, "tiny" for the benchmark's own tests) keep
the metric names: the `small`/`large` rungs of a size ladder are the radii
or windows listed in config.SIZES.
"""

from __future__ import annotations

import random
from itertools import combinations

from cubikit import blowup as bu
from cubikit import building as bd
from cubikit import cube_complex as cc
from cubikit import graph_core as gc
from cubikit import raag_geometry as rg
from cubikit import semiconjugacy as sc
from cubikit import wallspace_dual as wd

import oracles as orc
from config import GRAPHS, SIZES

WALLSPACE_FAMILY_SEED = 2016


def make_graph(name):
    vertices, edges = GRAPHS[name]
    return gc.DefiningGraph.make(list(vertices), edges)


def pilings(name):
    return orc.Pilings(*GRAPHS[name])


def setup(workload, R, seed, size):
    """Make the inputs of a workload; returns the state its jobs share."""
    conf = SIZES[size][workload]
    state = {"conf": conf, "rng": random.Random(seed), "seed": seed,
             "graphs": {name: make_graph(name) for name in GRAPHS}}
    if workload == "construct":
        _setup_construct(R, state)
    elif workload == "walls":
        _setup_walls(R, state)
    else:
        _setup_tracks(R, state)
    return state


def jobs(workload, traced):
    if workload == "construct":
        return [("ball", job_ball), ("davis", job_davis),
                ("blowup", job_blowup), ("iws", job_iws), ("mul", job_mul)]
    if workload == "walls":
        return [("hyperplanes", job_hyperplanes), ("rq", job_rq),
                ("dual", job_dual)]
    run = _semiconj_split if traced else _semiconj_whole
    return [("semiconj_small", lambda R, s: job_flip(R, s, "small", run)),
            ("semiconj_large", lambda R, s: job_flip(R, s, "large", run)),
            ("semiconj_misc", lambda R, s: job_misc(R, s, run))]


# -- construct -----------------------------------------------------------------

def _setup_construct(R, state):
    conf, rng = state["conf"]["mul"], state["rng"]
    g, P = state["graphs"]["c5"], pilings("c5")
    words = {}
    for n in (4, 8, 16):
        words[n] = [rg.normal_form(g, orc.random_geodesic(P, rng, n))
                    for _ in range(conf["words"])]
    pairs = [(rg.normal_form(g, orc.random_geodesic(P, rng, 16)),
              rg.normal_form(g, orc.random_geodesic(P, rng, 16)))
             for _ in range(conf["pairs"])]
    state["mul_words"], state["mul_pairs"] = words, pairs


def _ball(R, state, kind, name, radius, rungs):
    fn = rg.ball_X if kind == "ball_X" else rg.ball_Xe
    op = f"raag_geometry.{kind}.{name}_r{radius}"
    b = R.attempt(op, f"raag_geometry.{kind}", fn, state["graphs"][name],
                  radius, rung=rungs.get(radius) if kind == "ball_X" else None)
    if b is None:
        return None
    if kind == "ball_X":
        R.count("raag_geometry.ball_X.vertices", len(b.vertex_ids))
        R.count("raag_geometry.ball_X.squares", len(b.squares))
        want = orc.ball_sizes(*GRAPHS[name], radius)[radius]
    else:
        want = pilings(name).xe_vertex_count(radius)
    R.expect(op, len(b.vertex_ids) == want,
             f"{len(b.vertex_ids)} vertices, expected {want}")
    return b


def job_ball(R, state):
    conf = state["conf"]
    for name, radius in conf["ball"]:
        _ball(R, state, "ball_X", name, radius, conf["ball_rungs"])
        _ball(R, state, "ball_Xe", name, radius, conf["ball_rungs"])


def job_davis(R, state):
    conf, rng = state["conf"], state["rng"]
    state["davis"] = {}
    for name, radius in conf["davis"]:
        g = state["graphs"][name]
        op = f"building.davis_ball.{name}_r{radius}"
        db = R.attempt(op, "building.davis_ball", bd.davis_ball, g, radius,
                       rung=conf["davis_rungs"].get(radius))
        if db is None:
            continue
        state["davis"][(name, radius)] = db
        n = len(db.ball.vertex_ids)
        R.count("building.davis_ball.vertices", n)
        want = pilings(name).davis_vertex_count(radius)
        R.expect(op, n == want, f"{n} vertices, expected {want}")
    # d_l1 = 2 * gallery distance on seeded chamber pairs
    for (name, radius), (near, far, npairs) in conf["davis_pairs"].items():
        db = state["davis"].get((name, radius))
        if db is None:
            continue
        g = state["graphs"][name]
        bases = [db.residue_of[v].base for v in db.chambers()]
        c1s = sorted((b for b in bases if len(b) <= near), key=rg.word_str)
        c2s = sorted((b for b in bases if len(b) <= far), key=rg.word_str)
        for i in range(npairs):
            op = f"building.gallery_pair.{name}.{i}"
            c1, c2 = rng.choice(c1s), rng.choice(c2s)
            d = R.attempt(op, "building.gallery_distance", bd.gallery_distance,
                          g, c1, c2)
            r1 = R.attempt(op, "building.residue", bd.residue, g, c1, ())
            r2 = R.attempt(op, "building.residue", bd.residue, g, c2, ())
            if r1 is None or r2 is None:
                continue
            l1 = R.attempt(op, "cube_complex.CubeComplexBall.distance",
                           db.ball.distance, r1.id, r2.id)
            if d is not None and l1 is not None:
                R.expect(op, l1 == 2 * d,
                         f"{rg.word_str(c1)} / {rg.word_str(c2)}: l1 {l1}, "
                         f"gallery {d}")


def _roundtrip_ok(data, back):
    return bool(back.tables) and all(
        data.tables[cid][n] == v
        for cid, t in back.tables.items() for n, v in t.items()
        if n in data.tables.get(cid, {}))


def _blowup(R, op, data, db):
    psi = R.attempt(op, "blowup.build_fiber_functor", bu.build_fiber_functor,
                    data, db)
    if psi is None:
        return None
    return R.attempt(op, "blowup.blowup_complex", bu.blowup_complex, psi)


def job_blowup(R, state):
    conf, rng = state["conf"], state["rng"]
    for name, radius, window in conf["blowup"]:
        db = state["davis"].get((name, radius))
        if db is None:
            continue
        op = f"blowup.bijective.{name}_r{radius}_w{window}"
        data = R.attempt(op, "blowup.bijective_data", bu.bijective_data,
                         state["graphs"][name], db, window)
        bc = _blowup(R, op, data, db) if data is not None else None
        if bc is None:
            continue
        n = len(bc.Y.vertex_ids)
        R.count("blowup.Y.vertices", n)
        want = sum((2 * window + 1) ** r for r in db.rank_of.values())
        R.expect(op, n == want, f"Y has {n} vertices, expected {want}")
        back = R.attempt(op, "blowup.one_data", bu.one_data, bc)
        if back is not None:
            R.expect(op, _roundtrip_ok(data, back), "one_data round trip")
    (name, radius), window, trials = conf["random_data"]
    db = state["davis"].get((name, radius))
    if db is None:
        return
    for i in range(trials):
        op = f"blowup.random_roundtrip.{i}"
        offsets = {}

        def fn(pc, n, offsets=offsets):
            key = (pc.id, n)
            if key not in offsets:
                offsets[key] = rng.randint(-window, window)
            return offsets[key]

        data = R.attempt(op, "blowup.data_from_function",
                         bu.data_from_function, state["graphs"][name], db,
                         window, fn)
        bc = _blowup(R, op, data, db) if data is not None else None
        back = R.attempt(op, "blowup.one_data", bu.one_data, bc) \
            if bc is not None else None
        if back is not None:
            R.expect(op, _roundtrip_ok(data, back), "one_data round trip")


def build_iws(R, state, op_prefix):
    """The pentagon's invariant wallspace in the configuration of the phi
    criterion: identity action, line resolutions of every class through
    the class_reach ball, points on the points_radius ball."""
    conf = state["conf"]["iws"]
    g = state["graphs"]["c5"]
    reach, radius = conf["class_reach"], conf["points_radius"]
    op = f"{op_prefix}.invariant_wallspace"
    pts = R.attempt(op, "wallspace_dual.group_ball", wd.group_ball, g, radius)
    centers = R.attempt(op, "wallspace_dual.group_ball", wd.group_ball, g,
                        reach)
    if pts is None or centers is None:
        return None
    act = bd.ActionTables({"e": {p: p for p in pts}}, {"e": "e"})
    res = {}
    for p in centers:
        for v in g.vertices:
            pc = R.attempt(op, "raag_geometry.class_of_geodesic",
                           rg.class_of_geodesic, g, p, v)
            if pc is None:
                return None
            res.setdefault(pc.id, {n: n for n in range(-12, 13)})
    iws = R.attempt(op, "wallspace_dual.invariant_wallspace",
                    wd.invariant_wallspace, g, act, res, wall_window=1,
                    class_reach=reach, points_radius=radius)
    if iws is not None:
        ws = iws.wallspace
        R.count("wallspace_dual.invariant_wallspace.walls", ws.n_walls())
        keys = [min(s, ws.full_mask ^ s) for s in ws.sides]
        R.expect(op, all(0 < s < ws.full_mask for s in ws.sides)
                 and len(set(keys)) == len(keys),
                 "walls are not distinct proper bipartitions")
    return iws


def job_iws(R, state):
    iws = build_iws(R, state, "wallspace_dual")
    if iws is None:
        return
    rng, conf = state["rng"], state["conf"]["iws"]
    ws = iws.wallspace
    _, edges = GRAPHS["c5"]
    adjacent = {frozenset(e) for e in edges}
    pairs = list(combinations(range(ws.n_walls()), 2))
    for k, (i, j) in enumerate(rng.sample(pairs, min(conf["pairs"],
                                                     len(pairs)))):
        pc1, pc2 = iws.classes[ws.tags[i][0]], iws.classes[ws.tags[j][0]]
        rim = max(len(pc1.rep), len(pc2.rep)) == conf["class_reach"]

        def known(exc, rim=rim):
            if rim and isinstance(exc, AssertionError):
                return "transversality-rim"
            return None

        op = f"wallspace_dual.transversality.{k}"
        got = R.attempt(op, "wallspace_dual.transversality",
                        wd.transversality, iws, i, j, known=known)
        if got is not None and pc1.rep == () and pc2.rep == ():
            # classes through the identity: transverse iff the directions
            # are adjacent in the defining graph
            want = frozenset((pc1.direction, pc2.direction)) in adjacent
            R.expect(op, got == want, f"walls {i}/{j}: {got}, expected {want}")


def job_mul(R, state):
    conf = state["conf"]["mul"]
    g = state["graphs"]["c5"]
    P = pilings("c5")
    letters = [((v, e),) for v in g.vertices for e in (1, -1)]
    batches = [(f"len{n}", [(w, x) for w in state["mul_words"][n]
                            for x in letters] * conf["reps"])
               for n in (4, 8, 16)]
    batches.append(("pair16", state["mul_pairs"]))
    for rung, args in batches:
        op = f"raag_geometry.mul.{rung}"
        out = R.attempt(op, "raag_geometry.mul",
                        lambda: [rg.mul(g, a, b) for a, b in args],
                        rung=rung, calls=len(args))
        if out is not None:
            R.expect(op, all(P.of_word(c) == P.of_word(a + b)
                             for (a, b), c in zip(args, out)),
                     "product disagrees with the piling product")


# -- walls ---------------------------------------------------------------------

def _setup_walls(R, state):
    conf = state["conf"]
    state["balls"] = {}
    for name, radius in conf["balls"]:
        b = _ball(R, state, "ball_X", name, radius, conf["ball_rungs"])
        if b is not None:
            state["balls"][(name, radius)] = b
    g = state["graphs"]["k2"]
    state["blowups"] = []
    for radius, window in conf["blowup"]:
        op = f"blowup.bijective.k2_r{radius}_w{window}"
        db = R.attempt(op, "building.davis_ball", bd.davis_ball, g, radius)
        data = R.attempt(op, "blowup.bijective_data", bu.bijective_data, g,
                         db, window) if db is not None else None
        bc = _blowup(R, op, data, db) if data is not None else None
        if bc is not None:
            state["blowups"].append((radius, window, bc))
    state["fold"] = fold_map()
    state["iws"] = build_iws(R, state, "wallspace_dual.setup")


def fold_map():
    """The folded strip: a cubical map that is no restriction quotient
    (all five conditions fail together)."""
    verts = [(i, j) for i in range(4) for j in range(2)]
    edges = [((i, j), (i + 1, j), "u") for i, j in verts if i < 3]
    edges += [((i, 0), (i, 1), "v") for i in range(4)]
    squares = [((i, 0), (i + 1, 0), (i + 1, 1), (i, 1)) for i in range(3)]
    src = cc.CubeComplexBall.make(verts, edges, squares, None)
    tgt = cc.CubeComplexBall.make(
        ["p0", "p1", "p2"], [("p0", "p1", "e"), ("p1", "p2", "e")], [], None)
    fold = [0, 1, 2, 1]
    return cc.CubicalMap({(i, j): f"p{fold[i]}" for i, j in verts}, src, tgt)


def job_hyperplanes(R, state):
    conf = state["conf"]
    state["hyperplanes"] = {}
    for key in conf["hyperplanes"]:
        b = state["balls"].get(key)
        if b is None:
            continue
        name, radius = key
        op = f"cube_complex.hyperplanes.{name}_r{radius}"
        hps = R.attempt(op, "cube_complex.hyperplanes", cc.hyperplanes, b,
                        rung=conf["ball_rungs"].get(radius))
        if hps is not None:
            state["hyperplanes"][key] = hps
            R.count("cube_complex.hyperplanes.count", len(hps))
            R.count("cube_complex.hyperplanes.truncated",
                    sum(h.truncated for h in hps))
            R.expect(op, {h.edge_class for h in hps} ==
                     orc.square_classes(set(b.edges), b.squares),
                     "edge classes differ from the square-parallelism classes")
            R.expect(op, all(h.sides[0] | h.sides[1] == set(b.vertex_ids)
                             and not h.sides[0] & h.sides[1]
                             for h in hps if not h.truncated)
                     and orc.walls_cut_exactly_their_edges(
                         b.vertex_ids, b.edges,
                         [(h.edge_class, h.sides[0]) for h in hps
                          if not h.truncated]),
                     "halfspaces do not split exactly their own edges")
        op = f"cube_complex.check_flag_links.{name}_r{radius}"
        rep = R.attempt(op, "cube_complex.check_flag_links",
                        cc.check_flag_links, b)
        if rep is not None:
            R.expect(op, rep["ok"], f"links not flag: {rep['failures'][:2]}")


def job_rq(R, state):
    rng = state["rng"]
    for key, count in state["conf"]["rq"]:
        b = state["balls"].get(key)
        if b is None:
            continue
        name, radius = key
        hps = state["hyperplanes"].get(key)
        if hps is None:
            hps = R.attempt(f"cube_complex.hyperplanes.{name}_r{radius}",
                            "cube_complex.hyperplanes", cc.hyperplanes, b,
                            rung=state["conf"]["ball_rungs"].get(radius))
            if hps is None:
                continue
        walls = [h for h in hps if not h.truncated]
        for i in range(count):
            op = f"cube_complex.rq.{name}_r{radius}.{i}"
            # K has one wall, a quarter or half of the walls, not a random
            # number, so that the verifier's cost does not swing with the seed
            k = max(1, len(walls) * (0, 1, 2)[i % 3] // 4)
            K = rng.sample(walls, k)
            q = R.attempt(op, "cube_complex.restriction_quotient",
                          cc.restriction_quotient, b, K)
            if q is None:
                continue
            k_edges = set().union(*(h.edge_class for h in K))
            want = len(orc.components(b.vertex_ids, [tuple(e) for e in b.edges
                                                     if e not in k_edges]))
            R.expect(op, len(q.target.vertex_ids) == want,
                     f"{len(q.target.vertex_ids)} K-classes, expected {want}")
            rep = R.attempt(op, "cube_complex.verify_rq_characterization",
                            cc.verify_rq_characterization, q.map, samples=8,
                            seed=rng.randint(0, 999))
            if rep is not None:
                R.expect(op, rep["all_true"], f"conditions {rep['conditions']}")
    op = "cube_complex.rq.fold"
    rep = R.attempt(op, "cube_complex.verify_rq_characterization",
                    cc.verify_rq_characterization, state["fold"], samples=8,
                    seed=state["seed"])
    if rep is not None:
        R.expect(op, rep["all_false"], f"conditions {rep['conditions']}")
    # a blow-up is a restriction quotient of Y onto the Davis ball
    for radius, window, bc in state["blowups"]:
        known = "blowup-window-below-radius" if window < radius else None
        op = f"blowup.rq_check.k2_r{radius}_w{window}"
        rep = R.attempt(op, "cube_complex.verify_rq_characterization",
                        cc.verify_rq_characterization, bc.q, samples=20,
                        seed=0)
        if rep is not None:
            R.expect(op, rep["all_true"], f"conditions {rep['conditions']}",
                     known=known)


def random_wallspaces(rng, count):
    """`count` wallspaces of at most 12 walls on 3 to 8 points, as
    (points, wall bitmasks).

    The cost of a dual grows steeply with the wallspace, so wallspaces
    drawn afresh for each seed would make the work of a run swing with its
    seed.  The family is therefore drawn once, from a fixed seed, and the
    run's `rng` relabels the points, reorders the walls and picks the side
    of each wall that is listed: different inputs for each seed, each
    isomorphic to the same wallspace.
    """
    base = random.Random(WALLSPACE_FAMILY_SEED)
    out = []
    while len(out) < count:
        npts = base.randint(3, 8)
        full = (1 << npts) - 1
        sides, seen = [], set()
        for _ in range(base.randint(1, 12)):
            s = sum(1 << p for p in range(npts) if base.random() < 0.5)
            if 0 < s < full and min(s, full ^ s) not in seen:
                seen.add(min(s, full ^ s))
                sides.append(s)
        if not sides:
            continue
        perm = list(range(npts))
        rng.shuffle(perm)
        sides = [sum(1 << perm[p] for p in range(npts) if s >> p & 1)
                 for s in sides]
        sides = [full ^ s if rng.random() < 0.5 else s for s in sides]
        rng.shuffle(sides)
        out.append((npts, sides))
    return out


def job_dual(R, state):
    rng = state["rng"]
    for key in state["conf"]["sageev"]:
        b = state["balls"].get(key)
        if b is None:
            continue
        name, radius = key
        op = f"wallspace_dual.sageev.{name}_r{radius}"
        ws = R.attempt(op, "wallspace_dual.hyperplane_wallspace",
                       wd.hyperplane_wallspace, b, margin=1)
        dual = R.attempt(op, "wallspace_dual.dual_cube_complex",
                         wd.dual_cube_complex, ws) if ws is not None else None
        if dual is None:
            continue
        R.count("wallspace_dual.dual_cube_complex.orientations",
                len(dual.vertex_ids))
        span = R.attempt(op, "cube_complex.CubeComplexBall.span", b.span,
                         [v for v in b.vertex_ids if b.depth[v] >= 1])
        if span is None:
            continue
        iso = R.attempt(op, "cube_complex.labeled_isomorphism",
                        cc.labeled_isomorphism, dual, span)
        R.expect(op, iso is not None, "dual is not isomorphic to the span")
    for t, (npts, sides) in enumerate(
            random_wallspaces(rng, state["conf"]["wallspaces"])):
        full = (1 << npts) - 1
        ws = wd.Wallspace.make(range(npts), [[p for p in range(npts)
                                              if s >> p & 1] for s in sides])
        op = f"wallspace_dual.random.{t}"
        dual = R.attempt(op, "wallspace_dual.dual_cube_complex",
                         wd.dual_cube_complex, ws)
        if dual is not None:
            R.count("wallspace_dual.dual_cube_complex.orientations",
                    len(dual.vertex_ids))
            want = orc.count_orientations(sides, full)
            R.expect(op, len(dual.vertex_ids) == want,
                     f"{len(dual.vertex_ids)} 0-cubes, expected {want}")
        dim = R.attempt(op, "wallspace_dual.dual_dimension",
                        wd.dual_dimension, ws)
        if dim is not None:
            want = orc.largest_transverse_family(sides, full)
            R.expect(op, dim == want, f"dimension {dim}, expected {want}")
        cubes = R.attempt(op, "wallspace_dual.maximal_cubes",
                          wd.maximal_cubes, ws)
        if cubes is not None:
            want = orc.maximal_transverse_families(sides, full)
            R.expect(op, sorted(map(sorted, (f for f, _ in cubes))) ==
                     sorted(map(sorted, want)),
                     "maximal cubes differ from maximal transverse families")
    iws = state["iws"]
    if iws is not None:
        op = "wallspace_dual.phi_map.c5"
        out = R.attempt(op, "wallspace_dual.phi_map", wd.phi_map, iws)
        if out is not None:
            vmap, rep = out
            R.expect(op, len(set(vmap.values())) == len(vmap) == len(iws.domain)
                     and rep["density"] <= 2,
                     f"phi not injective or density {rep['density']} > 2")


# -- tracks --------------------------------------------------------------------

def _shuffled(spec, rng):
    """The same action with its generators listed in a seeded order."""
    names = sorted(spec.generators)
    rng.shuffle(names)
    return sc.ZActionSpec(spec.window, spec.L, spec.A,
                          {n: spec.generators[n] for n in names},
                          {n: spec.inverses[n] for n in names},
                          relations=[list(r) for r in spec.relations])


def _setup_tracks(R, state):
    conf, rng = state["conf"], state["rng"]
    state["specs"] = {
        "small": _shuffled(sc.two_flipping_spec(conf["small"]), rng),
        "large": _shuffled(sc.two_flipping_spec(conf["large"]), rng),
        "translation": _shuffled(sc.translation_spec(conf["misc"]), rng),
        "reflection": _shuffled(sc.reflection_spec(conf["misc"]), rng),
        "identity": _shuffled(sc.identity_spec(conf["misc"]), rng),
    }
    state["block_maps"] = {}


def _semiconj_whole(R, op, spec, rung):
    return R.attempt(op, "semiconjugacy.semiconjugate", sc.semiconjugate,
                     spec, 8, 6, rung=rung)


def _semiconj_split(R, op, spec, rung):
    """semiconjugate's three stages as separate calls, so each gets a span."""
    K = R.attempt(op, "semiconjugacy.rips2", sc.rips2, spec, 8, 6)
    if K is None:
        return None
    R.count("semiconjugacy.rips2.edges", len(K.edges))
    family = R.attempt(op, "semiconjugacy.track_family", sc.track_family,
                       spec, K, B=4, rung=rung)
    if family is None:
        return None
    R.count("semiconjugacy.track_family.tracks", len(family))
    return R.attempt(op, "semiconjugacy.collapse", sc.collapse, spec, family, K)


def _record(state, key, res):
    state["block_maps"][key] = sorted(res.block_map.items())


def job_flip(R, state, rung, run):
    spec = state["specs"][rung]
    op = f"semiconjugacy.two_flipping.w{spec.window}"
    res = run(R, op, spec, rung)
    if res is None:
        return
    _record(state, rung, res)
    interior = sorted(res.tip_map)
    sb, ob = res.isometric_action["b"]
    R.expect(op, orc.two_flipping_facts(res.block_map, interior)
             and res.isometric_action["a"] == (1, 0)
             and sb == 1 and abs(ob) == 1,
             f"criterion-9 facts fail: {res.isometric_action}")


def job_misc(R, state, run):
    for key, gen in (("translation", "b"), ("reflection", "r"),
                     ("identity", "e")):
        spec = state["specs"][key]
        op = f"semiconjugacy.{key}.w{spec.window}"
        res = run(R, op, spec, None)
        if res is None:
            continue
        _record(state, key, res)
        interior = sorted(res.tip_map)
        sign, off = res.isometric_action[gen]
        ok = orc.equivariant(res.block_map, interior, spec.generators[gen],
                             sign, off)
        if key == "translation":
            blocks = [res.block_map[x] for x in interior]
            ok = ok and sign == 1 and abs(off) == 1 and \
                len(set(blocks)) == len(blocks)
        elif key == "reflection":
            ok = ok and sign * off + off == 0      # r o r = identity
        else:
            ok = ok and (sign, off) == (1, 0)
        R.expect(op, ok, f"{key}: isometry {(sign, off)}")
