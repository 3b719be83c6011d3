"""Blow-up data, fiber functors, assembly, round trips, morphisms."""

import hashlib
import json
import random

import pytest

from cubikit import blowup as bu
from cubikit import building as bd
from cubikit import cube_complex as cc
from cubikit import graph_core as gc
from cubikit import raag_geometry as rg
from cubikit import semiconjugacy as sc

from .test_raag_words import coset_coordinates, coset_member


def residue_contains(g, small, big):
    """Is the residue `small` a face of `big`?"""
    return set(small.type_J) <= set(big.type_J) and \
        coset_member(g, small.base, big.base, big.type_J)


def test_type_map():
    # a fiber's axes are the classes of its residue's rank-1 factors
    for g in (gc.k2(), gc.pentagon()):
        davis = bd.davis_ball(g, 1)
        psi = bu.build_fiber_functor(bu.bijective_data(g, davis, 1), davis)
        classes = {pc.id: pc for pc in davis.line_classes.values()}
        for vid, r in davis.residue_of.items():
            assert psi.axes[vid] == tuple(
                rg.class_of_geodesic(g, r.base, v).id for v in r.type_J)
            assert tuple(classes[c].direction
                         for c in psi.axes[vid]) == r.type_J
        for J in gc.cliques(g):           # the residues through 1
            assert len(psi.axes[bd.residue(g, (), J).id]) == len(J)


def test_blowup_data_json_roundtrip():
    g = gc.k2()
    data = bu.bijective_data(g, bd.davis_ball(g, 3), 3)
    back = bu.BlowUpData.from_json(g, data.to_json(), 3)
    assert back == data
    assert back.to_json() == data.to_json()


def test_blowup_data_json_rejects_a_word_off_its_class():
    # on C5 the c-chamber lies on the a-class through c, not through 1
    text = json.dumps({"classes": [{"id": "a@1",
                                    "table": {"1": 1, "c": 0}}]})
    with pytest.raises(ValueError, match="word 'c' lies on class a@c"):
        bu.BlowUpData.from_json(gc.pentagon(), text, 2)


def test_blowup_data_json_rejects_two_words_at_one_height():
    # on K2 every v^k lies on the u-class through 1, at height 0
    g = gc.k2()
    data = bu.bijective_data(g, bd.davis_ball(g, 1), 1)
    v_table = json.loads(data.to_json())["classes"][1]
    assert v_table["id"] == "v@1"
    text = json.dumps({"classes": [{"id": "u@1",
                                    "table": v_table["table"]}]})
    with pytest.raises(ValueError, match="two words at height 0"):
        bu.BlowUpData.from_json(g, text, 1)


def test_blowup_data_json_rejects_an_empty_table():
    text = json.dumps({"classes": [{"id": "u@1", "table": {}}]})
    with pytest.raises(ValueError, match="class u@1: empty table"):
        bu.BlowUpData.from_json(gc.k2(), text, 1)


# a second entry for u@1 used to replace the first, dropping 5 at height 0
TWICE = {"classes": [{"id": "u@1", "table": {"1": 5}},
                     {"id": "u@1", "table": {"u": 7}}]}


def test_blowup_data_json_rejects_a_class_listed_twice():
    with pytest.raises(ValueError, match="class u@1: listed twice"):
        bu.BlowUpData.from_json(gc.k2(), json.dumps(TWICE), 1)


def test_blowup_data_value_raises_off_its_tables():
    g = gc.k2()
    pc = rg.class_of_geodesic(g, (), "u")
    with pytest.raises(cc.TruncationError, match="no table for class u@1"):
        bu.BlowUpData(g, {}, {}, 2).value(pc, ())
    data = bu.BlowUpData(g, {pc.id: {0: 5, 1: 6}}, {pc.id: pc}, 2)
    assert data.value(pc, (("u", 1), ("v", 1))) == 6
    with pytest.raises(cc.TruncationError,
                       match="coordinate 2 outside table window"):
        data.value(pc, (("u", 1), ("u", 1)))


def test_fiber_functor_identity_tables():
    g = gc.pentagon()
    davis = bd.davis_ball(g, 2)
    data = bu.bijective_data(g, davis, window=3)
    psi = bu.build_fiber_functor(data, davis)  # checks run inside
    # morphisms insert the dropped factor's chamber coordinate
    for (child, parent), cons in psi.inserted.items():
        rc = davis.residue_of[child]
        rp = davis.residue_of[parent]
        for cid, val in cons.items():
            pc = psi.data.classes.get(cid) or next(
                c for c in (rg.class_of_geodesic(g, rp.base, w)
                            for w in rp.type_J) if c.id == cid)
            v = pc.direction
            f = bd.residue(g, rp.base, (v,))
            anchor = bd.proj_residue(g, f, rc.base)
            n = coset_coordinates(g, anchor, f.base, (v,))[v]
            assert val == n


def test_fiber_functor_degenerate_constant():
    g = gc.single_vertex()
    davis = bd.davis_ball(g, 2)
    data = bu.data_from_function(g, davis, window=2, fn=lambda pc, n: 0)
    psi = bu.build_fiber_functor(data, davis)
    bc = bu.blowup_complex(psi)
    # all whiskers attach at 0: the rank-1 fiber keeps one attachment point
    hub = [vid for vid, r in davis.rank_of.items() if r == 1][0]
    attach = set()
    for e, lab in bc.Y.edges.items():
        u, v = tuple(e)
        if lab.startswith("h:"):
            for x in (u, v):
                vid, p = bc.vertex_info[x]
                if vid == hub:
                    attach.add(p)
    assert attach == {(0,)}


def test_blowup_single_vertex_bijective_is_line_with_whiskers():
    g = gc.single_vertex()
    davis = bd.davis_ball(g, 3)
    data = bu.bijective_data(g, davis, window=3)
    bc = bu.blowup_complex(bu.build_fiber_functor(data, davis))
    assert cc.verify_rq_characterization(bc.q, samples=5)["all_true"]
    xe = rg.ball_Xe(g, 3)
    iso = _compare_balls(bc, xe, r=2)
    assert iso is not None


def _labels_for(bc):
    def lab(yv):
        return ",".join(bc.clique_label(yv))
    return lab


def _xe_labels(xe_ball):
    def lab(vid):
        _, cl = rg.parse_xe_id(vid)
        return ",".join(cl)
    return lab


def _compare_balls(bc, xe, r):
    """Label-preserving isomorphism of radius-r balls around the basepoints."""
    base_y = next(yv for yv in bc.Y.vertex_ids
                  if bc.rank(yv) == 0 and
                  bc.davis.residue_of[bc.vertex_info[yv][0]].base == ())
    base_x = next(v for v in xe.vertex_ids
                  if rg.parse_xe_id(v) == ((), ()))
    sub_y = bc.Y.span(bc.Y.ball_around(base_y, r))
    sub_x = xe.span(xe.ball_around(base_x, r))
    return cc.labeled_isomorphism(sub_y, sub_x, _labels_for(bc), _xe_labels(xe),
                                  fix=[(base_y, base_x)])


def test_blowup_k2_bijective_matches_exploded_cover():
    g = gc.k2()
    davis = bd.davis_ball(g, 4)
    data = bu.bijective_data(g, davis, window=4)
    bc = bu.blowup_complex(bu.build_fiber_functor(data, davis))
    xe = rg.ball_Xe(g, 4)
    assert _compare_balls(bc, xe, r=2) is not None


def test_blowup_passes_characterization():
    g = gc.k2()
    davis = bd.davis_ball(g, 3)
    data = bu.bijective_data(g, davis, window=3)
    bc = bu.blowup_complex(bu.build_fiber_functor(data, davis))
    rep = cc.verify_rq_characterization(bc.q, samples=10)
    assert rep["all_true"]


def test_one_data_round_trip():
    g = gc.k2()
    davis = bd.davis_ball(g, 3)
    data = bu.data_from_function(g, davis, window=3,
                                 fn=lambda pc, n: n // 2)
    bc = bu.blowup_complex(bu.build_fiber_functor(data, davis))
    back = bu.one_data(bc)
    for cid, t in data.tables.items():
        for n, v in t.items():
            if n in back.tables.get(cid, {}):
                assert back.tables[cid][n] == v
    # and full equality on the common window for bijective data
    data2 = bu.bijective_data(g, davis, window=3)
    bc2 = bu.blowup_complex(bu.build_fiber_functor(data2, davis))
    back2 = bu.one_data(bc2)
    for cid, t in back2.tables.items():
        for n, v in t.items():
            assert data2.tables[cid][n] == v


def test_local_finiteness_report():
    g = gc.single_vertex()
    davis = bd.davis_ball(g, 2)
    bij = bu.bijective_data(g, davis, window=4)
    assert bu.local_finiteness_report(bij) == \
        {"max_preimage": 1, "density": 0}
    halves = bu.data_from_function(g, davis, window=4, fn=lambda pc, n: n // 2)
    assert bu.local_finiteness_report(halves) == \
        {"max_preimage": 2, "density": 0}
    double = bu.data_from_function(g, davis, window=4, fn=lambda pc, n: 2 * n)
    assert bu.local_finiteness_report(double) == \
        {"max_preimage": 1, "density": 1}


def downward_complex_check(bc, vid: str) -> bool:
    """q^{-1}(downward complex of vid) is the product of mapping cylinders.

    The expected model has, per factor, a line of fiber coordinates plus one
    whisker per chamber attached at its table value; the comparison is a
    direct labeled bijection, not a search.
    """
    davis = bc.davis
    g = davis.graph
    r = davis.residue_of[vid]
    down_vids = [w for w in davis.ball.vertex_ids
                 if residue_contains(g, davis.residue_of[w], r)]
    down_set = set(down_vids)
    sub_vertices = [yv for yv in bc.Y.vertex_ids
                    if bc.vertex_info[yv][0] in down_set]
    sub = bc.Y.span(sub_vertices)
    classes = [davis.line_classes[r.base, v] for v in r.type_J]

    def model_coord(yv):
        wid, p = bc.vertex_info[yv]
        rw = davis.residue_of[wid]
        waxes = bc.psi.axes[wid]
        coords = []
        for v, cid in zip(r.type_J, bc.psi.axes[vid]):
            if v in rw.type_J:
                coords.append(("line", p[waxes.index(cid)]))
            else:
                coords.append(("chamber",
                               rg.gate_heights(g, r.base, (v,), rw.base)[v]))
        return tuple(coords)

    seen = {}
    for yv in sub.vertex_ids:
        key = model_coord(yv)
        if key in seen:
            return False
        seen[key] = yv
    # edges of the product of cylinders: change one coordinate, either a
    # line step or a whisker move chamber<->its table value
    expected_edges = set()
    for key in seen:
        for i, (kind, val) in enumerate(key):
            v = r.type_J[i]
            if kind == "line":
                up = key[:i] + (("line", val + 1),) + key[i + 1 :]
                if up in seen:
                    expected_edges.add(frozenset((seen[key], seen[up])))
            else:
                chamber = rg.flat_element(g, r.base, {v: val})
                hv = bc.psi.data.value(classes[i], chamber)
                mid = key[:i] + (("line", hv),) + key[i + 1 :]
                if mid in seen:
                    expected_edges.add(frozenset((seen[key], seen[mid])))
    actual = set(sub.edges.keys())
    return expected_edges == actual


def test_downward_complex_check():
    g = gc.k2()
    davis = bd.davis_ball(g, 3)
    data = bu.bijective_data(g, davis, window=3)
    bc = bu.blowup_complex(bu.build_fiber_functor(data, davis))
    # rank 0: single point
    chamber_vid = next(v for v, r in davis.rank_of.items() if r == 0)
    assert downward_complex_check(bc, chamber_vid)
    # rank 1: mapping cylinder of a bijection
    r1_vid = next(v for v, r in davis.rank_of.items()
                  if r == 1 and davis.residue_of[v].base == ())
    assert downward_complex_check(bc, r1_vid)
    # rank 2 apex: product of two cylinders
    r2_vid = next(v for v, r in davis.rank_of.items() if r == 2)
    assert downward_complex_check(bc, r2_vid)


def eta_quasi_morphism(bcA, bcB, f_per_class,
                       L: float, A: float, bound_L: float | None = None,
                       bound_A: float | None = None, sample: int = 60,
                       seed: int = 0):
    """Vertex map Y_A -> Y_B induced by per-class window maps f_lambda.

    Checks the defining diagrams commute up to A on every rank-1 residue,
    builds the coordinatewise vertex map, and measures its metric distortion
    on sampled interior pairs.  When the f_lambda are isometries and A = 0
    the map is required to be a cubical isomorphism.
    """
    davis = bcA.davis
    g = davis.graph
    dataA, dataB = bcA.psi.data, bcB.psi.data
    for vid, r in davis.residue_of.items():
        if r.rank != 1:
            continue
        pc = davis.line_classes[r.base, r.type_J[0]]
        f = f_per_class[pc.id]
        for coords, chamber in bd.chambers_of(g, r, 1):
            try:
                va = dataA.value(pc, chamber)
                vb = dataB.value(pc, chamber)
            except cc.TruncationError:
                continue
            if va in f and abs(f[va] - vb) > A:
                raise AssertionError(
                    f"diagram fails on {pc.id} at {rg.word_str(chamber)}: "
                    f"f({va})={f[va]} vs {vb}")
    vmap = bu._move_fibers(bcA, bcB, lambda vid: (vid, [
        (i, f_per_class[cid]) for i, cid in enumerate(bcA.psi.axes[vid])]))
    rng = random.Random(seed)
    domain = [yv for yv in vmap if bcA.Y.depth[yv] >= 1]
    worst_ratio = 1.0
    pairs = []
    for _ in range(sample):
        a, b = rng.choice(domain), rng.choice(domain)
        if a == b:
            continue
        d1 = bcA.Y.distance(a, b)
        d2 = bcB.Y.distance(vmap[a], vmap[b])
        pairs.append((d1, d2))
        if d1 and d2:
            worst_ratio = max(worst_ratio, d1 / d2, d2 / d1)
    # residual additive error after allowing the multiplicative bound
    L_eff = bound_L if bound_L is not None else worst_ratio
    worst_add = 0
    for d1, d2 in pairs:
        worst_add = max(worst_add, d2 - L_eff * d1, d1 - L_eff * d2, 0)
    # an exact isomorphism is expected when A = 0 and every f_lambda lies on
    # one line isometry (a table with fewer than two keys always does)
    isometric = A == 0
    for f in f_per_class.values():
        if isometric and f:
            iso = sc.line_isometry(f.items())
            isometric = iso is not None and all(
                iso[0] * a + iso[1] == b for a, b in f.items())
    exact_iso = is_cubical_bijection(bcA, bcB, vmap) if isometric else None
    report = {"vertex_map": vmap, "measured_L": worst_ratio,
              "measured_A": worst_add, "pairs": len(pairs),
              "exact_isomorphism": exact_iso}
    if bound_L is not None and bound_A is not None:
        for d1, d2 in pairs:
            if d2 > bound_L * d1 + bound_A or d1 > bound_L * d2 + bound_A:
                raise AssertionError(
                    f"pair with distances {d1},{d2} violates the "
                    f"({bound_L},{bound_A})-quasi-isometry bound")
    return report




def is_cubical_bijection(bcA, bcB, vmap):
    interiorA = [yv for yv in bcA.Y.vertex_ids if bcA.Y.depth[yv] >= 2]
    for yv in interiorA:
        if yv not in vmap:
            return False
        for nb, lab in bcA.Y.neighbors(yv).items():
            if nb in vmap:
                if not bcB.Y.has_edge(vmap[yv], vmap[nb]) or \
                   bcB.Y.edge_label(vmap[yv], vmap[nb]) != lab:
                    return False
    return True


def test_eta_quasi_morphism_identity():
    g = gc.single_vertex()
    davis = bd.davis_ball(g, 2)
    data = bu.bijective_data(g, davis, window=3)
    bc = bu.blowup_complex(bu.build_fiber_functor(data, davis))
    f = {cid: {n: n for n in range(-3, 4)} for cid in data.tables}
    rep = eta_quasi_morphism(bc, bc, f, L=1, A=0)
    assert rep["measured_L"] == 1.0 and rep["measured_A"] == 0
    assert rep["exact_isomorphism"] is True


def test_eta_quasi_morphism_collapse():
    g = gc.single_vertex()
    davis = bd.davis_ball(g, 4)
    dataA = bu.bijective_data(g, davis, window=6)
    dataB = bu.data_from_function(g, davis, window=6, fn=lambda pc, n: n // 2)
    bcA = bu.blowup_complex(bu.build_fiber_functor(dataA, davis))
    bcB = bu.blowup_complex(bu.build_fiber_functor(dataB, davis))
    f = {cid: {n: n // 2 for n in range(-6, 7)} for cid in dataA.tables}
    rep = eta_quasi_morphism(bcA, bcB, f, L=2, A=1, bound_L=4, bound_A=4)
    assert rep["measured_L"] <= 4


def test_equivariant_blowup_translations():
    g = gc.k2()
    davis = bd.davis_ball(g, 3)
    ball = rg.ball_X(g, 7)
    elements = [rg.parse_word(v) for v in ball.vertex_ids]
    act = bd.left_translation_action(g, elements, (("u", 1),))
    # representatives: both classes, identity resolutions
    reps = {}
    for vid, r in davis.residue_of.items():
        if r.rank == 1:
            pc = rg.class_of_geodesic(g, r.base, r.type_J[0])
            reps.setdefault(pc.id, {n: n for n in range(-12, 13)})
    bc, actions = bu.equivariant_blowup(g, act, reps, davis, window=3)
    assert cc.verify_rq_characterization(bc.q, samples=5)["all_true"]
    vmap = actions["t"]
    # the action is a partial automorphism commuting with q (checked inside);
    # it must also preserve edge labels where defined
    for e, lab in bc.Y.edges.items():
        u, v = tuple(e)
        if u in vmap and v in vmap:
            assert bc.Y.has_edge(vmap[u], vmap[v])
            assert bc.Y.edge_label(vmap[u], vmap[v]) == lab


def test_equivariant_blowup_two_flipping():
    # H = Z/2 + Z acting on Z = G(single vertex): a flips 2n<->2n+1, b adds 2
    g = gc.single_vertex()
    davis = bd.davis_ball(g, 6)
    N = 16

    def elem(n):
        return (("v", 1),) * n if n >= 0 else (("v", -1),) * (-n)

    doms = [elem(n) for n in range(-N, N + 1)]
    a_tab = {}
    for n in range(-N, N + 1):
        m = n + 1 if n % 2 == 0 else n - 1
        a_tab[elem(n)] = elem(m)
    b_tab = {elem(n): elem(n + 2) for n in range(-N, N + 1)}
    b_inv = {elem(n): elem(n - 2) for n in range(-N, N + 1)}
    act = bd.ActionTables({"a": a_tab, "b": b_tab, "b_inv": b_inv},
                          {"a": "a", "b": "b_inv", "b_inv": "b"})
    pc = rg.class_of_geodesic(g, (), "v")
    reps = {pc.id: {n: n // 2 for n in range(-N, N + 1)}}
    bc, actions = bu.equivariant_blowup(g, act, reps, davis, window=5)
    # Y is a branched line with two whiskers per block
    hub = next(v for v, r in davis.rank_of.items() if r == 1)
    attach = {}
    for e, lab in bc.Y.edges.items():
        u, v = tuple(e)
        if lab.startswith("h:"):
            for x, other in ((u, v), (v, u)):
                vid, p = bc.vertex_info[x]
                if vid == hub:
                    attach.setdefault(p[0], []).append(other)
    for blk, whiskers in attach.items():
        if abs(blk) <= 2:
            assert len(whiskers) == 2
    # a acts as an order-2 symmetry fixing the line
    amap = actions["a"]
    hub_fixed = [yv for yv in amap
                 if bc.vertex_info[yv][0] == hub and amap[yv] == yv]
    assert hub_fixed
    for yv, img in amap.items():
        if img in amap:
            assert amap[img] == yv


def test_equivariant_blowup_trivial_group():
    # with the trivial action and identity resolutions the construction
    # reduces to the plain bijective blow-up
    g = gc.k2()
    davis = bd.davis_ball(g, 2)
    elements = [rg.parse_word(v) for v in rg.ball_X(g, 4).vertex_ids]
    act = bd.ActionTables({"e": {c: c for c in elements}}, {"e": "e"})
    reps = {}
    for vid, r in davis.residue_of.items():
        if r.rank == 1:
            pc = rg.class_of_geodesic(g, r.base, r.type_J[0])
            reps.setdefault(pc.id, {n: n for n in range(-8, 9)})
    bc, actions = bu.equivariant_blowup(g, act, reps, davis, window=2)
    plain = bu.blowup_complex(bu.build_fiber_functor(
        bu.bijective_data(g, davis, 2), davis))
    assert set(bc.Y.vertex_ids) == set(plain.Y.vertex_ids)
    assert bc.Y.edges == plain.Y.edges
    assert actions["e"] == {yv: yv for yv in bc.Y.vertex_ids}


def test_eta_isomorphism_translation_shift():
    # an exact eta-isomorphism (shift by one) induces a cubical isomorphism
    g = gc.single_vertex()
    davis = bd.davis_ball(g, 3)
    dataA = bu.bijective_data(g, davis, window=4)
    dataB = bu.data_from_function(g, davis, window=4, fn=lambda pc, n: n + 1)
    bcA = bu.blowup_complex(bu.build_fiber_functor(dataA, davis))
    bcB = bu.blowup_complex(bu.build_fiber_functor(dataB, davis))
    f = {cid: {n: n + 1 for n in range(-6, 7)} for cid in dataA.tables}
    rep = eta_quasi_morphism(bcA, bcB, f, L=1, A=0)
    assert rep["exact_isomorphism"] is True


def test_eta_gapped_table_is_not_an_isometry():
    # {0: 0, 2: 1} has value steps of one between consecutive keys, but
    # moves 0 and 2 only one apart: no exact isomorphism is claimed
    g = gc.single_vertex()
    davis = bd.davis_ball(g, 3)
    dataA = bu.bijective_data(g, davis, window=4)
    dataB = bu.data_from_function(g, davis, window=4, fn=lambda pc, n: n // 2)
    bcA = bu.blowup_complex(bu.build_fiber_functor(dataA, davis))
    bcB = bu.blowup_complex(bu.build_fiber_functor(dataB, davis))
    f = {cid: {0: 0, 2: 1} for cid in dataA.tables}
    rep = eta_quasi_morphism(bcA, bcB, f, L=2, A=0)
    assert rep["exact_isomorphism"] is None


def test_fiber_dimensions_by_rank():
    g = gc.k2()
    davis = bd.davis_ball(g, 2)
    w = 2
    bc = bu.blowup_complex(bu.build_fiber_functor(
        bu.bijective_data(g, davis, w), davis))
    counts = {}
    for yv in bc.Y.vertex_ids:
        vid, _ = bc.vertex_info[yv]
        counts[vid] = counts.get(vid, 0) + 1
    for vid, n in counts.items():
        assert n == (2 * w + 1) ** davis.rank_of[vid]


def line_element(n):
    return (("v", 1),) * n if n >= 0 else (("v", -1),) * (-n)


def two_flipping_action(N):
    """H = Z/2 + Z on the chambers v^-N..v^N of the single-vertex building:
    a flips v^2n <-> v^(2n+1), b multiplies by v^2."""
    a_tab = {}
    for n in range(-N, N + 1):
        m = n + 1 if n % 2 == 0 else n - 1
        a_tab[line_element(n)] = line_element(m)
    b_tab = {line_element(n): line_element(n + 2) for n in range(-N, N + 1)}
    b_inv = {line_element(n): line_element(n - 2) for n in range(-N, N + 1)}
    return bd.ActionTables({"a": a_tab, "b": b_tab, "b_inv": b_inv},
                           {"a": "a", "b": "b_inv", "b_inv": "b"})


def identity_resolutions(g, davis, reach):
    """Identity tables on -reach..reach for every class of the Davis ball."""
    reps = {}
    for r in davis.residue_of.values():
        if r.rank == 1:
            pc = rg.class_of_geodesic(g, r.base, r.type_J[0])
            reps.setdefault(pc.id, {n: n for n in range(-reach, reach + 1)})
    return reps


def test_gates_need_no_gallery_search(monkeypatch):
    # every gate on the blow-up path comes from the gate formula: none of
    # these constructions may search chambers by gallery distance
    def forbidden(*args):
        raise AssertionError("gallery_distance called")

    monkeypatch.setattr(bd, "gallery_distance", forbidden)
    g = gc.k2()
    davis = bd.davis_ball(g, 2)
    psi = bu.build_fiber_functor(bu.bijective_data(g, davis, 2), davis)
    bu.one_data(bu.blowup_complex(psi))
    elements = [rg.parse_word(v) for v in rg.ball_X(g, 6).vertex_ids]
    act = bd.left_translation_action(g, elements, (("u", 1),))
    bu.equivariant_blowup(g, act, identity_resolutions(g, davis, 12), davis,
                          window=2)
    pc = rg.class_of_geodesic(g, (), "v")
    bd.extract_factor_action(g, act, pc, window=2, names=["t"])


# -- byte-identity pins ----------------------------------------------------

# SHA-256 pins computed before the gate formula replaced the brute-force
# projection: Y and every induced vertex map of equivariant_blowup, and the
# 1-data read back off bijective blow-ups
GOLDEN_EQUIVARIANT = {
    "translations":
        "9ca2df679377cc1b753e2669b915298707f0a26e4ce644bf30b855ba35cb6866",
    "two_flipping":
        "37457951b73ce5abd0b312f7b2439bd488d7ee2fcbbd6f1d52aedbb28a4a1ebd",
}
GOLDEN_ONE_DATA = {
    "k2": "ad2243f72cbc7fbd061df5c44cc305927af992a424942bf316751bd99e0b2f1a",
    "c5": "326f6b8f20e9c713a0e9333b898d89d43c5e682534a894a3113e332e0b7f450a",
}


def equivariant_case(name):
    """The configurations of the two equivariant blow-up tests above."""
    if name == "translations":
        g = gc.k2()
        davis = bd.davis_ball(g, 3)
        elements = [rg.parse_word(v) for v in rg.ball_X(g, 7).vertex_ids]
        act = bd.left_translation_action(g, elements, (("u", 1),))
        return g, act, identity_resolutions(g, davis, 12), davis, 3
    g = gc.single_vertex()
    pc = rg.class_of_geodesic(g, (), "v")
    return (g, two_flipping_action(16),
            {pc.id: {n: n // 2 for n in range(-16, 17)}},
            bd.davis_ball(g, 6), 5)


@pytest.mark.parametrize("name", sorted(GOLDEN_EQUIVARIANT))
def test_golden_equivariant_blowup(name):
    g, act, reps, davis, window = equivariant_case(name)
    bc, actions = bu.equivariant_blowup(g, act, reps, davis, window=window)
    body = json.dumps({"Y": bc.Y.to_json(),
                       "actions": [[gen, list(vmap.items())]
                                   for gen, vmap in actions.items()]})
    assert hashlib.sha256(body.encode()).hexdigest() == \
        GOLDEN_EQUIVARIANT[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_EQUIVARIANT))
def test_equivariant_maps_cover_the_residue_maps(name):
    # checked from the action tables alone: each induced map sends the fiber
    # over a Davis vertex into the fiber over its image residue, and moves
    # vertical edges to vertical edges and horizontal ones to horizontal ones
    g, act, reps, davis, window = equivariant_case(name)
    bc, actions = bu.equivariant_blowup(g, act, reps, davis, window=window)
    q = bc.q.vertex_map
    for gen, vmap in actions.items():
        assert vmap
        for yv, img in vmap.items():
            r = davis.residue_of[q[yv]]
            assert q[img] == bd.residue_image(g, act, gen, r).id
        for e, lab in bc.Y.edges.items():
            u, v = tuple(e)
            if u in vmap and v in vmap:
                assert bc.Y.has_edge(vmap[u], vmap[v])
                assert bc.Y.edge_label(vmap[u], vmap[v])[:2] == lab[:2]


def test_equivariant_blowup_non_isometric_resolution_raises():
    # the two-flipping action swaps v^2n and v^(2n+1), which no isometry of
    # the identity resolution's block line does (n // 2 is the resolution)
    g = gc.single_vertex()
    pc = rg.class_of_geodesic(g, (), "v")
    reps = {pc.id: {n: n for n in range(-16, 17)}}
    with pytest.raises(sc.ActionError, match="by an isometry"):
        bu.equivariant_blowup(g, two_flipping_action(16), reps,
                              bd.davis_ball(g, 6), window=5)


@pytest.mark.parametrize("name, g, radius, window", [
    ("k2", gc.k2(), 3, 3),
    ("c5", gc.pentagon(), 2, 3),
])
def test_golden_one_data(name, g, radius, window):
    davis = bd.davis_ball(g, radius)
    bc = bu.blowup_complex(bu.build_fiber_functor(
        bu.bijective_data(g, davis, window), davis))
    out = bu.one_data(bc).to_json()
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ONE_DATA[name]
