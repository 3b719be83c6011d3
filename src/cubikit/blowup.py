"""Z-blow-ups of the right-angled building: data, fiber functor, assembly.

Blow-up data assigns each rank-1 residue a map to Z, compatibly with
parallelism; one table per parallel class of a chosen representative residue
determines everything.  The induced fiber functor over the Davis ball has
window-truncated lattice fibers and one insertion plan per Davis edge; one
pass over the Davis squares checks its functor laws and 1-determinacy.
Gluing cube-by-cube produces the restriction quotient q: Y -> |B| together
with labels, ranks and the vertical/horizontal edge split.

Y is built by `cube_complex.rising_ball`, fiber by fiber in Davis order
(rank, id), each fiber in lattice order, with no table of ids: the point p
of the rank-k fiber over a Davis vertex has index offset + sum((p[i] + w) *
(2w+1)^(k-1-i)), for window w, so a vertical +1 on axis i adds
(2w+1)^(k-1-i).  Every step rises, by a vertical +1 or by the plan into a
parent fiber, so the squares of Y rise from their least corner: lattice
squares, squares over a Davis edge and squares over a Davis square.  A
point has one up-step per axis and one per parent fiber, so no other
4-cycle rises.  The steps go to `rising_ball` as index triples, and the
readers of Y here (`one_data`) and of the Davis ball (the fiber functor,
the lifts of its edges) walk index adjacency: no id is looked up.

A generator moves Y by one cell map per Davis vertex (the image residue,
each factor's class moved by its `building.class_isometry`), which
`_move_fibers` applies to fiber points.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .building import (
    ActionTables,
    DavisBall,
    class_isometry,
    image_class,
    residue_image,
    resolved_table,
)
from .cube_complex import (
    BIG_DEPTH,
    CubeComplexBall,
    CubicalMap,
    TruncationError,
    rising_ball,
)
from .graph_core import DefiningGraph
from .raag_geometry import (
    ParallelClass,
    class_of_geodesic,
    flat_element,
    height_of,
    parse_word,
    word_str,
)


@dataclass
class BlowUpData:
    """One integer table per parallel class, propagated by parallelism."""

    graph: DefiningGraph
    tables: dict                 # class id -> {coordinate: value}
    classes: dict                # class id -> ParallelClass
    window: int

    def value(self, pc: ParallelClass, chamber) -> int:
        """h_R(chamber) for a rank-1 residue R of class pc, via the
        parallelism map."""
        if pc.id not in self.tables:
            raise TruncationError(f"no table for class {pc.id}")
        n = height_of(self.graph, pc, chamber)
        t = self.tables[pc.id]
        if n not in t:
            raise TruncationError(f"coordinate {n} outside table window")
        return t[n]

    def to_json(self) -> str:
        out = []
        for cid in sorted(self.tables):
            pc = self.classes[cid]
            table = {}
            for n, v in sorted(self.tables[cid].items()):
                chamber = flat_element(self.graph, pc.rep, {pc.direction: n})
                table[word_str(chamber)] = v
            out.append({"id": cid, "table": table})
        return json.dumps({"classes": out})

    @staticmethod
    def from_json(g: DefiningGraph, text: str, window: int) -> "BlowUpData":
        """Read `to_json` output back; malformed text raises ValueError,
        KeyError, TypeError or AttributeError.  So does a table that is
        empty, has a word off its class, or two words at one height, and a
        class id listed twice."""
        tables = {}
        classes = {}
        for entry in json.loads(text)["classes"]:
            cid = entry["id"]
            if cid in tables:
                raise ValueError(f"class {cid}: listed twice")
            if not entry["table"]:
                raise ValueError(f"class {cid}: empty table")
            tables[cid] = {}
            for word, val in entry["table"].items():
                chamber = parse_word(word)
                pc = class_of_geodesic(g, chamber, cid.split("@")[0])
                if pc.id != cid:
                    raise ValueError(
                        f"class {cid}: word {word!r} lies on class {pc.id}")
                n = height_of(g, pc, chamber)
                if n in tables[cid]:
                    raise ValueError(f"class {cid}: two words at height {n}")
                classes[cid] = pc
                tables[cid][n] = int(val)
        return BlowUpData(g, tables, classes, window)


def bijective_data(g: DefiningGraph, davis: DavisBall, window: int) -> BlowUpData:
    """Identity tables on every class meeting the Davis ball."""
    return data_from_function(g, davis, window, lambda pc, n: n)


def _table_domain(davis: DavisBall, window: int) -> range:
    # table domains must cover every chamber coordinate in the Davis ball,
    # which can exceed the fiber window
    dom = max(window, davis.radius) + 1
    return range(-dom, dom + 1)


def data_from_function(g: DefiningGraph, davis: DavisBall, window: int,
                       fn) -> BlowUpData:
    classes = {pc.id: pc for pc in davis.line_classes.values()}
    dom = _table_domain(davis, window)
    return BlowUpData(g, {cid: {n: fn(pc, n) for n in dom}
                          for cid, pc in classes.items()}, classes, window)


@dataclass(frozen=True)
class FiberFunctor:
    """Window-truncated lattice fibers over the faces of a Davis ball.

    Fibers are indexed by the vertex of minimal rank of each face; the axes
    of the fiber at a vertex are the parallel classes of its factors, and
    the window is the data's.  Along a Davis edge child < parent, `inserted`
    holds the data value of each parent axis that the child lacks.
    """

    davis: DavisBall
    data: BlowUpData
    axes: dict                   # vid -> tuple of class ids
    inserted: dict               # (child, parent) -> {cid: value}

    def fiber_points(self, vid):
        rng = range(-self.data.window, self.data.window + 1)
        return itertools.product(rng, repeat=len(self.axes[vid]))

    @cached_property
    def plans(self) -> dict:
        """{(child, parent): per parent axis, (child axis, None) to copy or
        (None, constant) to insert}; an edge whose constant leaves the
        window has no plan, as its morphism is empty."""
        w, shared = self.data.window, {}    # equal plans share one tuple
        return {e: shared.setdefault(plan, plan)
                for e, cons in self.inserted.items()
                if all(abs(x) <= w for x in cons.values())
                for plan in [tuple((None, cons[c]) if c in cons
                                   else (self.axes[e[0]].index(c), None)
                                   for c in self.axes[e[1]])]}


def build_fiber_functor(data: BlowUpData, davis: DavisBall) -> FiberFunctor:
    """The fiber functor of `data` over the Davis ball.

    Each rank-1 residue base*<v> of the ball has its parallel class in
    `davis.line_classes`, computed once per ball.
    A residue's factor in direction v is the rank-1 residue with the same
    base (the gate of base*G(J) is also that of base*<v>), so it lies in the
    ball too, and every vertex takes its axes from that table.

    Along an edge child < parent, the constant inserted for a direction v of
    the parent that the child lacks is the data value at the child's base;
    the Davis order lists residues by rank, so the parent is the edge's
    later end.
    The height of the base on v's class equals that of its projection onto
    the parent's v-factor: the factor is parallel to the class line, so the
    same hyperplanes cross both, and projecting onto the factor crosses none
    of them, so the gate on the class line does not move.
    """
    line = davis.line_classes
    axes = {vid: tuple(line[r.base, v].id for v in r.type_J)
            for vid, r in davis.residue_of.items()}
    ids, inserted = davis.ball.vertex_ids, {}
    for i, nbrs in enumerate(davis.ball.adjacency):
        child = ids[i]
        base = davis.residue_of[child].base
        for parent in (ids[j] for j in nbrs if j > i):
            rp = davis.residue_of[parent]
            inserted[child, parent] = {
                pc.id: data.value(pc, base)
                for pc in (line[rp.base, w] for w in rp.type_J)
                if pc.id not in axes[child]}
    psi = FiberFunctor(davis, data, axes, inserted)
    _check_squares(psi)
    return psi


def _check_squares(psi: FiberFunctor):
    """One pass over the Davis squares, from the inserted constants alone:
    the two composites bottom -> top agree (functor laws), and their image
    is the intersection of the edge images into top (1-determinacy).

    A composite copies the bottom's axes and fixes the union of its edges'
    constants, or is empty if an edge has no plan; the edges into top fix
    one axis each, and different ones.  So composites differ at every point
    of the bottom fiber or at none, and the first point is reported.

    The Davis order is by rank, so each index square (a, b, c, d) has its
    bottom at a, its top at c and its middles at b and d."""
    plans, cons = psi.plans, psi.inserted
    ids = psi.davis.ball.vertex_ids

    def fixed(*edges):
        if all(e in plans for e in edges):
            return {c: x for e in edges for c, x in cons[e].items()}
        return None

    for square in psi.davis.ball.index_squares:
        s = bottom, m1, top, m2 = tuple(ids[x] for x in square)
        through = fixed((bottom, m1), (m1, top))
        if through != fixed((bottom, m2), (m2, top)):
            p = (-psi.data.window,) * len(psi.axes[bottom])
            raise AssertionError(
                f"functor composition differs on square {s} at {p}")
        if through != fixed((m1, top), (m2, top)):
            raise AssertionError(f"not 1-determined on square {s}")


# ---------------------------------------------------------------------------
# assembly of Y
# ---------------------------------------------------------------------------

def y_id(vid, point) -> str:
    return f"{vid}#{','.join(map(str, point))}"


@dataclass(frozen=True)
class BlowUpComplex:
    Y: CubeComplexBall
    psi: FiberFunctor
    vertex_info: dict            # y-vertex id -> (davis vid, point tuple)

    @property
    def davis(self) -> DavisBall:
        return self.psi.davis

    @cached_property
    def q(self) -> CubicalMap:
        """The restriction quotient Y -> |B|, built on first read."""
        return CubicalMap({yv: key[0] for yv, key in self.vertex_info.items()},
                          self.Y, self.davis.ball)

    def rank(self, yv) -> int:
        return self.davis.rank_of[self.vertex_info[yv][0]]

    def clique_label(self, yv):
        return self.davis.residue_of[self.vertex_info[yv][0]].type_J


def blowup_complex(psi: FiberFunctor) -> BlowUpComplex:
    """Glue sigma x Psi(sigma) over the faces of the Davis ball: one
    `rising_ball` whose up-steps are the vertical +1 inside the window and
    the plan of each Davis edge into a parent fiber, labelled as its edge.
    An edge without a plan lifts to no edge: with the window below the Davis
    radius, this is where Y loses the edges that connect it.

    Indices are mixed-radix codes (module docstring), so a plan sends the
    point with digits d to base + sum(d[c] * stride[c]), with one stride per
    copied axis, and ids, depths and steps are computed once per rank."""
    davis, window, plans = psi.davis, psi.data.window, psi.plans
    ball, radix = davis.ball, 2 * window + 1
    fibers = {}          # rank -> points, id suffixes, depths, vertical shifts
    for vid, axes in psi.axes.items():
        k = len(axes)
        if k in fibers:
            continue
        pts = list(psi.fiber_points(vid))
        fibers[k] = (pts, [",".join(map(str, p)) for p in pts],
                     [min((window - abs(x) for x in p), default=BIG_DEPTH)
                      for p in pts],
                     [[t + radix ** (k - 1 - i) if p[i] < window else None
                       for t, p in enumerate(pts)] for i in range(k)])
    order, info, depth, offset = [], {}, {}, {}
    for vid in ball.vertex_ids:
        pts, suffixes, fiber_depth, _ = fibers[len(psi.axes[vid])]
        offset[vid] = len(order)
        ids = [f"{vid}#{s}" for s in suffixes]
        order += ids
        info.update(zip(ids, [(vid, p) for p in pts]))
        d = ball.depth[vid]
        depth.update(zip(ids, [min(d, f) for f in fiber_depth]))
    shifts = {}          # strides of the copied axes -> shift per point

    def lifts(at, vid):
        """(label, base, index shift per point or None) per up-step of the
        fiber over the Davis vertex of index `at`: the vertical +1 on each
        axis, then each planned Davis edge to a later, so parent, vertex."""
        k = len(psi.axes[vid])
        for v, shift in zip(davis.residue_of[vid].type_J, fibers[k][3]):
            yield f"v:{v}", offset[vid], shift
        for j, lab in ball.adjacency[at].items():
            w = ball.vertex_ids[j]
            plan = plans.get((vid, w)) if j > at else None
            if plan is None:
                continue
            place = [radix ** i for i in reversed(range(len(plan)))]
            base = offset[w] + sum((x + window) * s for (c, x), s in
                                   zip(plan, place) if c is None)
            key = tuple(sum(s for (c, _), s in zip(plan, place) if c == a)
                        for a in range(k))
            if key not in shifts:
                shifts[key] = [sum(map(operator.mul, digits, key))
                               for digits in itertools.product(range(radix),
                                                               repeat=k)]
            yield lab, base, shifts[key]

    def edges():
        for at, vid in enumerate(ball.vertex_ids):
            start, steps = offset[vid], list(lifts(at, vid))
            for t in range(len(fibers[len(psi.axes[vid])][0])):
                for lab, base, shift in steps:
                    if shift[t] is not None:
                        yield start + t, base + shift[t], lab

    return BlowUpComplex(rising_ball(order, edges(), depth), psi, info)


# ---------------------------------------------------------------------------
# 1-data extraction and reports
# ---------------------------------------------------------------------------

def one_data(bc: BlowUpComplex) -> BlowUpData:
    """Read the tables back off the rank-1 fibers of a blow-up complex.

    Each chamber of a rank-1 residue hangs off the fiber line by exactly one
    horizontal edge; the fiber coordinate it attaches to is the table value.
    Parallelism compatibility across residues of one class is asserted.
    """
    davis = bc.davis
    g = davis.graph
    tables = {}
    classes = {}
    observed = {}
    ids, info = bc.Y.vertex_ids, bc.vertex_info
    for yv, nbrs in zip(ids, bc.Y.adjacency):
        vid, point = info[yv]
        if len(point) != 1:
            continue
        val, r = point[0], davis.residue_of[vid]
        pc = davis.line_classes[r.base, r.type_J[0]]
        classes.setdefault(pc.id, pc)
        for j in nbrs:
            nvid = info[ids[j]][0]
            if davis.rank_of[nvid] != 0:
                continue
            n = height_of(g, pc, davis.residue_of[nvid].base)
            prev = observed.setdefault((pc.id, n), val)
            if prev != val:
                raise AssertionError(
                    f"class {pc.id}: chamber coordinate {n} attaches at "
                    f"both {prev} and {val} (parallelism failure)")
    for (cid, n), val in observed.items():
        tables.setdefault(cid, {})[n] = val
    return BlowUpData(g, tables, classes, bc.psi.data.window)


def local_finiteness_report(data: BlowUpData):
    """(max fiber preimage size, least D with images D-dense on the span)."""
    max_pre = 0
    density = 0
    for t in data.tables.values():
        vals = sorted(t.values())
        c = Counter(vals)
        max_pre = max(max_pre, max(c.values()))
        lo, hi = vals[0], vals[-1]
        image = sorted(set(vals))
        for x in range(lo, hi + 1):
            density = max(density, min(abs(x - y) for y in image))
    return {"max_preimage": max_pre, "density": density}


def _move_fibers(src: BlowUpComplex, dst: BlowUpComplex, cell_of):
    """A vertex map Y_src -> Y_dst that moves each fiber as a whole.

    `cell_of(vid)`, called once per Davis vertex, is None where the fiber
    over vid does not move, and otherwise (target vid, one (source axis,
    coordinate table) per axis of the target fiber).  Points off a table,
    or whose image is not a vertex of Y_dst, are left out.
    """
    cells = {}
    vmap = {}
    for yv in src.Y.vertex_ids:
        vid, p = src.vertex_info[yv]
        if vid not in cells:
            cells[vid] = cell_of(vid)
        if cells[vid] is None:
            continue
        tvid, coords = cells[vid]
        img = tuple(f.get(p[i]) for i, f in coords)
        target = y_id(tvid, img)
        if None not in img and target in dst.vertex_info:
            vmap[yv] = target
    return vmap


# ---------------------------------------------------------------------------
# the equivariant construction
# ---------------------------------------------------------------------------

def equivariant_blowup(g: DefiningGraph, tables: ActionTables, resolutions,
                       davis: DavisBall, window: int):
    """Blow up with data propagated through the action.

    `resolutions` maps an orbit-representative class id to an equivariant
    table Z -> Z (the block map of a semiconjugacy, or any isometry table).
    Every class gets its data from `building.resolved_table`, which
    transports it through a deterministically chosen group word and raises
    `TruncationError` when a resolution is too short.  Returns the blow-up
    complex and, per generator, the induced vertex map on Y
    (`_induced_action_on_y`); a resolution the action does not move by
    isometries raises `semiconjugacy.ActionError`.
    """
    dom = _table_domain(davis, window)
    pulled = {}                  # class id -> its resolved table on dom

    def fn(pc, n):
        if pc.id not in pulled:
            pulled[pc.id] = resolved_table(g, tables, resolutions, pc, dom)
        return pulled[pc.id][n]

    psi = build_fiber_functor(data_from_function(g, davis, window, fn), davis)
    bc = blowup_complex(psi)
    actions = {name: _induced_action_on_y(bc, tables, name)
               for name in tables.generators}
    return bc, actions


def _induced_action_on_y(bc: BlowUpComplex, tables: ActionTables, name: str):
    """The vertex map by which a generator moves Y: the fiber over each
    Davis vertex goes to the fiber over its image residue, each factor's
    coordinate by the `class_isometry` of its class, so the map commutes
    with q by construction.  Fibers whose image residue leaves the Davis
    ball, or whose class isometry is undetermined, are left out."""
    davis, data = bc.davis, bc.psi.data
    g = davis.graph
    window = range(-data.window, data.window + 1)
    moves = {}                 # class id -> (image class id, coordinate table)
    for cid, pc in data.classes.items():
        try:
            img = image_class(g, tables, name, pc)
        except TruncationError:
            continue
        iso = img.id in data.tables and class_isometry(
            g, tables, name, pc, data.tables[cid], img, data.tables[img.id])
        if iso:
            moves[cid] = img.id, {x: iso[0] * x + iso[1] for x in window}

    def cell_of(vid):
        try:
            r2 = residue_image(g, tables, name, davis.residue_of[vid])
        except TruncationError:
            return None
        axes = bc.psi.axes[vid]
        if r2.id not in davis.residue_of or any(c not in moves for c in axes):
            return None
        by_class = {moves[c][0]: (i, moves[c][1]) for i, c in enumerate(axes)}
        return r2.id, [by_class[c] for c in bc.psi.axes[r2.id]]

    return _move_fibers(bc, bc, cell_of)
