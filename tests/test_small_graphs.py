"""Every defining graph on 1 to 5 vertices, up to isomorphism, as a case of
the Sageev round trip, of the dual dimension, of `hyperplanes` against its
oracle and of the flag-link check."""

import functools
import itertools

import pytest

from cubikit import cube_complex as cc
from cubikit import graph_core as gc
from cubikit import raag_geometry as rg
from cubikit import wallspace_dual as wd

from .test_hyperplanes import assert_matches_oracle
from .test_wallspace_dual import max_cube_dimension_oracle


def small_graphs(max_vertices=5):
    """One graph per isomorphism class on 1 to `max_vertices` vertices
    a, b, c, ...: each edge set not yet seen, by vertex count and then by
    edge count, marks every relabelling of itself as seen."""
    out = []
    for n in range(1, max_vertices + 1):
        names = "abcdefgh"[:n]
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                if frozenset(edges) in seen:
                    continue
                seen |= {frozenset(tuple(sorted((p[a], p[b])))
                                   for a, b in edges) for p in perms}
                out.append(gc.DefiningGraph.make(
                    names, [(names[a], names[b]) for a, b in edges]))
    return out


GRAPHS = small_graphs()


def graph_id(g):
    edges = ",".join("".join(sorted(e)) for e in sorted(g.edges, key=sorted))
    return f"{len(g.vertices)}:{edges or '-'}"


def has_triangle(g):
    return any(g.is_clique(t) for t in itertools.combinations(g.vertices, 3))


def test_small_graphs_are_the_isomorphism_classes():
    # OEIS A000088: 1, 2, 4, 11 and 34 graphs on 1 to 5 vertices
    counts = [sum(len(g.vertices) == n for g in GRAPHS) for n in range(1, 6)]
    assert counts == [1, 2, 4, 11, 34]
    assert sum(map(has_triangle, GRAPHS)) == 25


@functools.lru_cache(maxsize=None)
def hyperplane_case(index, radius):
    """The ball of radius `radius` of graph `index` and the wallspace of its
    hyperplanes on the margin-1 interior."""
    ball = rg.ball_X(GRAPHS[index], radius)
    return ball, wd.hyperplane_wallspace(ball, margin=1)


# At radius 3 the interior is the radius-2 ball, which is not median-closed
# once the graph has a triangle: in Z^3 the median of (1,1,0), (1,0,1) and
# (0,1,1) is (1,1,1), at distance 3.  K3's dual has 33 vertices against 25
# points.  Mended with the dimension-3 windows of ROADMAP item 5.
CASES = [pytest.param(i, radius, id=f"{graph_id(g)}-r{radius}",
                      marks=[pytest.mark.xfail(
                          strict=True, reason="ROADMAP item 5: the interior "
                          "of a ball with a 3-cube is not median-closed")]
                      if radius == 3 and has_triangle(g) else [])
         for radius in (2, 3) for i, g in enumerate(GRAPHS)]


@pytest.mark.parametrize("index, radius", CASES)
def test_sageev_round_trip(index, radius):
    ball, ws = hyperplane_case(index, radius)
    span = ball.span([v for v in ball.vertex_ids if ball.depth[v] >= 1])
    assert cc.labeled_isomorphism(wd.dual_cube_complex(ws), span) is not None


@pytest.mark.parametrize("radius", (2, 3))
@pytest.mark.parametrize("index", range(len(GRAPHS)),
                         ids=[graph_id(g) for g in GRAPHS])
def test_dual_dimension_is_the_largest_maximal_cube(index, radius):
    _, ws = hyperplane_case(index, radius)
    assert wd.dual_dimension(ws) == \
        max(len(fam) for fam, _ in wd.maximal_cubes(ws)) == \
        max_cube_dimension_oracle(ws)


# every graph at radius 2, and at radius 3 the 18 graphs on at most 4
# vertices: radius 3 on all 52 graphs costs about 19 s
@pytest.mark.parametrize("index, radius", [
    pytest.param(i, radius, id=f"{graph_id(g)}-r{radius}")
    for radius in (2, 3) for i, g in enumerate(GRAPHS)
    if radius == 2 or len(g.vertices) <= 4])
def test_hyperplanes_match_oracle(index, radius):
    ball, _ = hyperplane_case(index, radius)
    assert_matches_oracle(ball)


# 3-cube fills are tested at depth >= 3 only: at depth 2 a 3-cube's far
# corner may lie past the window, and every graph with a triangle failed
# there
@pytest.mark.parametrize("radius", (2, 3))
@pytest.mark.parametrize("index", range(len(GRAPHS)),
                         ids=[graph_id(g) for g in GRAPHS])
def test_flag_links_pass(index, radius):
    ball, _ = hyperplane_case(index, radius)
    report = cc.check_flag_links(ball)
    assert report["ok"], report["failures"][:3]
    assert report["checked"] == len(ball.interior())
