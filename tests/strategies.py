"""Hypothesis strategies shared by the test modules."""

import itertools

from hypothesis import strategies as st

from cubikit import graph_core as gc


@st.composite
def defining_graphs(draw, max_vertices=5):
    """A defining graph on 1 to `max_vertices` vertices a, b, c, ..., each
    pair an edge or not by one drawn boolean, so triangles and cone vertices
    (adjacent to every other vertex) are common from three vertices up."""
    vertices = "abcdefgh"[:draw(st.integers(1, max_vertices))]
    pairs = list(itertools.combinations(vertices, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return gc.DefiningGraph.make(vertices, itertools.compress(pairs, keep))
