import pytest

import powergenus.groups as gr
import powergenus.powergraph as pg
from powergenus.errors import InvalidVertex, ParseError

from conftest import hexagon_union


def test_power_graph_z6():
    g = pg.power_graph(gr.cyclic(6))
    assert g.n == 6 and g.m == 13  # K6 minus two edges


def test_power_graph_z8_complete():
    g = pg.power_graph(gr.cyclic(8))
    assert g.m == 28  # K8: prime-power cyclic groups give complete graphs


def test_power_graph_klein_star():
    g = pg.power_graph(gr.direct_product(gr.cyclic(2), gr.cyclic(2)))
    assert g.m == 3  # star on the identity


def test_power_graph_symmetry():
    g = pg.power_graph(gr.symmetric(3))
    adj = g.adjacency()
    for u, v in g.edges:
        assert v in adj[u] and u in adj[v]
    # identity is adjacent to everything
    assert len(adj[0]) == g.n - 1


def test_complete_graphs():
    assert pg.complete_graph(5).m == 10
    assert pg.complete_bipartite(3, 4).m == 12


def test_edges_normalised():
    want = ((0, 1), (0, 2), (1, 3))
    for edges in ([(0, 1), (0, 2), (1, 3)], [(1, 0), (2, 0), (3, 1)],
                  [(1, 3), (0, 2), (0, 1)], [(0, 1), (1, 0), (0, 2), (1, 3)],
                  [(0, 1), (0, 1), (0, 2), (1, 3)], [[0, 1], [0, 2], [1, 3]]):
        assert pg.Graph(4, edges).edges == want


@pytest.mark.parametrize("edges", [
    ((0, 1), (1, 1)),                   # loop, sorted input
    ((2, 2), (0, 1)),                   # loop, unsorted input
    ((0, 1), (1, 4)),                   # out of range, sorted input
    ((0, 4), (1, 2)),                   # out of range, not on the last edge
    ((2, 1), (0, 9)),                   # out of range, unsorted input
    ((-1, 2), (0, 1)),                  # negative endpoint
])
def test_bad_edges_refused(edges):
    with pytest.raises(InvalidVertex):
        pg.Graph(4, edges)


def test_labels_checked():
    assert pg.Graph(3, ((0, 1),), ("a", "b", "c")).labels == ("a", "b", "c")
    for labels in (("a", "b"), ("a", "b", "a")):
        with pytest.raises(InvalidVertex):
            pg.Graph(3, ((0, 1),), labels)


def test_induced():
    k5 = pg.complete_graph(5)
    sub = pg.induced(k5, [0, 2, 4])
    assert sub.n == 3 and sub.m == 3
    with pytest.raises(InvalidVertex):
        pg.induced(k5, [0, 9])


def test_built_hexagon_unions_expected_sizes():
    two = hexagon_union(2)
    assert (two.n, two.m) == (9, 23)
    three = hexagon_union(3)
    assert (three.n, three.m) == (12, 33)


def test_edge_list_roundtrip():
    g = pg.power_graph(gr.cyclic(6))
    text = pg.to_edge_list(g)
    back = pg.from_edge_list(text)
    assert (back.n, back.edges) == (g.n, g.edges)  # labels are not exported
    with pytest.raises(ParseError):
        pg.from_edge_list("3 2\n0 1\n")  # missing an edge line
    assert pg.from_edge_list("2 1\n0 1\n").n == 2  # n = m + 1 is allowed
    assert pg.from_edge_list("1 0\n").n == 1


@pytest.mark.parametrize("text", [
    "10000000 1\n0 1\n", "3 1\n0 1\n", "-1 0\n", "2 0\n",
])
def test_edge_list_header_vertices_bounded(text):
    """m edges connect at most m + 1 vertices; a header claiming more is
    rejected before anything is allocated per vertex."""
    with pytest.raises(ParseError):
        pg.from_edge_list(text)


def test_to_dot():
    g = pg.complete_graph(3)
    dot = pg.to_dot(g)
    assert dot.startswith("graph G {")
    assert dot.count("--") == 3
