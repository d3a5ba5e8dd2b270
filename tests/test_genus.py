import math

import pytest

import powergenus.embed as em
import powergenus.genus as gn
import powergenus.powergraph as pg
from powergenus.errors import Disconnected, InexactInput, InvalidParameter

from conftest import b1_graph, hexagon_union, k33_with_path


def test_kn_formulas():
    assert [gn.kn_genus(n) for n in range(3, 9)] == [0, 0, 1, 1, 1, 2]
    assert [gn.kn_crosscap(n) for n in range(3, 9)] == [0, 0, 1, 1, 3, 4]
    # K7 is the lone exception to the ceiling formula
    assert gn.kn_crosscap(7) == 3 != math.ceil(4 * 3 / 6)


def test_kmn_formulas():
    assert gn.kmn_genus(3, 3) == 1
    assert gn.kmn_genus(3, 6) == 1
    assert gn.kmn_genus(3, 8) == 2
    assert gn.kmn_genus(4, 4) == 1
    assert gn.kmn_crosscap(3, 3) == 1
    assert gn.kmn_crosscap(3, 5) == 2
    assert gn.kmn_genus(2, 7) == 0  # trees of cycles are planar


def test_girth():
    assert gn.girth(pg.complete_graph(4)) == 3
    assert gn.girth(pg.complete_bipartite(3, 3)) == 4
    assert gn.girth(pg.Graph(3, ((0, 1), (1, 2)))) == math.inf


def test_clique_number():
    import networkx as nx
    import powergenus.groups as gr
    assert gn.clique_number(pg.complete_graph(6)) == 6
    g = pg.power_graph(gr.cyclic(12))
    ours = gn.clique_number(g)
    # independent oracle: networkx exhaustive clique enumeration
    best = max(len(c) for c in nx.find_cliques(g.to_networkx()))
    assert ours == best == 9  # chain 1 | 3 | 6 | 12: 1+2+2+4 elements


def test_euler_lower_bound():
    k7 = pg.complete_graph(7)
    assert gn.euler_lower_bound(k7, "orientable") == 1
    assert gn.euler_lower_bound(k7, "nonorientable") == 2  # true value is 3
    k33 = pg.complete_bipartite(3, 3)
    assert gn.euler_lower_bound(k33, "orientable") == 1
    with pytest.raises(InvalidParameter):
        gn.euler_lower_bound(k7, "projective")


def test_blocks():
    # two triangles joined at vertex 0
    g = pg.Graph(5, ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)))
    bs = gn.blocks(g)
    assert len(bs) == 2
    assert all(b.n == 3 and b.m == 3 for b in bs)
    with pytest.raises(Disconnected):
        gn.blocks(pg.Graph(4, ((0, 1), (2, 3))))


def test_is_planar():
    assert gn.is_planar(pg.complete_graph(4)).planar
    res = gn.is_planar(pg.complete_graph(5))
    assert not res.planar and res.witness is not None
    assert gn.is_planar(pg.complete_bipartite(2, 5)).planar
    # the witness of a graph with a pendant path is still a subgraph of it
    graph = k33_with_path(5)
    w = gn.is_planar(graph).witness
    assert (w.n, w.m) == (6, 9)
    index = {label: v for v, label in enumerate(graph.labels)}
    assert all((index[w.labels[u]], index[w.labels[v]]) in graph.edges
               for u, v in w.edges)


def test_genus_exact_small():
    assert gn.genus_exact(pg.complete_graph(4)).value == 0
    assert gn.genus_exact(pg.complete_graph(5)).value == 1
    assert gn.crosscap_exact(pg.complete_graph(6)).value == 1
    assert gn.crosscap_exact(pg.complete_graph(4)).value == 0


def test_genus_result_bounds_refuse_value():
    k8 = pg.complete_graph(8)
    res = gn.genus_exact(k8, gn.Budget(max_nodes=20, max_seconds=60))
    assert res.kind == "bounds"
    with pytest.raises(InexactInput):
        res.value
    # the signed fallback: one flipped edge of the default rotation
    res = gn.crosscap_exact(k8, gn.Budget(max_nodes=20))
    assert (res.kind, res.lower, res.upper) == ("bounds", 4, 19)
    with pytest.raises(InexactInput):
        res.value
    uc = res.upper_certificate
    assert uc["rotation"].is_signed() and not uc["trace"].orientable
    ok, msg = em.verify_certificate(
        em.certificate_to_text(k8, uc["rotation"], uc["trace"]))
    assert ok, msg


def test_subgraph_bound_when_euler_bound_is_zero():
    """K3,3 with one edge subdivided has Euler bound 0 on both surfaces, so
    its lower bound 1 comes from a Kuratowski witness."""
    k33 = list(pg.complete_bipartite(3, 3).edges)
    (u, v) = k33.pop(0)
    graph = pg.Graph(7, tuple(sorted(k33 + [(u, 6), (v, 6)])))
    for surface, run in (("orientable", gn.genus_exact),
                         ("nonorientable", gn.crosscap_exact)):
        assert gn.euler_lower_bound(graph, surface) == 0
        res = run(graph)
        assert res.value == 1
        lc = res.lower_certificate
        assert lc["method"] == "subgraph_bound" and lc["value"] == 1
        assert not gn.is_planar(lc["witness"]).planar


def test_exhaustion_certificate():
    res = gn.genus_exact(pg.complete_graph(6))
    assert res.value == 1
    assert res.lower_certificate["method"] in ("euler_bound",
                                               "exhaustive_search")
    assert res.upper_certificate["method"] == "embedding"


def test_compose_blocks_formulas():
    def exact(g, k):
        return (gn.GenusResult("exact", g, g), gn.GenusResult("exact", k, k))

    # one K5 block: unchanged
    og, ng = gn.compose_blocks([exact(1, 1)])
    assert og.value == 1 and ng.value == 1
    # three K5 blocks at a cut vertex: crosscap 3
    og, ng = gn.compose_blocks([exact(1, 1)] * 3)
    assert og.value == 3 and ng.value == 3
    # eight K6 blocks: genus 8
    og, ng = gn.compose_blocks([exact(1, 1)] * 8)
    assert og.value == 8
    # K7 and K4 blocks: genus 1 + 0... plus K7 crosscap exception in play
    og, ng = gn.compose_blocks([exact(1, 3), exact(0, 0)])
    assert og.value == 1
    with pytest.raises(InexactInput):
        gn.compose_blocks([])
    with pytest.raises(InexactInput):
        gn.compose_blocks([(gn.GenusResult("bounds", 1, 2),
                            gn.GenusResult("exact", 1, 1))])


def test_simplify():
    # K4 with a subdivided edge and a pendant path: smoothing and leaf
    # removal recover the K4 core
    k4 = list(pg.complete_graph(4).edges)
    k4.remove((2, 3))
    g = pg.Graph(7, tuple(k4) + ((2, 4), (4, 3), (3, 5), (5, 6)))
    res = gn.simplify(g)
    assert (res.graph.n, res.graph.m) == (4, 6)
    assert res.steps


def test_hard_targets_delta_and_b1():
    delta = hexagon_union(2)
    assert gn.genus_exact(delta).value == 1
    assert gn.crosscap_exact(delta).value == 2
    b1 = b1_graph()
    assert gn.crosscap_exact(b1).value == 2
