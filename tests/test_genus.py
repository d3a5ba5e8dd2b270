import math
import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powergenus.catalog as cat
import powergenus.embed as em
import powergenus.genus as gn
import powergenus.groups as gr
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


def _nx_girth(graph):
    return nx.girth(graph.to_networkx())


def test_girth_matches_networkx_on_catalog_blocks():
    for e in cat.entries():
        for b in gn.blocks(pg.power_graph(cat.get(e.label))):
            assert gn.girth(b) == _nx_girth(b), (e.label, b)


def test_girth_matches_networkx_off_triangles():
    forest = pg.Graph(7, ((0, 1), (1, 2), (1, 3), (4, 5), (5, 6)))
    cases = [forest, pg.complete_bipartite(3, 4), hexagon_union(2),
             pg.Graph(5, tuple((i, (i + 1) % 5) for i in range(5))),
             pg.Graph(10, tuple(nx.petersen_graph().edges()))]
    for graph in cases:
        assert gn.girth(graph) == _nx_girth(graph), graph


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
    with pytest.raises(Disconnected):
        gn.blocks(pg.Graph(3, ((0, 1),)))
    assert gn.blocks(pg.Graph(0, ())) == []
    assert gn.blocks(pg.Graph(1, ())) == []


def _nx_blocks(graph):
    """blocks(graph) with networkx as the oracle."""
    comps = [pg.induced(graph, {v for e in comp for v in e})
             for comp in nx.biconnected_component_edges(graph.to_networkx())]
    return sorted(comps, key=lambda b: (b.labels, b.edges))


def test_blocks_match_networkx_on_catalog():
    for e in cat.entries():
        graph = pg.power_graph(cat.get(e.label))
        assert gn.blocks(graph) == _nx_blocks(graph), e.label


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 30), st.integers(0, 2**32))
def test_blocks_match_networkx_on_random_graphs(n, seed):
    # a random spanning tree, so the graph is connected, then random edges
    rnd = random.Random(seed)
    edges = {(rnd.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
              if rnd.random() < rnd.choice((0.05, 0.15, 0.4))}
    labels = [f"v{i}" for i in range(n)]
    rnd.shuffle(labels)
    graph = pg.Graph(n, tuple(edges), tuple(labels))
    assert gn.blocks(graph) == _nx_blocks(graph)


def test_blocks_of_a_long_path():
    """The search is iterative: a path longer than the recursion limit
    splits into its edges."""
    n = 3000
    graph = pg.Graph(n, tuple((v, v + 1) for v in range(n - 1)))
    bs = gn.blocks(graph)
    assert len(bs) == n - 1 and all((b.n, b.m) == (2, 1) for b in bs)


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


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty block cache and answer memo for this test, so its counts
    start from zero."""
    monkeypatch.setattr(gn, "_CLASSES", {})
    monkeypatch.setattr(gn, "_ANSWERS", {})


def _counting(monkeypatch, name):
    """Replace genus.<name> by a wrapper that records the graph of each call;
    returns the record."""
    calls = []
    real = getattr(gn, name)

    def counting(graph, *args, **kwargs):
        calls.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(gn, name, counting)
    return calls


def _relabelled(graph, seed):
    """graph with its vertices renumbered at random; each keeps its label."""
    new = list(range(graph.n))
    random.Random(seed).shuffle(new)
    labels = [""] * graph.n
    for v, label in enumerate(graph.labels):
        labels[new[v]] = label
    return pg.Graph(graph.n, tuple((new[u], new[v]) for u, v in graph.edges),
                    tuple(labels))


def _dic3_block():
    return next(b for b in gn.blocks(pg.power_graph(cat.get("Dic3")))
                if b.m == 28)


def test_planarity_decided_once_per_graph(monkeypatch, fresh_cache):
    """genus_exact then crosscap_exact on one block whose Euler bound is 0
    decide planarity once and share the result.  The decision is kept per
    isomorphism class: an equal new Graph and a relabelled copy are not
    decided again."""
    real = gn.is_planar
    calls = _counting(monkeypatch, "is_planar")
    for block, planar in ((pg.complete_graph(4), True), (_dic3_block(), False)):
        calls.clear()
        og, ng = gn.genus_exact(block), gn.crosscap_exact(block)
        assert len(calls) == 1 and calls[0] is block
        assert og.path == ng.path == ("planarity" if planar else "search")
        if planar:
            assert (og.value, ng.value) == (0, 0)
            assert og.upper_certificate["rotation"] \
                is ng.upper_certificate["rotation"]
        else:
            assert (og.value, ng.value) == (1, 1)
            witness = og.lower_certificate["witness"]
            assert witness is ng.lower_certificate["witness"]
            assert witness == real(block).witness
        fresh = pg.Graph(block.n, block.edges, block.labels)
        assert fresh == block and fresh is not block
        for copy in (fresh, _relabelled(block, 1)):
            for res, again in ((og, gn.genus_exact(copy)),
                               (ng, gn.crosscap_exact(copy))):
                assert again.path == "cache"
                assert (again.kind, again.lower, again.upper) \
                    == (res.kind, res.lower, res.upper)
        assert len(calls) == 1


def _assert_kuratowski_witness(graph, w):
    """w is a subgraph of graph under graph's labels, nonplanar, planar after
    deleting any one edge, and vertex-minimal: graph's induced subgraph on
    w's vertices turns planar when any one of them is deleted.  A second
    call gives the same witness."""
    index = {label: v for v, label in enumerate(graph.labels)}
    verts = [index[label] for label in w.labels]
    assert {tuple(sorted((verts[u], verts[v]))) for u, v in w.edges} \
        <= set(graph.edges)
    h = w.to_networkx()
    assert not nx.is_planar(h)
    for e in list(h.edges):
        h.remove_edge(*e)
        assert nx.is_planar(h)
        h.add_edge(*e)
    g = graph.to_networkx()
    for v in verts:
        assert nx.is_planar(g.subgraph(set(verts) - {v}))
    assert gn.is_planar(graph).witness == w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(6, 14), st.randoms(use_true_random=False))
def test_witness_of_random_nonplanar_graph(n, rnd):
    # a random spanning tree, then random edges until the graph is nonplanar
    g = nx.Graph((rnd.randrange(v), v) for v in range(1, n))
    missing = [(u, v) for u in range(n) for v in range(u + 1, n)
               if not g.has_edge(u, v)]
    rnd.shuffle(missing)
    for e in missing:
        if not nx.is_planar(g):
            break
        g.add_edge(*e)
    labels = [f"v{i}" for i in range(n)]
    rnd.shuffle(labels)
    graph = pg.Graph(n, tuple(g.edges), tuple(labels))
    res = gn.is_planar(graph)
    assert not res.planar
    _assert_kuratowski_witness(graph, res.witness)


# the catalog blocks that are nonplanar with Euler bound 0 on both surfaces,
# so their lower bound 1 rests on the witness
NONPLANAR_BLOCKS = {"Dic3": (12, 28), "SL(2,3)": (24, 64), "[24,7]": (24, 63),
                    "[24,8]": (18, 48), "Z3^2:Z4i": (36, 94),
                    "[72,43]": (30, 78)}


@pytest.mark.parametrize("label", sorted(NONPLANAR_BLOCKS))
def test_witness_of_nonplanar_catalog_block(label):
    bs = [b for b in gn.blocks(pg.power_graph(cat.get(label)))
          if gn.euler_lower_bound(b, "nonorientable") == 0
          and not nx.is_planar(b.to_networkx())]
    assert [(b.n, b.m) for b in bs] == [NONPLANAR_BLOCKS[label]]
    _assert_kuratowski_witness(bs[0], gn.is_planar(bs[0]).witness)


def test_witness_of_z144():
    graph = pg.power_graph(gr.cyclic(144))
    _assert_kuratowski_witness(graph, gn.is_planar(graph).witness)


def test_cache_tells_apart_graphs_with_equal_key(fresh_cache):
    """The triangular prism and K3,3 are both 3-regular on 6 vertices, so
    colour refinement does not split them and they share a class key, but
    they are not isomorphic, so each keeps its own class and values."""
    prism = pg.Graph(6, tuple(nx.circular_ladder_graph(3).edges))
    k33 = pg.complete_bipartite(3, 3)
    for graph, value in ((prism, 0), (k33, 1), (prism, 0), (k33, 1)):
        assert gn.genus_exact(graph).value == value
        assert gn.crosscap_exact(graph).value == value
    (classes,) = gn._CLASSES.values()
    assert [c.graph for c in classes] == [prism, k33]


def _shrikhande():
    """Z4 x Z4, with x ~ y when x - y is +-(1, 0), +-(0, 1) or +-(1, 1)."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return pg.Graph(16, tuple((4 * a + b, 4 * c + d)
                              for a in range(4) for b in range(4)
                              for c in range(4) for d in range(4)
                              if ((c - a) % 4, (d - b) % 4) in steps))


def _rook():
    """The 4 x 4 rook's graph: cells in a common row or column."""
    return pg.Graph(16, tuple((u, v) for u in range(16) for v in range(u + 1, 16)
                              if u // 4 == v // 4 or u % 4 == v % 4))


def test_cache_tells_apart_strongly_regular_graphs(fresh_cache):
    """The rook's graph and the Shrikhande graph are both strongly regular
    with parameters (16, 6, 2, 2), so refinement gives them one key, but
    they are not isomorphic.  A relabelled copy of each joins its own
    class, along an isomorphism from the class's first graph."""
    rook, shrikhande = _rook(), _shrikhande()
    assert not nx.is_isomorphic(rook.to_networkx(), shrikhande.to_networkx())
    entries = [gn._class_of(graph)[0] for graph in (rook, shrikhande)]
    assert entries[0] is not entries[1] and entries[0].key == entries[1].key
    assert [len(classes) for classes in gn._CLASSES.values()] == [2]
    for entry, graph in zip(entries, (rook, shrikhande)):
        copy = _relabelled(graph, 11)
        hit, phi = gn._class_of(copy)
        assert hit is entry
        _assert_isomorphism(graph, copy, phi)
    assert [len(classes) for classes in gn._CLASSES.values()] == [2]


def test_class_lookup_backtracks_on_rigid_regular_graph(fresh_cache):
    """The Frucht graph is 3-regular and has no automorphism but the
    identity: refinement leaves all 12 vertices in one class, and only one
    of them is the image of the vertex that is paired first, so relabelled
    copies are mostly found past wrong pairings."""
    frucht = pg.Graph(12, tuple(nx.frucht_graph().edges))
    entry, _ = gn._class_of(frucht)
    assert entry.colours == [0] * 12
    for seed in range(12):
        copy = _relabelled(frucht, seed)
        hit, phi = gn._class_of(copy)
        assert hit is entry
        if copy != frucht:
            _assert_isomorphism(frucht, copy, phi)


def test_class_lookup_refines_each_representative_choice_once(
        monkeypatch, fresh_cache):
    """Individualising a vertex of the representative is refined once per
    backtracking frame, not once per candidate image: 20 relabelled
    copies of the Frucht graph take 198 refinements in all."""
    frucht = pg.Graph(12, tuple(nx.frucht_graph().edges))
    entry, _ = gn._class_of(frucht)
    refined = _counting(monkeypatch, "_refine")
    for seed in range(20):
        assert gn._class_of(_relabelled(frucht, seed))[0] is entry
    assert len(refined) == 198


def _assert_isomorphism(rep, graph, phi):
    """phi is a bijection from rep's vertices onto graph's that maps rep's
    edge set onto graph's."""
    assert sorted(phi) == list(range(graph.n))
    assert {tuple(sorted((phi[u], phi[v]))) for u, v in rep.edges} \
        == set(graph.edges)


def _random_graph(rnd, n, m):
    """A random graph with n vertices and m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return pg.Graph(n, tuple(rnd.sample(pairs, m)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(4, 14), st.randoms(use_true_random=False))
def test_class_lookup_matches_networkx(n, rnd):
    """A relabelled copy lands in the first graph's class along an
    isomorphism, and a random graph with the same n and m joins that class
    exactly when networkx calls it isomorphic."""
    m = rnd.randrange(n * (n - 1) // 2 + 1)
    graph = _random_graph(rnd, n, m)
    with mock.patch.object(gn, "_CLASSES", {}):
        entry, phi = gn._class_of(graph)
        assert phi is None and entry.graph is graph
        copy = _relabelled(graph, rnd.randrange(10**6))
        hit, phi = gn._class_of(copy)
        assert hit is entry
        if copy != graph:
            _assert_isomorphism(graph, copy, phi)
        other = _random_graph(rnd, n, m)
        hit, phi = gn._class_of(other)
        same = nx.is_isomorphic(graph.to_networkx(), other.to_networkx())
        assert (hit is entry) == same
        if same and other != graph:
            _assert_isomorphism(graph, other, phi)


def test_catalog_block_classes_match_networkx(fresh_cache):
    """The classes of the 310 blocks of the catalog power graphs are
    networkx's isomorphism classes, and a relabelled copy of each block
    joins its block's class along an isomorphism."""
    all_blocks = [b for e in cat.entries()
                  for b in gn.blocks(pg.power_graph(cat.get(e.label)))]
    assert len(all_blocks) == 310
    ours, reps, theirs = [], [], []
    for b in all_blocks:
        ours.append(gn._class_of(b)[0])
        g = b.to_networkx()
        i = next((i for i, r in enumerate(reps) if nx.is_isomorphic(r, g)),
                 len(reps))
        if i == len(reps):
            reps.append(g)
        theirs.append(i)
    first = {}
    assert [first.setdefault(id(entry), len(first)) for entry in ours] \
        == theirs
    assert len(reps) == 40
    for i, (b, entry) in enumerate(zip(all_blocks, ours)):
        copy = _relabelled(b, i)
        hit, phi = gn._class_of(copy)
        assert hit is entry
        if copy != entry.graph:
            _assert_isomorphism(entry.graph, copy, phi)


def test_carried_traces_match_retrace_on_catalog_blocks(fresh_cache):
    """Both surfaces of every catalog block, then of a relabelled copy of
    each: the copy is served from the cache, and its carried embedding
    re-traces on the copy to the face trace carried unchanged with it."""
    budget = gn.Budget(max_nodes=800, max_seconds=math.inf)
    all_blocks = [b for e in cat.entries()
                  for b in gn.blocks(pg.power_graph(cat.get(e.label)))]
    assert len(all_blocks) == 310
    for b in all_blocks:
        gn.genus_exact(b, budget)
        gn.crosscap_exact(b, budget)
    for i, b in enumerate(all_blocks):
        copy = _relabelled(b, i)
        for res in (gn.genus_exact(copy, budget),
                    gn.crosscap_exact(copy, budget)):
            assert res.path == "cache"
            uc = res.upper_certificate
            assert uc["method"] == "embedding"
            assert em.trace_faces(copy, uc["rotation"]) == uc["trace"]


@pytest.mark.parametrize("name", ["K400", "Z2xZ64"])
def test_large_relabelled_graph_served_from_cache(fresh_cache, name):
    """Large twin-heavy graphs: K400 is one class of 400 closed twins, and
    the power graph of Z2 x Z64 (128 vertices) needs individualisation
    before its classes are twins.  A relabelled copy is answered from the
    cache."""
    graph = (pg.complete_graph(400) if name == "K400" else
             pg.power_graph(gr.direct_product(gr.cyclic(2), gr.cyclic(64))))
    budget = gn.Budget(max_nodes=1)
    first = gn.genus_exact(graph, budget)
    copy = _relabelled(graph, 5)
    hit = gn.genus_exact(copy, budget)
    assert hit.path == "cache"
    assert (hit.kind, hit.lower, hit.upper) \
        == (first.kind, first.lower, first.upper)
    tr = hit.upper_certificate["trace"]
    assert tr == em.trace_faces(copy, hit.upper_certificate["rotation"])
    assert tr.orientable and tr.euler_genus == 2 * hit.upper


@pytest.mark.parametrize("name", ["Dic3", "hexagon_union(3)"])
def test_relabelled_block_served_from_cache(monkeypatch, fresh_cache, name):
    """A relabelled copy of a block seen before is answered without search
    or planarity, with certificates that check on the copy itself."""
    block = _dic3_block() if name == "Dic3" else hexagon_union(3)
    first = (gn.genus_exact(block), gn.crosscap_exact(block))
    searches = _counting(monkeypatch, "search_embedding")
    planarity = _counting(monkeypatch, "is_planar")
    copy = _relabelled(block, 7)
    again = (gn.genus_exact(copy), gn.crosscap_exact(copy))
    assert searches == [] and planarity == []
    for res, hit, orientable in zip(first, again, (True, False)):
        assert hit.path == "cache"
        assert (hit.kind, hit.lower, hit.upper) \
            == (res.kind, res.lower, res.upper)
        uc = hit.upper_certificate
        ok, msg = em.verify_certificate(
            em.certificate_to_text(copy, uc["rotation"], uc["trace"]))
        assert ok, msg
        tr = em.trace_faces(copy, uc["rotation"])
        assert tr == uc["trace"] and tr.orientable == orientable
        assert tr.euler_genus == (2 if orientable else 1) * hit.upper
        lc = hit.lower_certificate
        assert lc is not res.lower_certificate
        if lc["method"] == "subgraph_bound":
            _assert_kuratowski_witness(copy, lc["witness"])
        else:
            assert lc == res.lower_certificate
    assert [c["method"] for c in (first[0].lower_certificate,
                                  first[1].lower_certificate)] \
        == (["subgraph_bound"] * 2 if name == "Dic3"
            else ["exhaustive_search"] * 2)


def test_cache_keys_on_budget(fresh_cache):
    """Bounds found under a small budget are not served to a larger one."""
    graph = hexagon_union(3)
    small = gn.genus_exact(graph, gn.Budget(max_nodes=20))
    assert (small.kind, small.lower, small.path) == ("bounds", 1, "search")
    # the genus-1 exhaustion takes 32,354 nodes
    big = gn.genus_exact(graph, gn.Budget(max_nodes=40_000))
    assert (big.kind, big.value, big.path) == ("exact", 2, "search")
    again = gn.genus_exact(graph, gn.Budget(max_nodes=20))
    assert (again, again.path) == (small, "cache")


def test_graph_asked_again_answered_from_memo(monkeypatch, fresh_cache):
    """A block and a relabelled copy, both surfaces each.  An equal new
    Graph of either is answered from what ``_exact`` returned for it: path
    "cache", no ``_refine``, ``_isomorphism`` or ``_carry`` call, the same
    kind and bounds, its own certificate dicts, and upper certificates
    that re-trace on the graph asked.  Emptying the class cache and the
    memo forgets those answers."""
    block = _dic3_block()
    asked = {}
    for graph in (block, _relabelled(block, 3)):
        for fn in (gn.genus_exact, gn.crosscap_exact):
            asked[graph, fn] = fn(graph)
    lookups = [_counting(monkeypatch, name)
               for name in ("_refine", "_isomorphism", "_carry")]
    for (graph, fn), res in asked.items():
        again = pg.Graph(graph.n, graph.edges, graph.labels)
        hit = fn(again)
        assert hit.path == "cache"
        assert (hit.kind, hit.lower, hit.upper) \
            == (res.kind, res.lower, res.upper)
        uc = hit.upper_certificate
        assert uc is not res.upper_certificate
        assert hit.lower_certificate is not res.lower_certificate
        assert em.trace_faces(again, uc["rotation"]) == uc["trace"]
    assert lookups == [[], [], []]
    monkeypatch.setattr(gn, "_CLASSES", {})
    monkeypatch.setattr(gn, "_ANSWERS", {})
    hit = gn.genus_exact(pg.Graph(block.n, block.edges, block.labels))
    assert hit.path == "search" and lookups[0]


def test_representative_served_what_a_copy_triggered(monkeypatch, fresh_cache):
    """A block's class is made by its genus; its crosscap is first asked
    of a relabelled copy, which searches on the block, the class's
    representative.  The block's own crosscap is then served from that
    result: path "cache", no search and no planarity call."""
    block = _dic3_block()
    gn.genus_exact(block)
    searches = _counting(monkeypatch, "search_embedding")
    planarity = _counting(monkeypatch, "is_planar")
    first = gn.crosscap_exact(_relabelled(block, 5))
    assert first.path == "search" and searches == [block]
    del searches[:]
    hit = gn.crosscap_exact(block)
    assert searches == [] and planarity == [] and hit.path == "cache"
    assert (hit.kind, hit.lower, hit.upper) \
        == (first.kind, first.lower, first.upper)
    uc = hit.upper_certificate
    assert em.trace_faces(block, uc["rotation"]) == uc["trace"]


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


def test_fallback_embedding_at_lower_bound_is_exact(fresh_cache):
    """K3,3 with a one-node budget: the genus-1 search stops at once, but
    the fallback embedding of sorted neighbours has genus 1, the Euler
    bound, so the value is exact with the fallback as its certificate.
    The crosscap fallback (crosscap 3 against the bound 1) stays bounds."""
    k33 = pg.complete_bipartite(3, 3)
    res = gn.genus_exact(k33, gn.Budget(max_nodes=1))
    assert (res.kind, res.value, res.path) == ("exact", 1, "search")
    assert res.lower_certificate == {"method": "euler_bound", "value": 1}
    uc = res.upper_certificate
    assert uc["rotation"] == em.rotation_from_adjacency(k33)
    ok, msg = em.verify_certificate(
        em.certificate_to_text(k33, uc["rotation"], uc["trace"]))
    assert ok, msg
    res = gn.crosscap_exact(k33, gn.Budget(max_nodes=1))
    assert (res.kind, res.lower, res.upper) == ("bounds", 1, 3)


def test_signed_fallback_flips_first_non_bridge_edge():
    """K5 on 1..5 with the pendant edge (0, 1) first: the flipped edge is
    the first one that networkx does not call a bridge."""
    k5 = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    graph = pg.Graph(6, tuple([(0, 1)] + k5))
    res = gn.crosscap_exact(graph, gn.Budget(max_nodes=1))
    assert res.kind == "bounds"
    bridges = {frozenset(e) for e in nx.bridges(graph.to_networkx())}
    flip = next(e for e, edge in enumerate(graph.edges)
                if frozenset(edge) not in bridges)
    assert flip == 1
    rs = em.rotation_from_adjacency(graph)
    rs = em.RotationSystem(rs.rotations, tuple(-1 if e == flip else 1
                                               for e in range(graph.m)))
    uc = res.upper_certificate
    assert uc["rotation"] == rs
    assert (res.lower, res.upper) == (1, em.trace_faces(graph, rs).crosscap)


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


def test_compose_blocks_drops_planar_blocks():
    """K7 with a pendant edge: the K7 block has crosscap 2*genus + 1 and the
    pendant K2 block is planar.  A planar block sits inside a face at its
    cut vertex, so the crosscap is K7's 3, as the search on the whole graph
    finds."""
    k7 = pg.complete_graph(7)
    graph = pg.Graph(8, k7.edges + ((0, 7),))
    per = [(gn.genus_exact(b), gn.crosscap_exact(b)) for b in gn.blocks(graph)]
    assert sorted((o.value, c.value) for o, c in per) == [(0, 0), (1, 3)]
    og, ng = gn.compose_blocks(per)
    assert (og.value, ng.value) == (1, 3) == (gn.genus_exact(graph).value,
                                              gn.crosscap_exact(graph).value)
    assert gn.compose_bounds(per) == ((1, 1), (3, 3))


def _block_pair(draw):
    """A block's (genus, crosscap): (0, 0) when planar, else g >= 1 and
    1 <= k <= 2g + 1, with k = 2g + 1 drawn often."""
    g = draw(st.integers(0, 6))
    if g == 0:
        return (0, 0)
    return (g, draw(st.one_of(st.just(2 * g + 1), st.integers(1, 2 * g + 1))))


def _bounds_around(draw, v):
    """(lower, upper) around v, often tight on one side: lower bounds down
    to 0, upper bounds up to 3 more (a crosscap bound may exceed 2g + 1)."""
    return (draw(st.one_of(st.just(v), st.integers(0, v))),
            draw(st.one_of(st.just(v), st.integers(v, v + 3))))


@st.composite
def _blocks_with_bounds(draw):
    """Per-block exact (g, k) with bounds around each."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        g, k = _block_pair(draw)
        out.append(((g, k), _bounds_around(draw, g), _bounds_around(draw, k)))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_blocks_with_bounds())
@example([((1, 3), (1, 1), (3, 6))])  # K7-like: the crosscap bound needs 2g + 1
def test_compose_bounds_contain_exact_composition(blocks):
    def result(lo, hi):
        return gn.GenusResult("exact" if lo == hi else "bounds", lo, hi)

    exact = [(result(g, g), result(k, k)) for (g, k), _, _ in blocks]
    og, ng = gn.compose_blocks(exact)
    assert gn.compose_bounds(exact) == ((og.value,) * 2, (ng.value,) * 2)
    per = [(result(*gb), result(*kb)) for _, gb, kb in blocks]
    (o_lo, o_hi), (n_lo, n_hi) = gn.compose_bounds(per)
    assert o_lo <= og.value <= o_hi and n_lo <= ng.value <= n_hi
    # at least as tight as the three lower bounds and the upper bound that
    # hold block by block
    n = len(blocks)
    g_lo = [gb[0] for _, gb, _ in blocks]
    k_lo = [kb[0] for _, _, kb in blocks]
    assert n_lo >= max(1 - n + sum(k_lo), max(k_lo),
                       sum(min(2 * g, k) for g, k in zip(g_lo, k_lo)))
    assert n_hi <= 1 + sum(min(2 * gb[1], kb[1]) for _, gb, kb in blocks)


def test_hard_targets_delta_and_b1():
    delta = hexagon_union(2)
    assert gn.genus_exact(delta).value == 1
    assert gn.crosscap_exact(delta).value == 2
    b1 = b1_graph()
    assert gn.crosscap_exact(b1).value == 2
