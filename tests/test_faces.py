import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powergenus.cli as cli
import powergenus.embed as em
import powergenus.powergraph as pg
from powergenus.errors import Disconnected, InvalidRotation, ParseError

from conftest import hexagon_union, k33_with_path


def test_dart_conventions():
    k3 = pg.complete_graph(3)
    # edge e owns darts 2e (tail) and 2e+1 (head)
    for e, (u, v) in enumerate(k3.edges):
        assert em.dart_tail(k3, 2 * e) == u
        assert em.dart_head(k3, 2 * e) == v
        assert em.dart_tail(k3, 2 * e + 1) == v


def test_validate_rotation():
    k3 = pg.complete_graph(3)
    rs = em.rotation_from_adjacency(k3)
    em.validate_rotation(k3, rs)
    bad = em.RotationSystem(rs.rotations[:-1] + ((0, 0),))
    with pytest.raises(InvalidRotation):
        em.validate_rotation(k3, bad)


_K3_ROTS = ((0, 2), (1, 4), (3, 5))  # darts 0, 2 at 0; 1, 4 at 1; 3, 5 at 2


@pytest.mark.parametrize("rots, signs, message", [
    (_K3_ROTS[:2], None, "one cyclic order per vertex required"),
    (((0, 2, 6),) + _K3_ROTS[1:], None, "dart 6 out of range"),
    (((0, 2, 1),) + _K3_ROTS[1:], None, "dart 1 listed at wrong vertex 0"),
    (((0, 2, 0),) + _K3_ROTS[1:], None, "dart 0 appears twice"),
    (((0,),) + _K3_ROTS[1:], None,
     "some dart is missing from the rotation system"),
    (_K3_ROTS, (1, 1), "need one sign per edge"),
    (_K3_ROTS, (1, 0, 1), "signs must be +1 or -1"),
])
def test_validate_rotation_messages(rots, signs, message):
    k3 = pg.complete_graph(3)
    em.validate_rotation(k3, em.RotationSystem(_K3_ROTS, (1, -1, 1)))
    with pytest.raises(InvalidRotation) as err:
        em.validate_rotation(k3, em.RotationSystem(rots, signs))
    assert str(err.value) == message


def test_triangle_planar_trace():
    k3 = pg.complete_graph(3)
    tr = em.trace_faces(k3, em.rotation_from_adjacency(k3))
    assert tr.face_count == 2 and tr.euler_genus == 0 and tr.orientable


@pytest.mark.parametrize("n, edges", [(3, ((0, 1),)), (3, ((1, 2),)),
                                       (4, ((0, 1), (2, 3)))])
@pytest.mark.parametrize("signed", [False, True])
def test_trace_disconnected(n, edges, signed):
    """An edge beside an isolated vertex (either end of the vertex range)
    and two disjoint edges are refused."""
    graph = pg.Graph(n, edges)
    rs = em.rotation_from_adjacency(graph)
    if signed:
        rs = em.RotationSystem(rs.rotations, (-1,) * graph.m)
    with pytest.raises(Disconnected):
        em.trace_faces(graph, rs)


def test_k4_all_rotations():
    """Brute force over every rotation system of K4: the best is planar
    (4 faces), every genus is 0 or 1, and Euler's relation always holds."""
    k4 = pg.complete_graph(4)
    base = em.rotation_from_adjacency(k4)
    tails = [list(itertools.permutations(r[1:])) for r in base.rotations]
    genera = set()
    best = 0
    for combo in itertools.product(*tails):
        rots = tuple((base.rotations[v][0],) + combo[v] for v in range(4))
        tr = em.trace_faces(k4, em.RotationSystem(rots))
        assert tr.orientable
        assert 4 - 6 + tr.face_count == 2 - tr.euler_genus
        genera.add(tr.genus)
        best = max(best, tr.face_count)
    assert best == 4 and genera == {0, 1}


def test_signed_trace_crosscap():
    # K5 with one sign flipped on a torus-style rotation can be traced;
    # an all-plus system is always orientable.
    k5 = pg.complete_graph(5)
    out = em.search_embedding(k5, 1, signed=True)
    assert out.status == "found"
    tr = out.trace
    assert not tr.orientable and tr.crosscap == 1
    assert 5 - 10 + tr.face_count == 2 - 1


def test_search_exhaustion_levels():
    k5 = pg.complete_graph(5)
    assert em.search_embedding(k5, 0, signed=False).status == "exhausted"
    assert em.search_embedding(k5, 1, signed=False).status == "exhausted"
    out = em.search_embedding(k5, 2, signed=False)
    assert out.status == "found" and out.trace.genus == 1


def test_budget_stops_search():
    k8 = pg.complete_graph(8)
    out = em.search_embedding(k8, 4, signed=False,
                              budget=em.Budget(max_nodes=10, max_seconds=60))
    assert out.status == "budget" and out.nodes == 11


def test_k7_crosscap_exception():
    """K7 embeds in every surface of Euler genus >= 2 except the Klein
    bottle: crosscap-2 search exhausts, crosscap-3 search succeeds."""
    k7 = pg.complete_graph(7)
    out2 = em.search_embedding(k7, 2, signed=True)
    assert out2.status == "exhausted" and out2.nodes == 46122
    out3 = em.search_embedding(k7, 3, signed=True)
    assert out3.status == "found" and out3.trace.crosscap == 3


def test_search_tree_sizes_pinned():
    """Node counts of two more fixed searches: a faster search must still
    explore the same tree."""
    out = em.search_embedding(hexagon_union(3), 2, signed=False)
    assert out.status == "exhausted" and out.nodes == 32354
    out = em.search_embedding(pg.complete_graph(8), 4, signed=False)
    assert out.status == "found" and out.nodes == 14330
    assert out.trace.euler_genus == 4


@pytest.mark.parametrize("graph, target, signed, digest", [
    (pg.complete_graph(8), 4, False,
     "91034208ba6fe1b77309a334a0426165caa36ea10ca67615be7268989f49b9b0"),
    (pg.complete_graph(7), 3, True,
     "921a25142328599d47c9e2644247be91dc26a246981f99541171ef3fcc3bce88"),
    (hexagon_union(3), 3, True,
     "ca3e8a21d9de1efe09ec0981c2f916f288f727bc11f6be1f6c83f33baf1535b9"),
], ids=["K8-euler4", "K7-crosscap3", "hexagon3-crosscap3"])
def test_found_embeddings_pinned(graph, target, signed, digest):
    """The first embedding found, not just the node count: a search that
    visits children in another order fails here even if its count holds."""
    out = em.search_embedding(graph, target, signed=signed)
    assert out.status == "found"
    assert hashlib.sha256(repr(out.embedding).encode()).hexdigest() == digest


def test_search_deeper_than_recursion_limit():
    """The search depth is the edge count; K3,3 with a 1,100-edge pendant
    path goes deeper than Python's default recursion limit."""
    graph = k33_with_path(1100)
    assert em.search_embedding(graph, 0, signed=False).status == "exhausted"
    out = em.search_embedding(graph, 2, signed=False)
    assert out.status == "found" and out.trace.genus == 1
    out = em.search_embedding(graph, 1, signed=True)
    assert out.status == "found" and out.trace.crosscap == 1


def test_certificate_roundtrip():
    k5 = pg.complete_graph(5)
    out = em.search_embedding(k5, 2, signed=False)
    text = em.certificate_to_text(k5, out.embedding, out.trace)
    ok, msg = em.verify_certificate(text)
    assert ok, msg
    # tampering with the claim is caught
    bad = text.replace("faces=5", "faces=7")
    ok2, msg2 = em.verify_certificate(bad)
    assert not ok2 and "mismatch" in msg2


_TRIANGLE = "embedding 3 3 orientable\n0 1\n0 2\n1 2\n"
_TRIANGLE_ROTS = "rot 0: 0 2\nrot 1: 1 4\nrot 2: 3 5\n"
_TRIANGLE_CLAIM = "claim faces=2 euler_genus=0 orientable\n"


@pytest.mark.parametrize("text", [
    "not a certificate\n",
    _TRIANGLE + "rot 9: 0 2\n" + _TRIANGLE_CLAIM,
    _TRIANGLE + "rot x: 0 2\n" + _TRIANGLE_CLAIM,
    _TRIANGLE.replace("orientable", "signed") + _TRIANGLE_ROTS
    + "signs 1 a 1\n" + _TRIANGLE_CLAIM,
    _TRIANGLE.replace("orientable", "signed") + _TRIANGLE_ROTS
    + _TRIANGLE_CLAIM,
    _TRIANGLE + _TRIANGLE_ROTS + "claim faces=zz euler_genus=0 orientable\n",
    _TRIANGLE + _TRIANGLE_ROTS,
    "embedding 1000000 0 orientable\n",
    "embedding 3 9 orientable\n0 1\n0 2\n1 2\n" + _TRIANGLE_ROTS
    + _TRIANGLE_CLAIM,
    _TRIANGLE.replace("3 3", "5 3") + _TRIANGLE_ROTS + _TRIANGLE_CLAIM,
], ids=["header", "rot-range", "rot-int", "signs-int", "signs-missing",
        "claim-int", "claim-missing", "header-vertices-no-edges",
        "header-edges-beyond-file", "header-vertices-beyond-edges"])
def test_certificate_parse_errors(text, tmp_path, capsys):
    assert em.verify_certificate(_TRIANGLE + _TRIANGLE_ROTS + _TRIANGLE_CLAIM)[0]
    with pytest.raises(ParseError):
        em.certificate_from_text(text)
    path = tmp_path / "bad.cert"
    path.write_text(text)
    assert cli.main(["verify", str(path), "--no-timestamp"]) == 1
    assert capsys.readouterr().err.startswith("error:")


_SIGNED = _TRIANGLE.replace("orientable", "signed") + _TRIANGLE_ROTS


@pytest.mark.parametrize("text, match", [
    (_TRIANGLE + "rot 0: 7 7 7\n" + _TRIANGLE_ROTS + _TRIANGLE_CLAIM,
     "repeated"),
    (_SIGNED + "signs 1 1 -1\nsigns 1 1 1\n" + _TRIANGLE_CLAIM, "repeated"),
    (_TRIANGLE + _TRIANGLE_ROTS
     + "claim faces=9 euler_genus=5 nonorientable\n" + _TRIANGLE_CLAIM,
     "repeated"),
    (_TRIANGLE + _TRIANGLE_ROTS + "claim faces=2\n"
     + "claim euler_genus=0 orientable\n", "repeated"),
    (_TRIANGLE + _TRIANGLE_ROTS
     + "claim faces=9 faces=2 euler_genus=0 orientable\n",
     "unexpected certificate line 8"),
    (_TRIANGLE + _TRIANGLE_ROTS
     + "claim faces=2 euler_genus=0 nonorientable orientable\n",
     "unexpected certificate line 8"),
], ids=["rot", "signs", "claim", "claim-split", "claim-key", "claim-kind"])
def test_certificate_repeated_lines(text, match):
    """A rotation, signs or claim line, or a claim key, stated twice is a
    ParseError, even where the last statement is true: a repeated line
    breaks the line count, a repeated key the claim line's layout."""
    with pytest.raises(ParseError, match=match):
        em.certificate_from_text(text)


@pytest.mark.parametrize("text", [
    _SIGNED + "signs-1 1 1 1\n" + _TRIANGLE_CLAIM,
    _TRIANGLE + _TRIANGLE_ROTS + "claimxyz faces=2 euler_genus=0 orientable\n",
], ids=["signs", "claim"])
def test_certificate_keywords_match_exactly(text):
    """A keyword glued to its first value is no keyword: the first word of
    a line must be exactly rot, signs or claim."""
    assert em.verify_certificate(
        text.replace("signs-1", "signs").replace("claimxyz", "claim"))[0]
    with pytest.raises(ParseError, match="unexpected certificate line"):
        em.certificate_from_text(text)


def _random_rotation(graph, rnd):
    base = em.rotation_from_adjacency(graph)
    rots = []
    for r in base.rotations:
        r = list(r)
        rnd.shuffle(r)
        rots.append(tuple(r))
    return tuple(rots)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7), st.randoms(use_true_random=False))
def test_face_trace_properties(n, rnd):
    """Any rotation + signs on K_n: Euler's relation holds, all-plus systems
    are orientable, and orientable traces have even Euler genus.  The
    neighbour orders and twisted edges read back from either system rebuild
    it through ``rotation_from_orders``."""
    graph = pg.complete_graph(n)
    rots = _random_rotation(graph, rnd)
    signs = tuple(rnd.choice((1, -1)) for _ in range(graph.m))
    orders = [[em.dart_head(graph, d) for d in rot] for rot in rots]
    twisted = [e for e, s in zip(graph.edges, signs) if s == -1]
    for rs in (em.RotationSystem(rots, signs), em.RotationSystem(rots)):
        assert em.rotation_from_orders(
            graph, orders, twisted if rs.is_signed() else None) == rs
    tr = em.trace_faces(graph, em.RotationSystem(rots, signs))
    assert tr.face_count >= 1
    assert graph.n - graph.m + tr.face_count == 2 - tr.euler_genus
    if all(s == 1 for s in signs):
        assert tr.orientable
    if tr.orientable:
        assert tr.euler_genus % 2 == 0
        unsigned = em.trace_faces(graph, em.RotationSystem(rots))
        if all(s == 1 for s in signs):
            assert unsigned.face_count == tr.face_count


def _all_rotations(graph):
    """Every rotation system of the graph: each vertex's first dart fixed,
    the rest in every order."""
    base = em.rotation_from_adjacency(graph)
    tails = [itertools.permutations(r[1:]) for r in base.rotations]
    for combo in itertools.product(*tails):
        yield tuple(r[:1] + t for r, t in zip(base.rotations, combo))


def _first_found_level(graph, signed):
    """Search targets 0, 1, 2, ... until one finds an embedding; every
    target before it must be exhausted."""
    for target in itertools.count():
        out = em.search_embedding(graph, target, signed=signed)
        if out.status == "found":
            return target
        assert out.status == "exhausted", (graph.edges, target, out.status)


def test_search_levels_match_brute_force():
    """The search's Euler-genus deltas are exact: on every connected graph
    with at most 5 vertices, the first target it reaches is the minimum
    Euler genus over all rotation systems; for signed systems the minimum
    over nonorientable ones, with tree edges kept positive (switching at a
    vertex maps every signed system to such a one), where that is cheap."""
    import networkx as nx
    signed_checked = 0
    for gnx in nx.graph_atlas_g()[1:53]:
        if gnx.number_of_edges() == 0 or not nx.is_connected(gnx):
            continue
        graph = pg.Graph(gnx.number_of_nodes(),
                         tuple(sorted((min(e), max(e)) for e in gnx.edges())))
        rotations = list(_all_rotations(graph))
        best = min(em.trace_faces(graph, em.RotationSystem(r)).euler_genus
                   for r in rotations)
        assert _first_found_level(graph, signed=False) == best
        tree = {frozenset(e) for e in nx.bfs_edges(gnx, 0)}
        cotree = [i for i, e in enumerate(graph.edges)
                  if frozenset(e) not in tree]
        if not cotree or len(rotations) << len(cotree) > 30_000:
            continue
        best = None
        for flips in itertools.product((1, -1), repeat=len(cotree)):
            signs = [1] * graph.m
            for i, s in zip(cotree, flips):
                signs[i] = s
            for r in rotations:
                tr = em.trace_faces(graph, em.RotationSystem(r, tuple(signs)))
                if not tr.orientable and (best is None
                                          or tr.euler_genus < best):
                    best = tr.euler_genus
        assert _first_found_level(graph, signed=True) == best
        signed_checked += 1
    assert signed_checked == 22


def _random_connected(n, rnd):
    """A random connected graph: a random spanning tree plus each other
    pair with probability 1/2."""
    edges = {(rnd.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
              if rnd.random() < 0.5}
    return pg.Graph(n, tuple(sorted(edges)))


def _dict_trace_states(darts, nxt, prv, twist):
    """The dict-based orbit decomposition of the double-cover face
    permutation that the list-based ``_trace_states`` replaced, kept as
    its reference: (orbit id per state, orbit count, first state per
    orbit)."""
    face = {}
    firsts = []
    for d0 in darts:
        for lvl0 in (0, 1):
            s = 2 * d0 + lvl0
            if s in face:
                continue
            nface = len(firsts)
            firsts.append(s)
            while s not in face:
                face[s] = nface
                d = s >> 1
                l2 = (s & 1) ^ twist[d >> 1]
                d3 = nxt[d ^ 1] if l2 == 0 else prv[d ^ 1]
                s = 2 * d3 + l2
    return face, len(firsts), firsts


def _adjacency_balanced(graph, twist):
    """Whether every cycle has an even number of twisted edges, by a 2-colouring
    over an adjacency list built from the edge list."""
    adj = [[] for _ in range(graph.n)]
    for e, (u, v) in enumerate(graph.edges):
        adj[u].append((v, twist[e]))
        adj[v].append((u, twist[e]))
    color = [-1] * graph.n
    color[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for w, t in adj[v]:
            if color[w] == -1:
                color[w] = color[v] ^ t
                stack.append(w)
            elif color[w] != color[v] ^ t:
                return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 9), st.randoms(use_true_random=False))
def test_list_trace_matches_dict_trace(n, rnd):
    """On random connected graphs with random signed rotations, the list
    trace gives the dict trace's orbits, ids and first states, and
    trace_faces the face count, Euler genus and orientability they give."""
    graph = _random_connected(n, rnd)
    rots = _random_rotation(graph, rnd)
    twist = [rnd.randint(0, 1) for _ in range(graph.m)]
    nxt, prv = em._next_arrays(rots, graph.m)
    darts = range(2 * graph.m)
    face, norbits, firsts = em._trace_states(darts, nxt, prv, twist)
    ref, ref_norbits, ref_firsts = _dict_trace_states(darts, nxt, prv, twist)
    assert (norbits, firsts) == (ref_norbits, ref_firsts)
    assert face == [ref[s] for s in range(4 * graph.m)]
    tr = em.trace_faces(graph, em.RotationSystem(
        rots, tuple(-1 if t else 1 for t in twist)))
    assert tr.face_count == ref_norbits // 2
    assert tr.euler_genus == 2 - (graph.n - graph.m + ref_norbits // 2)
    assert tr.orientable == _adjacency_balanced(graph, twist)


def test_search_trees_pinned():
    """One digest over the status, node count and first-found embedding of
    144 searches capped at 2,000 nodes: unsigned and signed, targets 0-3,
    on K4-K7, K3,3, hexagon_union(2) and 12 seeded random graphs.  A kernel
    that explores any tree differently fails here."""
    graphs = [pg.complete_graph(n) for n in (4, 5, 6, 7)]
    graphs += [pg.complete_bipartite(3, 3), hexagon_union(2)]
    graphs += [_random_connected(6 + seed % 4, random.Random(seed))
               for seed in range(12)]
    digest = hashlib.sha256()
    statuses = set()
    for graph in graphs:
        for signed in (False, True):
            for target in range(4):
                out = em.search_embedding(graph, target, signed=signed,
                                          budget=em.Budget(max_nodes=2000))
                statuses.add(out.status)
                digest.update(repr((out.status, out.nodes,
                                    repr(out.embedding))).encode())
    assert statuses == {"found", "exhausted", "budget"}
    assert digest.hexdigest() == (
        "53c80a539e807064c6ce3e797bf66f9ae86a099e2f0596786830ae0e2310a8ee")


def _ref_edge_insertion_order(graph):
    """The activation order recomputed from scratch at every step: the
    active neighbours of every remaining vertex, by set intersection."""
    adj = graph.adjacency()
    deg = [len(a) for a in adj]
    root = max(range(graph.n), key=lambda v: (deg[v], -v))
    active = {root}
    eindex = {frozenset(e): i for i, e in enumerate(graph.edges)}
    order, activating = [], []
    remaining = set(v for v in range(graph.n) if deg[v] > 0) - {root}
    while remaining:
        cand = [v for v in remaining if adj[v] & active]
        w = max(cand, key=lambda v: (len(adj[v] & active), deg[v], -v))
        back = sorted(adj[w] & active)
        back.sort(key=lambda u: -deg[u])
        for i, u in enumerate(back):
            order.append(eindex[frozenset((u, w))])
            activating.append(i == 0)
        active.add(w)
        remaining.discard(w)
    return root, order, activating


def test_edge_insertion_order_matches_reference():
    """The incremental activation order equals the from-scratch one, tie
    breaks included, on K4-K8 and on 50 seeded random connected graphs of
    mixed size and density."""
    graphs = [pg.complete_graph(n) for n in range(4, 9)]
    for seed in range(50):
        rnd = random.Random(seed)
        n, p = rnd.randrange(4, 25), rnd.choice((0.1, 0.3, 0.5, 0.8))
        edges = {(rnd.randrange(v), v) for v in range(1, n)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
                  if rnd.random() < p}
        graphs.append(pg.Graph(n, tuple(sorted(edges))))
    for graph in graphs:
        assert em._edge_insertion_order(graph) == \
            _ref_edge_insertion_order(graph)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 7), st.booleans(), st.randoms(use_true_random=False))
def test_gap_corners_on_mirror_faces(n, signed, rnd):
    """The two cover corners of a rotation gap, (nxt[a], 0) and (a, 1), lie
    on distinct faces: the first is the face successor of the deck image
    of the second.  The search's delta rule relies on it."""
    graph = _random_connected(n, rnd)
    twist = [rnd.randint(0, 1) if signed else 0 for _ in range(graph.m)]
    nxt, prv = em._next_arrays(_random_rotation(graph, rnd), graph.m)
    face, _, _ = em._trace_states(range(2 * graph.m), nxt, prv, twist)
    for a in range(2 * graph.m):
        assert face[2 * nxt[a]] != face[2 * a + 1]


def _tau(s, twist):
    """The deck image of cover state s."""
    d = s >> 1
    return 2 * (d ^ 1) + (1 ^ (s & 1) ^ twist[d >> 1])


class _RetraceChecked(em._Searcher):
    """A searcher that, at every node, checks its incremental face ids and
    Euler genus against a retrace of the partial map from scratch, and that
    the deck image of each placed state is on the mirror face id ^ 1."""

    checked = 0

    def _children(self, i):
        darts = [d for p in self.plan[:i] for d in (2 * p[1], 2 * p[1] + 1)]
        face, nface, _ = em._trace_states(darts, self.nxt, self.prv,
                                          self.twist)
        states = {2 * d + lvl for d in darts for lvl in (0, 1)}
        pairs = {(self.fid[s], face[s]) for s in states}
        assert len(pairs) == len({f for f, _ in pairs}) == nface
        assert all(self.fid[s] == -1 for s in range(4 * self.m)
                   if s not in states)
        for s in range(4 * self.m):
            f = self.fid[s]
            assert self.fid[_tau(s, self.twist)] == (f ^ 1 if f >= 0 else -1)
        active = {em.dart_tail(self.graph, d) for d in darts}
        assert self._euler_genus(i) == 2 - (len(active) - i + nface // 2)
        self.checked += 1
        return super()._children(i)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(4, 7), st.integers(0, 4), st.booleans(),
       st.randoms(use_true_random=False))
def test_incremental_faces_match_retrace(n, target, signed, rnd):
    """At every node of a bounded search, the face partition of the placed
    cover states and the partial Euler genus equal a fresh retrace's."""
    graph = _random_connected(n, rnd)
    s = _RetraceChecked(graph, target, signed, em.Budget(max_nodes=300))
    out = s.run()
    assert s.checked == out.nodes - (out.status == "budget")


class _SplitChecked(_RetraceChecked):
    """A retrace-checked searcher that also checks the id rule of a split.
    Below every chord that split a face, the shorter of A, the face through
    (du, 0), and B', the face through (du, 1), must carry a fresh id pair
    (A wins a tie), and no placed state off A or B' and their mirrors may
    have changed its id.  ``sides`` records, per split, 0 when A was
    relabelled and 1 when B' was."""

    def __init__(self, *args):
        super().__init__(*args)
        self.before = [None] * self.m  # (face ids, face count) per node
        self.sides = []

    def _children(self, i):
        if i and self.plan[i - 1][0] == em._CHORD:
            fid0, nface0 = self.before[i - 1]
            if self.nface == nface0 + 2:
                self._check_split(i, fid0)
        self.before[i] = (list(self.fid), self.nface)
        return super()._children(i)

    def _check_split(self, i, fid0):
        _, _, _, du, _, dv = self.plan[i - 1]
        darts = [d for p in self.plan[:i] for d in (2 * p[1], 2 * p[1] + 1)]
        face, _, _ = em._trace_states(darts, self.nxt, self.prv,
                                      self.twist)
        a_side = [s for s, f in enumerate(face) if f == face[2 * du]]
        b_side = [s for s, f in enumerate(face) if f == face[2 * du + 1]]
        side = int(len(b_side) < len(a_side))
        short = (a_side, b_side)[side]
        relabelled = set(short) | {_tau(s, self.twist) for s in short}
        chord = {2 * du, 2 * du + 1, 2 * dv, 2 * dv + 1}
        changed = {s for s, f in enumerate(self.fid) if f != fid0[s]}
        assert changed == relabelled | chord
        assert self.fid[short[0]] not in fid0  # a fresh id
        self.sides.append(side)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("edges, side", [
    (((0, 3), (1, 2), (1, 3), (2, 3)), 0),
    (((0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4)), 1),
], ids=["triangle-pendant-A", "square-pendant-path-B'"])
def test_split_relabels_shorter_side(edges, side, signed):
    """A triangle with a pendant edge: the chord closing the triangle cuts
    the one face into the triangle, through (du, 0), and the longer rest.
    A 4-cycle with a pendant path: the short side runs through (du, 1)."""
    graph = pg.Graph(1 + max(v for e in edges for v in e), edges)
    s = _SplitChecked(graph, 0, signed, em.Budget(max_nodes=300))
    out = s.run()
    assert out.status == ("exhausted" if signed else "found")
    assert s.checked == out.nodes
    assert s.sides == [side]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(4, 7), st.integers(0, 3), st.booleans(),
       st.randoms(use_true_random=False))
def test_split_ids_match_retrace(n, target, signed, rnd):
    """Every split of a bounded search relabels its shorter side only."""
    graph = _random_connected(n, rnd)
    s = _SplitChecked(graph, target, signed, em.Budget(max_nodes=300))
    out = s.run()
    assert s.checked == out.nodes - (out.status == "budget")
