"""Graph-topology engine: blocks, Euler bounds, closed-form oracles for
complete and complete bipartite graphs, planarity, and exact genus /
crosscap computation via embedding search with certificates.

Both surfaces share one driver: the Euler lower bound comes first, and
planarity (with its Kuratowski witness) is decided only when that bound is
0, since a positive bound already proves the graph nonplanar.  The driver
keeps one entry per isomorphism class of input graph for the life of the
process: the class's first graph, its planarity decision, and its result
per surface and budget.  A graph of a class seen before is answered from
the entry, with the certificates carried through an isomorphism onto it, so
the second surface of a block and every repeat of a block skip planarity
and search; a graph equal to one asked before is answered from what was
returned for it, with no class lookup.  Classes are looked up by a colour-refinement key (n, m and the
stable colouring's signatures), and membership is decided by
individualise-and-refine with backtracking, which pairs classes of twins
at once and confirms the isomorphism edge by edge.  ``blocks`` is one
iterative Tarjan search.  None of these three calls networkx.

A nonplanar graph's Kuratowski witness comes from its shortest nonplanar
BFS prefix, cut down vertex by vertex to a vertex-minimal nonplanar induced
subgraph (usually 5-7 vertices); only that small subgraph pays for the
one-planarity-test-per-edge search that leaves an edge-minimal one.

Conventions: the crosscap number of a planar graph is 0.  A lower-bound
certificate records how the bound was proved (``euler_bound``,
``formula_oracle``, ``subgraph_bound``, or ``exhaustive_search``); an
upper-bound certificate carries a concrete embedding and its face trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from math import ceil, inf

import networkx as nx

from .embed import (Budget, FaceTrace, RotationSystem, dart_head,
                    rotation_from_orders, search_embedding, trace_faces)
from .errors import Disconnected, InexactInput, InvalidParameter
from .powergraph import Graph, induced


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def kn_genus(n: int) -> int:
    """Orientable genus of the complete graph on n vertices."""
    if n < 3:
        return 0
    return ceil((n - 3) * (n - 4) / 12)


def kn_crosscap(n: int) -> int:
    """Nonorientable genus of K_n; the n = 7 exception is hard-coded."""
    if n < 3:
        return 0
    if n == 7:
        return 3
    return ceil((n - 3) * (n - 4) / 6)


def kmn_genus(m: int, n: int) -> int:
    """Orientable genus of the complete bipartite graph K_{m,n}."""
    if m < 2 or n < 2:
        return 0
    return ceil((m - 2) * (n - 2) / 4)


def kmn_crosscap(m: int, n: int) -> int:
    """Nonorientable genus of K_{m,n}."""
    if m < 2 or n < 2:
        return 0
    return ceil((m - 2) * (n - 2) / 2)


# ---------------------------------------------------------------------------
# elementary invariants
# ---------------------------------------------------------------------------

def girth(graph: Graph):
    """Length of a shortest cycle; math.inf for forests."""
    adj = graph.adjacency()
    best = inf
    for src in range(graph.n):
        dist = {src: 0}
        parent = {src: -1}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
                    elif w != parent[v]:
                        # non-tree edge closes a cycle through src
                        best = min(best, dist[v] + dist[w] + 1)
            if frontier and 2 * dist[frontier[0]] + 1 >= best:
                break
            frontier = nxt
        if best == 3:  # no simple graph has a shorter cycle
            break
    return best


def euler_lower_bound(graph: Graph, surface: str = "orientable") -> int:
    """Smallest genus consistent with V - E + f = 2 - 2g (resp. 2 - k) and
    the face bound f <= floor(2E / girth).  Forests give 0."""
    if surface not in ("orientable", "nonorientable"):
        raise InvalidParameter(f"unknown surface {surface!r}")
    g = girth(graph)
    if g == inf:
        return 0
    eg = 2 - graph.n + graph.m - (2 * graph.m) // int(g)
    if eg <= 0:
        return 0
    return ceil(eg / 2) if surface == "orientable" else eg


# ---------------------------------------------------------------------------
# blocks and planarity
# ---------------------------------------------------------------------------

def blocks(graph: Graph) -> list[Graph]:
    """Biconnected components; every edge lands in exactly one block.
    Vertex labels carry over.  Deterministic order.

    One iterative Tarjan depth-first search: when the search returns from
    w to its parent u with low[w] >= disc[u], the vertices above w on the
    vertex stack, w included, and u form a block, which owns the popped
    vertices.  The parent edge may lower low[w] to disc[u], which leaves
    that test unchanged.  A depth-first search of an undirected graph
    makes no cross edges, so an edge's deeper end is a descendant of the
    other, and the edge lies in the block that owns the deeper end.
    """
    n = graph.n
    adj = graph.adjacency()
    disc, low = [-1] * n, [0] * n
    owner = [-1] * n
    members: list[list[int]] = []
    if n:
        disc[0], t = 0, 1
        todo, path = [(0, iter(adj[0]))], [0]
        while todo:
            v, it = todo[-1]
            for w in it:
                if disc[w] < 0:
                    disc[w] = low[w] = t
                    t += 1
                    path.append(w)
                    todo.append((w, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                todo.pop()
                if todo:
                    u = todo[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block = [u]
                        while block[-1] != v:
                            x = path.pop()
                            owner[x] = len(members)
                            block.append(x)
                        members.append(block)
        if t < n:
            raise Disconnected("blocks are defined for connected graphs")
    edges: list[list[tuple[int, int]]] = [[] for _ in members]
    for u, v in graph.edges:
        edges[owner[v] if disc[v] > disc[u] else owner[u]].append((u, v))
    comps = []
    for verts, es in zip(members, edges):
        verts.sort()
        remap = {v: i for i, v in enumerate(verts)}
        # graph.edges are sorted and the remap keeps order, so es stays sorted
        comps.append(Graph(len(verts), tuple((remap[u], remap[v]) for u, v in es),
                           tuple(graph.labels[v] for v in verts)))
    comps.sort(key=lambda b: (b.labels, b.edges))
    return comps


@dataclass(frozen=True)
class PlanarityResult:
    """Planarity decision with evidence: a planar rotation system and its
    face trace (None for a disconnected or edgeless graph), or a subgraph
    witnessing nonplanarity (a K5 or K3,3 subdivision, with the input's
    labels).  The witness's vertex set is vertex-minimal: the input's
    induced subgraph on it becomes planar when any one vertex is deleted."""

    planar: bool
    rotation: RotationSystem | None = None
    witness: Graph | None = None
    trace: FaceTrace | None = None


def is_planar(graph: Graph) -> PlanarityResult:
    g = graph.to_networkx()
    ok, cert = nx.check_planarity(g)
    if not ok:
        # Drop edges of a vertex-minimal nonplanar induced subgraph while it
        # stays nonplanar.  An edge-minimal nonplanar graph is a K5 or K3,3
        # subdivision plus isolated vertices, and vertex-minimality leaves
        # none isolated.
        h = nx.Graph(g.subgraph(_nonplanar_core(g)))
        for u, v in sorted(map(sorted, h.edges)):
            h.remove_edge(u, v)
            if not _nonplanar(h):
                h.add_edge(u, v)
        witness = induced(Graph(graph.n, tuple(h.edges), graph.labels), h)
        return PlanarityResult(False, witness=witness)
    data = cert.get_data()
    rs = rotation_from_orders(graph, [data.get(v, []) for v in range(graph.n)])
    tr = None
    if graph.m and nx.is_connected(g):
        # independent cross-check with our own face tracer
        tr = trace_faces(graph, rs)
        assert tr.euler_genus == 0 and tr.orientable
    return PlanarityResult(True, rotation=rs, trace=tr)


def _nonplanar(h: nx.Graph) -> bool:
    """Whether h, with at least 3 vertices, is nonplanar; more than 3n - 6
    edges settles it without a planarity test."""
    return h.number_of_edges() > 3 * len(h) - 6 or not nx.is_planar(h)


def _nonplanar_core(g: nx.Graph) -> list[int]:
    """A vertex set of the nonplanar graph g whose induced subgraph is
    nonplanar but becomes planar when any one vertex is deleted.

    Prefixes of a BFS order are nested, so nonplanarity is monotone along
    them: a binary search finds the shortest nonplanar prefix with about
    log2(n) decisions.  One pass then drops prefix vertices, last first,
    while the rest stays nonplanar; a vertex kept once stays needed in every
    smaller nonplanar set, so one pass is enough.
    """
    # Each component from a vertex of largest degree, and neighbours by
    # decreasing degree: dense vertices come first, so the prefix turns
    # nonplanar early and stays off long pendant paths.
    def by_degree(vs):
        return sorted(vs, key=lambda v: (-g.degree(v), v))

    order, seen = [], set()
    for root in by_degree(g):
        if root not in seen:
            comp = [root] + [w for _, w in
                             nx.bfs_edges(g, root, sort_neighbors=by_degree)]
            seen.update(comp)
            order.extend(comp)
    lo, hi = 5, len(order)  # K5 is the smallest nonplanar graph
    while lo < hi:
        mid = (lo + hi) // 2
        if _nonplanar(g.subgraph(order[:mid])):
            hi = mid
        else:
            lo = mid + 1
    keep = order[:lo]
    for v in reversed(order[:lo - 1]):  # the prefix's last vertex is needed
        rest = [w for w in keep if w != v]
        if _nonplanar(g.subgraph(rest)):
            keep = rest
    return keep


# ---------------------------------------------------------------------------
# exact genus with certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenusResult:
    """Exact value or bounds for a genus quantity, with certificates.

    kind 'exact' means lower == upper with both certificates present;
    'bounds' carries whatever was proved before the budget ran out.
    ``path`` names how ``genus_exact``/``crosscap_exact`` produced the
    result: ``"planarity"`` (a planar graph), ``"search"`` (Euler bound or
    witness, then the level search) or ``"cache"`` (an earlier result for
    the graph's isomorphism class); None for results built elsewhere.  It
    takes no part in equality.
    """

    kind: str  # 'exact' | 'bounds'
    lower: int
    upper: int
    lower_certificate: dict = field(default_factory=dict)
    upper_certificate: dict = field(default_factory=dict)
    path: str | None = field(default=None, compare=False)

    def __post_init__(self):
        assert self.kind in ("exact", "bounds")
        assert self.lower <= self.upper
        if self.kind == "exact":
            assert self.lower == self.upper

    @property
    def value(self) -> int:
        if self.kind != "exact":
            raise InexactInput(f"bounds [{self.lower}, {self.upper}] are not exact")
        return self.lower


def _embedding_certificate(rs, tr: FaceTrace | None) -> dict:
    return {"method": "embedding", "rotation": rs, "trace": tr}


def genus_exact(graph: Graph, budget: Budget | None = None) -> GenusResult:
    """Exact orientable genus by level-by-level search; degrades to bounds
    when the budget runs out at some level, unless the fallback embedding
    already reaches the lower bound (never silently wrong)."""
    return _exact(graph, budget, signed=False)


def crosscap_exact(graph: Graph, budget: Budget | None = None) -> GenusResult:
    """Exact nonorientable genus (crosscap number); planar graphs give 0."""
    return _exact(graph, budget, signed=True)


@dataclass
class _Class:
    """One isomorphism class of graph given to ``_exact``: its first graph
    (the representative), the representative's class key and stable
    colouring (see ``_refine``), and its planarity decision once made.  Its
    results are kept in ``_ANSWERS`` under the representative."""

    graph: Graph
    key: tuple
    colours: list[int]
    planarity: PlanarityResult | None = None


#: The classes ``_exact`` has met in this process, by (n, m, refinement
#: signature); a list holds the classes that share a key.
_CLASSES: dict[tuple, list[_Class]] = {}


def _class_of(graph: Graph) -> tuple[_Class, list[int] | None]:
    """The entry of graph's isomorphism class, made with graph as its
    representative if the class is new, and an isomorphism from the
    representative onto graph (None when graph equals the representative,
    labels included)."""
    adj = graph.adjacency()
    colours, signature = _refine(adj, [len(nbrs) for nbrs in adj])
    key = (graph.n, graph.m, signature)
    entries = _CLASSES.setdefault(key, [])
    for entry in entries:
        if entry.graph == graph:
            return entry, None
        # equal keys do not make graphs isomorphic (K3,3 and the prism)
        phi = _isomorphism(entry, adj, colours)
        if phi is not None:
            return entry, phi
    entries.append(_Class(graph, key, colours))
    return entries[-1], None


def _refine(adj: list[set[int]], colours: list[int]) -> tuple[list[int], tuple]:
    """The stable colouring that colour refinement reaches from colours, and
    its signature.

    Each round gives every vertex the signature (its colour, its
    neighbours' colours sorted) and names its new colour by the rank of
    that signature among the round's distinct ones; the rounds stop when
    no class splits.  The names depend on nothing but the graph and the
    start colouring up to isomorphism, so an isomorphism that preserves
    the start colours maps the stable colouring of one graph onto the
    other's, name for name.  The signature lists the last round's
    distinct signatures in order, each with its class size, which is the
    size of the class of that colour.
    """
    count = len(set(colours))
    while True:
        sigs = [(colours[v], tuple(sorted([colours[w] for w in nbrs])))
                for v, nbrs in enumerate(adj)]
        distinct = sorted(set(sigs))
        rank = {sig: c for c, sig in enumerate(distinct)}
        colours = [rank[sig] for sig in sigs]
        if len(distinct) == count:
            sizes = [0] * count
            for c in colours:
                sizes[c] += 1
            return colours, tuple(zip(distinct, sizes))
        count = len(distinct)


def _isomorphism(entry: _Class, adj: list[set[int]],
                 colours: list[int]) -> list[int] | None:
    """An isomorphism phi (phi[v] for each vertex v) from entry's
    representative onto the graph with adjacency adj and stable colouring
    colours, whose key equals entry's; None if there is none.

    Individualise and refine (McKay), with backtracking on an explicit
    stack: give a vertex v of the representative and a vertex w of the
    same colour in graph a new colour, refine both, and go on while the
    signatures agree.  Any isomorphism that extends the choices so far maps
    colours onto equal colours, so trying every w for one v misses none.
    When every class of two or more vertices is a set of twins, the classes
    are paired in order at once (see ``_split_colour``).  phi is confirmed
    edge by edge before it is returned.
    """
    rep = entry.graph
    rep_adj = None
    col_r, col_g, sizes = entry.colours, colours, [k for _, k in entry.key[2]]
    # [col_r refined with v individualised, its signature, col_g,
    #  candidates w, next candidate]
    frames = []
    while True:
        c = _split_colour(adj, col_g, sizes)
        if c is None:
            # sorting is stable, so each class is paired in vertex order
            phi = [0] * rep.n
            for v, w in zip(sorted(range(rep.n), key=col_r.__getitem__),
                            sorted(range(rep.n), key=col_g.__getitem__)):
                phi[v] = w
            if all(phi[v] in adj[phi[u]] for u, v in rep.edges):
                return phi
        else:
            if rep_adj is None:
                rep_adj = rep.adjacency()
            # the representative's side depends only on v: refined once
            v = col_r.index(c)
            frames.append([*_refine(rep_adj, _individualised(col_r, v)), col_g,
                           [w for w, d in enumerate(col_g) if d == c], 0])
        while frames:
            frame = frames[-1]
            col_r, sig_r, col_g, candidates, i = frame
            if i == len(candidates):
                frames.pop()
                continue
            frame[4] = i + 1
            col_g, sig_g = _refine(adj, _individualised(col_g, candidates[i]))
            if sig_r == sig_g:
                sizes = [k for _, k in sig_r]
                break
        else:
            return None


def _individualised(colours: list[int], v: int) -> list[int]:
    """colours with v given a colour of its own."""
    colours = list(colours)
    colours[v] = len(colours)
    return colours


def _split_colour(adj: list[set[int]], colours: list[int],
                  sizes: list[int]) -> int | None:
    """A colour of a smallest class, of two or more vertices, that is not a
    set of twins (equal N[v], or equal N(v)), under the stable colouring
    colours with class sizes sizes; None when there is no such class.

    In a stable colouring every vertex of a class C has the same number of
    neighbours in each class D.  C is a set of twins when that number is
    0 or |D| for each D other than C, and 0 or |C| - 1 for C itself.  When
    every class is a singleton or a set of twins, the colouring fixes the
    graph up to a bijection inside each class, so another graph whose
    stable colouring has the same signature is isomorphic to it along any
    bijection that keeps colours.
    """
    first: dict[int, int] = {}
    for v, c in enumerate(colours):
        if sizes[c] > 1 and c not in first:
            first[c] = v
    for c in sorted(first, key=lambda c: (sizes[c], c)):
        counts = Counter(colours[w] for w in adj[first[c]])
        if any(k != sizes[d] - (d == c) for d, k in counts.items()):
            return c
    return None


def _exact(graph: Graph, budget: Budget | None, signed: bool) -> GenusResult:
    """Both surfaces, through ``_ANSWERS``: a graph equal to one asked
    before is answered with no class lookup.  Otherwise the representative
    of graph's isomorphism class answers: its result for this surface and
    budget is served again (path ``"cache"``), or computed on it and kept,
    and carried onto graph when graph is another member.  The budget is
    part of the key, so bounds found under one budget are never served to
    another.  Callers get their own certificate dicts."""
    budget = budget or Budget()
    key = (signed, budget.max_nodes, budget.max_seconds)
    asked = _ANSWERS.get((graph, key))
    if asked is not None:
        return _served(asked, "cache")
    entry, phi = _class_of(graph)
    res = _ANSWERS.get((entry.graph, key))
    path = "cache"
    if res is None:
        res = _ANSWERS[entry.graph, key] = _solve(entry, budget, signed)
        path = res.path
    if phi is not None:
        res = _ANSWERS[graph, key] = _carry(res, entry.graph, graph, phi)
    return _served(res, path)


#: What ``_exact`` returned, by (graph, (signed, max_nodes, max_seconds)),
#: certificates carried onto graph; a class representative's entry is its
#: class's result.
_ANSWERS: dict[tuple, GenusResult] = {}


def _served(res: GenusResult, path: str) -> GenusResult:
    """res with its own certificate dicts, under path."""
    return GenusResult(res.kind, res.lower, res.upper,
                       dict(res.lower_certificate), dict(res.upper_certificate),
                       path)


def _solve(entry: _Class, budget: Budget, signed: bool) -> GenusResult:
    """The level search shared by both surfaces, on the representative.
    Level k is Euler genus 2k (orientable) or k (nonorientable, requiring a
    twisted embedding)."""
    graph = entry.graph
    level = euler_lower_bound(graph, "nonorientable" if signed else "orientable")
    if level >= 1:
        lower_cert = {"method": "euler_bound", "value": level}
    else:
        # decided once per class, for both surfaces
        if entry.planarity is None:
            entry.planarity = is_planar(graph)
        pl = entry.planarity
        if pl.planar:
            return GenusResult("exact", 0, 0,
                               {"method": "euler_bound", "value": 0},
                               _embedding_certificate(pl.rotation, pl.trace),
                               "planarity")
        level = 1
        lower_cert = {"method": "subgraph_bound", "value": 1,
                      "detail": "nonplanar", "witness": pl.witness}
    while True:
        out = search_embedding(graph, level if signed else 2 * level,
                               signed=signed, budget=budget)
        if out.status == "found":
            return GenusResult("exact", level, level, lower_cert,
                               _embedding_certificate(out.embedding, out.trace),
                               "search")
        if out.status != "exhausted":
            break
        level += 1
        lower_cert = {"method": "exhaustive_search", "value": level,
                      "budget": budget, "completed": True, "nodes": out.nodes}
    # budget ran out: report bounds with a cheap upper bound, any full
    # embedding; flipping one non-bridge edge (a nonplanar graph has a cycle)
    # of an orientable one makes it nonorientable with crosscap at most 2g + 2;
    # the value is exact when that embedding already reaches the lower bound
    adj = graph.adjacency()
    twisted = None
    if signed:
        twisted = [next(e for e in graph.edges if _joined_without_edge(adj, *e))]
    rs = rotation_from_orders(graph, map(sorted, adj), twisted)
    tr = trace_faces(graph, rs)
    assert tr.orientable != signed
    upper = tr.crosscap if signed else tr.genus
    return GenusResult("exact" if upper == level else "bounds", level, upper,
                       lower_cert, _embedding_certificate(rs, tr), "search")


def _carry(res: GenusResult, rep: Graph, graph: Graph,
           phi: list[int]) -> GenusResult:
    """res, proved for rep, as a result for graph, along the isomorphism
    phi from rep onto graph.

    An embedding is rebuilt on graph by ``rotation_from_orders`` from its
    neighbour orders mapped through the isomorphism (vertex phi v lists
    phi w for each neighbour w in v's order) and its twisted edges, each
    (u, v) carried to (phi u, phi v).  The face trace stays: phi, confirmed
    edge by edge in ``_isomorphism``, maps rep's faces onto the carried
    embedding's, so their count, Euler genus and orientability are the
    same.  A witness is rebuilt on graph under graph's labels (labels
    name the witness's vertices).  Other certificates are copied.
    """
    def carry(cert: dict) -> dict:
        cert = dict(cert)
        if cert.get("method") == "embedding":
            rs = cert["rotation"]
            orders = [()] * graph.n
            for v, rot in enumerate(rs.rotations):
                orders[phi[v]] = [phi[dart_head(rep, d)] for d in rot]
            twisted = None
            if rs.is_signed():
                twisted = [(phi[u], phi[v]) for (u, v), sign
                           in zip(rep.edges, rs.signs) if sign == -1]
            cert["rotation"] = rotation_from_orders(graph, orders, twisted)
        if cert.get("witness") is not None:
            w = cert["witness"]
            index = {label: v for v, label in enumerate(rep.labels)}
            verts = [phi[index[label]] for label in w.labels]
            cert["witness"] = induced(
                Graph(graph.n, tuple((verts[u], verts[v]) for u, v in w.edges),
                      graph.labels), verts)
        return cert

    return replace(res, lower_certificate=carry(res.lower_certificate),
                   upper_certificate=carry(res.upper_certificate))


def _joined_without_edge(adj: list[set[int]], u: int, v: int) -> bool:
    """Whether u and v stay connected when the edge u-v is removed, i.e.
    whether that edge is no bridge."""
    seen, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y == v and x != u:
                return True
            if y not in seen and y != v:
                seen.add(y)
                stack.append(y)
    return False


# ---------------------------------------------------------------------------
# block composition
# ---------------------------------------------------------------------------

def _crosscap_formula(blocks) -> tuple[int, bool]:
    """sum(min(2g, k)) over per-block (g, k), and whether some block is
    nonplanar and every nonplanar block has k = 2g + 1; the crosscap of
    the graph is the sum plus 1 if so, else the sum."""
    nonplanar = [(g, k) for g, k in blocks if g]
    return (sum(min(2 * g, k) for g, k in blocks),
            bool(nonplanar) and all(k == 2 * g + 1 for g, k in nonplanar))


def compose_bounds(results: list[tuple[GenusResult, GenusResult]]
                   ) -> tuple[tuple[int, int], tuple[int, int]]:
    """(orientable, nonorientable) genus intervals of a connected graph
    from per-block (orientable, nonorientable) results, exact or bounds.

    Orientable genus is additive over blocks.  For the crosscap, a block
    (g, k) lies in D: (0, 0) when planar, else g >= 1 and 1 <= k <= 2g + 1.
    By Stahl and Beineke, with the convention that a planar block has
    nonorientable genus 1 (its crosscap number here is 0), the crosscap of
    the graph is F = S + I, with S = sum(min(2g, k)) and I = 1 when some
    block is nonplanar and every nonplanar block has k = 2g + 1, else 0;
    that is 1 - n + sum(k) over the n nonplanar blocks in the first case,
    and 2n - sum(max(2 - 2g, 2 - k)) over all n blocks in the other.

    F is monotone on D block by block.  Raise one block within D, from
    (g, k) to (g', k').  S does not fall, and I falls only from 1 to 0,
    when the block ends with k' < 2g' + 1.  It then started at (0, 0), and
    its min term rose from 0 to min(2g', k') >= 1; or it started with
    k = 2g + 1, so 2g + 1 <= k' < 2g' + 1 gives g' > g, and its term rose
    from 2g to min(2g', k') >= 2g + 1.  Either way S rose by at least 1.

    So F at each block's bounds, pulled into D, bounds the crosscap:
    the lower bounds as (max(g_lo, 1, ceil((k_lo - 1) / 2)), max(k_lo, 1))
    when either is positive (the block is nonplanar, and k <= 2g + 1),
    else (0, 0); the upper bounds as (g_hi, min(k_hi, 2 g_hi + 1)) when
    both are positive, else (0, 0) (a block with g or k at most 0 is
    planar).  Exact inputs give F itself.  The lower end is at least
    1 - n + sum(k_lo), sum(min(2 g_lo, k_lo)) and max(k_lo), and the upper
    end at most sum(min(2 g_hi, k_hi)) + 1.
    """
    lo, hi = [], []
    for og, ng in results:
        g, k = og.lower, ng.lower
        lo.append((max(g, 1, k // 2), max(k, 1)) if g or k else (0, 0))
        g, k = og.upper, ng.upper
        hi.append((g, min(k, 2 * g + 1)) if g and k else (0, 0))
    (s_lo, i_lo), (s_hi, i_hi) = _crosscap_formula(lo), _crosscap_formula(hi)
    return ((sum(og.lower for og, _ in results),
             sum(og.upper for og, _ in results)),
            (s_lo + i_lo, s_hi + i_hi))


def compose_blocks(results: list[tuple[GenusResult, GenusResult]]
                   ) -> tuple[GenusResult, GenusResult]:
    """Genus of a connected graph from exact per-block (orientable,
    nonorientable) results, by ``compose_bounds``.

    Orientable genus is additive over blocks.  The nonorientable genus is
    1 - n + sum(crosscaps) over the n nonplanar blocks when each satisfies
    crosscap = 2*genus + 1, and otherwise 2n - sum(mu) over all blocks,
    with mu = max(2 - 2*genus, 2 - crosscap).
    """
    if not results:
        raise InexactInput("no blocks given")
    for og, ng in results:
        if og.kind != "exact" or ng.kind != "exact":
            raise InexactInput("block composition requires exact per-block results")
    (total_g, _), (total_k, _) = compose_bounds(results)
    gs = [og.value for og, _ in results]
    ks = [ng.value for _, ng in results]
    if _crosscap_formula(list(zip(gs, ks)))[1]:
        rule = "all nonplanar blocks have crosscap = 2*genus + 1"
    else:
        rule = "general block formula via mu"
    cert_g = {"method": "formula_oracle", "detail": "block additivity",
              "blocks": gs}
    cert_k = {"method": "formula_oracle", "detail": rule, "blocks": ks}
    return (GenusResult("exact", total_g, total_g, cert_g, cert_g),
            GenusResult("exact", total_k, total_k, cert_k, cert_k))
