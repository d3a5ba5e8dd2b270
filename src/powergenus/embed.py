"""Combinatorial embeddings: rotation systems, face tracing, and the
branch-and-bound search for minimum-genus embeddings.

Dart convention
---------------
For a graph with edge list ``edges`` (sorted pairs, deterministic order),
edge ``e = (u, v)`` owns two darts: dart ``2e`` with tail ``u`` and dart
``2e + 1`` with tail ``v``.  A rotation system assigns each vertex the
cyclic order of the darts whose tail it is.  A signed rotation system adds
a sign (+1/-1) per edge; all-positive systems describe orientable
embeddings.  Outside the search kernel, only ``rotation_from_orders``
turns neighbour orders into darts.

Face tracing of signed systems goes through the orientable double cover:
each dart gets two lifts (levels 0 and 1), level-1 rotations are reversed,
and crossing a negative edge switches level.  Every face of the base
embedding lifts to exactly two disk faces of the cover, so the base face
count is half the cover's, and the base embedding is orientable exactly
when the cover is disconnected.  The next-dart rule is fixed (see
``_trace_states``) so identical inputs always produce identical traces.
``verify_certificate`` reads the writer's exact layout in bulk into flat
lists for ``_trace_flat``; other layouts go through the line reader.
"""

from __future__ import annotations

import heapq
import math
import re
import time
from dataclasses import astuple, dataclass
from functools import partial
from itertools import accumulate, chain, repeat
from operator import add, lt, mul

import numpy as np

from .errors import Disconnected, InvalidRotation, ParseError
from .powergraph import Graph, is_edge_order


# ---------------------------------------------------------------------------
# rotation systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex cyclic orders of incident darts, plus a +1/-1 sign per
    edge when signed; an unsigned system is an orientable embedding."""

    rotations: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...] | None = None

    def is_signed(self) -> bool:
        return self.signs is not None


def dart_tail(graph: Graph, d: int) -> int:
    return graph.edges[d >> 1][d & 1]


def dart_head(graph: Graph, d: int) -> int:
    return graph.edges[d >> 1][1 - (d & 1)]


def _edge_ids(graph: Graph) -> dict[tuple[int, int], int]:
    """The id of each edge, under both (u, v) and (v, u)."""
    return {p: e for e, (u, v) in enumerate(graph.edges) for p in ((u, v), (v, u))}


def rotation_from_orders(graph: Graph, orders, twisted=None) -> RotationSystem:
    """Vertex v's darts to its neighbours in the cyclic order ``orders[v]``;
    sign -1 on the ``twisted`` edges (vertex pairs, either way round) and +1
    elsewhere, or unsigned when ``twisted`` is None.  Outside the search
    kernel, this is the one place a (vertex, neighbour) pair becomes a dart."""
    ids = _edge_ids(graph)
    rots = tuple(tuple(2 * ids[v, w] + (v > w) for w in order)
                 for v, order in enumerate(orders))
    if twisted is None:
        return RotationSystem(rots)
    signs = [1] * graph.m
    for e in twisted:
        signs[ids[e]] = -1
    return RotationSystem(rots, tuple(signs))


def rotation_from_adjacency(graph: Graph) -> RotationSystem:
    """The default rotation: neighbours, so darts, in increasing order."""
    return rotation_from_orders(graph, map(sorted, graph.adjacency()))


def validate_rotation(graph: Graph, rs) -> None:
    if len(rs.rotations) != graph.n:
        raise InvalidRotation("one cyclic order per vertex required")
    tails = list(chain.from_iterable(graph.edges))  # tail of each dart
    ndarts = len(tails)
    listed = [d for rot in rs.rotations for d in rot]
    # checked in bulk; the loop runs only to name the first fault
    if (sorted(listed) != list(range(ndarts))
            or list(map(tails.__getitem__, listed))
            != [v for v, rot in enumerate(rs.rotations) for _ in rot]):
        seen: set[int] = set()
        for v, rot in enumerate(rs.rotations):
            for d in rot:
                if not 0 <= d < ndarts:
                    raise InvalidRotation(f"dart {d} out of range")
                if tails[d] != v:
                    raise InvalidRotation(f"dart {d} listed at wrong vertex {v}")
                if d in seen:
                    raise InvalidRotation(f"dart {d} appears twice")
                seen.add(d)
        raise InvalidRotation("some dart is missing from the rotation system")
    if rs.is_signed() and len(rs.signs) != graph.m:
        raise InvalidRotation("need one sign per edge")
    if rs.is_signed() and any(s not in (1, -1) for s in rs.signs):
        raise InvalidRotation("signs must be +1 or -1")


# ---------------------------------------------------------------------------
# face tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceTrace:
    """What tracing a (signed) rotation system's faces shows and a
    certificate claims; isomorphisms that carry the system keep all three."""

    face_count: int
    euler_genus: int
    orientable: bool

    @property
    def genus(self) -> int | None:
        """Orientable genus, when the embedding is orientable."""
        return self.euler_genus // 2 if self.orientable else None

    @property
    def crosscap(self) -> int | None:
        """Crosscap count, when the embedding is nonorientable."""
        return self.euler_genus if not self.orientable else None


def _orbits(succ, states):
    """The orbits of ``succ`` that ``states`` meet, each walked once: (orbit
    id per state, -1 off them; the first given state on each)."""
    face = [-1] * len(succ)
    firsts = []
    for s0 in states:
        if face[s0] < 0:
            face[s0] = nface = len(firsts)
            firsts.append(s0)
            s = succ[s0]
            while s != s0:
                face[s] = nface
                s = succ[s]
    return face, firsts


def _trace_states(darts, nxt, prv, twist):
    """Orbit decomposition of the double-cover face permutation.

    State ``2*d + level``: about to walk along dart d on the given level.
    Step: cross the edge (flip level on a twisted edge), then take the
    rotation successor (level 0) or predecessor (level 1).
    Returns (orbit id per state, -1 off the given darts; orbit count;
    first state per orbit).
    """
    succ = [-1] * (2 * len(nxt))  # each state's successor, built once
    for d in darts:
        e, t = d ^ 1, twist[d >> 1]
        succ[2 * d + t] = 2 * nxt[e]
        succ[2 * d + 1 - t] = 2 * prv[e] + 1
    face, firsts = _orbits(succ, [2 * d + i for d in darts for i in (0, 1)])
    return face, len(firsts), firsts


def trace_faces(graph: Graph, rs) -> FaceTrace:
    """Trace all faces of a (signed) rotation system for a connected graph:
    the face count, the Euler genus and orientability."""
    validate_rotation(graph, rs)
    twist = [int(s != 1) for s in rs.signs] if rs.is_signed() else [0] * graph.m
    return _trace_flat(graph.n, list(chain.from_iterable(graph.edges)),
                       list(chain.from_iterable(rs.rotations)),
                       list(map(len, rs.rotations)), twist)


def _trace_flat(n: int, ends, darts, lens, twist) -> FaceTrace:
    """``trace_faces`` on validated flat lists: ``ends[d]`` the tail of dart
    d, ``darts`` the rotations of vertices 0, 1, ... in turn, ``lens[v]``
    the length of v's, ``twist[e]`` 1 on a negative edge and 0 elsewhere."""
    m = len(twist)
    if m == 0:
        raise InvalidRotation("face tracing needs at least one edge")
    stops = list(accumulate(lens))
    # one search from vertex 0 must reach every vertex; orientable iff every
    # cycle has an even number of twists (a disconnected double cover)
    color = [0] + [-1] * (n - 1)
    stack = [0]
    orientable = True
    while stack:
        v = stack.pop()
        for d in darts[stops[v] - lens[v]:stops[v]]:
            w, c = ends[d ^ 1], color[v] ^ twist[d >> 1]
            if color[w] < 0:
                color[w] = c
                stack.append(w)
            elif color[w] != c:
                orientable = False
    if -1 in color:
        raise Disconnected("face tracing requires a connected graph")
    # each cover state's successor (see _trace_states), from each dart d
    # and d2, the dart after it at its vertex
    after = darts[1:] + darts[:1]
    for stop, k in zip(stops, lens):  # connected: every k is at least 1
        after[stop - 1] = darts[stop - k]
    succ = [0] * (4 * m)
    for d, d2 in zip(darts, after):
        succ[2 * (d ^ 1) + twist[d >> 1]] = 2 * d2
        succ[2 * (d2 ^ 1) + 1 - twist[d2 >> 1]] = 2 * d + 1
    face, firsts = _orbits(succ, range(4 * m))
    # the deck transformation pairs each face's two lifts: state (d, i)
    # pairs with (alpha(d), 1 ^ i ^ twist(d)), on a distinct cover face
    pairs = 0
    for i, s in enumerate(firsts):
        d = s >> 1
        j = face[2 * (d ^ 1) + (1 ^ (s & 1) ^ twist[d >> 1])]
        assert j != i, "face lift paired with itself"
        pairs += i < j
    assert 2 * pairs == len(firsts)
    return FaceTrace(pairs, 2 - (n - m + pairs), orientable)


# ---------------------------------------------------------------------------
# branch-and-bound embedding search
# ---------------------------------------------------------------------------

@dataclass
class Budget:
    """Node-expansion and wall-clock caps for one search level.  By default
    only the node cap applies, so whether a search ends exact does not
    depend on the machine's speed."""

    max_nodes: int = 100_000_000
    max_seconds: float = math.inf


@dataclass
class SearchOutcome:
    """Result of one fixed-level search.

    status: 'found' (embedding with Euler genus <= target), 'exhausted'
    (no such embedding exists), or 'budget' (gave up; nothing proved).
    """

    status: str
    embedding: RotationSystem | None = None
    trace: FaceTrace | None = None
    nodes: int = 0


def _edge_insertion_order(graph: Graph):
    """Vertex-by-vertex activation order, densest first.

    Returns (root, ordered edge ids, activating flag per position).  Each
    new vertex is activated by one edge to the active set, immediately
    followed by all its remaining back-edges, so the placed subgraph stays
    connected and cycles close as early as possible.

    The next vertex has the most active neighbours, then the highest
    degree, then the lowest index.  ``count`` holds each vertex's active
    neighbours and only grows, so a heap entry per (count, vertex) serves
    the choice in O(m log n): a vertex's newest entry pops before its stale
    ones, which are skipped once it is active.
    """
    adj = graph.adjacency()
    deg = [len(a) for a in adj]
    root = max(range(graph.n), key=lambda v: (deg[v], -v))
    ids = _edge_ids(graph)
    order: list[int] = []
    activating: list[bool] = []
    active = [False] * graph.n
    count = [0] * graph.n
    heap: list[tuple[int, int, int]] = []

    def activate(w: int) -> None:
        active[w] = True
        for u in adj[w]:
            if not active[u]:
                count[u] += 1
                heapq.heappush(heap, (-count[u], -deg[u], u))

    activate(root)
    for _ in range(sum(d > 0 for d in deg) - (deg[root] > 0)):
        while heap and active[heap[0][2]]:
            heapq.heappop(heap)
        if not heap:
            raise Disconnected("embedding search requires a connected graph")
        w = heapq.heappop(heap)[2]
        back = sorted((u for u in adj[w] if active[u]),
                      key=lambda u: (-deg[u], u))
        for i, u in enumerate(back):
            order.append(ids[u, w])
            activating.append(i == 0)
        activate(w)
    assert len(order) == graph.m
    return root, order, activating


# kinds of insertion step, by what is already placed when the edge goes in
_FIRST, _BRIDGE, _CHORD = 0, 1, 2


class _Searcher:
    """Depth-first edge-insertion search at a fixed Euler-genus target.

    Each partial state is an embedding of the already-inserted subgraph;
    its Euler genus never decreases as edges are added, and every insertion
    changes it by exactly 0 (chord splitting a face), 1 (chord across the
    same face with the twist that adds a crosscap), or 2 (chord joining two
    distinct faces), so pruning against the target is exact.

    Symmetry quotients: the rotation of the root (maximum-degree) vertex is
    fixed up to cyclic rotation automatically (no anchor choice until its
    third dart) and up to reflection by pinning the third dart's anchor;
    signs on the activating (spanning-tree) edges are fixed to +1.

    Faces are kept incrementally on the double cover of ``_trace_states``:
    ``fid[2*d + level]`` is the id of the cover face through that state (-1
    while dart d is unplaced) and ``nface`` counts cover faces, so the
    partial Euler genus is O(1).  Every cover face has a distinct mirror,
    its image under the deck transformation tau(2d + i) = 2(d ^ 1) +
    (1 ^ i ^ twist[d >> 1]), and ids are allocated in pairs so that the
    mirror of face f is face f ^ 1.  A bridge to a new vertex after anchor
    a needs no walk: its sheet-0 states join the face of the corner
    (nxt[a], 0) and its sheet-1 states the face of (a, 1), the mirror.

    A chord (du at u after anchor a, dv at v after anchor b, twist t) whose
    sheet-t v-corner lies on x0, the face of the u-corner (nxt[a], 0), is a
    split.  Cut at its two corners, x0 becomes A, the face through (du, 0),
    and B, the face through (dv, t); its mirror x0 ^ 1 becomes A' through
    (dv, 1 - t) and B' through (du, 1).  The pairs (A, A') and (B, B') are
    deck images of each other, since tau(du, 0) = (dv, 1 - t) and
    tau(dv, t) = (du, 1).  The search walks A and B' in lockstep until one
    closes and relabels only that one, the shorter, with a fresh id pair:
    each of its states gets the new id and that state's mirror the other
    id of the pair.  The longer side keeps its ids: its chord state gets
    the id of its face successor, which is x0 for (du, 0) and x0 ^ 1 for
    (du, 1), and that state's mirror the partner id.  Every state of the
    four faces then carries its face's id with the mirror on id ^ 1, and
    nothing else changed, so ``fid[tau(s)] == fid[s] ^ 1`` still holds; the
    face count grows by 2.  Any other chord merges faces: it re-walks the
    cover faces through the two states of du, giving each a fresh id pair
    and writing every state's new id and its mirror's.  Every face it
    merges is met by those walks or their mirrors, so the face count
    changes by the number of new faces minus twice the number of distinct
    old face pairs met.  Each overwritten (state, mirror, old id) goes on
    an undo log, and removing a chord replays the log back to the mark
    taken when it went in, then sets the chord's own four states, which
    the log may hold with any old id, back to -1.  Bridges and the first
    edge write only their own four states and log nothing.  Ids are never
    reused, so a fresh id is always unused.

    The search is iterative, one stack entry per placed edge, so its depth
    is not bounded by Python's recursion limit.  Placing and removing edges
    is written out inside ``run``; ``_children`` lists a node's moves.
    """

    def __init__(self, graph: Graph, target: int, signed: bool,
                 budget: Budget):
        self.graph = graph
        self.target = target
        self.signed = signed
        self.budget = budget
        self.m = graph.m
        self.root, order, activating = _edge_insertion_order(graph)
        self.plan = self._plan(order, activating)
        self.nxt = [-1] * (2 * self.m)
        self.prv = [-1] * (2 * self.m)
        self.twist = [0] * self.m
        self.rep = [-1] * graph.n
        self.count = [0] * graph.n
        self.fid = [-1] * (4 * self.m)
        self.nface = 0  # both counters as of the node being expanded
        self.nactive = 0
        self.log: list[int] = []  # flat (state, mirror, old id) triples

    def _plan(self, order, activating):
        """Per insertion position: (kind, edge, u, dart at u, v, dart at v),
        with u the endpoint already active when a bridge goes in."""
        active = set()
        plan = []
        for e, act in zip(order, activating):
            u, v = self.graph.edges[e]
            du, dv = 2 * e, 2 * e + 1
            if not act:
                kind = _CHORD
            elif u in active or v in active:
                kind = _BRIDGE
                if v in active:
                    u, v, du, dv = v, u, dv, du
            else:
                kind = _FIRST
            active.update((u, v))
            plan.append((kind, e, u, du, v, dv))
        return plan

    def run(self) -> SearchOutcome:
        deadline = time.monotonic() + self.budget.max_seconds
        max_nodes = self.budget.max_nodes
        m, plan, signed = self.m, self.plan, self.signed
        nxt, prv, fid, twist = self.nxt, self.prv, self.fid, self.twist
        rep, count, log = self.rep, self.count, self.log
        push = log.append
        # per chord position: the log length and face count before its move
        marks = [0] * m
        faces = [0] * m
        nface = nactive = next_id = nodes = 0
        stack: list[list] = []  # per placed position: [children, next index]
        while True:
            i = len(stack)
            if i < m:
                nodes += 1
                if nodes > max_nodes or (
                        nodes % 4096 == 0 and time.monotonic() > deadline):
                    return SearchOutcome("budget", nodes=nodes)
                self.nface, self.nactive = nface, nactive
                stack.append([self._children(i), 0])
            elif signed and not any(twist):
                pass  # an orientable completion: not an N_k certificate
            else:
                emb = self._snapshot()
                tr = trace_faces(self.graph, emb)
                assert tr.euler_genus <= self.target
                return SearchOutcome("found", emb, tr, nodes)
            while stack:  # backtrack to the deepest untried child
                top = stack[-1]
                i = len(stack) - 1
                children, k = top
                kind, e, u, du, v, dv = plan[i]
                if k:  # take the previous move at position i back out
                    if kind == _CHORD:
                        mark = marks[i]
                        for j in range(len(log) - 3, mark - 1, -3):
                            o = log[j + 2]
                            fid[log[j]] = o
                            fid[log[j + 1]] = o ^ 1
                        del log[mark:]
                        nface = faces[i]
                        twist[e] = 0
                        p, n2 = prv[dv], nxt[dv]
                        nxt[p] = n2
                        prv[n2] = p
                        count[v] -= 1
                    elif kind == _BRIDGE:
                        count[v] = 0
                        nactive -= 1
                    else:
                        count[v] = 0
                        nface = nactive = 0
                    if kind != _FIRST:  # du has neighbours at u
                        p, n2 = prv[du], nxt[du]
                        nxt[p] = n2
                        prv[n2] = p
                    count[u] -= 1
                    fid[2 * du] = fid[2 * du + 1] = -1
                    fid[2 * dv] = fid[2 * dv + 1] = -1
                if k == len(children):
                    stack.pop()
                    continue
                move = children[k]
                top[1] = k + 1
                if kind == _CHORD:
                    a, b, t = move
                    marks[i] = len(log)
                    faces[i] = nface
                    n2 = nxt[a]
                    x0 = fid[2 * n2]
                    split = x0 == (fid[2 * b + 1] if t else fid[2 * nxt[b]])
                    nxt[a] = du
                    prv[du] = a
                    nxt[du] = n2
                    prv[n2] = du
                    n2 = nxt[b]
                    nxt[b] = dv
                    prv[dv] = b
                    nxt[dv] = n2
                    prv[n2] = dv
                    count[u] += 1
                    count[v] += 1
                    twist[e] = t
                    if not split:
                        next_id, grown = self._walk_chord(du, next_id)
                        nface += grown
                        break
                    # walk A from (du, 0) and B' from (du, 1) until one closes
                    sa = s0 = 2 * du
                    sb = s0 + 1
                    while True:
                        d = sa >> 1
                        if (sa ^ twist[d >> 1]) & 1:
                            sa = 2 * prv[d ^ 1] + 1
                        else:
                            sa = 2 * nxt[d ^ 1]
                        if sa == s0:
                            break
                        d = sb >> 1
                        if (sb ^ twist[d >> 1]) & 1:
                            sb = 2 * prv[d ^ 1] + 1
                        else:
                            sb = 2 * nxt[d ^ 1]
                        if sb == s0 + 1:
                            s0 += 1
                            break
                    # the longer side keeps x0 (A) or x0 ^ 1 (B')
                    ob = x0 ^ (s0 & 1) ^ 1
                    fid[s0 ^ 1] = ob
                    fid[2 * dv + (s0 & 1 ^ t)] = ob ^ 1
                    # the shorter side gets a fresh pair; its chord state is
                    # logged with the others, and reset to -1 on removal
                    f = next_id
                    g = f ^ 1
                    next_id += 2
                    o = ob ^ 1
                    s = s0
                    while True:
                        d = s >> 1
                        e2 = d ^ 1
                        if (s ^ twist[d >> 1]) & 1:
                            ms = 2 * e2
                            nx = 2 * prv[e2] + 1
                        else:
                            ms = 2 * e2 + 1
                            nx = 2 * nxt[e2]
                        push(s)
                        push(ms)
                        push(o)
                        fid[s] = f
                        fid[ms] = g
                        s = nx
                        if s == s0:
                            break
                    nface += 2
                    break
                if kind == _BRIDGE:  # joins the faces of its gap's corners
                    a = move
                    n2 = nxt[a]
                    x0 = fid[2 * n2]
                    nxt[a] = du
                    prv[du] = a
                    nxt[du] = n2
                    prv[n2] = du
                    count[u] += 1
                else:  # two mirror faces, one per sheet
                    x0 = next_id
                    next_id += 2
                    nface += 2
                    nactive += 1
                    nxt[du] = prv[du] = du
                    rep[u] = du
                    count[u] = 1
                nxt[dv] = prv[dv] = dv
                rep[v] = dv
                count[v] = 1
                nactive += 1
                # sheet 0 on face x0, sheet 1 on its mirror; a tree edge is
                # untwisted, so (du, l) and (dv, 1 - l) are mirrors
                fid[2 * du] = fid[2 * dv] = x0
                fid[2 * du + 1] = fid[2 * dv + 1] = x0 ^ 1
                break
            else:
                return SearchOutcome("exhausted", nodes=nodes)

    def _snapshot(self):
        nxt, rots = self.nxt, []
        for v in range(self.graph.n):
            rot = []
            d = self.rep[v]
            for _ in range(self.count[v]):
                rot.append(d)
                d = nxt[d]
            rots.append(tuple(rot))
        signs = tuple(-1 if t else 1 for t in self.twist) if self.signed else None
        return RotationSystem(tuple(rots), signs)

    def _euler_genus(self, placed: int) -> int:
        """Euler genus of the partial map of the first `placed` edges."""
        return 2 - (self.nactive - placed + self.nface // 2)

    def _children(self, i: int) -> list:
        """The moves at position i, in search order: the anchor at u for a
        bridge (-1, none, for the first edge), (a, b, twist) for a chord
        whose Euler-genus delta fits under the target.  The anchors at a
        vertex run along its rotation from its first dart; at the root's
        third dart only the first dart is tried (the reflection pin)."""
        kind, _, u, _, v, _ = self.plan[i]
        if kind == _FIRST:
            return [-1]
        nxt, rep, count, root = self.nxt, self.rep, self.count, self.root
        nu = 1 if u == root and count[u] == 2 else count[u]
        if kind == _BRIDGE:  # bridges never change the genus
            a = rep[u]
            us = [a]
            for _ in range(nu - 1):
                a = nxt[a]
                us.append(a)
            return us
        nv = 1 if v == root and count[v] == 2 else count[v]
        # The gap after anchor a at u is passed by two double-cover states,
        # one per sheet: (nxt[a], 0) and (a, 1).  The chord's two cover
        # lifts join the sheet-0 u-corner to the sheet-t v-corner and the
        # sheet-1 u-corner to the sheet-(1-t) v-corner.  The two u-corners
        # never share a face: (nxt[a], 0) is the face successor of
        # (a ^ 1, twist), the deck image of (a, 1), so they lie on mirror
        # faces, which are distinct (trace_faces asserts it).  Hence delta
        # 0 when the sheet-t v-corner is on x0 (both lifts split their
        # mirror faces), 1 when it is on x1 (merge two mirror faces, then
        # split back), and 2 otherwise (both lifts merge distinct faces).
        slack = self.target - self._euler_genus(i)
        assert slack >= 0
        fid, signed = self.fid, self.signed
        out = []
        if slack == 0:
            # Only delta 0 fits: group the v-corners (b, t) by face, in scan
            # order, and give each anchor a the group on its face x0.
            by_face: dict[int, list] = {}
            b = rep[v]
            for _ in range(nv):
                nb = nxt[b]
                y = fid[2 * nb]
                group = by_face.get(y)
                if group is None:
                    by_face[y] = [(b, 0)]
                else:
                    group.append((b, 0))
                if signed:
                    y = fid[2 * b + 1]
                    group = by_face.get(y)
                    if group is None:
                        by_face[y] = [(b, 1)]
                    else:
                        group.append((b, 1))
                b = nb
            a = rep[u]
            for _ in range(nu):
                na = nxt[a]
                group = by_face.get(fid[2 * na])
                if group:
                    for b, t in group:
                        out.append((a, b, t))
                a = na
            return out
        twists = (0, 1) if signed else (0,)
        corners = []
        b = rep[v]
        for _ in range(nv):
            corners.append((b, (fid[2 * nxt[b]], fid[2 * b + 1])))
            b = nxt[b]
        a = rep[u]
        for _ in range(nu):
            x0, x1 = fid[2 * nxt[a]], fid[2 * a + 1]
            for b, ys in corners:
                for t in twists:
                    y = ys[t]
                    if (0 if y == x0 else 1 if y == x1 else 2) <= slack:
                        out.append((a, b, t))
            a = nxt[a]
        return out

    def _walk_chord(self, du: int, base: int):
        """Walk the new faces through the two states of the chord's dart du,
        each step also writing the mirror state; ids from ``base`` up are
        fresh.  Returns the next fresh id and the change in the face count."""
        fid, nxt, prv, twist = self.fid, self.nxt, self.prv, self.twist
        push = self.log.append
        f = base
        met = set()  # old face pairs, as o >> 1
        for s in (2 * du, 2 * du + 1):
            o = fid[s]
            if o >= base:
                continue  # already on a face (or mirror) walked for this chord
            g = f ^ 1
            while o != f:
                met.add(o >> 1)
                push(s)
                fid[s] = f
                d = s >> 1
                e = d ^ 1
                if (s ^ twist[d >> 1]) & 1:
                    ms = 2 * e
                    s = 2 * prv[e] + 1
                else:
                    ms = 2 * e + 1
                    s = 2 * nxt[e]
                push(ms)
                push(o)
                fid[ms] = g
                o = fid[s]
            f += 2
        met.discard(-1)  # the chord's own states were unplaced
        return f, f - base - 2 * len(met)


def search_embedding(graph: Graph, target_euler_genus: int, *, signed: bool,
                     budget: Budget | None = None) -> SearchOutcome:
    """Search for an embedding with Euler genus at most the target.

    A signed search looks for a nonorientable embedding: it skips
    completions with no twisted edge.  'exhausted' proves that no rotation
    system (unsigned) or no nonorientable signed one (signed) achieves the
    target.  Deterministic: identical inputs explore identical trees.
    """
    if budget is None:
        budget = Budget()
    s = _Searcher(graph, target_euler_genus, signed, budget)
    return s.run()


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def _claim_words(tr: FaceTrace) -> str:
    kind = "orientable" if tr.orientable else "nonorientable"
    return f"faces={tr.face_count} euler_genus={tr.euler_genus} {kind}"


def certificate_to_text(graph: Graph, rs, tr: FaceTrace) -> str:
    """Embedding certificate: edge list, per-vertex dart cycles, signs,
    and the claimed face count / genus; `verify` re-traces it bit-exactly."""
    lines = [f"embedding {graph.n} {graph.m} {'signed' if rs.is_signed() else 'orientable'}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    for v, rot in enumerate(rs.rotations):
        lines.append(f"rot {v}: " + " ".join(map(str, rot)))
    if rs.is_signed():
        lines.append("signs " + " ".join(map(str, rs.signs)))
    lines.append("claim " + _claim_words(tr))
    return "\n".join(lines) + "\n"


def _number(token: str) -> int:
    """token as an int, if the writer writes that int so: ``int`` alone
    also takes ``+2``, ``0_2``, ``02`` and non-ASCII digits."""
    if str(value := int(token)) != token:
        raise ValueError(token)
    return value


def certificate_from_text(text: str):
    """Parse a certificate in the layout ``certificate_to_text`` writes;
    returns (graph, rotation system, claimed FaceTrace).

    Blank lines and spacing are ignored.  After the header come m edge
    lines, pairs u < v in strictly increasing order (darts are numbered by
    edge line), ``rot v:`` for v = 0 .. n-1, a ``signs`` line exactly when
    the kind is signed, and the claim line last.  The line count is checked
    against the header before anything is allocated per vertex; then a
    line that is not what its position holds raises ParseError, numbered
    among the non-blank lines from 1."""
    lines = [ln for ln in map(str.rstrip, text.splitlines()) if ln]
    try:
        word, n_s, m_s, kind = lines[0].split()
        n, m = _number(n_s), _number(m_s)
        if word != "embedding" or kind not in ("signed", "orientable"):
            raise ValueError
    except (IndexError, ValueError):
        raise ParseError("expected header 'embedding n m orientable' or "
                         "'embedding n m signed'") from None
    signed = kind == "signed"
    if n < 0 or m < 0 or len(lines) != 2 + m + n + signed:
        raise ParseError(f"header {lines[0]!r} needs {2 + m + n + signed} "
                         f"lines, not {len(lines)}: a line is missing or "
                         "repeated")
    k = 1  # the line being read, counted from 1
    try:
        edges = []
        for k in range(2, 2 + m):
            u, v = lines[k - 1].split()
            edges.append((_number(u), _number(v)))
        if not is_edge_order(edges):
            raise ParseError("edge lines must be pairs u < v in strictly "
                             "increasing order")
        rots = []
        for v in range(n):
            k = 2 + m + v
            head, colon, rest = lines[k - 1].partition(":")
            if not colon or head.split() != ["rot", str(v)]:
                raise ValueError
            rots.append(tuple(map(_number, rest.split())))
        signs = None
        if signed:
            k = 2 + m + n
            word, *vals = lines[k - 1].split()
            if word != "signs":
                raise ValueError
            signs = tuple(map(_number, vals))
        k = len(lines)
        word, faces, euler, orient = lines[-1].split()
        faces_key, _, faces = faces.partition("=")
        euler_key, _, euler = euler.partition("=")
        if ((word, faces_key, euler_key) != ("claim", "faces", "euler_genus")
                or orient not in ("orientable", "nonorientable")):
            raise ValueError
        claim = FaceTrace(_number(faces), _number(euler), orient == "orientable")
    except ValueError:
        raise ParseError(f"unexpected certificate line {k}: "
                         f"{lines[k - 1]!r}") from None
    return Graph(n, tuple(edges)), RotationSystem(tuple(rots), signs), claim


#: a number as the writer writes it, short enough for int64
_NUM = "(?:0|[1-9][0-9]{0,17})"
#: the exact layout ``certificate_to_text`` writes, one group per block
_LAYOUT = re.compile(
    rf"embedding ({_NUM}) ({_NUM}) (orientable|signed)\n"
    rf"((?:{_NUM} {_NUM}\n)*)"
    rf"((?:rot {_NUM}:(?: {_NUM})+\n)*)"
    r"(?:signs((?: -?1)+)\n)?"
    rf"claim faces=({_NUM}) euler_genus=({_NUM}) (orientable|nonorientable)\n")
_ROT = re.compile(r"rot ([0-9]+):([^\n]*)")
_numbers = partial(np.fromstring, dtype=np.int64, sep=" ")  # one C call


def _read_flat(text: str):
    """(claim, ``_trace_flat`` arguments) of a certificate in the writer's
    exact layout, checked as the line reader and ``validate_rotation`` do;
    None on any other layout or fault, for the line reader to name."""
    match = _LAYOUT.fullmatch(text)
    if match is None:
        return None
    (n_s, m_s, kind, edge_block, rot_block, sign_block,
     faces, euler, orient) = match.groups()
    n, m = int(n_s), int(m_s)
    ends = _numbers(edge_block).tolist()
    rots = _ROT.findall(rot_block)
    signed = sign_block is not None
    # sizes first: allocate nothing for a count only the header states
    if len(ends) != 2 * m or len(rots) != n or signed != (kind == "signed"):
        return None
    tails, heads = ends[0::2], ends[1::2]
    keys = list(map(add, map(mul, tails, repeat(n)), heads))  # edge order
    darts = _numbers("".join([rest for _, rest in rots])).tolist()
    lens = [rest.count(" ") for _, rest in rots]
    twist = ((1 - _numbers(sign_block)) >> 1).tolist() if signed else [0] * m
    # an endpoint v >= n fails the tail check: no rot line lists v's darts
    if (len(twist) != m or not all(map(lt, tails, heads))
            or not all(map(lt, keys, keys[1:]))
            or [v for v, _ in rots] != list(map(str, range(n)))
            or sorted(darts) != list(range(2 * m))  # each dart once
            or list(map(ends.__getitem__, darts))  # each at its tail
            != list(chain.from_iterable(map(repeat, range(n), lens)))):
        return None
    return (FaceTrace(int(faces), int(euler), orient == "orientable"),
            (n, ends, darts, lens, twist))


def verify_certificate(text: str) -> tuple[bool, str]:
    """Re-trace a certificate and check its claim; returns (ok, message)."""
    if (flat := _read_flat(text)) is not None:
        claim, tr = flat[0], _trace_flat(*flat[1])
    else:
        graph, rs, claim = certificate_from_text(text)
        tr = trace_faces(graph, rs)
    if claim != tr:  # name the first field that differs
        key, said, got = next(d for d in zip(
            ("faces", "euler_genus", "orientable"), astuple(claim), astuple(tr))
            if d[1] != d[2])
        return False, f"claim mismatch: {key} claimed {said}, traced {got}"
    return True, "verified: " + _claim_words(tr)
