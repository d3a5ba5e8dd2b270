"""Combinatorial embeddings: rotation systems, face tracing, and the
branch-and-bound search for minimum-genus embeddings.

Dart convention
---------------
For a graph with edge list ``edges`` (sorted pairs, deterministic order),
edge ``e = (u, v)`` owns two darts: dart ``2e`` with tail ``u`` and dart
``2e + 1`` with tail ``v``.  A rotation system assigns each vertex the
cyclic order of the darts whose tail it is.  A signed rotation system adds
a sign (+1/-1) per edge; all-positive systems describe orientable
embeddings.

Face tracing of signed systems goes through the orientable double cover:
each dart gets two lifts (levels 0 and 1), level-1 rotations are reversed,
and crossing a negative edge switches level.  Every face of the base
embedding lifts to exactly two disk faces of the cover, so the base face
count is half the cover's, and the base embedding is orientable exactly
when the cover is disconnected.  The next-dart rule is fixed (see
``_trace_states``) so identical inputs always produce identical traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import Disconnected, InvalidRotation, ParseError
from .powergraph import Graph


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
    u, v = graph.edges[d >> 1]
    return u if d & 1 == 0 else v


def dart_head(graph: Graph, d: int) -> int:
    u, v = graph.edges[d >> 1]
    return v if d & 1 == 0 else u


def rotation_from_adjacency(graph: Graph) -> RotationSystem:
    """The default rotation: darts at each vertex in increasing dart id."""
    rots: list[list[int]] = [[] for _ in range(graph.n)]
    for e, (u, v) in enumerate(graph.edges):
        rots[u].append(2 * e)
        rots[v].append(2 * e + 1)
    return RotationSystem(tuple(tuple(r) for r in rots))


def validate_rotation(graph: Graph, rs) -> None:
    if len(rs.rotations) != graph.n:
        raise InvalidRotation("one cyclic order per vertex required")
    seen: set[int] = set()
    for v, rot in enumerate(rs.rotations):
        for d in rot:
            if not 0 <= d < 2 * graph.m:
                raise InvalidRotation(f"dart {d} out of range")
            if dart_tail(graph, d) != v:
                raise InvalidRotation(f"dart {d} listed at wrong vertex {v}")
            if d in seen:
                raise InvalidRotation(f"dart {d} appears twice")
            seen.add(d)
    if len(seen) != 2 * graph.m:
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
    """Result of tracing the faces of a (signed) rotation system."""

    face_count: int
    faces: tuple[tuple[int, ...], ...]  # dart walks, one per face
    euler_characteristic: int
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


def _next_arrays(rotations, m: int):
    nxt = [-1] * (2 * m)
    prv = [-1] * (2 * m)
    for rot in rotations:
        k = len(rot)
        for i, d in enumerate(rot):
            nxt[d] = rot[(i + 1) % k]
            prv[d] = rot[(i - 1) % k]
    return nxt, prv


def _trace_states(darts, nxt, prv, twist):
    """Orbit decomposition of the double-cover face permutation.

    State ``2*d + level``: about to walk along dart d on the given level.
    Step: cross the edge (flip level on a twisted edge), then take the
    rotation successor (level 0) or predecessor (level 1).
    Returns (orbit id per state, orbit count, walks, first state per orbit).
    """
    face = {}
    walks = []
    firsts = []
    nface = 0
    for d0 in darts:
        for lvl0 in (0, 1):
            s = 2 * d0 + lvl0
            if s in face:
                continue
            firsts.append(s)
            walk = []
            while s not in face:
                face[s] = nface
                walk.append(s >> 1)
                d = s >> 1
                d2 = d ^ 1
                l2 = (s & 1) ^ twist[d >> 1]
                d3 = nxt[d2] if l2 == 0 else prv[d2]
                s = 2 * d3 + l2
            walks.append(tuple(walk))
            nface += 1
    return face, nface, walks, firsts


def trace_faces(graph: Graph, rs) -> FaceTrace:
    """Trace all faces of a (signed) rotation system for a connected graph."""
    validate_rotation(graph, rs)
    if graph.m == 0:
        raise InvalidRotation("face tracing needs at least one edge")
    # connectivity over all declared vertices
    adj = graph.adjacency()
    start = graph.edges[0][0]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != graph.n:
        raise Disconnected("face tracing requires a connected graph")

    twist = [0] * graph.m
    if rs.is_signed():
        twist = [0 if s == 1 else 1 for s in rs.signs]
    nxt, prv = _next_arrays(rs.rotations, graph.m)
    darts = range(2 * graph.m)
    face, norbits, walks, firsts = _trace_states(darts, nxt, prv, twist)
    assert norbits % 2 == 0
    f = norbits // 2
    # orientable iff the double cover is disconnected, which for a connected
    # base is equivalent to the signed graph being balanced
    orientable = _is_balanced(graph, twist)
    chi = graph.n - graph.m + f
    euler_genus = 2 - chi
    # the deck transformation pairs each face's two lifts: state (d, i)
    # pairs with (alpha(d), 1 ^ i ^ twist(d)); keep one walk per pair
    reps = []
    for i in range(norbits):
        s = firsts[i]
        d = s >> 1
        j = face[2 * (d ^ 1) + (1 ^ (s & 1) ^ twist[d >> 1])]
        assert j != i, "face lift paired with itself"
        if i < j:
            reps.append(min(walks[i], walks[j]))
    assert len(reps) == f
    return FaceTrace(f, tuple(sorted(reps)), chi, euler_genus, orientable)


def _is_balanced(graph: Graph, twist) -> bool:
    """True when every cycle has an even number of twisted edges."""
    color = [-1] * graph.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for e, (u, v) in enumerate(graph.edges):
        adj[u].append((v, twist[e]))
        adj[v].append((u, twist[e]))
    for start in range(graph.n):
        if color[start] != -1 or not adj[start]:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w, t in adj[v]:
                if color[w] == -1:
                    color[w] = color[v] ^ t
                    stack.append(w)
                elif color[w] != color[v] ^ t:
                    return False
    return True


# ---------------------------------------------------------------------------
# branch-and-bound embedding search
# ---------------------------------------------------------------------------

@dataclass
class Budget:
    """Node-expansion and wall-clock caps for one search level."""

    max_nodes: int = 100_000_000
    max_seconds: float = 600.0


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
    """
    adj = graph.adjacency()
    deg = [len(a) for a in adj]
    root = max(range(graph.n), key=lambda v: (deg[v], -v))
    active = {root}
    eindex = {frozenset(e): i for i, e in enumerate(graph.edges)}
    order: list[int] = []
    activating: list[bool] = []
    remaining = set(v for v in range(graph.n) if deg[v] > 0) - {root}
    while remaining:
        cand = [v for v in remaining if adj[v] & active]
        if not cand:
            raise Disconnected("embedding search requires a connected graph")
        w = max(cand, key=lambda v: (len(adj[v] & active), deg[v], -v))
        back = sorted(adj[w] & active)
        back.sort(key=lambda u: -deg[u])
        for i, u in enumerate(back):
            order.append(eindex[frozenset((u, w))])
            activating.append(i == 0)
        active.add(w)
        remaining.discard(w)
    assert len(order) == graph.m
    return root, order, activating


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
    """

    def __init__(self, graph: Graph, target: int, signed: bool,
                 budget: Budget, require_nonorientable: bool = False):
        self.graph = graph
        self.target = target
        self.signed = signed
        self.require_nonorientable = require_nonorientable and signed
        self.budget = budget
        self.m = graph.m
        self.root, self.order, self.activating = _edge_insertion_order(graph)
        self.nxt = [-1] * (2 * self.m)
        self.prv = [-1] * (2 * self.m)
        self.twist = [0] * self.m
        self.rep = [-1] * graph.n
        self.count = [0] * graph.n
        self.nodes = 0
        self.deadline = 0.0
        self.result: SearchOutcome | None = None

    # -- linked-list rotation maintenance -----------------------------------

    def _insert(self, d: int, anchor: int, v: int):
        nxt, prv = self.nxt, self.prv
        if self.count[v] == 0:
            nxt[d] = prv[d] = d
            self.rep[v] = d
        else:
            n2 = nxt[anchor]
            nxt[anchor] = d
            prv[d] = anchor
            nxt[d] = n2
            prv[n2] = d
        self.count[v] += 1

    def _remove(self, d: int, v: int):
        nxt, prv = self.nxt, self.prv
        if self.count[v] == 1:
            self.rep[v] = -1
        else:
            p, n2 = prv[d], nxt[d]
            nxt[p] = n2
            prv[n2] = p
            if self.rep[v] == d:
                self.rep[v] = p
        nxt[d] = prv[d] = -1  # placed_darts() keys off nxt
        self.count[v] -= 1

    def _anchors(self, v: int) -> list[int]:
        out = []
        d = self.rep[v]
        for _ in range(self.count[v]):
            out.append(d)
            d = self.nxt[d]
        return out

    # -- search --------------------------------------------------------------

    def run(self) -> SearchOutcome:
        self.deadline = time.monotonic() + self.budget.max_seconds
        self.result = None
        status = self._dfs(0)
        if self.result is not None:
            return self.result
        return SearchOutcome("exhausted" if status else "budget", nodes=self.nodes)

    def _snapshot(self):
        rots = []
        for v in range(self.graph.n):
            rots.append(tuple(self._anchors(v)))
        signs = tuple(-1 if t else 1 for t in self.twist) if self.signed else None
        return RotationSystem(tuple(rots), signs)

    def _dfs(self, i: int) -> bool:
        """Returns True when this subtree was fully explored."""
        if i == self.m:
            if self.require_nonorientable and not any(self.twist):
                return True  # orientable completion: not an N_k certificate
            emb = self._snapshot()
            tr = trace_faces(self.graph, emb)
            assert tr.euler_genus <= self.target
            self.result = SearchOutcome("found", emb, tr, self.nodes)
            return True
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            return False
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            return False

        e = self.order[i]
        u, v = self.graph.edges[e]
        d0, d1 = 2 * e, 2 * e + 1

        if self.activating[i]:
            # at least one endpoint is new; bridges never change the genus
            if self.count[u] == 0 and self.count[v] == 0:
                # very first edge: no anchors to choose
                self._insert(d0, -1, u)
                self._insert(d1, -1, v)
                complete = self._dfs(i + 1)
                self._remove(d1, v)
                self._remove(d0, u)
                return complete
            if self.count[u] == 0:
                u, v = v, u
                d0, d1 = d1, d0
            complete = True
            for a in self._anchor_choices(u):
                self._insert(d0, a, u)
                self._insert(d1, -1, v)
                if not self._dfs(i + 1):
                    complete = False
                self._remove(d1, v)
                self._remove(d0, u)
                if self.result is not None:
                    return complete
                if not complete:
                    return False
            return complete

        # chord: both endpoints active.  The gap after anchor a at u is
        # passed by two double-cover states, one per sheet: (nxt[a], 0) and
        # (a, 1).  The chord's two cover lifts join the sheet-0 u-corner to
        # the sheet-t v-corner and the sheet-1 u-corner to the sheet-(1-t)
        # v-corner; the Euler-genus delta follows from whether each lift
        # splits its face or merges two faces.
        face, pos, lens, cur = self._partial_faces()
        slack = self.target - cur
        assert slack >= 0
        twists = (0, 1) if self.signed else (0,)
        complete = True
        for a in self._anchor_choices(u):
            c0 = 2 * self.nxt[a]
            c1 = 2 * a + 1
            x0, x1 = face[c0], face[c1]
            for b in self._anchor_choices(v):
                dstates = (2 * self.nxt[b], 2 * b + 1)
                for t in twists:
                    dt, dot = dstates[t], dstates[1 - t]
                    if face[dt] == x0:
                        if x1 != x0:
                            delta = 0  # both lifts split their (mirror) faces
                        else:
                            # all four corners on one cover face: the first
                            # lift splits it at corners c0/dt; the second
                            # splits again only if its corners land on the
                            # same side of that cut
                            length = lens[x0]
                            r = (pos[dt] - pos[c0]) % length
                            same = (((pos[c1] - pos[c0]) % length < r)
                                    == ((pos[dot] - pos[c0]) % length < r))
                            delta = 0 if same else 1
                    elif face[dt] == x1:
                        delta = 1  # merge two mirror faces, then split back
                    else:
                        delta = 2  # both lifts merge distinct face pairs
                    if delta > slack:
                        continue
                    self._insert(d0, a, u)
                    self._insert(d1, b, v)
                    self.twist[e] = t
                    if not self._dfs(i + 1):
                        complete = False
                    self.twist[e] = 0
                    self._remove(d1, v)
                    self._remove(d0, u)
                    if self.result is not None:
                        return complete
                    if not complete:
                        return False
        return complete

    def _anchor_choices(self, v: int) -> list[int]:
        if v == self.root and self.count[v] == 2:
            return [self.rep[v]]  # reflection symmetry: pin the third dart
        return self._anchors(v)

    def _partial_faces(self):
        """Face id and walk position per double-cover state of the placed
        partial map, plus walk lengths and the partial Euler genus."""
        nxt, prv, twist = self.nxt, self.prv, self.twist
        face = {}
        pos = {}
        lens = []
        nface = 0
        for d0 in self.placed_darts():
            for lvl in (0, 1):
                s = 2 * d0 + lvl
                if s in face:
                    continue
                k = 0
                while s not in face:
                    face[s] = nface
                    pos[s] = k
                    k += 1
                    d = s >> 1
                    d2 = d ^ 1
                    l2 = (s & 1) ^ twist[d >> 1]
                    d3 = nxt[d2] if l2 == 0 else prv[d2]
                    s = 2 * d3 + l2
                lens.append(k)
                nface += 1
        nactive = sum(1 for c in self.count if c)
        nplaced = sum(self.count) // 2
        chi = nactive - nplaced + nface // 2
        return face, pos, lens, 2 - chi

    def placed_darts(self):
        for d in range(2 * self.m):
            if self.nxt[d] != -1:
                yield d


def search_embedding(graph: Graph, target_euler_genus: int, *, signed: bool,
                     budget: Budget | None = None,
                     require_nonorientable: bool = False) -> SearchOutcome:
    """Search for an embedding with Euler genus at most the target.

    'exhausted' proves that no (signed) rotation system achieves the target
    (for signed searches with require_nonorientable, that no nonorientable
    one does).  Deterministic: identical inputs explore identical trees.
    """
    if budget is None:
        budget = Budget()
    s = _Searcher(graph, target_euler_genus, signed, budget, require_nonorientable)
    return s.run()


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def certificate_to_text(graph: Graph, rs, tr: FaceTrace) -> str:
    """Embedding certificate: edge list, per-vertex dart cycles, signs,
    and the claimed face count / genus; `verify` re-traces it bit-exactly."""
    lines = [f"embedding {graph.n} {graph.m} {'signed' if rs.is_signed() else 'orientable'}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    for v, rot in enumerate(rs.rotations):
        lines.append(f"rot {v}: " + " ".join(str(d) for d in rot))
    if rs.is_signed():
        lines.append("signs " + " ".join(str(s) for s in rs.signs))
    kind = "orientable" if tr.orientable else "nonorientable"
    lines.append(f"claim faces={tr.face_count} euler_genus={tr.euler_genus} {kind}")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str):
    """Parse a certificate file; returns (graph, rotation system, claim dict).

    Every malformed line, a signs line missing from a signed certificate (or
    present in an orientable one) and a claim that does not state the face
    count, Euler genus and orientability raise ParseError."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("embedding "):
        raise ParseError("expected 'embedding n m kind' header")
    try:
        _, n_s, m_s, kind = lines[0].split()
        n, m = int(n_s), int(m_s)
    except ValueError:
        raise ParseError("bad embedding header") from None
    if kind not in ("signed", "orientable"):
        raise ParseError(f"unknown embedding kind {kind!r}")
    # a traceable graph is connected with an edge, so n <= m + 1; checked
    # before anything is allocated per vertex or edge
    if not 0 <= m <= len(lines) - 1 or not 0 <= n <= m + 1:
        raise ParseError(f"header claims {n} vertices and {m} edges but "
                         f"{len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:1 + m]:
        try:
            u, v = (int(x) for x in ln.split())
        except ValueError:
            raise ParseError(f"bad edge line {ln!r}") from None
        edges.append((u, v))
    graph = Graph(n, tuple(edges))
    rots: list[tuple[int, ...]] = [()] * n
    signs = None
    claim = {}
    for ln in lines[1 + m:]:
        try:
            if ln.startswith("rot "):
                head, _, rest = ln.partition(":")
                v = int(head.split()[1])
                if not 0 <= v < n:
                    raise ParseError(f"rotation for a missing vertex: {ln!r}")
                rots[v] = tuple(int(x) for x in rest.split())
            elif ln.startswith("signs"):
                signs = tuple(int(x) for x in ln.split()[1:])
            elif ln.startswith("claim"):
                for tok in ln.split()[1:]:
                    k, eq, val = tok.partition("=")
                    if eq and k in ("faces", "euler_genus"):
                        claim[k] = int(val)
                    elif tok in ("orientable", "nonorientable"):
                        claim["orientable"] = tok == "orientable"
                    else:
                        raise ParseError(f"unknown claim {tok!r}")
            else:
                raise ParseError(f"unexpected certificate line {ln!r}")
        except (IndexError, ValueError):
            raise ParseError(f"bad certificate line {ln!r}") from None
    if (signs is not None) != (kind == "signed"):
        raise ParseError(f"{kind} certificate with"
                         f"{'out' if signs is None else ''} a signs line")
    if len(claim) != 3:
        raise ParseError("the claim must state faces, euler_genus and "
                         "orientable or nonorientable")
    return graph, RotationSystem(tuple(rots), signs), claim


def verify_certificate(text: str) -> tuple[bool, str]:
    """Re-trace a certificate and check its claim; returns (ok, message)."""
    graph, rs, claim = certificate_from_text(text)
    tr = trace_faces(graph, rs)
    checks = [
        ("faces", tr.face_count),
        ("euler_genus", tr.euler_genus),
        ("orientable", tr.orientable),
    ]
    for key, got in checks:
        if claim[key] != got:
            return False, f"claim mismatch: {key} claimed {claim[key]}, traced {got}"
    return True, (f"verified: faces={tr.face_count} euler_genus={tr.euler_genus} "
                  f"{'orientable' if tr.orientable else 'nonorientable'}")
