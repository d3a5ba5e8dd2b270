"""Undirected power graphs, induced subgraphs, and graph import/export."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import starmap

import networkx as nx
import numpy as np

from .errors import InvalidVertex, ParseError
from .groups import FiniteGroup


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with labeled vertices.

    Edges are stored as a sorted tuple of index pairs (u < v) so iteration
    order is deterministic across runs.  Labels are distinct, so they name
    vertices across graphs (a Kuratowski witness names its vertices by the
    labels of the graph it came from).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        edges = tuple(map(tuple, self.edges))
        # power_graph and induced pass sorted (u < v) pairs: kept as given
        if not is_edge_order(edges):
            if any(u == v for u, v in edges):
                raise InvalidVertex("loops are not allowed")
            edges = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
        if edges and not (0 <= edges[0][0] and max(v for _, v in edges) < self.n):
            raise InvalidVertex("edge endpoint out of range")
        object.__setattr__(self, "edges", edges)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(map(str, range(self.n))))
        elif len(self.labels) != self.n:
            raise InvalidVertex("label count does not match vertex count")
        elif len(set(self.labels)) != self.n:
            raise InvalidVertex("vertex labels must be distinct")

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges)
        return g

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def is_edge_order(edges) -> bool:
    """Whether edges are pairs u < v in strictly increasing order, the
    order a ``Graph`` keeps its edges in."""
    return (all(starmap(operator.lt, edges))
            and all(map(operator.lt, edges, edges[1:])))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(m: int, n: int) -> Graph:
    edges = tuple((i, m + j) for i in range(m) for j in range(n))
    labels = tuple(f"a{i}" for i in range(m)) + tuple(f"b{j}" for j in range(n))
    return Graph(m + n, edges, labels)


def power_graph(g: FiniteGroup) -> Graph:
    """Vertices are group elements; x ~ y iff x != y and x in <y> or y in <x>."""
    n = g.order
    # member[x, y]: y is a power of x, i.e. y in <x>
    member = np.zeros((n, n), dtype=bool)
    member[np.arange(n), g.powers()] = True
    us, vs = np.nonzero(np.triu(member | member.T, 1))
    labels = tuple(_element_label(g, x) for x in range(n))
    return Graph(n, tuple(zip(us.tolist(), vs.tolist())), labels)


def _element_label(g: FiniteGroup, x: int) -> str:
    if x == 0:
        return "e"
    return f"g{x}"


def induced(graph: Graph, vertices) -> Graph:
    """Induced subgraph; vertex labels are preserved."""
    verts = sorted(set(vertices))
    if verts and not (0 <= verts[0] and verts[-1] < graph.n):
        raise InvalidVertex("vertex out of range")
    remap = {v: i for i, v in enumerate(verts)}
    keep = set(verts)
    edges = tuple((remap[u], remap[v]) for u, v in graph.edges if u in keep and v in keep)
    labels = tuple(graph.labels[v] for v in verts)
    return Graph(len(verts), edges, labels)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def to_edge_list(graph: Graph) -> str:
    """Flat edge-list format: header 'n m', then one 'u v' line per edge."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty edge list")
    try:
        n, m = (int(v) for v in lines[0].split())
    except ValueError:
        raise ParseError("expected 'n m' header") from None
    if len(lines) != m + 1:
        raise ParseError(f"expected {m} edges, got {len(lines) - 1}")
    # m edges connect at most m + 1 vertices; checked before the graph
    # allocates a label per vertex
    if not 0 <= n <= m + 1:
        raise ParseError(f"header claims {n} vertices but {m} edges "
                         f"connect at most {m + 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = (int(x) for x in ln.split())
        except ValueError:
            raise ParseError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    # "1 0" stands for "0 1", but one edge written both ways is one edge
    graph = Graph(n, tuple(edges))
    if graph.m != m:
        raise ParseError(f"header claims {m} edges but the lines name "
                         f"{graph.m} distinct ones")
    return graph


def to_dot(graph: Graph) -> str:
    lines = ["graph G {"]
    for v in range(graph.n):
        lines.append(f'  {v} [label="{graph.labels[v]}"];')
    for u, v in graph.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
