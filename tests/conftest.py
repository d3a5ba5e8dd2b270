"""Shared fixtures and graph builders for the test suite."""

from powergenus.powergraph import Graph


def hexagon_union(k: int) -> Graph:
    """Union of k power graphs of cyclic order-6 groups sharing the identity
    (vertex 0) and a common pair of order-3 vertices (1, 2).

    Each hexagon contributes two order-6 vertices f, f' adjacent to
    everything in the hexagon, and one involution t adjacent only to
    0, f, f'.  k=2 gives the 9-vertex/23-edge obstruction graph; k=3 gives
    the 12-vertex/33-edge graph.
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    n = 3
    for _ in range(k):
        f, f2, t = n, n + 1, n + 2
        n += 3
        for x in (f, f2):
            edges.extend((x, y) for y in (0, 1, 2))
        edges.extend([(f, f2), (t, 0), (t, f), (t, f2)])
    return Graph(n, tuple(edges))


def k33_with_path(length: int) -> Graph:
    """K3,3 with a pendant path of `length` edges hanging from vertex 0."""
    edges = [(a, b) for a in range(3) for b in range(3, 6)]
    edges += [(0 if k == 0 else 5 + k, 6 + k) for k in range(length)]
    return Graph(6 + length, tuple(edges))


def b1_graph() -> Graph:
    """The two-hexagon union with its two involutions removed (7v/17e):
    a minor-minimal obstruction for the projective plane."""
    g = hexagon_union(2)
    keep = [v for v in range(g.n) if v not in (5, 8)]
    from powergenus.powergraph import induced
    return induced(g, keep)
