"""Weighted undirected graphs, their Laplacians, and layer constructors.

Nodes are labelled 1..N in user-facing structures; arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidGraphError

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class LayerGraph:
    """One layer of a multiplex network: N shared nodes plus weighted edges.

    Edges are unordered pairs with strictly positive weights; self-loops and
    duplicate pairs are rejected (merging two layers is done explicitly via
    :func:`projection`). Stored canonically as ``(i, j, w)`` with ``i < j``.
    """

    node_count: int
    edges: tuple[Edge, ...] = field(default=())

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidGraphError("node_count must be >= 1")
        seen: set[tuple[int, int]] = set()
        canonical = []
        for edge in self.edges:
            if len(edge) != 3:
                raise InvalidGraphError(f"edge {edge!r} must be (i, j, weight)")
            i, j, w = int(edge[0]), int(edge[1]), float(edge[2])
            if i == j:
                raise InvalidGraphError(f"self-loop on node {i}")
            if not (1 <= i <= self.node_count and 1 <= j <= self.node_count):
                raise InvalidGraphError(
                    f"edge ({i}, {j}) outside node range 1..{self.node_count}"
                )
            if not (w > 0.0) or not np.isfinite(w):
                raise InvalidGraphError(f"edge ({i}, {j}) has non-positive weight {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidGraphError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            canonical.append((key[0], key[1], w))
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Dense weighted adjacency matrix (0-based)."""
        a = np.zeros((self.node_count, self.node_count))
        for i, j, w in self.edges:
            a[i - 1, j - 1] = w
            a[j - 1, i - 1] = w
        return a


def laplacian(g: LayerGraph) -> np.ndarray:
    """Graph Laplacian ``diag(A 1) - A``; symmetric PSD with zero row sums."""
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


def projection(g1: LayerGraph, g2: LayerGraph) -> LayerGraph:
    """Merge two layers by summing their adjacencies (shared edges add)."""
    if g1.node_count != g2.node_count:
        raise DimensionError(
            f"projection needs equal node counts, got {g1.node_count} and {g2.node_count}"
        )
    weights: dict[tuple[int, int], float] = {}
    for g in (g1, g2):
        for i, j, w in g.edges:
            weights[(i, j)] = weights.get((i, j), 0.0) + w
    return LayerGraph(g1.node_count, tuple((i, j, w) for (i, j), w in weights.items()))


def is_connected(g: LayerGraph) -> bool:
    """Breadth-first reachability of all N nodes from node 1.

    Deliberately search-based; the spectral quantity lambda_2 is reported
    separately so no eigenvalue tolerance enters this boolean.
    """
    if g.node_count == 1:
        return True
    neighbours: list[list[int]] = [[] for _ in range(g.node_count)]
    for i, j, _ in g.edges:
        neighbours[i - 1].append(j - 1)
        neighbours[j - 1].append(i - 1)
    seen = np.zeros(g.node_count, dtype=bool)
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbours[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    nxt.append(v)
        frontier = nxt
    return count == g.node_count


def algebraic_connectivity(g: LayerGraph) -> float:
    """Second-smallest Laplacian eigenvalue; 0 for disconnected graphs."""
    if g.node_count < 2:
        raise DimensionError("algebraic connectivity needs at least 2 nodes")
    lam = np.linalg.eigvalsh(laplacian(g))
    return float(max(lam[1], 0.0))


def spanning_tree(g: LayerGraph) -> LayerGraph:
    """Minimum spanning tree of a connected graph (candidate integral layer).

    Kruskal's algorithm: the edges in order of weight, ties going to the
    lowest canonical ``(i, j)`` (the sort is stable and the edges are stored
    sorted), each kept when it joins two components of a union-find.
    """
    if not is_connected(g):
        raise InvalidGraphError("spanning tree requires a connected graph")
    parent = list(range(g.node_count + 1))

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]  # path halving
            u = parent[u]
        return u

    tree = []
    for i, j, w in sorted(g.edges, key=lambda edge: edge[2]):
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j, w))
    return LayerGraph(g.node_count, tuple(tree))


# ---------------------------------------------------------------------------
# Standard topologies (unit weights by default).
# ---------------------------------------------------------------------------


def empty_graph(n: int) -> LayerGraph:
    return LayerGraph(n)


def ring_graph(n: int, weight: float = 1.0) -> LayerGraph:
    if n < 3:
        raise InvalidGraphError("ring needs at least 3 nodes")
    return LayerGraph(n, tuple((i, i % n + 1, weight) for i in range(1, n + 1)))


def path_graph(n: int, weight: float = 1.0) -> LayerGraph:
    return LayerGraph(n, tuple((i, i + 1, weight) for i in range(1, n)))


def star_graph(n: int, weight: float = 1.0) -> LayerGraph:
    """Hub at node 1."""
    return LayerGraph(n, tuple((1, i, weight) for i in range(2, n + 1)))


def complete_graph(n: int, weight: float = 1.0) -> LayerGraph:
    return LayerGraph(
        n, tuple((i, j, weight) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    )


def binary_tree_graph(n: int, weight: float = 1.0) -> LayerGraph:
    """Balanced binary tree rooted at node 1 (node k's parent is k // 2)."""
    return LayerGraph(n, tuple((k // 2, k, weight) for k in range(2, n + 1)))
