"""Finite simple undirected graphs with an ordered vertex set.

Vertex order is part of the value: two graphs compare equal only when their
adjacency structures agree label-for-label. Isomorphism-insensitive
comparison goes through ``autgroup.canonical_form``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .errors import (
    DegreeMismatch,
    DisconnectedGraph,
    InternalCheckFailed,
    InvalidGraph,
    IrregularGraph,
    NotAnAutomorphismGroup,
    ParameterError,
)
from .group import PermutationGroup
from .perm import Permutation


class Graph:
    """Adjacency-list graph; neighbor lists are kept sorted ascending, and the
    distance partition from a vertex is kept once some query has asked for it."""

    __slots__ = ("n", "adjacency", "_adj_sets", "_partitions")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise InvalidGraph("vertex count must be nonnegative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraph(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise InvalidGraph(f"loop at vertex {u} is not allowed")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj_sets = tuple(frozenset(s) for s in adj)
        self.adjacency = tuple(tuple(sorted(s)) for s in adj)
        self._partitions = {}

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def is_regular(self) -> bool:
        return self.n == 0 or len(set(self.degrees())) == 1

    def valency(self) -> int:
        if self.n == 0:
            raise InvalidGraph("empty graph has no valency")
        if not self.is_regular():
            raise IrregularGraph(f"degrees {sorted(set(self.degrees()))} are not constant")
        return self.degree(0)

    def edges(self) -> list[tuple]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def is_connected(self) -> bool:
        return self.n == 0 or sum(map(len, distance_partition(self, 0).layers)) == self.n

    def relabel(self, phi: Permutation) -> "Graph":
        """The graph with vertex ``v`` renamed to ``phi(v)``."""
        if phi.degree != self.n:
            raise DegreeMismatch("relabeling degree does not match vertex count")
        return Graph(self.n, [(phi.images[u], phi.images[v]) for u, v in self.edges()])

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.n == other.n and self.adjacency == other.adjacency)

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def _bfs_layers(g: Graph, *sources: int) -> list[list[int]]:
    """The vertices at distance 0, 1, 2, ... from ``sources``, one ascending
    list per distance; vertices no source reaches are in no layer."""
    seen = set(sources)
    layer = sorted(seen)
    layers = []
    while layer:
        layers.append(layer)
        nxt = []
        for u in layer:
            for v in g.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        nxt.sort()
        layer = nxt
    return layers


class DistancePartition(NamedTuple):
    """BFS layers from a base vertex, covering its connected component."""

    base: int
    layers: tuple

    @property
    def eccentricity(self) -> int:
        return len(self.layers) - 1

    def layer(self, i: int) -> tuple:
        return self.layers[i] if i < len(self.layers) else ()


def distance_partition(g: Graph, u: int) -> DistancePartition:
    """The distance partition from ``u``, layered on first use and kept by
    ``g`` (the tuples are immutable, so every caller shares them)."""
    if not 0 <= u < g.n:
        raise ParameterError(f"vertex {u} out of range")
    dp = g._partitions.get(u)
    if dp is None:
        dp = g._partitions[u] = DistancePartition(
            u, tuple(tuple(layer) for layer in _bfs_layers(g, u)))
    return dp


def diameter(g: Graph) -> int:
    if g.n == 0:
        raise InvalidGraph("empty graph has no diameter")
    if not g.is_connected():
        raise DisconnectedGraph("diameter of a disconnected graph is undefined")
    return max(distance_partition(g, u).eccentricity for u in range(g.n))


def girth(g: Graph):
    """Length of a shortest cycle; ``math.inf`` for forests."""
    return min((bfs_cycle_length(g, root) for root in range(g.n)), default=math.inf)


def bfs_cycle_length(g: Graph, root: int):
    """The shortest closed walk a BFS from ``root`` closes at a non-tree edge
    ``(x, y)``: ``dist(x) + dist(y) + 1``, or ``math.inf`` when there is none.

    It is never below the girth and equals it when ``root`` lies on a
    shortest cycle, hence at every vertex of a vertex-transitive graph.
    """
    best = math.inf
    dist = {root: 0}
    parent = {root: -1}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        if 2 * dist[x] >= best:
            # later vertices are no nearer, and a non-tree edge at x closes
            # at least 2 * dist(x)
            break
        for y in g.adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)
            elif parent[x] != y:
                best = min(best, dist[x] + dist[y] + 1)
    return best


def is_complete(g: Graph) -> bool:
    return all(len(nbrs) == g.n - 1 for nbrs in g.adjacency)


class IntersectionNumbers(NamedTuple):
    """Per-layer (c_i, a_i, b_i) triples from a base vertex.

    A layer's triple is present only when the three counts agree for every
    vertex of the layer (``well_defined``); otherwise the entry is ``None``.
    """

    base: int
    triples: tuple
    well_defined: tuple

    @property
    def layer_regular(self) -> bool:
        return all(self.well_defined)

    def c(self, i: int):
        t = self.triples[i]
        return None if t is None else t[0]


def intersection_numbers(g: Graph, u: int) -> IntersectionNumbers:
    """Edge counts from each vertex of layer i into layers i-1, i, i+1, for a
    non-empty, connected, regular graph."""
    if g.n == 0:
        raise InvalidGraph("empty graph")
    dp = distance_partition(g, u)
    if not g.is_connected():
        raise DisconnectedGraph("intersection numbers need a connected graph")
    g.valency()  # raises IrregularGraph when degrees differ
    layer_of = {}
    for i, layer in enumerate(dp.layers):
        for v in layer:
            layer_of[v] = i
    triples = []
    flags = []
    for i, layer in enumerate(dp.layers):
        counts = set()
        for v in layer:
            c = a = b = 0
            for w in g.adjacency[v]:
                j = layer_of[w]
                if j == i - 1:
                    c += 1
                elif j == i:
                    a += 1
                elif j == i + 1:
                    b += 1
                else:  # pragma: no cover - BFS layers cannot differ by >= 2
                    raise InvalidGraph("edge joins layers at distance >= 2")
            counts.add((c, a, b))
        if len(counts) == 1:
            triples.append(counts.pop())
            flags.append(True)
        else:
            triples.append(None)
            flags.append(False)
    return IntersectionNumbers(dp.base, tuple(triples), tuple(flags))


def line_graph(g: Graph):
    """Line graph plus the list mapping its vertex index to the source edge."""
    edges = g.edges()
    if not edges:
        raise InvalidGraph("line graph of an edgeless graph is undefined")
    index = {e: i for i, e in enumerate(edges)}
    adj_edges = set()
    for v in range(g.n):
        incident = [index[(min(v, w), max(v, w))] for w in g.adjacency[v]]
        for i, a in enumerate(incident):
            for b in incident[i + 1:]:
                adj_edges.add((min(a, b), max(a, b)))
    result = Graph(len(edges), sorted(adj_edges))
    expected = sum(d * (d - 1) for d in g.degrees()) // 2
    if result.edge_count() != expected:  # pragma: no cover
        raise InternalCheckFailed(f"line graph has {result.edge_count()} edges, not {expected}")
    return result, tuple(edges)


def complement(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return Graph(g.n, edges)


def edge_action(group: PermutationGroup, g: Graph) -> PermutationGroup:
    """Lift a vertex action to the line graph's vertices (the edges of ``g``)."""
    if group.degree != g.n:
        raise DegreeMismatch("group degree does not match vertex count")
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    lifted = []
    for p in group.generators:
        images = []
        for u, v in edges:
            a, b = p.images[u], p.images[v]
            target = index.get((min(a, b), max(a, b)))
            if target is None:
                raise NotAnAutomorphismGroup(
                    f"generator {p.cycle_string()} maps edge ({u}, {v}) to a non-edge")
            images.append(target)
        lifted.append(Permutation(images))
    return PermutationGroup(len(edges), lifted)
