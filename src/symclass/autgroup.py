"""Automorphism groups, canonical forms and isomorphism testing for small
graphs (n <= 64).

The engine is individualization-refinement: colorings are refined to
equitable partitions, backtracking branches on the first smallest
non-singleton cell, and orbits of already-found automorphisms prune sibling
branches. Canonical form is the minimal graph6 string over the (pruned)
search tree, so equal canonical forms characterize isomorphism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InternalCheckFailed, ParameterError, SizeCapExceeded
from .graph6 import encode_graph6
from .graphs import Graph
from .group import PermutationGroup
from .perm import Permutation

SIZE_CAP = 64


def _check_cap(g: Graph) -> None:
    if g.n > SIZE_CAP:
        raise SizeCapExceeded(
            f"graph has {g.n} vertices; the search is capped at {SIZE_CAP}")


def _refine_pair(g1: Graph, g2: Graph, c1: list, c2: list):
    """Jointly refine two colorings to equitable ones with shared color ids.

    Returns ``None`` as soon as the color histograms diverge (the colorings
    cannot belong to isomorphic colored graphs).
    """
    while True:
        s1 = [(c1[v], tuple(sorted(c1[w] for w in g1.adjacency[v])))
              for v in range(g1.n)]
        s2 = [(c2[v], tuple(sorted(c2[w] for w in g2.adjacency[v])))
              for v in range(g2.n)]
        if sorted(s1) != sorted(s2):
            return None
        rank = {sig: i for i, sig in enumerate(sorted(set(s1)))}
        n1 = [rank[s] for s in s1]
        n2 = [rank[s] for s in s2]
        if n1 == c1 and n2 == c2:
            return c1, c2
        c1, c2 = n1, n2


def _refine_single(g: Graph, colors: list) -> list:
    refined = _refine_pair(g, g, list(colors), list(colors))
    return refined[0]


def _distances_from_set(g: Graph, sources: list) -> list:
    dist = [g.n + 1] * g.n
    queue = deque()
    for v in sources:
        dist[v] = 0
        queue.append(v)
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] > dist[u] + 1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _base_colors(g1: Graph, g2: Graph):
    """Initial invariant: degree and neighbor-degree multiset, strengthened by
    the distance profile to the first color class, then refined to equitable."""
    def start(g):
        deg = [len(g.adjacency[v]) for v in range(g.n)]
        return [(deg[v], tuple(sorted(deg[w] for w in g.adjacency[v])))
                for v in range(g.n)]

    s1, s2 = start(g1), start(g2)
    if sorted(s1) != sorted(s2):
        return None
    rank = {sig: i for i, sig in enumerate(sorted(set(s1)))}
    c1 = [rank[s] for s in s1]
    c2 = [rank[s] for s in s2]
    refined = _refine_pair(g1, g2, c1, c2)
    if refined is None:
        return None
    c1, c2 = refined
    d1 = _distances_from_set(g1, [v for v in range(g1.n) if c1[v] == 0])
    d2 = _distances_from_set(g2, [v for v in range(g2.n) if c2[v] == 0])
    p1 = [(c1[v], d1[v]) for v in range(g1.n)]
    p2 = [(c2[v], d2[v]) for v in range(g2.n)]
    if sorted(p1) != sorted(p2):
        return None
    rank = {sig: i for i, sig in enumerate(sorted(set(p1) | set(p2)))}
    return _refine_pair(g1, g2, [rank[s] for s in p1], [rank[s] for s in p2])


def _cells_by_color(colors: list) -> dict:
    cells: dict[int, list] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _branch_color(cells: dict):
    """First smallest non-singleton cell (smallest size, then smallest color)."""
    best = None
    for color in sorted(cells):
        if len(cells[color]) > 1 and (best is None or len(cells[color]) < len(cells[best])):
            best = color
    return best


def _search_map(g1: Graph, g2: Graph, c1: list, c2: list, next_color: int):
    """First color-respecting isomorphism g1 -> g2 extending the colorings."""
    refined = _refine_pair(g1, g2, c1, c2)
    if refined is None:
        return None
    c1, c2 = refined
    cells1 = _cells_by_color(c1)
    branch = _branch_color(cells1)
    if branch is None:
        cells2 = _cells_by_color(c2)
        mapping = [0] * g1.n
        for color, members in cells1.items():
            mapping[members[0]] = cells2[color][0]
        for u in range(g1.n):
            for w in g1.adjacency[u]:
                if not g2.has_edge(mapping[u], mapping[w]):
                    return None
        return mapping
    cells2 = _cells_by_color(c2)
    a = min(cells1[branch])
    for b in sorted(cells2[branch]):
        n1 = list(c1)
        n2 = list(c2)
        n1[a] = next_color
        n2[b] = next_color
        result = _search_map(g1, g2, n1, n2, next_color + 1)
        if result is not None:
            return result
    return None


def _orbit_under(gens: list, x: int) -> set:
    orbit = {x}
    queue = deque([x])
    while queue:
        a = queue.popleft()
        for g in gens:
            b = g.images[a]
            if b not in orbit:
                orbit.add(b)
                queue.append(b)
    return orbit


def automorphism_group(g: Graph) -> PermutationGroup:
    """Generators of the full automorphism group.

    Walks the identity branch of the refinement tree; at each level it finds,
    for every candidate image of the branch vertex not yet covered by known
    automorphisms, one automorphism realizing it. The found elements are coset
    representatives along a stabilizer chain, so they generate the group.
    """
    _check_cap(g)
    if g.n == 0:
        raise ParameterError("automorphism group of the empty graph is undefined")
    colors = _base_colors(g, g)[0]
    gens: list[Permutation] = []
    prefix: list[int] = []
    next_color = g.n
    while True:
        cells = _cells_by_color(colors)
        branch = _branch_color(cells)
        if branch is None:
            break
        b = min(cells[branch])
        for y in sorted(cells[branch]):
            if y == b:
                continue
            fixing = [p for p in gens if all(p.images[q] == q for q in prefix)]
            if y in _orbit_under(fixing, b):
                continue
            c1 = list(colors)
            c2 = list(colors)
            c1[b] = next_color
            c2[y] = next_color
            found = _search_map(g, g, c1, c2, next_color + 1)
            if found is not None:
                gens.append(Permutation(found))
        colors[b] = next_color
        next_color += 1
        colors = _refine_single(g, colors)
        prefix.append(b)
    return PermutationGroup(g.n, gens)


def canonical_form(g: Graph):
    """Canonical representative and the relabeling onto it.

    Returns ``(canonical_graph, labeling)`` where ``labeling[v]`` is the
    canonical position of vertex ``v``. The representative is the minimal
    graph6 string over the refinement-guided search tree; two graphs are
    isomorphic exactly when their canonical forms are equal.
    """
    _check_cap(g)
    if g.n == 0:
        return g, ()
    aut_gens = list(automorphism_group(g).generators)
    base = _base_colors(g, g)[0]
    best: dict = {"code": None, "labeling": None}

    def descend(colors: list, individualized: list, next_color: int) -> None:
        cells = _cells_by_color(colors)
        branch = _branch_color(cells)
        if branch is None:
            labeling = Permutation(colors)
            code = encode_graph6(g.relabel(labeling))
            if best["code"] is None or code < best["code"]:
                best["code"] = code
                best["labeling"] = labeling
            return
        fixing = [p for p in aut_gens
                  if all(p.images[q] == q for q in individualized)]
        covered: set = set()
        for y in sorted(cells[branch]):
            if y in covered:
                continue
            covered |= _orbit_under(fixing, y)
            refined = list(colors)
            refined[y] = next_color
            descend(_refine_single(g, refined), individualized + [y], next_color + 1)

    descend(base, [], g.n)
    labeling = best["labeling"]
    return g.relabel(labeling), tuple(labeling.images)


@dataclass(frozen=True)
class IsomorphismResult:
    isomorphic: bool
    mapping: tuple | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


def _cheap_verdict(g1: Graph, g2: Graph) -> IsomorphismResult | None:
    """The verdict when the cheap invariants decide it (vertex count, edge
    count, degree sequence, or no vertices at all), else ``None``."""
    _check_cap(g1)
    _check_cap(g2)
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return IsomorphismResult(False)
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return IsomorphismResult(False)
    if g1.n == 0:
        return IsomorphismResult(True, ())
    return None


def _witness(g1: Graph, g2: Graph, form2) -> IsomorphismResult:
    c1, l1 = canonical_form(g1)
    c2, l2 = form2
    if c1 != c2:
        return IsomorphismResult(False)
    inverse2 = Permutation(l2).inverse()
    mapping = tuple(inverse2.images[l1[v]] for v in range(g1.n))
    for u in range(g1.n):
        for w in g1.adjacency[u]:
            if not g2.has_edge(mapping[u], mapping[w]):  # pragma: no cover
                raise InternalCheckFailed("canonical forms matched but witness failed")
    if sorted(mapping) != list(range(g1.n)):  # pragma: no cover
        raise InternalCheckFailed("isomorphism witness is not a bijection")
    return IsomorphismResult(True, mapping)


def is_isomorphic(g1: Graph, g2: Graph) -> IsomorphismResult:
    """Canonical-form equality, with an edge-validated witness mapping."""
    settled = _cheap_verdict(g1, g2)
    if settled is not None:
        return settled
    return _witness(g1, g2, canonical_form(g2))


def is_isomorphic_given_form(g1: Graph, g2: Graph, form2) -> IsomorphismResult:
    """``is_isomorphic(g1, g2)`` where ``form2`` is ``canonical_form(g2)``,
    computed once by a caller that tests many graphs against ``g2``."""
    settled = _cheap_verdict(g1, g2)
    if settled is not None:
        return settled
    return _witness(g1, g2, form2)
