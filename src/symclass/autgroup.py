"""Automorphism groups, canonical forms and isomorphism testing for small
graphs (n <= 64).

The engine is individualization-refinement: colorings are refined to
equitable partitions, backtracking branches on the first smallest
non-singleton cell, and orbits of already-found automorphisms prune sibling
branches. The automorphism search refines its identity branch once, walks
it from the leaf up, and refines every candidate branch against the
recorded rounds; it returns a strong generating set on the identity
branch's vertices. Canonical form is the minimal graph6 string over the
(pruned) search tree, so equal canonical forms characterize isomorphism.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalCheckFailed, ParameterError, SizeCapExceeded
from .graph6 import encode_graph6
from .graphs import Graph, _bfs_layers
from .group import PermutationGroup, point_orbit
from .perm import Permutation

SIZE_CAP = 64


def _check_cap(g: Graph) -> None:
    if g.n > SIZE_CAP:
        raise SizeCapExceeded(
            f"graph has {g.n} vertices; the search is capped at {SIZE_CAP}")


def _signatures(g: Graph, colors: list) -> list:
    """Per vertex: its color and the sorted colors of its neighbors."""
    color = colors.__getitem__
    return [(c, tuple(sorted(map(color, nbrs)))) for c, nbrs in zip(colors, g.adjacency)]


def _refine(g: Graph, colors: list, rounds: list | None = None) -> list:
    """Refine a coloring to the coarsest equitable one below it.

    Each round renumbers every vertex by the rank of its signature. A round
    that splits no cell ends refinement: the next one could only renumber
    the same cells in the same order. When ``rounds`` is given, every round's
    rank table and sorted color list are appended to it, so that another
    coloring can be refined in lockstep (``_refine_against``).
    """
    cells = len(set(colors))
    while True:
        sigs = _signatures(g, colors)
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if rounds is not None:
            rounds.append((rank, sorted(colors)))
        if len(rank) == cells:
            return colors
        cells = len(rank)


def _refine_against(g: Graph, rounds: list, colors: list):
    """Refine ``colors`` round by round with the rank tables of another
    coloring's refinement, or ``None`` as soon as a round's color histogram
    differs from the recorded one (the colored graphs cannot be isomorphic)."""
    for rank, histogram in rounds:
        colors = list(map(rank.get, _signatures(g, colors)))
        if None in colors or sorted(colors) != histogram:
            return None
    return colors


def _base_colors(g: Graph) -> list:
    """Initial invariant: degree and neighbor-degree multiset, strengthened by
    the distance profile to the first color class, then refined to equitable."""
    deg = [len(nbrs) for nbrs in g.adjacency]
    start = [(deg[v], tuple(sorted(deg[w] for w in g.adjacency[v]))) for v in range(g.n)]
    rank = {sig: i for i, sig in enumerate(sorted(set(start)))}
    colors = _refine(g, [rank[s] for s in start])
    dist = [g.n + 1] * g.n
    for d, layer in enumerate(_bfs_layers(g, *(v for v, c in enumerate(colors) if c == 0))):
        for v in layer:
            dist[v] = d
    profile = [(colors[v], dist[v]) for v in range(g.n)]
    rank = {sig: i for i, sig in enumerate(sorted(set(profile)))}
    return _refine(g, [rank[s] for s in profile])


def _branch_cell(colors: list):
    """``(color, members)`` of the first smallest non-singleton cell (smallest
    size, then smallest color), members ascending; ``None`` when discrete."""
    cells: dict[int, list] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    best = None
    for color in sorted(cells):
        members = cells[color]
        if len(members) > 1 and (best is None or len(members) < len(best[1])):
            best = (color, members)
    return best


def _identity_path(g: Graph, colors: list) -> list:
    """The identity branch of the refinement tree below the equitable
    coloring ``colors``: at each depth the smallest vertex of the branch cell
    is individualized with color ``n + depth``. One entry per depth:
    ``(rounds, colors, branch)``, where ``rounds`` is the refinement that led
    there and ``branch`` is ``_branch_cell(colors)``, ``None`` at the leaf."""
    path = [([], colors, _branch_cell(colors))]
    while path[-1][2] is not None:
        _, colors, (_, cell) = path[-1]
        individualized = list(colors)
        individualized[cell[0]] = g.n + len(path) - 1
        rounds: list = []
        colors = _refine(g, individualized, rounds)
        path.append((rounds, colors, _branch_cell(colors)))
    return path


def _search_map(g: Graph, path: list, depth: int, colors: list):
    """First automorphism mapping the identity branch at ``depth`` onto the
    branch of ``colors`` (a coloring individualized like the identity branch's
    parent level), trying candidate images in ascending order; or ``None``."""
    rounds, left, branch = path[depth]
    colors = _refine_against(g, rounds, colors)
    if colors is None:
        return None
    if branch is None:
        # both colorings are discrete: vertex v goes to the vertex of its color
        position = [0] * g.n
        for v, c in enumerate(colors):
            position[c] = v
        mapping = [position[c] for c in left]
        for u in range(g.n):
            for w in g.adjacency[u]:
                if not g.has_edge(mapping[u], mapping[w]):
                    return None
        return mapping
    color = branch[0]
    for y in [v for v, c in enumerate(colors) if c == color]:
        individualized = list(colors)
        individualized[y] = g.n + depth
        result = _search_map(g, path, depth + 1, individualized)
        if result is not None:
            return result
    return None


def _automorphisms(g: Graph, base: list) -> tuple[list[Permutation], int]:
    """Generators of Aut(g) from the equitable base coloring ``base``, and
    its order.

    Walks the identity branch of the refinement tree, refined once, from the
    leaf up. At each level it finds one automorphism, refined against the
    branch, for every candidate image of the branch vertex outside its orbit
    under all automorphisms found so far (each fixes the branch vertices
    above the level). By induction those found at or below a level generate
    the pointwise stabilizer of the branch vertices above it: a strong
    generating set on the branch vertices, which form a base (the leaf is
    discrete), so the order is the product of the basic orbit sizes.
    """
    path = _identity_path(g, base)
    gens: list[Permutation] = []
    order = 1
    for depth in range(len(path) - 2, -1, -1):
        _, colors, (_, cell) = path[depth]
        covered = point_orbit(gens, cell[0])
        for y in cell:
            if y in covered:
                continue
            individualized = list(colors)
            individualized[y] = g.n + depth
            found = _search_map(g, path, depth + 1, individualized)
            if found is not None:
                gens.append(Permutation(found))
                covered = point_orbit(gens, cell[0])
        order *= len(covered)
    return gens, order


def automorphism_group(g: Graph) -> PermutationGroup:
    """A strong generating set of Aut(g) on the identity branch's vertices
    (see ``_automorphisms``; which one depends on the search order), with
    the order the search found, so ``order()`` builds no chain."""
    _check_cap(g)
    if g.n == 0:
        raise ParameterError("automorphism group of the empty graph is undefined")
    gens, order = _automorphisms(g, _base_colors(g))
    group = PermutationGroup(g.n, gens)
    group._order = order
    return group


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
    base = _base_colors(g)
    aut_gens, _ = _automorphisms(g, base)
    best: dict = {"code": None, "labeling": None}

    def descend(colors: list, individualized: list, next_color: int) -> None:
        branch = _branch_cell(colors)
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
        for y in branch[1]:
            if y in covered:
                continue
            covered |= point_orbit(fixing, y)
            refined = list(colors)
            refined[y] = next_color
            descend(_refine(g, refined), individualized + [y], next_color + 1)

    descend(base, [], g.n)
    labeling = best["labeling"]
    return g.relabel(labeling), tuple(labeling.images)


class IsomorphismResult(NamedTuple):
    isomorphic: bool
    mapping: tuple | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


def is_isomorphic(g1: Graph, g2: Graph) -> IsomorphismResult:
    """Canonical-form equality, with an edge-validated witness mapping. The
    cheap invariants (vertex count, edge count, degree sequence) decide
    first."""
    _check_cap(g1)
    _check_cap(g2)
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return IsomorphismResult(False)
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return IsomorphismResult(False)
    if g1.n == 0:
        return IsomorphismResult(True, ())
    c1, l1 = canonical_form(g1)
    c2, l2 = canonical_form(g2)
    if c1 != c2:
        return IsomorphismResult(False)
    inverse2 = Permutation(l2).inverse()
    mapping = tuple(inverse2.images[l1[v]] for v in range(g1.n))
    for u in range(g1.n):
        for w in g1.adjacency[u]:
            if not g2.has_edge(mapping[u], mapping[w]):
                raise InternalCheckFailed("canonical forms matched but witness failed")
    if sorted(mapping) != list(range(g1.n)):  # pragma: no cover
        raise InternalCheckFailed("isomorphism witness is not a bijection")
    return IsomorphismResult(True, mapping)
