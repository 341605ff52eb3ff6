"""Shared brute-force oracles, kept independent of the library's fast paths,
a reference individualization-refinement search, and a work counter for the
stabilizer-chain layer."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import deque
from itertools import permutations
from pathlib import Path

import pytest

import symclass
import symclass.graphs as graphs_module
from symclass import (
    Graph,
    Permutation,
    PermutationGroup,
    StabilizerChain,
    encode_graph6,
    induced_action,
    transitivity_degree_tests,
)
from symclass.classify import ConditionCheck
from symclass.errors import ParameterError


@pytest.fixture
def chain_builds(monkeypatch) -> list:
    """The generator tuple of every ``StabilizerChain`` built during the test."""
    built = []
    original = StabilizerChain.__init__

    def counting(self, degree, generators, base_prefix=()):
        generators = tuple(generators)
        built.append(generators)
        original(self, degree, generators, base_prefix)

    monkeypatch.setattr(StabilizerChain, "__init__", counting)
    return built


@pytest.fixture
def layerings(monkeypatch) -> list:
    """``(graph, sources)`` for every ``graphs._bfs_layers`` walk during the
    test (the automorphism search imports its own reference and is not seen)."""
    walked = []
    original = graphs_module._bfs_layers

    def recording(g, *sources):
        walked.append((g, sources))
        return original(g, *sources)

    monkeypatch.setattr(graphs_module, "_bfs_layers", recording)
    return walked


def python_stdout(*argv) -> str:
    """Stdout of a fresh interpreter that imports this checkout's package."""
    src = str(Path(symclass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, check=True, timeout=120).stdout


def brute_closure(gens):
    """Multiplicative closure by breadth-first products; no stabilizer chain."""
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return set()
    identity = Permutation.identity(gens[0].degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in elements:
                    elements.add(b)
                    fresh.append(b)
        frontier = fresh
    return elements


def brute_order(gens) -> int:
    closure = brute_closure(gens)
    return len(closure) if closure else 1


def reference_product_action(symbol_gens, coord_gens, q: int, d: int) -> list:
    """Generator image tuples of Sq wr H on the q-ary d-tuples, numbered
    big-endian, one tuple at a time through its digit list: each symbol
    generator acts on the digit at coordinate 0, then each coordinate
    generator ``p`` moves the digit at coordinate i to coordinate p(i)."""
    n = q ** d
    weights = [q ** (d - 1 - i) for i in range(d)]

    def digits(v):
        return [(v // weights[i]) % q for i in range(d)]

    def number(ds):
        return sum(ds[i] * weights[i] for i in range(d))

    out = []
    for s in symbol_gens:
        images = []
        for v in range(n):
            ds = digits(v)
            ds[0] = s.images[ds[0]]
            images.append(number(ds))
        out.append(tuple(images))
    for p in coord_gens:
        images = []
        for v in range(n):
            ds = digits(v)
            moved = [0] * d
            for i in range(d):
                moved[p.images[i]] = ds[i]
            images.append(number(moved))
        out.append(tuple(images))
    return out


def brute_aut_order(g: Graph) -> int:
    """All n! bijections, filtered by adjacency preservation."""
    count = 0
    edges = g.edges()
    for images in permutations(range(g.n)):
        if all(g.has_edge(images[u], images[v]) for u, v in edges):
            count += 1
    return count


def brute_girth(g: Graph):
    """Shortest cycle as the least ``1 + dist(u, v)`` over the edges ``uv``,
    the distance taken in the graph without that edge; ``inf`` for forests."""
    best = float("inf")
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue and v not in dist:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if y not in dist and {x, y} != {u, v}:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def reference_bfs_cycle_length(g: Graph, root: int):
    """``graphs.bfs_cycle_length`` without its early exit: every edge met by
    the BFS from ``root`` is scanned."""
    best = float("inf")
    dist = {root: 0}
    parent = {root: -1}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)
            elif parent[x] != y:
                best = min(best, dist[x] + dist[y] + 1)
    return best


def brute_layer_orbits(elements, base: int, layer) -> int:
    """Stabilizer orbits inside one distance layer, from an explicit element list."""
    stabilizer = [e for e in elements if e.images[base] == base]
    remaining = set(layer)
    orbits = 0
    while remaining:
        x = min(remaining)
        orbit = {e.images[x] for e in stabilizer}
        assert orbit <= set(layer)
        remaining -= orbit
        orbits += 1
    return orbits


def brute_is_2dt(g: Graph, elements) -> bool:
    """2-distance transitivity decided from the full element list."""
    if {e.images[0] for e in elements} != set(range(g.n)):
        return False
    from symclass import distance_partition

    dp = distance_partition(g, 0)
    if dp.eccentricity < 2:
        return False
    return all(brute_layer_orbits(elements, 0, dp.layers[i]) == 1 for i in (1, 2))


def enumerate_s_arcs(g: Graph, s: int) -> list[tuple]:
    """All s-arcs (paths allowed to repeat, but with no immediate backtrack),
    in lexicographic order: the list the arc and geodesic oracles walk."""
    if s < 1:
        raise ParameterError("s must be at least 1")
    arcs = [(v,) for v in range(g.n)]
    for _ in range(s):
        arcs = [
            arc + (w,)
            for arc in arcs
            for w in g.adjacency[arc[-1]]
            if len(arc) < 2 or w != arc[-2]
        ]
    arcs.sort()
    if s == 2 and g.n > 0 and g.is_regular():
        k = g.valency()
        assert len(arcs) == g.n * k * (k - 1), "2-arcs must number n*k*(k-1)"
    return arcs


def brute_tuple_orbit(gens, start: tuple) -> set:
    """The orbit of one tuple of points, walked breadth-first over images."""
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for p in gens:
            image = tuple(p.images[x] for x in current)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def brute_tuple_orbits(group: PermutationGroup, r: int) -> int:
    """Orbits on ordered r-tuples of distinct points (0 when r > degree)."""
    seen: set = set()
    count = 0
    for t in permutations(range(group.degree), r):
        if t not in seen:
            count += 1
            seen |= brute_tuple_orbit(group.generators, t)
    return count


def brute_arc_check(g: Graph, group: PermutationGroup, s: int) -> tuple:
    """``(ok, reason, evidence)`` of the s-arc verdict from the full list of
    s-arcs and the orbit of the first one."""
    if len(brute_tuple_orbit(group.generators, (0,))) != g.n:
        return False, "not vertex-transitive", {}
    arcs = enumerate_s_arcs(g, s)
    if not arcs:
        return False, f"the graph has no {s}-arcs", {}
    orbit_size = len(brute_tuple_orbit(group.generators, arcs[0]))
    ok = orbit_size == len(arcs)
    evidence = {"arc_count": len(arcs), "orbit_size": orbit_size}
    if s == 2 and g.degree(0) >= 2:
        # the library raises when the neighborhood criterion disagrees
        evidence["stabilizer_two_transitive_on_neighbors"] = ok
    return ok, None if ok else "multiple orbits on arcs", evidence


def brute_geodesic_check(g: Graph, group: PermutationGroup) -> tuple:
    """``(ok, reason, evidence)`` of the 2-geodesic verdict of a non-complete
    graph from the full list of 2-geodesics."""
    at1 = brute_arc_check(g, group, 1)
    if not at1[0]:
        return False, "not arc-transitive", at1[2]
    geodesics = [t for t in enumerate_s_arcs(g, 2) if not g.has_edge(t[0], t[2])]
    orbit_size = len(brute_tuple_orbit(group.generators, geodesics[0]))
    ok = orbit_size == len(geodesics)
    return (ok, None if ok else "multiple orbits on 2-geodesics",
            {"geodesic_count": len(geodesics), "orbit_size": orbit_size})


def kernel_of_action(group: PermutationGroup, cells) -> PermutationGroup:
    """The subgroup inducing the identity permutation on cell indices: the
    pointwise stabilizer of auxiliary cell points in the action extended to
    ``points + cells``."""
    projection, induced = induced_action(group, cells)
    n, k = group.degree, projection.degree
    extended = [Permutation(tuple(g.images) + tuple(n + j for j in ind.images))
                for g, ind in zip(group.generators, induced)]
    chain = StabilizerChain(n + k, extended, base_prefix=tuple(range(n, n + k)))
    kernel_gens = []
    for g in chain.strong_generators(chain.prefix_length):
        restricted = Permutation(g.images[:n])
        if not restricted.is_identity() and restricted not in kernel_gens:
            kernel_gens.append(restricted)
    return PermutationGroup(n, kernel_gens)


def reference_condition_3_1(group: PermutationGroup, m: int) -> ConditionCheck:
    """The grid condition through the derived actions: the order of the
    induced action on the two rows, the kernel of that action built in the
    action extended to the row cells, and the kernel restricted to one row's
    columns."""
    rows = [set(range(m)), set(range(m, 2 * m))]
    projection, _ = induced_action(group, rows)
    kernel = kernel_of_action(group, rows)
    restricted, _ = induced_action(kernel, [{j} for j in range(m)])
    flags = transitivity_degree_tests(restricted)
    projects = projection.order() == 2
    return ConditionCheck(
        satisfied=projects and flags.two_transitive and not flags.three_transitive,
        projects_onto_swap=projects,
        kernel_order=kernel.order() if kernel.generators else 1,
        kernel_two_transitive=flags.two_transitive,
        kernel_three_transitive=flags.three_transitive,
    )


def index2_subgroup_count(elements) -> int:
    """Index-2 subgroups counted through the exponent-2 abelianization:
    closure of squares and commutators, then 2^rank - 1."""
    elements = list(elements)
    seeds = {a * a for a in elements}
    seeds |= {a.inverse() * b.inverse() * a * b for a in elements for b in elements}
    norm = brute_closure(seeds) or {Permutation.identity(elements[0].degree)}
    quotient = len(elements) // len(norm)
    rank = quotient.bit_length() - 1
    assert 1 << rank == quotient, "quotient by squares+commutators must be a 2-group"
    return (1 << rank) - 1


def brute_subgroups(group):
    """The subgroup lattice walked by closing every generator list from the
    identity: each subgroup found is joined with every cyclic subgroup not
    inside it. Same output contract as ``enumerate_subgroups``."""
    elements = group.elements()
    index = {p: i for i, p in enumerate(elements)}
    identity = index[Permutation.identity(group.degree)]
    table = [[index[a * b] for b in elements] for a in elements]

    def close(gen_ids):
        members = {identity}
        members.update(gen_ids)
        frontier = list(members)
        while frontier:
            fresh = []
            for a in frontier:
                row = table[a]
                for g in gen_ids:
                    c = row[g]
                    if c not in members:
                        members.add(c)
                        fresh.append(c)
            frontier = fresh
        return frozenset(members)

    cyclic = {}
    for i in range(len(elements)):
        powers = {identity}
        x = i
        while x != identity:
            powers.add(x)
            x = table[x][i]
        cyclic.setdefault(frozenset(powers), i)
    reps = sorted(cyclic.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    trivial = frozenset({identity})
    found = {trivial: []}
    queue = deque([trivial])
    for cyc, rep in reps:
        if cyc not in found:
            found[cyc] = [rep]
            queue.append(cyc)
    while queue:
        current = queue.popleft()
        gens = found[current]
        for cyc, rep in reps:
            if rep in current:
                continue
            bigger = close(gens + [rep])
            if bigger not in found:
                found[bigger] = gens + [rep]
                queue.append(bigger)

    ordered = sorted(
        found.items(),
        key=lambda kv: (len(kv[0]), tuple(sorted(elements[i].images for i in kv[0]))))
    return [PermutationGroup(group.degree, tuple(elements[i] for i in gens))
            for _, gens in ordered]


# -- reference individualization-refinement ------------------------------------
#
# The automorphism search and canonical form as first written: both sides of
# every comparison are refined from scratch, jointly, in every call, and
# refinement runs until a round renumbers nothing. The library walks the
# same search tree with the identity branch refined once per search and
# walked from the leaf up; the tests require the same group, identical
# canonical forms and labelings, and the same first minimal leaf as the
# unpruned tree.


def _reference_refine_pair(g1: Graph, g2: Graph, c1: list, c2: list):
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


def _reference_refine_single(g: Graph, colors: list) -> list:
    return _reference_refine_pair(g, g, list(colors), list(colors))[0]


def _reference_distances_from_set(g: Graph, sources: list) -> list:
    dist = [g.n + 1] * g.n
    queue = deque(sources)
    for v in sources:
        dist[v] = 0
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] > dist[u] + 1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _reference_base_colors(g1: Graph, g2: Graph):
    def start(g):
        deg = [len(g.adjacency[v]) for v in range(g.n)]
        return [(deg[v], tuple(sorted(deg[w] for w in g.adjacency[v])))
                for v in range(g.n)]

    s1, s2 = start(g1), start(g2)
    if sorted(s1) != sorted(s2):
        return None
    rank = {sig: i for i, sig in enumerate(sorted(set(s1)))}
    refined = _reference_refine_pair(g1, g2, [rank[s] for s in s1], [rank[s] for s in s2])
    if refined is None:
        return None
    c1, c2 = refined
    d1 = _reference_distances_from_set(g1, [v for v in range(g1.n) if c1[v] == 0])
    d2 = _reference_distances_from_set(g2, [v for v in range(g2.n) if c2[v] == 0])
    p1 = [(c1[v], d1[v]) for v in range(g1.n)]
    p2 = [(c2[v], d2[v]) for v in range(g2.n)]
    if sorted(p1) != sorted(p2):
        return None
    rank = {sig: i for i, sig in enumerate(sorted(set(p1) | set(p2)))}
    return _reference_refine_pair(g1, g2, [rank[s] for s in p1], [rank[s] for s in p2])


def _reference_cells(colors: list) -> dict:
    cells: dict = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _reference_branch_color(cells: dict):
    best = None
    for color in sorted(cells):
        if len(cells[color]) > 1 and (best is None or len(cells[color]) < len(cells[best])):
            best = color
    return best


def _reference_search_map(g1: Graph, g2: Graph, c1: list, c2: list, next_color: int):
    refined = _reference_refine_pair(g1, g2, c1, c2)
    if refined is None:
        return None
    c1, c2 = refined
    cells1 = _reference_cells(c1)
    cells2 = _reference_cells(c2)
    branch = _reference_branch_color(cells1)
    if branch is None:
        mapping = [0] * g1.n
        for color, members in cells1.items():
            mapping[members[0]] = cells2[color][0]
        if all(g2.has_edge(mapping[u], mapping[w])
               for u in range(g1.n) for w in g1.adjacency[u]):
            return mapping
        return None
    a = min(cells1[branch])
    for b in sorted(cells2[branch]):
        n1, n2 = list(c1), list(c2)
        n1[a] = n2[b] = next_color
        result = _reference_search_map(g1, g2, n1, n2, next_color + 1)
        if result is not None:
            return result
    return None


def _reference_orbit(gens: list, x: int) -> set:
    orbit = {x}
    queue = deque([x])
    while queue:
        a = queue.popleft()
        for p in gens:
            if p.images[a] not in orbit:
                orbit.add(p.images[a])
                queue.append(p.images[a])
    return orbit


def walk_layer_orbit_counts(stab: PermutationGroup, subset) -> int:
    """Orbits of ``stab`` inside ``subset``, one walk from the least point not
    yet covered, independent of the kept orbit partition."""
    remaining = set(subset)
    count = 0
    while remaining:
        orbit = _reference_orbit(stab.generators, min(remaining))
        assert orbit <= set(subset), "a stabilizer orbit left its layer"
        remaining -= orbit
        count += 1
    return count


def reference_automorphism_group(g: Graph) -> PermutationGroup:
    """Generators of Aut(g): one automorphism per candidate image of each
    identity-branch vertex not covered by the automorphisms already found."""
    colors = _reference_base_colors(g, g)[0]
    gens: list = []
    prefix: list = []
    next_color = g.n
    while True:
        cells = _reference_cells(colors)
        branch = _reference_branch_color(cells)
        if branch is None:
            break
        b = min(cells[branch])
        for y in sorted(cells[branch]):
            if y == b:
                continue
            fixing = [p for p in gens if all(p.images[q] == q for q in prefix)]
            if y in _reference_orbit(fixing, b):
                continue
            c1, c2 = list(colors), list(colors)
            c1[b] = c2[y] = next_color
            found = _reference_search_map(g, g, c1, c2, next_color + 1)
            if found is not None:
                gens.append(Permutation(found))
        colors[b] = next_color
        next_color += 1
        colors = _reference_refine_single(g, colors)
        prefix.append(b)
    return PermutationGroup(g.n, gens)


def _reference_first_minimal_leaf(g: Graph, aut_gens: list):
    """``(canonical_graph, labeling)`` at the first leaf, in depth-first
    order, whose graph6 string is minimal over the search tree pruned by the
    orbits of ``aut_gens`` (none: the unpruned tree)."""
    if g.n == 0:
        return g, ()
    best: dict = {"code": None, "labeling": None}

    def descend(colors: list, individualized: list, next_color: int) -> None:
        cells = _reference_cells(colors)
        branch = _reference_branch_color(cells)
        if branch is None:
            labeling = Permutation(colors)
            code = encode_graph6(g.relabel(labeling))
            if best["code"] is None or code < best["code"]:
                best["code"], best["labeling"] = code, labeling
            return
        fixing = [p for p in aut_gens if all(p.images[q] == q for q in individualized)]
        covered: set = set()
        for y in sorted(cells[branch]):
            if y in covered:
                continue
            covered |= _reference_orbit(fixing, y)
            refined = list(colors)
            refined[y] = next_color
            descend(_reference_refine_single(g, refined), individualized + [y], next_color + 1)

    descend(_reference_base_colors(g, g)[0], [], g.n)
    labeling = best["labeling"]
    return g.relabel(labeling), tuple(labeling.images)


def reference_canonical_form(g: Graph):
    """``(canonical_graph, labeling)``: the minimal graph6 leaf of the search
    tree pruned by the orbits of the reference automorphism generators."""
    gens = list(reference_automorphism_group(g).generators) if g.n else []
    return _reference_first_minimal_leaf(g, gens)


def unpruned_canonical_form(g: Graph):
    """``(canonical_graph, labeling)`` at the first minimal graph6 leaf of the
    unpruned refinement tree. Pruning by automorphisms that fix the prefix
    keeps that leaf whatever generators it uses: a pruned subtree is the
    image of an earlier sibling's, which would hold an earlier minimal leaf.
    Exponential in n; for small graphs only."""
    return _reference_first_minimal_leaf(g, [])
