"""Shared brute-force oracles, kept independent of the library's fast paths,
and a work counter for the stabilizer-chain layer."""

from __future__ import annotations

from collections import deque
from itertools import permutations

import pytest

from symclass import Graph, Permutation, PermutationGroup, StabilizerChain


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


def brute_aut_order(g: Graph) -> int:
    """All n! bijections, filtered by adjacency preservation."""
    count = 0
    edges = g.edges()
    for images in permutations(range(g.n)):
        if all(g.has_edge(images[u], images[v]) for u, v in edges):
            count += 1
    return count


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
