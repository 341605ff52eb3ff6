"""Derived group actions: induced actions on invariant cell families,
transitivity-degree flags, and minimal block systems."""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations
from typing import NamedTuple

from .errors import (
    DegreeMismatch,
    IntransitiveGroup,
    InternalCheckFailed,
    InvariantCellError,
    ParameterError,
)
from .group import PermutationGroup, StabilizerChain
from .perm import Permutation


def _normalize_cells(group: PermutationGroup, cells) -> list[frozenset]:
    out = [frozenset(c) for c in cells]
    if not out:
        raise ParameterError("need at least one cell")
    covered = set()
    for cell in out:
        if not cell:
            raise ParameterError("cells must be nonempty")
        for p in cell:
            if not 0 <= p < group.degree:
                raise ParameterError(f"cell point {p} out of range")
            if p in covered:
                raise ParameterError(f"cells are not disjoint at point {p}")
            covered.add(p)
    return out


def induced_action(group: PermutationGroup, cells):
    """The action induced on cell indices by a group permuting the cells setwise.

    Returns ``(induced_group, induced_gens)`` where ``induced_gens`` is
    parallel to ``group.generators``. When the cells are singletons of a
    subset this is the restriction of the action to that subset.
    """
    cell_sets = _normalize_cells(group, cells)
    index = {cell: i for i, cell in enumerate(cell_sets)}
    induced = []
    for g in group.generators:
        images = []
        for cell in cell_sets:
            target = frozenset(g.images[p] for p in cell)
            j = index.get(target)
            if j is None:
                raise InvariantCellError(
                    f"generator {g.cycle_string()} splits cell {sorted(cell)}: "
                    "not a block/invariant-set action")
            images.append(j)
        induced.append(Permutation(images))
    return PermutationGroup(len(cell_sets), induced), induced


class TransitivityDegrees(NamedTuple):
    """Orbit counts on points and pairs, with the derived flags.

    ``three_transitive`` is decided by the stabilizer of two points (see
    ``transitivity_degree_tests``), not by counting orbits on triples, so it
    is defined at every degree.
    """

    point_orbits: int
    unordered_pair_orbits: int
    ordered_pair_orbits: int
    transitive: bool
    two_homogeneous: bool
    two_transitive: bool
    three_transitive: bool


def _count_orbits(gens, items, act) -> list[int]:
    """The size of each orbit that ``items`` meets, in the order first met."""
    seen = set()
    sizes = []
    for item in items:
        if item in seen:
            continue
        seen.add(item)
        orbit = [item]
        for current in orbit:  # breadth-first: the list grows as it is read
            for g in gens:
                image = act(g, current)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        sizes.append(len(orbit))
    return sizes


def chain_transitivity(chain: StabilizerChain) -> tuple[bool, bool]:
    """2- and 3-transitivity on the chain's n points, read off the chain.

    With base points a, b, c, the basic orbits are a^G, b^(G_a) and
    c^(G_a,b), so the group is 2-transitive exactly when the first two have
    sizes n and n - 1, and 3-transitive when the third has size n - 2 as
    well (all point and two-point stabilizers are conjugate). A missing
    level has size 1.
    """
    n = chain.degree
    sizes = chain.orbit_sizes() + [1, 1, 1]
    two = sizes[0] == n and sizes[1] == n - 1
    return two, two and sizes[2] == n - 2


def transitivity_degree_tests(group: PermutationGroup) -> TransitivityDegrees:
    """Transitivity flags from orbit counts on points, 2-subsets and ordered
    pairs of distinct points; 3-transitivity is 2-transitivity plus a
    two-point stabilizer transitive on the remaining points."""
    n = group.degree
    if n < 2:
        raise ParameterError("transitivity degree tests need degree at least 2")
    gens = group.generators
    point_orbits = len(group.orbits())
    pair_act = lambda g, t: (g.images[t[0]], g.images[t[1]])
    ordered_pairs = len(_count_orbits(gens, permutations(range(n), 2), pair_act))
    unordered = len(_count_orbits(
        gens, combinations(range(n), 2),
        lambda g, t: tuple(sorted((g.images[t[0]], g.images[t[1]])))))
    two_transitive = ordered_pairs == 1
    return TransitivityDegrees(
        point_orbits=point_orbits,
        unordered_pair_orbits=unordered,
        ordered_pair_orbits=ordered_pairs,
        transitive=point_orbits == 1,
        two_homogeneous=unordered == 1,
        two_transitive=two_transitive,
        three_transitive=(two_transitive and n >= 3
                          and chain_transitivity(group.chain)[1]),
    )


class BlockSystem(NamedTuple):
    """A G-invariant partition of the domain into equal-size blocks."""

    blocks: tuple

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])


def _finest_block_partition(group: PermutationGroup, a: int, b: int) -> list[tuple]:
    # union-find closure of the seed pair {a, b} under all generators
    n = group.degree
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        return ry

    queue = deque()
    absorbed = union(a, b)
    queue.append(absorbed)
    while queue:
        gamma = queue.popleft()
        delta = find(gamma)
        for g in group.generators:
            merged = union(g.images[gamma], g.images[delta])
            if merged is not None:
                queue.append(merged)
    cells: dict[int, list[int]] = {}
    for x in range(n):
        cells.setdefault(find(x), []).append(x)
    return [tuple(sorted(cell)) for cell in cells.values()]


def find_block_systems(group: PermutationGroup) -> list[BlockSystem]:
    """All minimal proper block systems of a transitive group.

    Each seed pair {0, x} yields the finest system in which 0 and x share a
    block; for a transitive group a system is determined by its 0-block, so
    minimality is containment-minimality of the 0-block.
    """
    if not group.is_transitive():
        raise IntransitiveGroup("block systems are defined for transitive groups only")
    n = group.degree
    by_zero_block: dict[frozenset, list[tuple]] = {}
    for x in range(1, n):
        blocks = _finest_block_partition(group, 0, x)
        if not 1 < len(blocks) < n:
            continue
        zero_block = frozenset(next(b for b in blocks if 0 in b))
        by_zero_block.setdefault(zero_block, sorted(blocks))
    minimal = []
    for zb, blocks in by_zero_block.items():
        if any(other < zb for other in by_zero_block):
            continue
        sizes = {len(b) for b in blocks}
        if len(sizes) != 1:
            raise DegreeMismatch("block system of a transitive group must have equal cells")
        cells = {frozenset(b) for b in blocks}
        for g in group.generators:
            for block in blocks:
                if frozenset(g.images[x] for x in block) not in cells:  # pragma: no cover
                    raise InternalCheckFailed("computed partition is not generator-invariant")
        minimal.append(BlockSystem(tuple(sorted(blocks))))
    minimal.sort(key=lambda s: (s.block_size, s.blocks))
    return minimal
