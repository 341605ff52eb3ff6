"""Exhaustive subgroup enumeration for small groups.

The lattice is walked breadth first over a precomputed multiplication table:
starting from the cyclic subgroups, each subgroup ``H`` found is joined with
one cyclic subgroup at a time, and deduplication by element set keeps the
walk finite. Every subgroup is reachable this way.

Two shortcuts keep the walk cheap without changing what it returns:

* Coset extension (Dimino's algorithm). ``<H, c>`` is grown from ``H`` by
  adding whole cosets ``y*H`` until the set is closed under the generators,
  instead of closing the generators again from the identity.
* Conjugacy skip, as in the cyclic extension method (Holt, Eick and
  O'Brien, *Handbook of Computational Group Theory*, 2005). For a cyclic
  subgroup ``C`` and ``h`` in ``H``, ``<H, C^h> = <H, C>``, so only the
  first cyclic subgroup (in the fixed order of the representatives) of each
  orbit of ``H`` acting by conjugation is adjoined. A skipped join only
  produces a subgroup the walk has already found, so the pair that first
  inserts each subgroup, and hence its generator tuple, is the same as in
  the full walk.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from .errors import BudgetExceeded
from .group import PermutationGroup

SUBGROUP_ORDER_CAP = 400


def enumerate_subgroups(group: PermutationGroup,
                        max_order: int = SUBGROUP_ORDER_CAP) -> list[PermutationGroup]:
    """All subgroups, deduplicated by element set, in a deterministic order
    (by order, then by sorted element list).

    Groups larger than ``max_order`` are refused: the enumeration is
    exponential, so restrict to a smaller group or use a targeted low-index
    search instead.
    """
    order = group.order()
    if order > max_order:
        raise BudgetExceeded(
            f"|G| = {order} exceeds the exhaustive-enumeration cap {max_order}; "
            "enumerate a smaller group or search for low-index subgroups directly")
    if order == 1:
        # (also keeps degree 1 away from itemgetter below, which would return
        # a bare point instead of a tuple)
        trivial = PermutationGroup(group.degree, ())
        trivial._order = 1
        return [trivial]

    # elements() is sorted by image tuple, so element indices order the same
    # way as images and sorted index lists stand in for sorted element lists
    elements = group.elements()
    images = [p.images for p in elements]
    index = {img: i for i, img in enumerate(images)}
    identity = index[tuple(range(group.degree))]
    # table[a][b] is the index of a * b; itemgetter(*a)(b) == (a * b).images
    table = [[index[compose(b)] for b in images]
             for compose in (itemgetter(*a) for a in images)]
    inverse = [row.index(identity) for row in table]

    # one representative generator per cyclic subgroup; adjoining any other
    # generator of the same cyclic group closes to the same subgroup
    cyclic: dict[frozenset, int] = {}
    rep_of = []
    for i in range(order):
        powers = {identity}
        x = i
        while x != identity:
            powers.add(x)
            x = table[x][i]
        rep_of.append(cyclic.setdefault(frozenset(powers), i))
    reps = sorted(cyclic.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    position = {rep: k for k, (_, rep) in enumerate(reps)}
    cyclic_of = [position[rep] for rep in rep_of]  # element -> its cyclic subgroup

    conjugation: dict[int, list[int]] = {}

    def conjugates(g):
        # k -> position of reps[k]^g, the cyclic subgroup of g^-1 * rep * g
        if g not in conjugation:
            left = table[inverse[g]]
            conjugation[g] = [cyclic_of[table[left[rep]][g]] for _, rep in reps]
        return conjugation[g]

    def extend(members, member_list, gen_ids):
        # Dimino: ``members`` is the subgroup H; add left cosets z*H until the
        # set is closed under left multiplication by the generators
        closure = set(members)
        gen_rows = [table[s] for s in gen_ids]
        cosets = [identity]
        for y in cosets:
            for gen_row in gen_rows:
                z = gen_row[y]
                if z not in closure:
                    closure.update(map(table[z].__getitem__, member_list))
                    cosets.append(z)
        return frozenset(closure)

    trivial = frozenset({identity})
    found: dict[frozenset, list[int]] = {trivial: []}
    queue = deque([trivial])
    for cyc, rep in reps:
        if cyc not in found:
            found[cyc] = [rep]
            queue.append(cyc)
    while queue:
        current = queue.popleft()
        gens = found[current]
        moves = [conjugates(g) for g in gens]
        member_list = list(current)
        seen = bytearray(len(reps))
        for k, (_, rep) in enumerate(reps):
            if seen[k] or rep in current:
                continue
            seen[k] = 1
            orbit = [k]
            for j in orbit:
                for move in moves:
                    m = move[j]
                    if not seen[m]:
                        seen[m] = 1
                        orbit.append(m)
            joined = gens + [rep]
            bigger = extend(current, member_list, joined)
            if bigger not in found:
                found[bigger] = joined
                queue.append(bigger)

    ordered = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    subgroups = []
    for members, gens in ordered:
        sub = PermutationGroup(group.degree, tuple(elements[i] for i in gens))
        # the walk closed the element set, so order() needs no chain, and a
        # verdict that stops at "not vertex-transitive" builds none at all
        sub._order = len(members)
        subgroups.append(sub)
    return subgroups
