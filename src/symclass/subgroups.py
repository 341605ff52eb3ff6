"""Exhaustive subgroup enumeration for small groups, and its classes up to
conjugacy.

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

:func:`subgroup_classes` runs the same walk up to conjugacy in the ambient
group ``G`` (cyclic extension proper, ibid. ch. 10): each new subgroup is
closed under conjugation by the generators of ``G`` on the same table, every
conjugate is marked as found, and only the first one found, the class
representative, is joined further. Every subgroup is still reached up to
conjugacy: a subgroup ``K`` is ``<M, C>`` for a maximal subgroup ``M`` of
``K`` and a cyclic ``C`` outside it, and if ``M^g`` is a representative then
the walk joins it with ``C^g`` and finds ``K^g``. The conjugacy skip widens
from ``H`` to its normalizer: ``<H, C^n> = <H, C>^n`` for ``n`` in
``N_G(H)``, whose generators come from the class closure by Schreier's lemma.
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
    return [sub for sub, _ in _cyclic_extension(group, max_order, by_class=False)]


def subgroup_classes(group: PermutationGroup,
                     max_order: int = SUBGROUP_ORDER_CAP) -> list[tuple]:
    """One ``(representative, class length)`` pair per conjugacy class of
    subgroups, in a deterministic order (by order, then by the
    representative's sorted element list). The lengths sum to the number of
    subgroups. Groups larger than ``max_order`` are refused, as by
    :func:`enumerate_subgroups`."""
    return _cyclic_extension(group, max_order, by_class=True)


def _cyclic_extension(group: PermutationGroup, max_order: int, by_class: bool) -> list:
    """``(subgroup, class length)`` pairs: every subgroup with length 1, or
    with ``by_class`` one representative per conjugacy class in ``group``."""
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
        return [(trivial, 1)]

    elements, index, table, inverse, identity, reps, conjugates, extend = _prelude(group)

    # element -> its conjugate g^-1 * element * g, one list per generator g
    # of the group; conjugating by no generators makes every subgroup its own
    # class, and the walk is the full one
    generator_ids = [index[s.images] for s in group.generators] if by_class else []
    conjugators = [[table[table[inverse[g]][x]][g] for x in range(order)]
                   for g in generator_ids]

    # class representative -> (its generators, its class length, the
    # generators whose orbits on the cyclic subgroups decide which joins the
    # walk skips)
    found: dict[frozenset, tuple] = {}
    known = set()  # every subgroup found, conjugates too

    def admit(members, gens) -> bool:
        if members in known:
            return False
        # the class of H = members, each conjugate K with an element t such
        # that H^t = K; an edge to a conjugate already reached gives an element
        # t_K * g * t_(K^g)^-1 of the normalizer N_G(H) (Schreier's lemma)
        transversal = {members: identity}
        conjugacy_class = [members]
        schreier = []
        for sub in conjugacy_class:
            t = transversal[sub]
            for g, conj in zip(generator_ids, conjugators):
                image = frozenset(map(conj.__getitem__, sub))
                tg = table[t][g]
                if image in transversal:
                    schreier.append(table[tg][inverse[transversal[image]]])
                else:
                    transversal[image] = tg
                    conjugacy_class.append(image)
        known.update(conjugacy_class)
        # joins by cyclic subgroups in one orbit of N_G(H), of order
        # |G| / class length, are conjugate, so the walk adjoins one per orbit
        normalizer, normal_gens = members, list(gens)
        for n in schreier:
            if len(normalizer) * len(conjugacy_class) == order:
                break
            if n not in normalizer:
                normal_gens.append(n)
                normalizer = extend(normalizer, list(normalizer), normal_gens)
        found[members] = (gens, len(conjugacy_class), normal_gens)
        return True

    trivial = frozenset({identity})
    admit(trivial, [])
    queue = deque([trivial])
    for cyc, rep in reps:
        if admit(cyc, [rep]):
            queue.append(cyc)
    while queue:
        current = queue.popleft()
        gens, _, normal_gens = found[current]
        moves = [conjugates(g) for g in normal_gens]
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
            if admit(bigger, joined):
                queue.append(bigger)

    ordered = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    out = []
    for members, (gens, length, _) in ordered:
        sub = PermutationGroup(group.degree, tuple(elements[i] for i in gens))
        # the walk closed the element set, so order() needs no chain, and a
        # verdict that stops at "not vertex-transitive" builds none at all
        sub._order = len(members)
        out.append((sub, length))
    return out


def _prelude(group: PermutationGroup) -> tuple:
    """The element list (sorted by image tuple), the index of each image
    tuple, the multiplication table, each element's inverse, the identity,
    one ``(element set, generator)`` per cyclic subgroup in the fixed walk
    order, and the two steps on the table: ``conjugates(g)``, the position
    of each cyclic representative's conjugate by ``g``, and
    ``extend(members, member_list, gen_ids)``, the subgroup they generate."""
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
    for i in range(len(elements)):
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

    return elements, index, table, inverse, identity, reps, conjugates, extend
