import random

import pytest

from conftest import _reference_orbit, brute_closure, brute_order

import symclass.group as group_module

from symclass import (
    Permutation,
    PermutationGroup,
    StabilizerChain,
    format_generator_file,
    parse_generator_file,
)
from symclass.claims import standard_corpus
from symclass.errors import DegreeMismatch, ParseError, SizeCapExceeded
from symclass.families import (
    agl1,
    alt,
    cyclic,
    dihedral,
    icosahedral_rotations,
    octahedral,
    psl25,
    sym,
    two_homog_frobenius,
    wreath_bipartite,
    wreath_hamming,
)

CHAIN_BATTERY = [
    (lambda: sym(3), 6),
    (lambda: sym(4), 24),
    (lambda: sym(5), 120),
    (lambda: alt(4), 12),
    (lambda: alt(5), 60),
    (lambda: cyclic(6), 6),
    (lambda: dihedral(5), 10),
    (lambda: dihedral(6), 12),
    (lambda: octahedral(), 48),
    (lambda: agl1(5), 20),
    (lambda: agl1(7), 42),
    (lambda: two_homog_frobenius(7), 21),
    (lambda: two_homog_frobenius(11), 55),
    (lambda: psl25(), 60),
    (lambda: wreath_bipartite(2), 8),
    (lambda: wreath_bipartite(3), 72),
    (lambda: icosahedral_rotations(), 60),
]


@pytest.mark.parametrize("factory,expected", CHAIN_BATTERY)
def test_chain_order_matches_brute_closure(factory, expected):
    group = factory()
    closure = brute_closure(group.generators)
    assert group.order() == expected
    assert len(closure) == expected if closure else expected == 1


@pytest.mark.parametrize("factory,expected", CHAIN_BATTERY[:8])
def test_membership_accepts_exactly_the_closure(factory, expected):
    group = factory()
    closure = brute_closure(group.generators) or {Permutation.identity(group.degree)}
    for element in closure:
        assert element in group
    # an element outside: some transposition or cycle not in the closure
    n = group.degree
    for candidate in (Permutation.from_cycles(n, [(0, 1)]),
                      Permutation.from_cycles(n, [tuple(range(n))])):
        assert (candidate in group) == (candidate in closure)


def test_f21_from_explicit_generators():
    # x -> x+1 and x -> 2x mod 7
    shift = Permutation(tuple((x + 1) % 7 for x in range(7)))
    double = Permutation(tuple(2 * x % 7 for x in range(7)))
    group = PermutationGroup(7, [shift, double])
    assert group.order() == brute_order([shift, double]) == 21


def test_orbit_examples():
    trivial = PermutationGroup(5, [])
    assert trivial.orbit(0) == (0,)
    rotation = cyclic(6)
    assert rotation.orbit(2) == (0, 1, 2, 3, 4, 5)
    ico = icosahedral_rotations()
    for x in range(12):
        assert ico.orbit(x) == tuple(range(12))


def test_orbit_stabilizer_identity():
    for factory, _ in CHAIN_BATTERY:
        group = factory()
        for x in range(0, group.degree, max(1, group.degree // 3)):
            stab = group.point_stabilizer(x)
            assert group.order() == len(group.orbit(x)) * stab.order()


def test_point_stabilizer_s4():
    stab = sym(4).point_stabilizer(0)
    assert stab.order() == 6
    assert all(g.images[0] == 0 for g in stab.generators)


def test_point_stabilizer_octahedral():
    group = octahedral()
    stab = group.point_stabilizer(0)
    assert stab.order() == 8
    # transitive on the four neighbors of vertex 0 (everything except 0 and 3)
    assert stab.orbit(1) == (1, 2, 4, 5)


def test_point_stabilizer_hamming_wreath():
    group = wreath_hamming(two_homog_frobenius(7), 7)
    assert group.order() == 2688
    stab = group.point_stabilizer(0)
    assert stab.order() == 21  # 2688 / 128


@pytest.mark.parametrize("factory,expected", CHAIN_BATTERY + [
    # the first generator fixes 0, so basing the chain at 0 changes its base
    pytest.param(lambda: PermutationGroup(5, [Permutation.from_cycles(5, [(1, 2)]),
                                              Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])]),
                 120, id="first-generator-fixes-0"),
])
def test_point_stabilizer_of_0_is_read_off_the_chain(factory, expected, chain_builds):
    built = factory()
    group = PermutationGroup(built.degree, built.generators)
    assert group.order() == expected
    chain_builds.clear()
    stab = group.point_stabilizer(0)
    assert chain_builds == []
    # the generators a chain built afresh with base prefix (0,) gives
    fresh = StabilizerChain(group.degree, group.generators, base_prefix=(0,))
    assert stab.generators == tuple(fresh.strong_generators(1))
    assert all(g.images[0] == 0 for g in stab.generators)
    assert stab.order() == brute_order(stab.generators) == expected // len(group.orbit(0))


def test_point_stabilizers_are_built_once_per_point(chain_builds):
    group = octahedral()
    stabilizers = [group.point_stabilizer(x) for x in (0, 3)]
    built = len(chain_builds)
    again = [group.point_stabilizer(x) for x in (0, 3)]
    assert all(a is b for a, b in zip(again, stabilizers))
    assert len(chain_builds) == built
    assert [s.order() for s in stabilizers] == [8, 8]


def test_every_chain_over_the_generators_compares_the_recorded_order(chain_builds,
                                                                    monkeypatch):
    compared = []
    original = PermutationGroup._check_order

    def recording(self, order):
        compared.append((self.generators, order))
        original(self, order)

    monkeypatch.setattr(PermutationGroup, "_check_order", recording)
    group = octahedral()
    assert chain_builds == compared == []
    group.point_stabilizer(0)
    group.point_stabilizer(3)
    group.pointwise_stabilizer((0, 1))
    group.order()
    own = [gens for gens in chain_builds if gens == group.generators]
    assert len(own) == 3
    assert compared == [(group.generators, 48)] * 3
    # a group with no recorded order compares against nothing
    plain = PermutationGroup(6, group.generators)
    assert plain._expected_order is None
    assert plain.point_stabilizer(3).order() == 8


def test_point_stabilizer_of_0_in_a_group_fixing_0():
    group = PermutationGroup(4, [Permutation.from_cycles(4, [(1, 2, 3)]),
                                 Permutation.from_cycles(4, [(1, 2)])])
    stab = group.point_stabilizer(0)
    assert stab.elements() == group.elements()
    assert stab.order() == group.order() == 6


def test_elements_do_not_depend_on_the_generator_order():
    # the first generator fixes 0 in one group and moves it in the other
    swap = Permutation.from_cycles(5, [(1, 2)])
    cycle5 = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    a = PermutationGroup(5, [swap, cycle5])
    b = PermutationGroup(5, [cycle5, swap])
    assert a.elements() == b.elements() == sorted(brute_closure([swap, cycle5]))


def test_pointwise_stabilizer():
    group = sym(5)
    stab = group.pointwise_stabilizer((0, 1))
    assert stab.order() == 6
    assert all(g.images[0] == 0 and g.images[1] == 1 for g in stab.generators)


def test_elements_enumeration():
    group = octahedral()
    elements = group.elements()
    assert len(elements) == 48
    assert len(set(elements)) == 48
    assert elements == sorted(elements)
    assert set(elements) == brute_closure(group.generators)


def test_elements_cap():
    with pytest.raises(SizeCapExceeded):
        sym(12).elements()


def test_relabeled_group_is_conjugate():
    group = dihedral(5)
    phi = Permutation.from_cycles(5, [(0, 2, 4, 1, 3)])
    conjugated = group.relabeled(phi)
    assert conjugated.order() == group.order()
    # conjugation by a group element fixes the group
    inner = group.relabeled(group.generators[0])
    assert inner.elements() == group.elements()


def test_generator_file_round_trip():
    group = octahedral()
    text = format_generator_file(group)
    parsed = parse_generator_file(text)
    assert parsed.degree == 6
    assert parsed.order() == 48
    assert parsed.elements() == group.elements()


def test_generator_file_flip_and_pair_cycle():
    # flip of one antipodal pair plus a 3-cycle of pairs: the block image is
    # cyclic of order 3, so the group has order 8 * 3 = 24
    text = "degree 6\n(1 2)\n(1 3 5)(2 4 6)\n"
    group = parse_generator_file(text)
    assert group.order() == brute_order(group.generators) == 24


def test_generator_file_errors():
    with pytest.raises(ParseError, match="degree"):
        parse_generator_file("(1 2)\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_generator_file("degree 4\n(1 9)\n")
    with pytest.raises(ParseError):
        parse_generator_file("# only a comment\n")


def test_generator_file_comments_and_blanks():
    text = "# symmetry generators\ndegree 3\n\n(1 2)  # a swap\n(1 2 3)\n"
    assert parse_generator_file(text).order() == 6


def test_generator_degree_validation():
    with pytest.raises(DegreeMismatch):
        PermutationGroup(4, [Permutation.identity(3)])


def test_degree_one_chain():
    e = Permutation.identity(1)
    chain = StabilizerChain(1, [])
    assert chain.order() == 1
    assert chain.contains(e)
    assert chain.elements() == [e]
    based = StabilizerChain(1, [e], base_prefix=(0,))
    assert based.order() == 1 and based.contains(e)
    group = PermutationGroup(1, [e])
    assert group.order() == 1 and e in group
    assert group.point_stabilizer(0).order() == 1



def _random_groups(rng, count: int) -> list:
    """Groups generated by permutations of random subsets of the points, so
    that most of them are intransitive; degree 1 and no generators included."""
    groups = []
    for _ in range(count):
        n = rng.randint(1, 12)
        gens = []
        for _ in range(rng.randint(0, 3)):
            support = rng.sample(range(n), rng.randint(1, n))
            images = list(range(n))
            for a, b in zip(support, rng.sample(support, len(support))):
                images[a] = b
            gens.append(Permutation(images))
        groups.append(PermutationGroup(n, gens))
    return groups


def test_kept_orbit_partition_matches_the_reference_walk():
    groups = [p.group for p in standard_corpus()] + _random_groups(random.Random(3), 60)
    assert any(not g.is_transitive() for g in groups)
    for built in groups:
        expected = []
        for x in range(built.degree):
            orbit = tuple(sorted(_reference_orbit(built.generators, x)))
            if orbit[0] == x:
                expected.append(orbit)
        # the partition is filled lazily, so read it in two different orders
        first = PermutationGroup(built.degree, built.generators)
        assert first.is_transitive() == (len(expected) == 1)
        assert first.orbits() == expected
        second = PermutationGroup(built.degree, built.generators)
        for x in reversed(range(built.degree)):
            assert second.orbit(x) == next(o for o in expected if x in o)
        assert second.orbits() == expected
        assert second.is_transitive() == (len(expected) == 1)


def test_each_orbit_is_walked_once_and_transitivity_walks_only_the_orbit_of_0(monkeypatch):
    walks = []
    real = group_module.point_orbit

    def recording(generators, x):
        orbit = real(generators, x)
        walks.append(orbit)
        return orbit

    monkeypatch.setattr(group_module, "point_orbit", recording)
    # two fixed points, a 3-cycle and a transposition
    group = PermutationGroup(7, [Permutation.parse("(3 4 5)(6 7)", 7)])
    assert not group.is_transitive()
    assert walks == [{0}]
    assert group.orbits() == [(0,), (1,), (2, 3, 4), (5, 6)]
    assert group.orbit(4) == (2, 3, 4) and not group.is_transitive()
    assert walks == [{0}, {1}, {2, 3, 4}, {5, 6}]
