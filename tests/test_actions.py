import pytest

from conftest import brute_tuple_orbits, kernel_of_action

from symclass import (
    PermutationGroup,
    StabilizerChain,
    edge_action,
    enumerate_subgroups,
    find_block_systems,
    induced_action,
    transitivity_degree_tests,
)
from symclass.actions import chain_transitivity
from symclass.errors import IntransitiveGroup, InvariantCellError
from symclass.families import (
    agl1,
    alt,
    complete,
    cyclic,
    dihedral,
    icosahedral,
    octahedral,
    psl25,
    sym,
    two_homog_frobenius,
    wreath_grid,
)

ROWS_8 = [set(range(4)), set(range(4, 8))]
ANTIPODAL = [{0, 3}, {1, 4}, {2, 5}]


def test_induced_action_on_rows_is_swap():
    group = wreath_grid(4)  # S2 x S4 on the 2x4 grid
    image, table = induced_action(group, ROWS_8)
    assert image.order() == 2
    assert len(table) == len(group.generators)


def test_induced_action_on_singletons_is_restriction():
    group = sym(4)
    image, _ = induced_action(group, [{0}, {1}, {2}, {3}])
    assert image.order() == group.order()


def test_induced_action_rejects_split_cells():
    with pytest.raises(InvariantCellError):
        induced_action(sym(4), [{0, 1}, {2, 3}])


def test_octahedral_stabilizer_on_neighbors():
    group = octahedral()
    stab = group.point_stabilizer(0)
    restricted, _ = induced_action(stab, [{v} for v in (1, 2, 4, 5)])
    flags = transitivity_degree_tests(restricted)
    assert restricted.order() == 8
    assert flags.transitive
    assert not flags.two_transitive
    assert flags.ordered_pair_orbits == 2


def test_kernel_of_row_action():
    group = wreath_grid(4)
    kernel = kernel_of_action(group, ROWS_8)
    image, _ = induced_action(group, ROWS_8)
    assert kernel.order() == 24
    assert image.order() * kernel.order() == group.order()


def test_kernel_of_trivial_action_is_whole_group():
    group = sym(4)
    kernel = kernel_of_action(group, [set(range(4))])
    assert kernel.order() == group.order()


def test_octahedral_antipodal_kernel():
    group = octahedral()
    kernel = kernel_of_action(group, ANTIPODAL)
    image, _ = induced_action(group, ANTIPODAL)
    assert kernel.order() == 8
    assert image.order() == 6


def test_transitivity_flags_sym4():
    flags = transitivity_degree_tests(sym(4))
    assert (flags.transitive, flags.two_homogeneous,
            flags.two_transitive, flags.three_transitive) == (True, True, True, True)


def test_transitivity_flags_alt4():
    flags = transitivity_degree_tests(alt(4))
    assert flags.transitive and flags.two_homogeneous and flags.two_transitive
    assert flags.three_transitive is False
    assert brute_tuple_orbits(alt(4), 3) == 2


def test_transitivity_flags_frobenius21():
    flags = transitivity_degree_tests(two_homog_frobenius(7))
    assert flags.two_homogeneous
    assert not flags.two_transitive
    assert flags.unordered_pair_orbits == 1
    assert flags.ordered_pair_orbits == 2


@pytest.mark.parametrize("factory", [lambda: agl1(5), psl25])
def test_two_transitive_not_three(factory):
    flags = transitivity_degree_tests(factory())
    assert flags.two_transitive
    assert flags.three_transitive is False


def test_monotonicity_of_flags():
    for factory in (lambda: sym(4), lambda: alt(4), lambda: cyclic(5),
                    lambda: agl1(5), lambda: two_homog_frobenius(7), psl25,
                    octahedral):
        flags = transitivity_degree_tests(factory())
        if flags.three_transitive:
            assert flags.two_transitive
        if flags.two_transitive:
            assert flags.two_homogeneous
        if flags.two_homogeneous:
            assert flags.transitive


def _flag_battery() -> list:
    groups = [sym(n) for n in range(2, 8)] + [alt(n) for n in range(4, 8)]
    groups += [cyclic(n) for n in range(2, 9)] + [dihedral(n) for n in range(3, 9)]
    groups += [agl1(p) for p in (3, 5, 7, 11)] + [two_homog_frobenius(p) for p in (7, 11)]
    for ambient in (sym(5), wreath_grid(4), octahedral(), icosahedral(), psl25(), agl1(7)):
        groups += enumerate_subgroups(ambient)
    return groups


def test_transitivity_flags_match_brute_tuple_orbits():
    battery = _flag_battery()
    three = 0
    for group in battery:
        flags = transitivity_degree_tests(group)
        assert flags.ordered_pair_orbits == brute_tuple_orbits(group, 2)
        assert flags.three_transitive == (brute_tuple_orbits(group, 3) == 1)
        three += flags.three_transitive
    # 3-transitive: sym(3..7), alt(5..7), dihedral(3), agl1(3), and S5, A5 in S5
    assert (len(battery), three) == (630, 12)


def test_three_transitivity_is_decided_above_the_old_triple_cap():
    # degree 131 > 128: decided from the chain, without the 2.2 million ordered triples
    assert transitivity_degree_tests(agl1(131)).three_transitive is False


def test_block_system_of_cyclic_4():
    systems = find_block_systems(cyclic(4))
    assert [s.blocks for s in systems] == [((0, 2), (1, 3))]


def test_octahedral_antipodal_blocks():
    systems = find_block_systems(octahedral())
    assert ((0, 3), (1, 4), (2, 5)) in [s.blocks for s in systems]


def test_alt5_on_pairs_is_primitive_not_two_transitive():
    pairs_action = edge_action(alt(5), complete(5).graph)
    assert pairs_action.degree == 10
    assert not find_block_systems(pairs_action)
    flags = transitivity_degree_tests(pairs_action)
    assert not flags.two_transitive


def test_prime_degree_cyclic_is_primitive():
    for p in (5, 7, 11):
        assert not find_block_systems(cyclic(p))


def test_block_systems_require_transitive():
    intransitive = PermutationGroup(4, [])
    with pytest.raises(IntransitiveGroup):
        find_block_systems(intransitive)


def test_block_systems_are_preserved_by_generators():
    for factory in (octahedral, lambda: cyclic(12), lambda: wreath_grid(4)):
        group = factory()
        for system in find_block_systems(group):
            cells = {frozenset(b) for b in system.blocks}
            for g in group.generators:
                for block in system.blocks:
                    assert frozenset(g.images[x] for x in block) in cells


def test_induced_times_kernel_equals_order():
    cases = [
        (wreath_grid(4), ROWS_8),
        (octahedral(), ANTIPODAL),
        (wreath_grid(6), [set(range(6)), set(range(6, 12))]),
    ]
    for group, cells in cases:
        image, _ = induced_action(group, cells)
        kernel = kernel_of_action(group, cells)
        assert image.order() * kernel.order() == group.order()


def test_chain_transitivity_matches_brute_tuple_orbits_on_any_base():
    # the basic orbit sizes decide 2- and 3-transitivity whatever the base:
    # the group's own chain (based at 0), one based at the last point, and
    # one with no prefix (the trivial group then has no level at all)
    checked = set()
    for group in _flag_battery():
        n = group.degree
        expected = (brute_tuple_orbits(group, 2) == 1, brute_tuple_orbits(group, 3) == 1)
        for chain in (group.chain,
                      StabilizerChain(n, group.generators, base_prefix=(n - 1,)),
                      StabilizerChain(n, group.generators)):
            assert chain_transitivity(chain) == expected
        checked.add(expected)
    assert checked == {(False, False), (True, False), (True, True)}
