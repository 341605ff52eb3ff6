"""Cross-validation against an independent implementation (sympy), skipped
where sympy is not installed."""

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from symclass import find_block_systems, transitivity_degree_tests
from symclass.families import (
    agl1,
    alt,
    dihedral,
    icosahedral,
    icosahedral_rotations,
    octahedral,
    petersen_sym5,
    psl25,
    sym,
    two_homog_frobenius,
    wreath_bipartite,
    wreath_grid,
    wreath_hamming,
)

BATTERY = [
    sym(5), alt(5), dihedral(8), octahedral(), icosahedral(),
    icosahedral_rotations(), petersen_sym5(), psl25(), agl1(7),
    two_homog_frobenius(7), wreath_grid(4), wreath_bipartite(3),
    wreath_hamming(two_homog_frobenius(7), 7),
]


def to_sympy(group):
    return SymGroup([SymPerm(list(g.images)) for g in group.generators])


@pytest.mark.parametrize("group", BATTERY, ids=lambda g: f"deg{g.degree}")
def test_orders_agree(group):
    assert group.order() == to_sympy(group).order()


@pytest.mark.parametrize("group", BATTERY[:10], ids=lambda g: f"deg{g.degree}")
def test_stabilizer_orders_agree(group):
    assert group.point_stabilizer(0).order() == to_sympy(group).stabilizer(0).order()


@pytest.mark.parametrize("group", [octahedral(), psl25(), two_homog_frobenius(7),
                                   alt(5), wreath_grid(4)],
                         ids=("octahedral", "psl25", "frobenius21", "alt5", "wreath"))
def test_transitivity_and_primitivity_agree(group):
    other = to_sympy(group)
    flags = transitivity_degree_tests(group)
    assert flags.transitive == other.is_transitive()
    assert (not find_block_systems(group)) == other.is_primitive()
