import pytest

from conftest import brute_subgroups, index2_subgroup_count

from symclass import PermutationGroup, enumerate_subgroups
from symclass.errors import BudgetExceeded
from symclass.families import (
    alt,
    dihedral,
    icosahedral,
    octahedral,
    sym,
    wreath_bipartite,
    wreath_grid,
)

ORACLE_GROUPS = {
    "sym(3)": lambda: sym(3),
    "alt(4)": lambda: alt(4),
    "sym(4)": lambda: sym(4),
    "alt(5)": lambda: alt(5),
    "sym(5)": lambda: sym(5),
    "octahedral": octahedral,
    "icosahedral": icosahedral,
    "wreath_grid(4)": lambda: wreath_grid(4),
    "wreath_bipartite(3)": lambda: wreath_bipartite(3),
    "dihedral(5)": lambda: dihedral(5),
    "dihedral(8)": lambda: dihedral(8),
    "dihedral(12)": lambda: dihedral(12),
}


def test_trivial_group():
    trivial = PermutationGroup(3, [])
    subs = enumerate_subgroups(trivial)
    assert len(subs) == 1
    assert subs[0].order() == 1


def test_s3_has_six_subgroups():
    subs = enumerate_subgroups(sym(3))
    assert sorted(s.order() for s in subs) == [1, 2, 2, 2, 3, 6]


def test_a4_subgroup_lattice():
    subs = enumerate_subgroups(alt(4))
    assert sorted(s.order() for s in subs) == [1, 2, 2, 2, 3, 3, 3, 3, 4, 12]


def test_octahedral_index2_count_matches_abelianization_oracle():
    group = octahedral()
    subs = enumerate_subgroups(group)
    enumerated = sum(1 for s in subs if s.order() == 24)
    assert enumerated == index2_subgroup_count(group.elements()) == 3


def test_lagrange_and_cyclic_cover():
    group = sym(4)
    subs = enumerate_subgroups(group)
    order = group.order()
    for sub in subs:
        assert order % sub.order() == 0
    cyclic_elements = set()
    for sub in subs:
        if len(sub.generators) <= 1:
            cyclic_elements.update(sub.elements())
    assert len(cyclic_elements) == order


def test_every_subgroup_is_closed_and_contained():
    group = sym(3)
    for sub in enumerate_subgroups(group):
        elements = sub.elements()
        for a in elements:
            for b in elements:
                assert a * b in set(elements)
            assert a in group


def test_deterministic_order():
    first = [s.order() for s in enumerate_subgroups(octahedral())]
    second = [s.order() for s in enumerate_subgroups(octahedral())]
    assert first == second == sorted(first)


def test_budget_cap():
    with pytest.raises(BudgetExceeded, match="low-index"):
        enumerate_subgroups(sym(6))
    with pytest.raises(BudgetExceeded):
        enumerate_subgroups(sym(4), max_order=10)


@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_matches_brute_oracle_exactly(name):
    group = ORACLE_GROUPS[name]()
    fast = enumerate_subgroups(group)
    slow = brute_subgroups(group)
    assert [(s.degree, s.generators) for s in fast] == \
        [(s.degree, s.generators) for s in slow]


@pytest.mark.parametrize("group, count", [
    (sym(4), 30),
    (sym(5), 156),
    (alt(5), 59),
])
def test_known_subgroup_counts(group, count):
    assert len(enumerate_subgroups(group)) == count


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9, 12, 15])
def test_dihedral_count_is_tau_plus_sigma(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert len(enumerate_subgroups(dihedral(n))) == len(divisors) + sum(divisors)


@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_enumerated_subgroups_carry_their_order(name, chain_builds):
    # the walk closed each element set, so order() reads its size and
    # builds no chain
    subs = enumerate_subgroups(ORACLE_GROUPS[name]())
    chain_builds.clear()
    orders = [sub.order() for sub in subs]
    assert chain_builds == []
    assert orders == [PermutationGroup(sub.degree, sub.generators).order() for sub in subs]


def test_the_trivial_lattice_carries_its_order(chain_builds):
    [only] = enumerate_subgroups(PermutationGroup(3, []))
    chain_builds.clear()
    assert only.order() == 1
    assert chain_builds == []
