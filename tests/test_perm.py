import pytest

from symclass import Permutation
from symclass.errors import DegreeMismatch, NotAPermutation, ParseError


def test_identity_law():
    p = Permutation.from_cycles(5, [(0, 3, 2)])
    e = Permutation.identity(5)
    assert e * p == p
    assert p * e == p


def test_inverse_law():
    p = Permutation.from_cycles(6, [(0, 1), (2, 4, 5)])
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_composition_is_left_to_right():
    # (0 1) then (1 2): 0 -> 1 -> 2, 1 -> 0 -> 0, 2 -> 2 -> 1
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    assert (p * q).images == (2, 0, 1)
    assert (p * q)(0) == q(p(0)) == 2


def test_pow_and_order():
    c = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
    assert c.order() == 6
    assert (c ** 6).is_identity()
    assert c ** -1 == c.inverse()
    assert c ** 4 == c * c * c * c
    assert Permutation.identity(4).order() == 1
    assert Permutation.from_cycles(9, [(0, 1), (2, 3, 4), (5, 6, 7, 8)]).order() == 12


def test_bijection_validation():
    with pytest.raises(NotAPermutation):
        Permutation((0, 0, 2))
    with pytest.raises(NotAPermutation):
        Permutation((0, 1, 3))
    with pytest.raises(NotAPermutation):
        Permutation(())


def test_degree_mismatch():
    p = Permutation.identity(3)
    q = Permutation.identity(4)
    with pytest.raises(DegreeMismatch):
        p * q


def test_from_cycles_rejects_overlap():
    with pytest.raises(NotAPermutation):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(NotAPermutation):
        Permutation.from_cycles(3, [(0, 5)])


def test_cycles_and_support():
    p = Permutation.from_cycles(7, [(2, 5, 3), (0, 6)])
    assert p.cycles() == [(0, 6), (2, 5, 3)]
    assert p.support() == (0, 2, 3, 5, 6)


def test_cycle_string_is_one_indexed():
    p = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert p.cycle_string() == "(1 2)(3 4 5)"
    assert Permutation.identity(4).cycle_string() == "()"


def test_parse_round_trip():
    for text in ["(1 2)(3 4 5)", "()", "(1 6)(2 4)"]:
        p = Permutation.parse(text, 6)
        assert Permutation.parse(p.cycle_string(), 6) == p


def test_parse_accepts_commas():
    assert Permutation.parse("(1, 2)(3,4)", 4) == Permutation.parse("(1 2)(3 4)", 4)


def test_parse_errors():
    with pytest.raises(ParseError):
        Permutation.parse("(1 2", 4)
    with pytest.raises(ParseError):
        Permutation.parse("(0 1)", 4)  # points are 1-indexed
    with pytest.raises(ParseError):
        Permutation.parse("(1 9)", 4)
    with pytest.raises(ParseError):
        Permutation.parse("(1 x)", 4)


def test_sort_order_is_by_images():
    a = Permutation((0, 1, 2))
    b = Permutation((1, 0, 2))
    assert sorted([b, a]) == [a, b]


def test_degree_one_composition_and_power():
    # a single index makes itemgetter return the item itself, not a 1-tuple
    e = Permutation.identity(1)
    assert (e * e).images == (0,)
    assert (e ** 3).images == (0,)
    assert (e ** -2).images == (0,)
    assert e.order() == 1

