import math

import pytest

from conftest import python_stdout, reference_product_action

from symclass import (
    check_condition_3_1,
    families,
    girth,
    intersection_numbers,
    transitivity_degree_tests,
)
from symclass.classify import condition_3_1_examples
from symclass.errors import (
    InternalCheckFailed,
    ParameterError,
    SizeCapExceeded,
    UnknownFamily,
)
from symclass.families import (
    agl1,
    alt,
    build_graph,
    build_group,
    complete,
    complete_bipartite,
    cycle,
    cyclic,
    dihedral,
    grid,
    grid_complement,
    hamming,
    hamming_full,
    icosahedral,
    icosahedral_rotations,
    icosahedron,
    octahedral,
    octahedron,
    petersen,
    petersen_sym5,
    preserves_graph,
    sym,
    two_homog_frobenius,
    wreath_bipartite,
    wreath_grid,
    wreath_hamming,
)


def test_grid_complement_4_shape():
    fam = grid_complement(4)
    assert fam.graph.n == 8
    assert fam.graph.valency() == 3
    assert girth(fam.graph) == 4


def test_hamming_2_3_shape():
    fam = hamming(2, 3)
    assert fam.graph.n == 9
    assert fam.graph.valency() == 4
    assert girth(fam.graph) == 3


def test_octahedron_shape():
    fam = octahedron()
    assert fam.graph.n == 6
    from symclass import diameter
    assert diameter(fam.graph) == 2


def test_grid_labels():
    fam = grid(2, 4)
    assert fam.labels[0] == (1, 1)
    assert fam.labels.index((2, 3)) == 6  # (i-1)*m + (j-1)


def test_hamming_labels_are_big_endian():
    fam = hamming(2, 3)
    assert fam.labels[0] == (1, 1)
    assert fam.labels.index((1, 2)) == 1
    assert fam.labels.index((2, 1)) == 3


def test_petersen_labels():
    fam = petersen()
    assert fam.labels[0] == (1, 2)
    assert len(fam.labels) == 10


def test_solid_labels():
    assert octahedron().labels == ("a", "b", "c", "a'", "b'", "c'")
    assert icosahedron().labels[0] == "u" and icosahedron().labels[-1] == "x"


def test_grid_complement_intersection_numbers():
    for m in range(4, 13):
        inter = intersection_numbers(grid_complement(m).graph, 0)
        assert inter.triples[1] == (1, 0, m - 2)
        assert inter.triples[2] == (m - 2, 0, 1)


def test_hamming_binary_c2():
    for d in range(3, 9):
        g = hamming(d, 2).graph
        assert girth(g) == 4
        assert intersection_numbers(g, 0).c(2) == 2


def test_group_orders():
    assert sym(4).order() == 24
    assert alt(5).order() == 60
    assert dihedral(7).order() == 14
    assert wreath_grid(5).order() == 240
    assert wreath_bipartite(4).order() == 1152
    assert hamming_full(2, 3).order() == 72
    assert agl1(7).order() == 42
    assert octahedral().order() == 48
    assert icosahedral().order() == 120
    assert icosahedral_rotations().order() == 60
    assert petersen_sym5().order() == 120


def test_wreath_hamming_frobenius():
    group = wreath_hamming(two_homog_frobenius(7), 7)
    assert group.degree == 128
    assert group.order() == 2688  # 2^7 * 21


def test_frobenius_is_two_homogeneous_not_two_transitive():
    group = two_homog_frobenius(7)
    assert group.degree == 7 and group.order() == 21
    flags = transitivity_degree_tests(group)
    assert flags.two_homogeneous and not flags.two_transitive


def test_frobenius_requires_3_mod_4():
    with pytest.raises(ParameterError, match="3 \\(mod 4\\)"):
        two_homog_frobenius(5)
    with pytest.raises(ParameterError):
        two_homog_frobenius(9)  # not prime


def test_agl1_requires_prime():
    with pytest.raises(ParameterError):
        agl1(8)


def test_group_generators_preserve_family_graphs():
    cases = [
        (wreath_grid(5), grid_complement(5).graph),
        (wreath_hamming(sym(4), 4), hamming(4, 2).graph),
        (wreath_bipartite(3), complete_bipartite(3, 3).graph),
        (octahedral(), octahedron().graph),
        (icosahedral(), icosahedron().graph),
        (petersen_sym5(), petersen().graph),
    ]
    for group, graph in cases:
        for gen in group.generators:
            assert preserves_graph(gen, graph)


def test_condition_witnesses():
    for m, expected_order in ((4, 24), (5, 40), (6, 120)):
        witnesses = condition_3_1_examples(m)
        assert len(witnesses) == 1
        assert witnesses[0].order() == expected_order
        assert check_condition_3_1(witnesses[0], m).satisfied
    with pytest.raises(ParameterError, match="supported m"):
        condition_3_1_examples(7)


def test_full_grid_group_fails_condition():
    full = check_condition_3_1(wreath_grid(4), 4)
    assert full.projects_onto_swap and full.kernel_two_transitive
    assert not full.satisfied
    assert full.kernel_three_transitive is True  # the S4 column kernel


def test_build_graph_dispatch():
    assert build_graph("grid_complement", 4).graph == grid_complement(4).graph
    assert build_graph("octahedron").graph.n == 6
    with pytest.raises(UnknownFamily):
        build_graph("moebius")
    with pytest.raises(ParameterError):
        build_graph("cycle")


def test_build_group_dispatch():
    assert build_group("sym5").order() == 120
    assert build_group("alt(4)").order() == 12
    assert build_group("frobenius:7").order() == 21
    assert build_group("two_homog_frobenius(11)").order() == 55
    assert build_group("wreath_grid:6").order() == 1440
    assert build_group("wreath_hamming(frobenius(7))").order() == 2688
    assert build_group("icosahedral_rotations").order() == 60
    assert build_group("hamming_full:2:3").order() == 72
    with pytest.raises(UnknownFamily):
        build_group("monster")


def test_a_known_group_name_with_a_bad_parameter_is_a_bad_parameter():
    for spec, name, arity in (("sym:-1", "sym", 1), ("sym-1", "sym", 1),
                              ("sym+2", "sym", 1), ("wreath_grid(x)", "wreath_grid", 1),
                              ("agl1:5x", "agl1", 1), ("hamming_full(2,x)", "hamming_full", 2)):
        with pytest.raises(ParameterError,
                           match=f"^group '{name}' takes {arity} non-negative integer") as caught:
            build_group(spec)
        assert caught.value.code == "bad-parameter"
    for spec in ("nosuch:4", "symfoo", "wreath_gridx"):
        with pytest.raises(UnknownFamily) as caught:
            build_group(spec)
        assert caught.value.code == "unknown-family"
    assert [build_group(spec).order() for spec in ("sym5", "agl1:5", "frobenius(7)")] \
        == [120, 20, 21]


def test_unbalanced_group_specs_are_bad_parameters():
    for spec in ("sym(5", "sym5)", "sym((5))", "wreath_hamming(frobenius(7)"):
        with pytest.raises(ParameterError) as caught:
            build_group(spec)
        assert caught.value.code == "bad-parameter", spec


def test_parameter_validation():
    with pytest.raises(ParameterError):
        grid(1, 4)
    with pytest.raises(ParameterError):
        grid_complement(2)
    with pytest.raises(ParameterError):
        hamming(1, 2)
    with pytest.raises(ParameterError):
        cycle(2)
    with pytest.raises(ParameterError):
        complete(0)


@pytest.mark.parametrize("name, params", [
    ("grid", (2, 2)), ("grid", (3, 5)), ("grid_complement", (3,)), ("grid_complement", (6,)),
    ("hamming", (2, 2)), ("hamming", (5, 2)), ("hamming", (3, 4)), ("complete", (1,)),
    ("complete", (7,)), ("complete_bipartite", (1, 4)), ("complete_bipartite", (4, 3)),
    ("cycle", (3,)), ("cycle", (10,)),
])
def test_edge_cap_counts_each_family_exactly(monkeypatch, name, params):
    edges = len(build_graph(name, *params).graph.edges())
    monkeypatch.setattr(families, "EDGE_CAP", edges)
    assert len(build_graph(name, *params).graph.edges()) == edges
    monkeypatch.setattr(families, "EDGE_CAP", edges - 1)
    with pytest.raises(SizeCapExceeded, match="the family cap") as info:
        build_graph(name, *params)
    assert info.value.code == "size-cap-exceeded"


class _Admitted(Exception):
    pass


def test_edge_cap_admits_each_family_up_to_its_largest_size(monkeypatch):
    real = families._cap_edges

    def admit(name, edges):
        real(name, edges)
        raise _Admitted(name)  # stop before the graph is built

    monkeypatch.setattr(families, "_cap_edges", admit)
    assert families.EDGE_CAP == 2 ** 20
    for name, largest, refused in (
            ("grid", (101, 101), (102, 102)),
            ("grid_complement", (1024,), (1025,)),
            ("hamming", (16, 2), (17, 2)),
            ("hamming", (2, 101), (2, 102)),
            ("complete", (1448,), (1449,)),
            ("complete_bipartite", (1024, 1024), (1024, 1025)),
            ("cycle", (2 ** 20,), (2 ** 20 + 1,))):
        with pytest.raises(_Admitted):
            build_graph(name, *largest)
        with pytest.raises(SizeCapExceeded):
            build_graph(name, *refused)


def test_product_actions_match_the_digit_map_reference():
    for d in range(2, 5):
        for q in range(2, 5):
            assert ([g.images for g in hamming_full(d, q).generators]
                    == reference_product_action(sym(q).generators, sym(d).generators, q, d))
    coordinate_groups = ([sym(k) for k in range(1, 8)] + [cyclic(k) for k in range(1, 8)]
                         + [dihedral(k) for k in range(3, 8)] + [two_homog_frobenius(7)])
    for h in coordinate_groups:
        assert ([g.images for g in wreath_hamming(h, h.degree).generators]
                == reference_product_action(sym(2).generators, h.generators, 2, h.degree))


def test_wreath_hamming_needs_a_transitive_coordinate_group():
    with pytest.raises(ParameterError, match="transitive"):
        wreath_hamming(alt(2), 2)


# each read that builds a chain over the group's own generators, as
# (method, arguments)
WRONG_ORDER_READS = (
    ("order", ()),
    ("point_stabilizer", (3,)),
    ("pointwise_stabilizer", ((0, 1),)),
)


def test_wrong_order_raises_a_coded_internal_error():
    for name, args in WRONG_ORDER_READS:
        # recording the order builds no chain, so nothing is checked yet
        group = families._checked(sym(4), 25)
        assert group._chain is None
        # the failing chain is not kept: a second read checks again
        for _ in range(2):
            with pytest.raises(InternalCheckFailed, match="order 24, expected 25") as info:
                getattr(group, name)(*args)
            assert info.value.code == "internal-check-failed"
    # a group whose chain is already built is checked at once
    built = sym(3)
    assert built.order() == 6
    with pytest.raises(InternalCheckFailed, match="order 6, expected 7") as info:
        families._checked(built, 7)
    assert info.value.code == "internal-check-failed"


def test_wrong_shape_raises_a_coded_internal_error(monkeypatch):
    with pytest.raises(InternalCheckFailed, match="not transitive"):
        families._checked_shape(complete_bipartite(1, 2), 1, math.inf, 2)
    with pytest.raises(InternalCheckFailed, match=r"\(3, 5, 2, 10\), expected \(3, 5, 3, 10\)"):
        families._checked_shape(petersen(), 3, 5, 3)
    monkeypatch.setattr(families, "bfs_cycle_length", lambda g, root: 99)
    with pytest.raises(InternalCheckFailed) as info:
        octahedron()
    assert info.value.code == "internal-check-failed"


def test_checks_still_run_under_python_O():
    code = (
        "import sys\n"
        "from symclass import families\n"
        "from symclass.errors import InternalCheckFailed\n"
        "codes = [sys.flags.optimize]\n"
        f"for name, args in {WRONG_ORDER_READS!r}:\n"
        "    group = families._checked(families.sym(4), 25)\n"
        "    try:\n"
        "        getattr(group, name)(*args)\n"
        "    except InternalCheckFailed as exc:\n"
        "        codes.append(exc.code)\n"
        "families.bfs_cycle_length = lambda g, root: 99\n"
        "try:\n"
        "    families.octahedron()\n"
        "except InternalCheckFailed as exc:\n"
        "    codes.append(exc.code)\n"
        "print(*codes)\n"
    )
    for flags, optimize in ((), "0"), (("-O",), "1"):
        assert (python_stdout(*flags, "-c", code).split()
                == [optimize] + ["internal-check-failed"] * 4)


def test_family_keeps_the_group_it_built_and_checked(chain_builds):
    fam = grid_complement(5)
    group = fam.symmetry_group()
    # the family keeps the S2 x S5 it was built with; its order is checked
    # by the first chain over its generators, not at construction
    assert group is fam.symmetry_group()
    assert group.generators not in chain_builds
    assert group.order() == 240
    assert chain_builds.count(group.generators) == 1
    built = len(chain_builds)
    assert group.order() == 240
    assert len(chain_builds) == built
    assert group.generators == wreath_grid(5).generators


@pytest.mark.parametrize("factory, order", [
    (lambda: hamming(7, 2), 2 ** 7 * math.factorial(7)),
    (lambda: grid_complement(8), 2 * math.factorial(8)),
    (lambda: complete_bipartite(5, 5), 2 * math.factorial(5) ** 2),
])
def test_building_a_family_builds_no_chain_over_its_group(factory, order, chain_builds):
    fam = factory()
    group = fam.symmetry_group()
    # nor over the factors of a product: their recorded orders multiply
    assert chain_builds == []
    assert group.order() == order
    assert chain_builds == [group.generators]
