import random

import pytest

from conftest import (
    brute_arc_check,
    brute_geodesic_check,
    brute_is_2dt,
    brute_order,
    random_connected_regular,
    reference_condition_3_1,
    walk_layer_orbit_counts,
)

import symclass.actions as actions_module
import symclass.autgroup as autgroup_module
import symclass.classify as classify_module
import symclass.families as families_module
import symclass.group as group_module
from symclass import (
    PermutationGroup,
    automorphism_group,
    check_condition_3_1,
    check_kantor_conditions,
    classify_pair,
    diameter,
    distance_partition,
    edge_action,
    enumerate_subgroups,
    girth,
    is_2_geodesic_transitive,
    is_complete,
    is_isomorphic,
    is_s_arc_transitive,
    is_s_distance_transitive,
    line_graph,
)
from symclass.claims import _subgroup_flags, standard_corpus
from symclass.classify import (
    ROW_GRID_COMPLEMENT_4,
    ROW_GRID_COMPLEMENT_5,
    ROW_GRID_COMPLEMENT_6,
    ROW_HAMMING_2_3,
    ROW_ICOSAHEDRON,
    ROW_LINE_GRAPH,
    ROW_OCTAHEDRON,
    condition_3_1_examples,
)
from symclass.errors import (
    CompleteGraphError,
    DegreeMismatch,
    DisconnectedGraph,
    InternalCheckFailed,
    InvariantCellError,
    NotAnAutomorphismGroup,
    ParameterError,
)
from symclass.families import (
    agl1,
    alt,
    complete,
    complete_bipartite,
    cycle,
    cyclic,
    dihedral,
    direct_product,
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
    psl25,
    sym,
    two_homog_frobenius,
    wreath_bipartite,
    wreath_grid,
    wreath_hamming,
)
from symclass.graphs import Graph, bfs_cycle_length
from symclass.perm import Permutation


def test_octahedron_full_group_is_2dt_not_2at():
    graph = octahedron().graph
    group = octahedral()
    assert is_s_distance_transitive(graph, group, 2)
    assert not is_s_arc_transitive(graph, group, 2)


def test_complete_graph_is_not_2dt():
    check = is_s_distance_transitive(complete(4).graph, sym(4), 2)
    assert not check
    assert "diameter" in check.reason


def test_grid_complement_with_witness_group():
    graph = grid_complement(4).graph
    group = direct_product(sym(2), alt(4))
    assert is_s_distance_transitive(graph, group, 2)
    assert not is_s_arc_transitive(graph, group, 2)


def test_complete_bipartite_wreath_is_2at():
    for m in (3, 4):
        graph = complete_bipartite(m, m).graph
        assert is_s_arc_transitive(graph, wreath_bipartite(m), 2)


def test_petersen_is_3_arc_transitive():
    assert is_s_arc_transitive(petersen().graph, petersen_sym5(), 3)


def test_arc_transitivity_past_3_arcs_matches_the_tuple_orbit_oracle():
    # the 7-cycle's dihedral group is s-arc-transitive for every s; S5 on the
    # Petersen graph is 3- but not 4-arc-transitive
    for graph, group, verdicts in ((cycle(7).graph, dihedral(7), (True, True, True)),
                                   (petersen().graph, petersen_sym5(), (True, False, False))):
        for s, expected in zip((3, 4, 5), verdicts):
            check = is_s_arc_transitive(graph, group, s)
            assert (check.ok, check.reason, check.evidence) == brute_arc_check(graph, group, s)
            assert check.ok is expected
    with pytest.raises(ParameterError, match="at least 1"):
        is_s_arc_transitive(cycle(7).graph, dihedral(7), 0)


def test_2dt_matches_brute_force_oracle():
    cases = [
        (octahedron().graph, octahedral()),
        (grid_complement(4).graph, direct_product(sym(2), alt(4))),
        (grid_complement(4).graph, wreath_grid(4)),
        (grid_complement(4).graph, direct_product(PermutationGroup(2, []), alt(4))),
        (complete_bipartite(3, 3).graph, wreath_bipartite(3)),
        (cycle(6).graph, dihedral(6)),
        (hamming(2, 3).graph, hamming_full(2, 3)),
    ]
    for graph, group in cases:
        expected = brute_is_2dt(graph, group.elements())
        assert bool(is_s_distance_transitive(graph, group, 2)) == expected


def test_2_geodesic_transitivity():
    assert is_2_geodesic_transitive(octahedron().graph, octahedral())
    assert is_2_geodesic_transitive(cycle(6).graph, dihedral(6))
    lp, _ = line_graph(petersen().graph)
    assert is_2_geodesic_transitive(lp, edge_action(petersen_sym5(), petersen().graph))
    with pytest.raises(CompleteGraphError):
        is_2_geodesic_transitive(complete(4).graph, sym(4))


def _oracle_pairs() -> list:
    pairs = [(p.graph, p.group) for p in standard_corpus()]
    for graph, ambient in ((grid_complement(4).graph, wreath_grid(4)),
                           (octahedron().graph, octahedral()),
                           (icosahedron().graph, icosahedral()),
                           (complete_bipartite(3, 3).graph, wreath_bipartite(3)),
                           (petersen().graph, petersen_sym5())):
        pairs += [(graph, sub) for sub in enumerate_subgroups(ambient)]
    return pairs


def test_arc_and_geodesic_verdicts_match_the_tuple_orbit_oracle():
    pairs = _oracle_pairs() + [(hamming(9, 2).graph, hamming_full(9, 2))]
    verdicts = set()
    for graph, group in pairs:
        for s in (1, 2, 3):
            check = is_s_arc_transitive(graph, group, s)
            assert (check.ok, check.reason, check.evidence) == brute_arc_check(graph, group, s)
            verdicts.add((s, check.ok))
        if not is_complete(graph):
            check = is_2_geodesic_transitive(graph, group)
            assert (check.ok, check.reason, check.evidence) == brute_geodesic_check(graph, group)
            verdicts.add(("geodesic", check.ok))
    assert len(pairs) == 653
    assert len(verdicts) == 8  # both verdicts occur for every kind


def test_condition_3_1_examples():
    assert check_condition_3_1(direct_product(sym(2), alt(4)), 4).satisfied
    full = check_condition_3_1(wreath_grid(4), 4)
    assert not full.satisfied
    assert full.kernel_three_transitive  # S4 column kernel
    no_swap = check_condition_3_1(direct_product(PermutationGroup(2, []), alt(4)), 4)
    assert not no_swap.satisfied
    assert not no_swap.projects_onto_swap


def test_condition_3_1_rejects_non_product_groups():
    not_invariant = "^the two row cells are not invariant$"
    different = "^generator applies different column permutations to the two rows$"
    valid = direct_product(sym(2), alt(4)).generators[-1]
    split = Permutation.from_cycles(8, [(0, 4)])  # row 0 lands on both rows
    mixed = Permutation.from_cycles(8, [(0, 1)])  # swaps two columns of row 0 only
    for group, message in (
            (sym(8), different),  # its first generator is the transposition (1 2)
            # independent column actions on the two parts
            (wreath_bipartite(4), different),
            (PermutationGroup(8, [split]), not_invariant),
            (PermutationGroup(8, [valid, split]), not_invariant),
            (PermutationGroup(8, [valid, mixed]), different)):
        with pytest.raises(InvariantCellError, match=message) as caught:
            check_condition_3_1(group, 4)
        assert caught.value.code == "not-invariant-cells"
    with pytest.raises(DegreeMismatch):
        check_condition_3_1(sym(4), 4)


def _grid_symmetry(m: int, rng: random.Random) -> Permutation:
    """A seeded element of S2 x Sm on the 2 x m grid: a column permutation
    followed by the row swap."""
    columns = list(range(m))
    rng.shuffle(columns)
    return Permutation([(1 - x // m) * m + columns[x % m] for x in range(2 * m)])


def test_condition_3_1_matches_the_derived_action_reference():
    rng = random.Random(3)
    cases = [(PermutationGroup(8, []), 4)]
    for m in (3, 4, 5):
        for sub in enumerate_subgroups(wreath_grid(m)):
            cases += [(sub, m), (sub.relabeled(_grid_symmetry(m, rng)), m)]
    columns = [f(n) for f in (sym, alt, cyclic, dihedral) for n in range(3, 7)]
    cases += [(direct_product(sym(2), h), h.degree)
              for h in columns + [agl1(5), psl25()]]
    verdicts = set()
    for group, m in cases:
        check = check_condition_3_1(group, m)
        assert check == reference_condition_3_1(group, m)
        verdicts.add((check.satisfied, check.projects_onto_swap,
                      check.kernel_two_transitive, check.kernel_three_transitive))
    assert len(cases) == 1 + 2 * (16 + 98 + 535) + 18
    # every flag combination a subgroup of S2 x Sm can show occurs
    assert len(verdicts) == 6


@pytest.mark.parametrize("factory", [lambda: condition_3_1_examples(5)[0],
                                     lambda: wreath_grid(5)],
                         ids=["witness", "wreath_grid"])
def test_condition_3_1_builds_one_chain(factory, chain_builds):
    built = factory()
    group = PermutationGroup(built.degree, built.generators)
    chain_builds.clear()
    check_condition_3_1(group, 5)
    assert len(chain_builds) == 1


def test_grid_lattice_decisions_build_no_chain_on_intransitive_subgroups(chain_builds):
    # L3.2's sweep, one subgroup at a time: the order is the enumerated
    # element count, both deciders stop at "not vertex-transitive" on an
    # intransitive subgroup, and the grid condition builds its kernel's chain
    graph = grid_complement(4).graph
    subgroups = enumerate_subgroups(wreath_grid(4))
    intransitive = qualifying = 0
    for sub in subgroups:
        chain_builds.clear()
        order = sub.order()
        dt2 = bool(is_s_distance_transitive(graph, sub, 2))
        at2 = bool(is_s_arc_transitive(graph, sub, 2))
        if not sub.is_transitive():
            assert chain_builds == []
            intransitive += 1
        built = len(chain_builds)
        condition = check_condition_3_1(sub, 4)
        assert len(chain_builds) == built + 1
        elements = sub.elements()
        assert order == brute_order(sub.generators)
        assert dt2 == brute_is_2dt(graph, elements)
        assert at2 == brute_arc_check(graph, sub, 2)[0]
        assert condition == reference_condition_3_1(sub, 4)
        assert condition.satisfied == (dt2 and not at2)
        qualifying += condition.satisfied
    assert (len(subgroups), intransitive, qualifying) == (98, 82, 2)


def test_condition_3_1_reads_the_kernel_flags_off_its_chain(monkeypatch):
    def no_pair_walk(gens, items, act):
        raise AssertionError("the grid condition walked the column pairs")

    # the reference walks pairs: decide it before the walk is refused
    cases = [(sub, m, reference_condition_3_1(sub, m))
             for m in (4, 5) for sub in enumerate_subgroups(wreath_grid(m))]
    # the one tuple-orbit walk, under both names it is bound to
    monkeypatch.setattr(actions_module, "_count_orbits", no_pair_walk)
    monkeypatch.setattr(classify_module, "_count_orbits", no_pair_walk)
    for sub, m, reference in cases:
        assert check_condition_3_1(sub, m) == reference


def test_kantor_conditions():
    assert check_kantor_conditions(two_homog_frobenius(7)).status == "verified"
    verdict = check_kantor_conditions(two_homog_frobenius(11))
    assert verdict.status == "verified"
    assert verdict.evidence["order"] == 55
    assert check_kantor_conditions(sym(4)).status == "skipped"


def test_classify_icosahedron_rows():
    graph = icosahedron().graph
    for group in (icosahedral_rotations(), icosahedral()):
        report = classify_pair(graph, group)
        assert report.matched_row == ROW_ICOSAHEDRON
        assert report.distance_transitive == {1: True, 2: True}
        assert report.arc_transitive[2] is False
        assert report.valency == 5 and report.girth == 3


def test_classify_line_graph_row():
    lp, _ = line_graph(petersen().graph)
    report = classify_pair(lp, edge_action(petersen_sym5(), petersen().graph))
    assert report.matched_row == ROW_LINE_GRAPH
    assert report.neighborhood["second_layer_size"] == 8
    assert report.two_geodesic_transitive


def test_classify_octahedron_and_rook():
    assert classify_pair(octahedron().graph, octahedral()).matched_row == ROW_OCTAHEDRON
    assert classify_pair(hamming(2, 3).graph, hamming_full(2, 3)).matched_row == ROW_HAMMING_2_3


def test_classify_grid_rows():
    report = classify_pair(grid_complement(4).graph, direct_product(sym(2), alt(4)))
    assert report.matched_row == ROW_GRID_COMPLEMENT_4
    report5 = classify_pair(grid_complement(5).graph, direct_product(sym(2), agl1(5)))
    assert report5.matched_row == "grid_complement(5)"
    report6 = classify_pair(grid_complement(6).graph, direct_product(sym(2), psl25()))
    assert report6.matched_row == "grid_complement(6)"


def test_classify_octahedron_index2_subgroups():
    from symclass import enumerate_subgroups, induced_action
    graph = octahedron().graph
    blocks = [{0, 3}, {1, 4}, {2, 5}]
    for sub in enumerate_subgroups(octahedral()):
        if sub.order() != 24:
            continue
        report = classify_pair(graph, sub)
        image_order = induced_action(sub, blocks)[0].order()
        if image_order == 6:
            assert report.matched_row == ROW_OCTAHEDRON
        else:
            assert not report.distance_transitive[2]
            assert report.matched_row is None


def test_classify_k44_is_2at_hence_no_row():
    report = classify_pair(complete_bipartite(4, 4).graph, wreath_bipartite(4))
    assert report.distance_transitive[2] and report.arc_transitive[2]
    assert report.matched_row is None


def test_classify_complete_graph():
    report = classify_pair(complete(5).graph, sym(5))
    assert not report.distance_transitive[2]
    assert report.two_geodesic_transitive is None
    assert report.matched_row is None


def test_classify_hamming_frobenius_instance():
    report = classify_pair(hamming(7, 2).graph,
                           wreath_hamming(two_homog_frobenius(7), 7))
    assert report.distance_transitive[2] and not report.arc_transitive[2]
    assert report.matched_row is None  # valency 7 is outside the catalog
    assert report.intersection_triples[2][0] == 2


def test_shortcut_records_agree():
    pairs = [
        (octahedron().graph, octahedral()),
        (cycle(5).graph, dihedral(5)),
        (petersen().graph, petersen_sym5()),
        (icosahedron().graph, icosahedral()),
    ]
    for graph, group in pairs:
        report = classify_pair(graph, group)
        for record in report.shortcuts.values():
            assert record["agrees"]


def test_classify_validation_errors():
    with pytest.raises(DegreeMismatch):
        classify_pair(octahedron().graph, sym(4))
    with pytest.raises(DisconnectedGraph):
        classify_pair(Graph(4, [(0, 1), (2, 3)]), PermutationGroup(4, []))
    with pytest.raises(NotAnAutomorphismGroup):
        classify_pair(octahedron().graph, sym(6))


def test_report_serializes():
    report = classify_pair(octahedron().graph, octahedral())
    data = report.to_dict()
    assert data["graph"]["valency"] == 4
    assert data["matched_row"] == ROW_OCTAHEDRON
    assert data["distance_transitive"]["2"] is True
    import json
    json.dumps(data)  # must be JSON-serializable


def _relabeled(graph, group, seed):
    phi = Permutation(random.Random(seed).sample(range(graph.n), graph.n))
    return graph.relabel(phi), group.relabeled(phi)


def _catalog_rows():
    petersen_graph = petersen().graph
    return [
        (ROW_GRID_COMPLEMENT_4, grid_complement(4).graph, direct_product(sym(2), alt(4))),
        (ROW_OCTAHEDRON, octahedron().graph, octahedral()),
        (ROW_HAMMING_2_3, hamming(2, 3).graph, hamming_full(2, 3)),
        (ROW_LINE_GRAPH, line_graph(petersen_graph)[0],
         edge_action(petersen_sym5(), petersen_graph)),
        (ROW_GRID_COMPLEMENT_5, grid_complement(5).graph, direct_product(sym(2), agl1(5))),
        (ROW_ICOSAHEDRON, icosahedron().graph, icosahedral_rotations()),
        (ROW_GRID_COMPLEMENT_6, grid_complement(6).graph, direct_product(sym(2), psl25())),
    ]


def test_catalog_rows_match_with_the_automorphism_search_capped_below_15(monkeypatch):
    # the rows are recognised by their structure, so L(Petersen) (15 vertices)
    # reaches the line-graph row past a cap that every row graph exceeds
    monkeypatch.setattr(autgroup_module, "SIZE_CAP", 5)
    for row, graph, group in _catalog_rows():
        assert classify_pair(graph, group).matched_row == row


def _recognisers() -> dict:
    """Each structural recogniser with its family graph, by family name."""
    out = {f"grid_complement({m})": (lambda g, m=m: classify_module._grid_labelling(g, m),
                                     grid_complement(m).graph) for m in range(3, 9)}
    out.update({f"complete_bipartite({k},{k})": (
        lambda g, k=k: classify_module._is_complete_bipartite(g, k),
        complete_bipartite(k, k).graph) for k in range(2, 9)})
    for row, family in ((ROW_OCTAHEDRON, octahedron()), (ROW_HAMMING_2_3, hamming(2, 3)),
                        (ROW_ICOSAHEDRON, icosahedron())):
        out[row] = (lambda g, row=row: classify_module._locally_regular(
            g, *classify_module._LOCAL_SHAPES[row]), family.graph)
    return out


def _wagner() -> Graph:
    """3-regular and triangle-free on 8 vertices, like grid_complement(4), but
    not bipartite."""
    return Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def test_grid_labelling_is_checked_edge_by_edge(monkeypatch):
    monkeypatch.setattr(classify_module, "_bipartite", lambda g: True)
    with pytest.raises(InternalCheckFailed) as raised:
        classify_module._grid_labelling(_wagner(), 4)
    assert raised.value.code == "internal-check-failed"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recognisers_agree_with_is_isomorphic(seed):
    rng = random.Random(seed)
    # the 3-prism is 3-regular on 6 vertices, like K_{3,3}
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    graphs = [_wagner(), prism]
    for pair in standard_corpus():
        graphs += [pair.graph, _relabeled(pair.graph, pair.group, seed)[0]]
    graphs += [random_connected_regular(rng, n, k) for n in range(6, 17) for k in (3, 4, 5)
               if n * k % 2 == 0]
    recognisers = _recognisers()
    recognised = set()
    for graph in graphs:
        for name, (recognise, family) in recognisers.items():
            verdict = recognise(graph)
            expected = graph.n == family.n and bool(is_isomorphic(graph, family))
            assert bool(verdict) == expected, name
            if expected:
                recognised.add(name)
            if isinstance(verdict, tuple):
                assert graph.relabel(Permutation(verdict)) == family
    assert recognised == {*(f"grid_complement({m})" for m in range(3, 7)),
                          *(f"complete_bipartite({k},{k})" for k in range(2, 6)),
                          ROW_OCTAHEDRON, ROW_HAMMING_2_3, ROW_ICOSAHEDRON}


def test_reference_is_built_once_per_process(monkeypatch):
    graph, group = _relabeled(grid_complement(5).graph,
                              direct_product(sym(2), agl1(5)), seed=11)
    built = []
    monkeypatch.setattr(families_module, "grid_complement", lambda m: built.append(m))

    def refuse(g):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(autgroup_module, "canonical_form", refuse)
    # the row is recognised by structure: no reference graph is built or
    # canonicalised, on the first call or any later one
    for _ in range(2):
        assert classify_pair(graph, group).matched_row == ROW_GRID_COMPLEMENT_5
    assert built == []


def test_classify_pair_builds_one_chain_on_the_input_group(chain_builds):
    built = wreath_hamming(sym(3), 3)
    # a fresh group: the constructor's order check already built a chain on its own
    group = PermutationGroup(built.degree, built.generators)
    graph = hamming(3, 2).graph
    chain_builds.clear()
    report = classify_pair(graph, group)
    assert report.group_order == 48
    assert chain_builds.count(group.generators) == 1


def test_two_arc_cross_check_raises_a_coded_error(monkeypatch):
    real = classify_module._neighbor_pair_orbits

    def wrong_count(g, group):
        # one orbit where there are several, and two where there is one
        return 2 if real(g, group) == 1 else 1

    monkeypatch.setattr(classify_module, "_neighbor_pair_orbits", wrong_count)
    for graph, group in ((octahedron().graph, octahedral()),
                         (petersen().graph, petersen_sym5())):
        with pytest.raises(InternalCheckFailed, match="2-arc criteria disagree") as info:
            is_s_arc_transitive(graph, group, 2)
        assert info.value.code == "internal-check-failed"
        with pytest.raises(InternalCheckFailed) as info:
            classify_pair(graph, group)
        assert info.value.code == "internal-check-failed"


def test_classify_pair_builds_no_chain_twice(chain_builds):
    built = wreath_hamming(sym(3), 3)
    group = PermutationGroup(built.degree, built.generators)
    graph = hamming(3, 2).graph
    chain_builds.clear()
    classify_pair(graph, group)
    # G only: the arc, 2-geodesic and neighbour-pair orbits are walked with
    # the generators of G_0, which are read off G's chain
    assert chain_builds == [group.generators]


def test_classify_pair_builds_one_chain_per_corpus_pair(chain_builds):
    for pair in standard_corpus():
        group = PermutationGroup(pair.group.degree, pair.group.generators)
        chain_builds.clear()
        row = classify_pair(pair.graph, group).matched_row
        # plus one where a row matcher builds its own: the grid condition's
        # column kernel, or the octahedron's projection onto its antipodes
        matcher_chains = int(row is not None and (row.startswith("grid_complement")
                                                  or row == ROW_OCTAHEDRON))
        assert chain_builds[0] == group.generators, pair.name
        assert len(chain_builds) == 1 + matcher_chains, pair.name
        assert group.generators not in chain_builds[1:], pair.name


def test_classify_pair_on_a_built_chain_builds_none(chain_builds):
    graph, group = hamming(9, 2).graph, hamming_full(9, 2)
    group.order()
    chain_builds.clear()
    report = classify_pair(graph, group)
    assert chain_builds == []
    assert report.arc_transitive == {1: True, 2: True}
    assert report.neighborhood["orbits_on_ordered_neighbor_pairs"] == 1


def _fresh_copy(graph: Graph) -> Graph:
    """An equal graph that keeps no partition yet (the family constructors
    layer their graphs from 0 when they check them)."""
    return Graph(graph.n, graph.edges())


def test_vertex_transitive_pair_is_layered_once_from_0(layerings):
    graph, group = _fresh_copy(hamming(3, 2).graph), wreath_hamming(sym(3), 3)
    layerings.clear()
    for _ in range(2):
        report = classify_pair(graph, group)
        assert (report.girth, report.diameter) == (4, 3)
    assert [(g is graph, *walk) for g, *walk in layerings] == [(True, (0,), None)]


def test_validation_layering_is_the_one_every_verdict_reads(layerings):
    # the connectivity check is the layering from 0, not a separate walk, and
    # it is kept: every later decider on the same graph reads it
    graph, group = _fresh_copy(hamming(3, 2).graph), wreath_hamming(sym(3), 3)
    layerings.clear()
    for decide in (lambda: classify_pair(graph, group),
                   lambda: is_s_distance_transitive(graph, group, 2),
                   lambda: is_s_arc_transitive(graph, group, 2),
                   lambda: is_2_geodesic_transitive(graph, group),
                   lambda: _subgroup_flags(graph, group, [group])):
        decide()
        assert [(g is graph, *walk) for g, *walk in layerings] == [(True, (0,), None)]


def test_public_deciders_over_a_lattice_layer_the_graph_once(layerings):
    graph = _fresh_copy(octahedron().graph)
    subgroups = enumerate_subgroups(octahedral())
    layerings.clear()
    flags = [(bool(is_s_distance_transitive(graph, sub, 2)),
              bool(is_s_arc_transitive(graph, sub, 2))) for sub in subgroups]
    assert flags == _subgroup_flags(graph, octahedral(), subgroups)
    assert [(g is graph, *walk) for g, *walk in layerings] == [(True, (0,), None)]


def test_intransitive_pair_keeps_the_girth_and_diameter_of_the_whole_graph():
    # triangles 1 6 7 and 3 4 5 joined through 0 and 2: cubic, and vertex 0
    # lies on 4-cycles only and has eccentricity 2
    graph = Graph(8, [(0, 1), (0, 2), (0, 4), (1, 6), (1, 7), (2, 5), (2, 6),
                      (3, 4), (3, 5), (3, 7), (4, 5), (6, 7)])
    assert bfs_cycle_length(graph, 0) == 4
    assert distance_partition(graph, 0).eccentricity == 2
    for group in (PermutationGroup(8, []), automorphism_group(graph)):
        assert not group.is_transitive()
        report = classify_pair(graph, group)
        assert (report.girth, report.diameter) == (girth(graph), diameter(graph)) == (3, 3)


def test_classify_pair_walks_no_orbit_twice(monkeypatch):
    """Every orbit a decider reads comes from a group's kept partition, so
    one classify_pair walks no orbit twice under the same generators."""
    assert not hasattr(classify_module, "point_orbit")
    walks = []
    real = group_module.point_orbit

    def recording(generators, x):
        orbit = real(generators, x)
        walks.append((tuple(generators), frozenset(orbit)))
        return orbit

    monkeypatch.setattr(group_module, "point_orbit", recording)
    for pair in standard_corpus():
        group = PermutationGroup(pair.group.degree, pair.group.generators)
        walks.clear()
        classify_pair(pair.graph, group)
        assert walks, pair.name
        assert len(set(walks)) == len(walks), pair.name


def _random_word(rng, group):
    word = Permutation.identity(group.degree)
    for _ in range(rng.randint(1, 12)):
        word = word * rng.choice(group.generators)
    return word


def test_layer_orbit_counts_match_the_layer_walk(layerings):
    rng = random.Random(7)
    for pair in standard_corpus():
        graph = _fresh_copy(pair.graph)
        layerings.clear()
        dp = distance_partition(graph, 0)
        # the pair's group, and subgroups of it generated by one or two random
        # words (mostly intransitive; they still preserve the graph)
        groups = [pair.group] + [
            PermutationGroup(pair.group.degree,
                             [_random_word(rng, pair.group) for _ in range(rng.randint(1, 2))])
            for _ in range(4)]
        for group in groups:
            stab = group.point_stabilizer(0)
            expected = [walk_layer_orbit_counts(stab, layer) for layer in dp.layers]
            assert classify_module._layer_orbit_counts(graph, group) == expected, pair.name
        # every group's counts read the one partition the graph keeps
        assert [(g is graph, *walk) for g, *walk in layerings] == [(True, (0,), None)], pair.name
