import inspect
import json
import random
from pathlib import Path

import pytest

from conftest import _reference_distances_from_set, python_stdout

import symclass.autgroup as autgroup_module
import symclass.classify as classify_module
import symclass.graphs as graphs_module
import symclass.subgroups as subgroups_module
from symclass import (
    CLAIM_DESCRIPTIONS,
    CLAIM_IDS,
    Budget,
    Graph,
    Permutation,
    classify_pair,
    distance_partition,
    enumerate_subgroups,
    girth,
    intersection_numbers,
    is_complete,
    is_s_arc_transitive,
    is_s_distance_transitive,
    verify_all_claims,
    verify_claim,
)
from symclass import claims as claims_module
from symclass import families
from symclass.claims import (
    CATALOG_ROWS,
    NEAR_MISSES,
    _psi_is_bijection,
    corpus_profiles,
    girth4_graph_corpus,
    standard_corpus,
)
from symclass.errors import UnknownClaim


def test_claim_ids_have_descriptions():
    assert set(CLAIM_IDS) == set(CLAIM_DESCRIPTIONS)


def test_unknown_claim():
    with pytest.raises(UnknownClaim, match="known claims"):
        verify_claim("L9.9")


def test_claim_lookup_is_case_insensitive():
    assert verify_claim("l4.1").status == "verified"


def test_corpus_is_consistent():
    profiles = corpus_profiles()
    assert len(profiles) == len(standard_corpus()) >= 20
    names = [p.name for p in profiles]
    assert len(set(names)) == len(names)


def test_profiles_match_the_deciders():
    """Each profile fact, read off one report, equals the separate computation
    that used to produce it."""
    for p in corpus_profiles():
        g, group = p.graph, p.group
        inter = intersection_numbers(g, 0)
        assert p.girth == girth(g), p.name
        assert p.valency == g.valency(), p.name
        assert p.complete == is_complete(g), p.name
        assert p.dt2 == bool(is_s_distance_transitive(g, group, 2)), p.name
        assert p.at2 == bool(is_s_arc_transitive(g, group, 2)), p.name
        assert p.c2 == (inter.c(2) if len(inter.triples) > 2 else None), p.name
        assert p.second_layer == len(distance_partition(g, 0).layer(2)), p.name


def test_claim_suite_classifies_each_corpus_pair_once(monkeypatch):
    calls = []
    real = claims_module.classify_pair

    def counting(graph, group):
        calls.append((id(graph), id(group)))
        return real(graph, group)

    monkeypatch.setattr(claims_module, "classify_pair", counting)
    corpus_profiles.cache_clear()
    assert all(v.status == "verified" for v in verify_all_claims())
    assert len(set(calls)) == len(calls) <= len(standard_corpus())


def test_catalog_rows_claim_builds_and_classifies_nothing(monkeypatch):
    corpus_profiles()
    built = []
    for name, obj in vars(families).items():
        if inspect.isfunction(obj) and obj.__module__ == families.__name__:
            monkeypatch.setattr(families, name,
                                lambda *args, _name=name: built.append(_name))
    monkeypatch.setattr(claims_module, "classify_pair",
                        lambda *args: built.append("classify_pair"))
    assert verify_claim("T1.3").status == "verified"
    assert built == []


def test_catalog_tables_name_corpus_pairs():
    names = {pair.name for pair in standard_corpus()}
    assert {pair for _, pair, _, _ in CATALOG_ROWS} <= names
    assert set(NEAR_MISSES) <= names
    assert len({row for row, _, _, _ in CATALOG_ROWS}) == len(CATALOG_ROWS) == 7


def test_girth_shortcut_claim():
    verdict = verify_claim("L2.2")
    assert verdict.status == "verified"
    assert verdict.evidence["failures"] == []
    assert verdict.evidence["girth3_implications"] >= 3


def test_grid_complement_equivalence_claim():
    verdict = verify_claim("L3.2")
    assert verdict.status == "verified"
    assert verdict.evidence["m4_subgroups"] == 98
    assert verdict.evidence["m4_condition_count"] == 2
    assert verdict.evidence["m4_discrepancies"] == []


def test_complete_bipartite_claim():
    verdict = verify_claim("L3.3")
    assert verdict.status == "verified"
    assert verdict.evidence["discrepancies"] == []
    assert verdict.evidence["m2_subgroups"] == 10


def test_octahedron_claim():
    verdict = verify_claim("L3.4")
    assert verdict.status == "verified"
    assert verdict.evidence["two_dt_orders"] == [24, 24, 48]
    assert verdict.evidence["index2_block_image_orders"] == [3, 6, 6]
    assert verdict.evidence["cyclic_block_image_subgroup_is_2dt"] is False
    assert verdict.evidence["any_2at"] is False


def test_icosahedron_claim():
    verdict = verify_claim("L3.5")
    assert verdict.status == "verified"
    assert verdict.evidence["two_dt_orders"] == [60, 120]


def test_girth4_identity_claim():
    verdict = verify_claim("L4.1")
    assert verdict.status == "verified"
    assert verdict.evidence["graphs"] == 13
    assert verdict.evidence["failures"] == []


def _brute_psi_is_bijection(graph: Graph, u: int) -> bool:
    """Every 2-subset of the neighbourhood has exactly one common neighbour at
    distance 2 from ``u``, and every vertex at distance 2 sees exactly two
    neighbours of ``u``: the map w -> Γ(w) ∩ Γ(u) is a bijection onto the
    2-subsets, read off the whole graph's distances."""
    dist = _reference_distances_from_set(graph, [u])
    second = [w for w in range(graph.n) if dist[w] == 2]
    nbrs = graph.adjacency[u]
    return (all(sum(graph.has_edge(w, x) for x in nbrs) == 2 for w in second)
            and all(sum(graph.has_edge(w, a) and graph.has_edge(w, b) for w in second) == 1
                    for i, a in enumerate(nbrs) for b in nbrs[i + 1:]))


def test_psi_bijection_matches_the_2_subset_oracle():
    graphs = [families.hamming(d, 2).graph for d in range(3, 8)]
    # and graphs where it fails: c2 = 3, c2 = 4, c2 = 1 and c2 = 2 with girth 3
    graphs += [families.complete_bipartite(3, 3).graph, families.grid_complement(6).graph,
               families.petersen().graph, families.hamming(2, 3).graph]
    verdicts = set()
    for g in graphs:
        for u in range(g.n):
            verdict = _psi_is_bijection(g, u, g.degree(u))
            assert verdict == _brute_psi_is_bijection(g, u), (g, u)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_claim_suite_layers_each_graph_in_full_from_0_only(layerings):
    # L4.1 and L4.2 read each vertex's 2-ball (layers 0-2), not the whole
    # graph; the full layerings left are the ones from 0 that connectivity and
    # the family shape checks keep, and no graph keeps any other partition
    for cached in (girth4_graph_corpus, standard_corpus, corpus_profiles):
        cached.cache_clear()
    layerings.clear()
    assert all(v.status == "verified" for v in verify_all_claims())
    # 13 full walks from 0 as the girth-4 graphs are built and checked, 26 for
    # the other claims; 322 + 141 2-balls for L4.1 and L4.2 (L4.1 slices the
    # kept partition from 0 of the 10 graphs the family checks layered)
    assert sum(depth is None for _, _, depth in layerings) == 39
    assert {sources for _, sources, depth in layerings if depth is None} == {(0,)}
    assert sum(depth == 2 for _, _, depth in layerings) == 463 == len(layerings) - 39
    graphs = [g for _, g in girth4_graph_corpus()] + [p.graph for p in standard_corpus()]
    assert all(list(g._partitions) == [0] for g in graphs)


def test_c2_equals_2_claim():
    verdict = verify_claim("L4.2")
    assert verdict.status == "verified"
    assert "hamming(7,2)+s2wr_frobenius21" in verdict.evidence["qualifying_pairs"]


def test_hamming_instance_claim():
    verdict = verify_claim("L4.3")
    assert verdict.status == "verified"
    assert verdict.evidence["stabilizer_order"] == 21
    assert verdict.evidence["coordinate_flips_are_members"]


def test_c2_boundary_claim():
    verdict = verify_claim("L4.4")
    assert verdict.status == "verified"
    assert verdict.evidence["c2_equals_k"] >= 3
    assert verdict.evidence["c2_equals_k_minus_1"] >= 3


def test_c2_range_claim():
    verdict = verify_claim("T1.1")
    assert verdict.status == "verified"
    assert verdict.evidence["failures"] == []


def test_prime_valency_claim():
    verdict = verify_claim("C1.2")
    assert verdict.status == "verified"
    assert verdict.evidence["part_iii"] == "no qualifying instance in corpus"


def test_catalog_rows_claim():
    verdict = verify_claim("T1.3")
    assert verdict.status == "verified"
    assert verdict.evidence["rows_matched"] == 7
    assert verdict.evidence["near_misses_clear"] == 3


def test_budget_skip():
    verdict = verify_claim("L3.4", Budget(subgroup_order_cap=10))
    assert verdict.status == "skipped"
    assert "budget" in verdict.reason
    assert verdict.to_dict()["reason"]


def test_claims_and_catalog_rows_compute_no_canonical_form(monkeypatch):
    # the rows and the girth-4 claims recognise their graphs by structure
    def refuse(g):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(autgroup_module, "canonical_form", refuse)
    assert {verdict.status for verdict in verify_all_claims()} == {"verified"}
    pairs = {pair.name: pair for pair in standard_corpus()}
    for row, name, _, _ in CATALOG_ROWS:
        graph, group = pairs[name].graph, pairs[name].group
        phi = Permutation(random.Random(7).sample(range(graph.n), graph.n))
        assert classify_pair(graph.relabel(phi), group.relabeled(phi)).matched_row == row


def test_girth4_claims_build_and_canonicalize_no_reference(monkeypatch):
    claims = ("L4.4", "T1.1", "C1.2")
    # the first run warms the corpus
    assert all(verify_claim(claim).status == "verified" for claim in claims)
    built = []
    for module in (families, classify_module):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == families.__name__:
                monkeypatch.setattr(module, name,
                                    lambda *args, _name=name: built.append(_name))

    def refuse(g):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(autgroup_module, "canonical_form", refuse)
    assert all(verify_claim(claim).status == "verified" for claim in claims)
    assert built == []


@pytest.mark.parametrize("build", [
    lambda: (families.octahedron().graph, families.octahedral()),
    lambda: (families.grid_complement(4).graph, families.wreath_grid(4)),
], ids=["octahedron", "grid_complement(4)"])
def test_subgroup_flags_match_the_public_deciders(monkeypatch, build):
    built, full = build()
    # a fresh copy: the family constructor layered its graph from 0
    graph = Graph(built.n, built.edges())
    subgroups = enumerate_subgroups(full)
    calls = []

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    recording(claims_module, "_validate_pair")
    recording(graphs_module, "_bfs_layers")
    flags = claims_module._subgroup_flags(graph, full, subgroups)
    # one validation and one layering for all the subgroups, and the public
    # deciders read the layering the sweep left on the graph
    assert calls == ["_validate_pair", "_bfs_layers"]
    assert flags == [(bool(is_s_distance_transitive(graph, sub, 2)),
                      bool(is_s_arc_transitive(graph, sub, 2))) for sub in subgroups]
    assert calls == ["_validate_pair", "_bfs_layers"]


def test_lattice_claims_read_subgroup_classes_only(monkeypatch):
    # L3.2-L3.5 decide one subgroup per conjugacy class and weight each
    # verdict by the class length; the evidence is the golden one
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_subgroups called")

    monkeypatch.setattr(subgroups_module, "enumerate_subgroups", refuse)
    monkeypatch.setattr(claims_module, "enumerate_subgroups", refuse, raising=False)
    golden = {c["claim"]: c for c in json.loads(
        (Path(__file__).parent / "golden" / "verify_paper_all.json").read_text())["claims"]}
    for claim in ("L3.2", "L3.3", "L3.4", "L3.5"):
        verdict = verify_claim(claim)
        assert verdict.status == "verified"
        assert verdict.evidence == golden[claim]["evidence"]


def test_claim_suite_builds_no_chain_over_hamming_full_7_2():
    # a fresh interpreter, so no corpus cache is warm
    code = (
        "from symclass import StabilizerChain\n"
        "from symclass.claims import verify_all_claims\n"
        "from symclass.families import hamming_full\n"
        "built = []\n"
        "original = StabilizerChain.__init__\n"
        "def counting(self, degree, generators, base_prefix=()):\n"
        "    built.append(tuple(generators))\n"
        "    original(self, degree, built[-1], base_prefix)\n"
        "StabilizerChain.__init__ = counting\n"
        "statuses = {v.status for v in verify_all_claims()}\n"
        "StabilizerChain.__init__ = original\n"
        "print(len(built), hamming_full(7, 2).generators in built, *statuses)\n"
    )
    count, hamming_chain, *statuses = python_stdout("-c", code).split()
    assert statuses == ["verified"]
    assert int(count) <= 260
    assert hamming_chain == "False"
