import random

import pytest

from conftest import (
    brute_aut_order,
    reference_automorphism_group,
    reference_canonical_form,
    unpruned_canonical_form,
)

import symclass.autgroup as autgroup_module
from symclass import (
    Graph,
    Permutation,
    StabilizerChain,
    automorphism_group,
    canonical_form,
    complement,
    is_isomorphic,
    line_graph,
)
from symclass.errors import InternalCheckFailed, SizeCapExceeded
from symclass.families import (
    complete,
    complete_bipartite,
    cycle,
    grid_complement,
    hamming,
    icosahedron,
    octahedron,
    petersen,
    preserves_graph,
)

SMALL_GRAPHS = [
    complete(4).graph,
    cycle(5).graph,
    cycle(6).graph,
    octahedron().graph,
    grid_complement(4).graph,
    complete_bipartite(2, 3).graph,
    Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),   # path
    Graph(4, [(0, 1), (2, 3)]),                   # disconnected matching
    Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)]),   # triangle + edge + isolate
]


@pytest.mark.parametrize("graph", SMALL_GRAPHS, ids=range(len(SMALL_GRAPHS)))
def test_order_matches_brute_force(graph):
    assert automorphism_group(graph).order() == brute_aut_order(graph)


def test_known_orders():
    assert automorphism_group(hamming(2, 3).graph).order() == 72
    assert automorphism_group(icosahedron().graph).order() == 120
    assert automorphism_group(petersen().graph).order() == 120
    assert automorphism_group(complete_bipartite(5, 5).graph).order() == 28800


def test_generators_preserve_adjacency():
    for graph in SMALL_GRAPHS + [petersen().graph]:
        for gen in automorphism_group(graph).generators:
            assert preserves_graph(gen, graph)


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(7)
    for graph in SMALL_GRAPHS + [petersen().graph, hamming(3, 2).graph]:
        canonical, _ = canonical_form(graph)
        for _ in range(3):
            images = list(range(graph.n))
            rng.shuffle(images)
            shuffled = graph.relabel(Permutation(images)) if graph.n else graph
            assert canonical_form(shuffled)[0] == canonical


def test_canonical_form_is_idempotent():
    for graph in SMALL_GRAPHS:
        canonical, _ = canonical_form(graph)
        assert canonical_form(canonical)[0] == canonical


def test_canonical_labeling_is_a_bijection_onto_the_graph():
    for graph in SMALL_GRAPHS:
        canonical, labeling = canonical_form(graph)
        if graph.n == 0:
            continue
        assert graph.relabel(Permutation(labeling)) == canonical


def test_grid_complement_4_is_the_binary_3_cube():
    assert canonical_form(grid_complement(4).graph)[0] == canonical_form(hamming(3, 2).graph)[0]


def test_octahedron_is_line_graph_of_k4():
    lg, _ = line_graph(complete(4).graph)
    result = is_isomorphic(octahedron().graph, lg)
    assert result
    mapping = result.mapping
    g = octahedron().graph
    assert all(lg.has_edge(mapping[u], mapping[v]) for u, v in g.edges())


def test_non_isomorphic_pairs():
    assert not is_isomorphic(cycle(5).graph, cycle(6).graph)
    assert not is_isomorphic(cycle(5).graph, complement(cycle(6).graph))
    assert not is_isomorphic(petersen().graph, cycle(10).graph)


def test_isomorphic_after_relabeling():
    rng = random.Random(3)
    for graph in (petersen().graph, octahedron().graph):
        images = list(range(graph.n))
        rng.shuffle(images)
        shuffled = graph.relabel(Permutation(images))
        result = is_isomorphic(graph, shuffled)
        assert result
        assert all(shuffled.has_edge(result.mapping[u], result.mapping[v])
                   for u, v in graph.edges())


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        automorphism_group(Graph(65))
    with pytest.raises(SizeCapExceeded):
        canonical_form(Graph(65))


def test_empty_and_singleton():
    assert is_isomorphic(Graph(0), Graph(0))
    one = Graph(1)
    group = automorphism_group(one)
    assert group.order() == 1
    assert all(g.images == (0,) for g in group.generators)
    assert canonical_form(one) == (one, (0,))
    result = is_isomorphic(one, Graph(1))
    assert result and result.mapping == (0,)


def test_witness_rejects_a_wrong_labeling(monkeypatch):
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    other = Graph(4, [(0, 1), (1, 2), (2, 3)])
    real_canonical_form = autgroup_module.canonical_form

    def swapped(g):
        canonical, labeling = real_canonical_form(g)
        if g is other:
            # end vertex 0 and inner vertex 1 swap canonical positions: still
            # a bijection, but no longer a relabeling of the path onto its form
            labeling = (labeling[1], labeling[0], *labeling[2:])
        return canonical, labeling

    monkeypatch.setattr(autgroup_module, "canonical_form", swapped)
    with pytest.raises(InternalCheckFailed) as raised:
        is_isomorphic(path, other)
    assert raised.value.code == "internal-check-failed"


def _shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1), +-(1,1)."""
    steps = [(1, 0), (0, 1), (1, 1)]
    return Graph(16, [(4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
                      for a in range(4) for b in range(4) for x, y in steps])


def _disjoint_cycles(copies: int, length: int) -> Graph:
    return Graph(copies * length, [(length * c + i, length * c + (i + 1) % length)
                                   for c in range(copies) for i in range(length)])


REFERENCE_GRAPHS = {
    **{f"hamming({d},2)": (lambda d=d: hamming(d, 2).graph) for d in range(2, 6)},
    **{f"grid_complement({m})": (lambda m=m: grid_complement(m).graph) for m in range(3, 8)},
    "petersen": lambda: petersen().graph,
    "line(petersen)": lambda: line_graph(petersen().graph)[0],
    "icosahedron": lambda: icosahedron().graph,
    "hamming(2,4)": lambda: hamming(2, 4).graph,
    "shrikhande": _shrikhande,
    **{f"{k}K3": (lambda k=k: _disjoint_cycles(k, 3)) for k in range(1, 7)},
    "4C6": lambda: _disjoint_cycles(4, 6),
}


def _relabelings(graph: Graph, seed: int, count: int = 3) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        images = list(range(graph.n))
        rng.shuffle(images)
        out.append(graph.relabel(Permutation(images)))
    return out


def _reference_isomorphism(g1: Graph, g2: Graph):
    c1, l1 = reference_canonical_form(g1)
    c2, l2 = reference_canonical_form(g2)
    if c1 != c2:
        return False, None
    inverse2 = Permutation(l2).inverse()
    return True, tuple(inverse2.images[l1[v]] for v in range(g1.n))


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_search_matches_the_reference_search(name):
    graph = REFERENCE_GRAPHS[name]()
    relabeled = _relabelings(graph, seed=sum(map(ord, name)))
    for g in relabeled:
        # the leaf-up search finds another generating set of the same group
        group = automorphism_group(g)
        reference_gens = reference_automorphism_group(g).generators
        reference = StabilizerChain(g.n, reference_gens)
        assert group.order() == reference.order()
        assert all(reference.contains(p) for p in group.generators)
        assert all(p in group for p in reference_gens)
        assert canonical_form(g) == reference_canonical_form(g)
    for g1, g2 in zip(relabeled, relabeled[1:] + [graph]):
        result = is_isomorphic(g1, g2)
        assert (result.isomorphic, result.mapping) == _reference_isomorphism(g1, g2)


@pytest.mark.parametrize("left,right", [("hamming(2,4)", "shrikhande"),
                                        ("grid_complement(4)", "hamming(3,2)"),
                                        ("grid_complement(3)", "2K3")])
def test_cross_verdicts_match_the_reference_search(left, right):
    for g1, g2 in zip(_relabelings(REFERENCE_GRAPHS[left](), seed=1),
                      _relabelings(REFERENCE_GRAPHS[right](), seed=2)):
        result = is_isomorphic(g1, g2)
        assert (result.isomorphic, result.mapping) == _reference_isomorphism(g1, g2)


def _random_graphs(seed: int, count: int) -> list:
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randrange(1, 15)
        p = rng.choice((0.1, 0.2, 0.35, 0.5))
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    return graphs


def test_canonical_form_is_the_first_minimal_leaf_of_the_unpruned_tree():
    graphs = SMALL_GRAPHS + [g for g in _random_graphs(seed=11, count=200) if g.n <= 7]
    assert len(graphs) > 60
    for g in graphs:
        assert canonical_form(g) == unpruned_canonical_form(g)


@pytest.mark.parametrize("build,cap", [(lambda: hamming(6, 2).graph, 7),
                                       (lambda: _disjoint_cycles(8, 3), 23)],
                         ids=["hamming(6,2)", "8K3"])
def test_leaf_up_search_keeps_the_generating_set_small(build, cap):
    for g in _relabelings(build(), seed=5, count=5):
        assert len(automorphism_group(g).generators) <= cap


def test_order_from_the_search_matches_a_fresh_chain(chain_builds):
    graphs = (SMALL_GRAPHS + [build() for build in REFERENCE_GRAPHS.values()]
              + _random_graphs(seed=3, count=120))
    assert any(not g.is_connected() for g in graphs)
    for g in graphs:
        group = automorphism_group(g)
        chain_builds.clear()
        order = group.order()
        assert chain_builds == []
        assert order == StabilizerChain(g.n, group.generators).order()
