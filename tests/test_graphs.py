import math
import random

import pytest

from conftest import (
    _reference_distances_from_set,
    brute_girth,
    brute_intersection_numbers,
    enumerate_s_arcs,
    random_connected_regular,
    reference_bfs_cycle_length,
)

from symclass import (
    Graph,
    Permutation,
    PermutationGroup,
    classify_pair,
    complement,
    diameter,
    distance_partition,
    edge_action,
    girth,
    intersection_numbers,
    is_complete,
    line_graph,
)
from symclass.errors import (
    DisconnectedGraph,
    InvalidGraph,
    IrregularGraph,
    NotAnAutomorphismGroup,
    ParameterError,
)
from symclass.families import (
    complete,
    complete_bipartite,
    cycle,
    grid,
    grid_complement,
    hamming,
    icosahedron,
    octahedron,
    petersen,
    sym,
)
from symclass.claims import girth4_graph_corpus, standard_corpus
from symclass.graphs import _bfs_layers, bfs_cycle_length


def test_graph_validation():
    with pytest.raises(InvalidGraph):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidGraph):
        Graph(2, [(0, 5)])
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicates collapse
    assert g.edge_count() == 2
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_distance_partition_sizes():
    assert [len(l) for l in distance_partition(complete(4).graph, 2).layers] == [1, 3]
    assert [len(l) for l in distance_partition(grid_complement(4).graph, 0).layers] == [1, 3, 3, 1]
    assert [len(l) for l in distance_partition(icosahedron().graph, 0).layers] == [1, 5, 5, 1]


def test_layer_edge_law():
    for g in (petersen().graph, grid_complement(5).graph, hamming(3, 2).graph):
        for u in range(g.n):
            dp = distance_partition(g, u)
            level = {}
            for i, layer in enumerate(dp.layers):
                for v in layer:
                    level[v] = i
            for a, b in g.edges():
                assert abs(level[a] - level[b]) <= 1


def test_layers_from_a_set_match_the_reference_distances():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    disconnected = 0
    for _ in range(80):
        n = rng.randrange(1, 31)
        p = rng.choice((0.05, 0.1, 0.2, 0.4))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        lowest = min(g.degrees())
        # one vertex, two vertices, and the lowest-degree color class
        for sources in ([rng.randrange(n)], rng.sample(range(n), min(2, n)),
                        [v for v in range(n) if g.degree(v) == lowest]):
            layers = _bfs_layers(g, *sources)
            assert all(layers) and all(layer == sorted(layer) for layer in layers)
            distance = {v: d for d, layer in enumerate(layers) for v in layer}
            assert len(distance) == sum(map(len, layers))
            # the reference leaves unreached vertices at n + 1
            reference = _reference_distances_from_set(g, sources)
            assert distance == {v: d for v, d in enumerate(reference) if d <= n}
        oracle = nx.Graph()
        oracle.add_nodes_from(range(n))
        oracle.add_edges_from(g.edges())
        assert g.is_connected() == nx.is_connected(oracle)
        disconnected += not g.is_connected()
    assert 0 < disconnected < 80


def test_girth_values():
    assert girth(octahedron().graph) == 3
    assert girth(grid_complement(5).graph) == 4
    assert girth(cycle(6).graph) == 6
    assert girth(petersen().graph) == 5
    assert girth(Graph(4, [(0, 1), (1, 2), (2, 3)])) == math.inf


VERTEX_TRANSITIVE_FAMILIES = [
    *(complete(n).graph for n in (3, 4, 6)),
    *(complete_bipartite(m, m).graph for m in (2, 3, 5)),
    *(cycle(n).graph for n in (3, 5, 6, 9)),
    *(grid(n, m).graph for n, m in ((2, 3), (3, 3), (3, 4))),
    *(grid_complement(m).graph for m in range(3, 8)),
    *(hamming(d, q).graph for d, q in ((2, 2), (3, 2), (4, 2), (6, 2), (2, 3), (3, 3), (2, 4))),
    octahedron().graph,
    icosahedron().graph,
    petersen().graph,
    line_graph(petersen().graph)[0],
]


def test_bfs_cycle_length_at_0_is_the_girth_of_vertex_transitive_graphs():
    for g in VERTEX_TRANSITIVE_FAMILIES:
        assert bfs_cycle_length(g, 0) == girth(g) == brute_girth(g)


def test_girth_and_bfs_cycle_length_match_their_oracles():
    rng = random.Random(5)
    graphs = [Graph(1), Graph(4, [(0, 1), (1, 2), (2, 3)])]
    for _ in range(150):
        n = rng.randrange(2, 14)
        p = rng.choice((0.15, 0.25, 0.4))
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    for g in graphs:
        assert girth(g) == brute_girth(g)
        for v in range(g.n):
            assert bfs_cycle_length(g, v) == reference_bfs_cycle_length(g, v) >= girth(g)


def test_bfs_cycle_length_off_a_shortest_cycle():
    # a triangle 2 3 4 with a pendant path 0 - 1 - 2: the BFS from 0 closes
    # the triangle at the edge 34, at 3 + 3 + 1
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert bfs_cycle_length(g, 0) == 7
    assert bfs_cycle_length(g, 3) == girth(g) == 3


def test_intersection_numbers_grid_complement_6():
    inter = intersection_numbers(grid_complement(6).graph, 0)
    assert inter.triples[1] == (1, 0, 4)
    assert inter.triples[2] == (4, 0, 1)
    assert inter.layer_regular


def test_intersection_numbers_k44():
    inter = intersection_numbers(complete_bipartite(4, 4).graph, 0)
    assert inter.c(2) == 4


def test_intersection_numbers_octahedron():
    inter = intersection_numbers(octahedron().graph, 0)
    assert inter.triples[2] == (4, 0, 0)


def test_intersection_sum_rule():
    for g in (grid_complement(5).graph, hamming(4, 2).graph, icosahedron().graph):
        k = g.valency()
        inter = intersection_numbers(g, 0)
        for triple, defined in zip(inter.triples, inter.well_defined):
            if defined:
                assert sum(triple) == k


def test_intersection_numbers_errors():
    path = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(IrregularGraph):
        intersection_numbers(path, 0)
    two_parts = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        intersection_numbers(two_parts, 0)


def test_graph_queries_layer_each_vertex_once(layerings):
    # connectivity is read off a layering the query needs anyway, and every
    # query reads the partitions the graph keeps, so repeating one walks
    # nothing again; fresh copies, since the family constructors layer their
    # graphs from 0 when they check them
    cube = Graph(8, hamming(3, 2).graph.edges())
    hexagon = Graph(6, cycle(6).graph.edges())
    reflection = PermutationGroup(6, [Permutation([0, 5, 4, 3, 2, 1])])
    layerings.clear()
    for _ in range(2):
        intersection_numbers(cube, 0)
        assert diameter(cube) == 3
        assert classify_pair(hexagon, reflection).diameter == diameter(hexagon) == 3
        intersection_numbers(hexagon, 4)
    walked = [(id(g), *walk) for g, *walk in layerings]
    assert walked == ([(id(cube), (u,), None) for u in range(8)]
                      + [(id(hexagon), (u,), None) for u in range(6)])


def test_distance_partitions_are_kept_by_each_graph_object(layerings):
    g = Graph(10, petersen().graph.edges())
    layerings.clear()
    first = distance_partition(g, 0)
    assert distance_partition(g, 0) is first
    # an equal graph and a relabelled one each layer for themselves
    twin = Graph(g.n, g.edges())
    assert twin == g
    assert distance_partition(twin, 0) == first
    assert distance_partition(twin, 0) is not first
    phi = Permutation(random.Random(3).sample(range(10), 10))
    moved = g.relabel(phi)
    assert distance_partition(moved, phi.images[0]).layers == tuple(
        tuple(sorted(phi.images[v] for v in layer)) for layer in first.layers)
    assert [(id(h), *walk) for h, *walk in layerings] == [
        (id(g), (0,), None), (id(twin), (0,), None), (id(moved), (phi.images[0],), None)]


def test_an_out_of_range_vertex_stores_no_partition(layerings):
    g = Graph(4, cycle(4).graph.edges())
    layerings.clear()
    for u in (-1, 4):
        with pytest.raises(ParameterError):
            distance_partition(g, u)
        with pytest.raises(ParameterError):
            intersection_numbers(g, u)
    assert g._partitions == {} and layerings == []
    # the checks keep their order: out of range before disconnected before
    # irregular
    with pytest.raises(ParameterError):
        intersection_numbers(Graph(4, [(0, 1), (1, 2)]), 4)
    with pytest.raises(DisconnectedGraph):
        intersection_numbers(Graph(4, [(0, 1), (1, 2)]), 0)


def _assert_2_balls_match_the_full_layering(g: Graph):
    # ``g`` keeps every full partition it is asked for; ``fresh`` is asked
    # for 2-balls only, so each of them but vertex 0's is walked to depth 2
    fresh = Graph(g.n, g.edges())
    for u in range(g.n):
        triples, sizes = brute_intersection_numbers(g, u)
        ball = intersection_numbers(fresh, u, depth=2)
        full = intersection_numbers(g, u)
        assert (full.triples, full.sizes) == (triples, sizes), u
        assert ball == (u, triples[:3], sizes[:3]), u
        ball_layers = distance_partition(g, u).layers[:3]
        assert distance_partition(fresh, u, depth=2).layers == ball_layers, u
        # a kept partition is sliced, not walked again
        assert distance_partition(g, u, depth=2).layers == ball_layers, u
    assert list(fresh._partitions) == [0]
    assert sorted(g._partitions) == list(range(g.n))


def test_2_balls_equal_the_full_layering_on_the_claim_graphs():
    graphs = [g for _, g in girth4_graph_corpus()] + [p.graph for p in standard_corpus()]
    for g in {id(g): g for g in graphs}.values():
        _assert_2_balls_match_the_full_layering(Graph(g.n, g.edges()))


def test_2_balls_equal_the_full_layering_on_random_regular_graphs():
    rng = random.Random(25)
    undefined = 0
    for _ in range(40):
        k = rng.choice((3, 4))
        n = rng.randrange(6, 31)
        n += (n * k) % 2
        g = random_connected_regular(rng, n, k)
        _assert_2_balls_match_the_full_layering(g)
        undefined += sum(t is None for u in range(n) for t in intersection_numbers(g, u).triples)
    # the sample reaches layers whose vertices disagree, so a None is checked too
    assert undefined > 0


def test_a_walk_to_a_depth_stops_there_and_is_not_kept(layerings):
    g = Graph(8, hamming(3, 2).graph.edges())
    layerings.clear()
    assert distance_partition(g, 3, depth=1).layers == ((3,), (1, 2, 7))
    assert distance_partition(g, 3, depth=0).layers == ((3,),)
    # a depth past the eccentricity gives the whole partition, still not kept
    assert distance_partition(g, 3, depth=9) == distance_partition(g, 3)
    assert [(h is g, *walk) for h, *walk in layerings] == [
        (True, (3,), 1), (True, (3,), 0), (True, (3,), 9), (True, (3,), None)]
    assert _bfs_layers(g, 0, 7, depth=1) == [[0, 7], [1, 2, 3, 4, 5, 6]]
    assert _bfs_layers(g, 0, 7, depth=0) == [[0, 7]]


def test_2_ball_queries_check_regularity_once_per_graph(monkeypatch):
    g = Graph(32, hamming(5, 2).graph.edges())
    asked = []
    real = Graph.degrees

    def counting(self):
        asked.append(self)
        return real(self)

    monkeypatch.setattr(Graph, "degrees", counting)
    for u in range(g.n):
        assert intersection_numbers(g, u, depth=2).c(2) == 2
    assert asked == [g] and g.valency() == 5 and asked == [g]
    assert list(g._partitions) == [0]


def test_2_ball_queries_keep_the_error_order(layerings):
    # InvalidGraph, then ParameterError, then DisconnectedGraph, then
    # IrregularGraph; nothing out of range is walked or kept
    with pytest.raises(InvalidGraph):
        intersection_numbers(Graph(0), 0, depth=2)
    split = Graph(4, [(0, 1), (1, 2)])  # disconnected and irregular
    layerings.clear()
    for u, depth in ((-1, 2), (4, 2), (0, -1)):
        with pytest.raises(ParameterError):
            distance_partition(split, u, depth=depth)
        with pytest.raises(ParameterError):
            intersection_numbers(split, u, depth=depth)
    assert split._partitions == {} and layerings == []
    with pytest.raises(DisconnectedGraph):
        intersection_numbers(split, 3, depth=2)
    with pytest.raises(IrregularGraph):
        intersection_numbers(Graph(3, [(0, 1), (1, 2)]), 2, depth=1)


def test_s_arc_counts():
    assert len(enumerate_s_arcs(cycle(5).graph, 2)) == 10
    assert len(enumerate_s_arcs(octahedron().graph, 2)) == 72  # 6 * 4 * 3
    assert len(enumerate_s_arcs(petersen().graph, 3)) == 120  # 10 * 3 * 2 * 2
    assert len(enumerate_s_arcs(petersen().graph, 5)) == 480  # 10 * 3 * 2 ** 4
    with pytest.raises(ParameterError):
        enumerate_s_arcs(cycle(5).graph, 0)


def test_s_arcs_are_lexicographic_and_nonbacktracking():
    arcs = enumerate_s_arcs(cycle(4).graph, 2)
    assert arcs == sorted(arcs)
    for a, b, c in arcs:
        assert a != c


def test_line_graph_of_k4_shape():
    lg, edges = line_graph(complete(4).graph)
    assert lg.n == 6
    assert lg.valency() == 4
    assert edges == tuple(complete(4).graph.edges())


def test_line_graph_of_cycle_is_cycle():
    lg, _ = line_graph(cycle(6).graph)
    assert lg.n == 6 and lg.valency() == 2 and girth(lg) == 6


def test_line_graph_of_petersen():
    lg, _ = line_graph(petersen().graph)
    assert lg.n == 15
    assert lg.valency() == 4
    assert girth(lg) == 3


def test_line_graph_edge_count_law():
    for g in (petersen().graph, grid(3, 4).graph, octahedron().graph):
        lg, _ = line_graph(g)
        assert lg.edge_count() == sum(d * (d - 1) for d in g.degrees()) // 2


def test_line_graph_rejects_edgeless():
    with pytest.raises(InvalidGraph):
        line_graph(Graph(3, []))


def test_complement_involution():
    for g in (petersen().graph, grid(2, 4).graph, cycle(7).graph):
        assert complement(complement(g)) == g
    assert complement(complete(5).graph).edge_count() == 0


def test_complement_of_grid_is_grid_complement():
    for m in range(4, 9):
        assert complement(grid(2, m).graph) == grid_complement(m).graph


def test_complement_of_c5_is_c5():
    c5 = cycle(5).graph
    from symclass import is_isomorphic
    assert is_isomorphic(complement(c5), c5)


def test_is_complete():
    assert is_complete(complete(6).graph)
    assert not is_complete(octahedron().graph)


def test_diameter():
    assert diameter(grid_complement(4).graph) == 3
    assert diameter(octahedron().graph) == 2
    with pytest.raises(DisconnectedGraph):
        diameter(Graph(4, [(0, 1), (2, 3)]))


def test_edge_action_lifts_sym5_to_petersen_labels():
    lifted = edge_action(sym(5), complete(5).graph)
    assert lifted.degree == 10
    assert lifted.order() == 120


def test_edge_action_rejects_non_automorphisms():
    with pytest.raises(NotAnAutomorphismGroup):
        edge_action(sym(5), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
