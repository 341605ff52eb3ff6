"""Decision procedures for (graph, group) pairs: distance/arc/geodesic
transitivity, the grid condition, and classification against the built-in
catalog rows."""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import NamedTuple

from .actions import _count_orbits, chain_transitivity, induced_action
from .errors import (
    CompleteGraphError,
    DegreeMismatch,
    DisconnectedGraph,
    InternalCheckFailed,
    InvalidGraph,
    InvariantCellError,
    NotAnAutomorphismGroup,
    ParameterError,
)
from .families import agl1, alt, direct_product, preserves_graph, psl25, sym
from .graphs import (
    Graph,
    bfs_cycle_length,
    diameter,
    distance_partition,
    girth,
    intersection_numbers,
    is_complete,
)
from .group import PermutationGroup
from .perm import Permutation


class TransitivityCheck(NamedTuple):
    """A boolean verdict with the orbit evidence that produced it."""

    ok: bool
    reason: str | None
    evidence: dict

    def __bool__(self) -> bool:
        return self.ok


def _validate_pair(g: Graph, group: PermutationGroup) -> None:
    """Check that ``group`` acts on the connected graph ``g`` by automorphisms.
    The connectivity check layers ``g`` from vertex 0, and every verdict
    reads the partition ``g`` keeps."""
    if g.n < 1:
        raise InvalidGraph("classification needs at least one vertex")
    if group.degree != g.n:
        raise DegreeMismatch(
            f"group degree {group.degree} does not match vertex count {g.n}")
    if not g.is_connected():
        raise DisconnectedGraph("classification is defined for connected graphs")
    for p in group.generators:
        if not preserves_graph(p, g):
            raise NotAnAutomorphismGroup(
                f"generator {p.cycle_string()} does not preserve the graph")


def _layer_orbit_counts(g: Graph, group: PermutationGroup) -> list[int]:
    """The number of ``G_0`` orbits in each distance layer from vertex 0, read
    off the stabilizer's kept orbit partition."""
    dp = distance_partition(g, 0)
    distance = {v: i for i, layer in enumerate(dp.layers) for v in layer}
    counts = [0] * len(dp.layers)
    for orbit in group.point_stabilizer(0).orbits():
        i = distance[orbit[0]]
        if any(distance[v] != i for v in orbit):  # pragma: no cover - distance preserved
            raise InternalCheckFailed("stabilizer orbit left a distance layer")
        counts[i] += 1
    return counts


def is_s_distance_transitive(g: Graph, group: PermutationGroup, s: int) -> TransitivityCheck:
    """Vertex transitivity plus a single stabilizer orbit on each distance
    layer up to s (checked at base vertex 0; conjugacy covers the rest)."""
    _validate_pair(g, group)
    return _distance_transitivity(g, group, s)


def _distance_transitivity(g: Graph, group: PermutationGroup, s: int) -> TransitivityCheck:
    """The s-distance verdict for a validated pair."""
    if s < 1:
        raise ParameterError("s must be at least 1")
    if not group.is_transitive():
        return TransitivityCheck(False, "not vertex-transitive",
                                 {"vertex_orbit_size": len(group.orbit(0))})
    dp = distance_partition(g, 0)
    if s > dp.eccentricity:
        return TransitivityCheck(
            False, f"s={s} exceeds the diameter {dp.eccentricity}",
            {"diameter": dp.eccentricity})
    counts = _layer_orbit_counts(g, group)
    layer_orbits = {i: counts[i] for i in range(1, s + 1)}
    ok = all(c == 1 for c in layer_orbits.values())
    return TransitivityCheck(
        ok, None if ok else "stabilizer is intransitive on a layer",
        {"layer_orbit_counts": layer_orbits,
         "layer_sizes": {i: len(dp.layers[i]) for i in range(1, s + 1)}})


def _orbits_at_0(group: PermutationGroup, tuples) -> list[int]:
    """The sizes of the ``G_0`` orbits that ``tuples`` meet, walked with the
    generators of the kept ``G_0`` and no further chain. The orbit of an
    s-arc from 0 visits at most min(|G_0|, k(k - 1)^(s - 1)) tuples."""
    return _count_orbits(group.point_stabilizer(0).generators, tuples,
                         lambda p, t: tuple(p.images[x] for x in t))


def _neighbor_pair_orbits(g: Graph, group: PermutationGroup) -> int:
    """The number of ``G_0`` orbits on ordered pairs of distinct neighbours of 0."""
    return len(_orbits_at_0(group, permutations(g.adjacency[0], 2)))


def _first_arc(g: Graph, s: int) -> tuple:
    """The lexicographically first s-arc starting at 0 (the graph has one)."""
    arc = [0, g.adjacency[0][0]]
    for _ in range(s - 1):
        arc.append(next(w for w in g.adjacency[arc[-1]] if w != arc[-2]))
    return tuple(arc)


def neighborhood_action(g: Graph, group: PermutationGroup, v: int) -> PermutationGroup:
    """The stabilizer of v restricted to the neighborhood of v."""
    stab = group.point_stabilizer(v)
    restricted, _ = induced_action(stab, [{w} for w in g.adjacency[v]])
    return restricted


def is_s_arc_transitive(g: Graph, group: PermutationGroup, s: int) -> TransitivityCheck:
    """Vertex transitivity plus a single orbit on s-arcs.

    For s = 2 the equivalent neighborhood criterion (stabilizer 2-transitive
    on the neighbors) is computed as well; the two answers must agree.
    """
    _validate_pair(g, group)
    return _arc_transitivity(g, group, s)[0]


def _arc_transitivity(g: Graph, group: PermutationGroup, s: int
                      ) -> tuple[TransitivityCheck, int | None]:
    """The s-arc verdict, and for s = 2 the number of ``G_0`` orbits on
    ordered pairs of distinct neighbours of 0 (``None`` when it was not
    needed: the group is intransitive or the valency is below 2)."""
    if s < 1:
        raise ParameterError("s must be at least 1")
    if not group.is_transitive():
        return TransitivityCheck(False, "not vertex-transitive", {}), None
    # a vertex-transitive automorphism group makes the graph regular, so
    # every vertex starts k * (k - 1)^(s - 1) s-arcs, and the orbit of an
    # s-arc (0, x1, ..., xs) is n times the G_0 orbit of (x1, ..., xs)
    k = g.degree(0)
    arc_count = g.n * k * (k - 1) ** (s - 1)
    if not arc_count:
        return TransitivityCheck(False, f"the graph has no {s}-arcs", {}), None
    orbit_size = g.n * _orbits_at_0(group, [_first_arc(g, s)[1:]])[0]
    ok = orbit_size == arc_count
    evidence = {"arc_count": arc_count, "orbit_size": orbit_size}
    pair_orbits = None
    if s == 2:  # k >= 2 here, or there would be no 2-arcs
        # G is transitive on 2-arcs exactly when G_0 is 2-transitive on the
        # neighbours of 0: a walk over another set, which must agree
        pair_orbits = _neighbor_pair_orbits(g, group)
        two_transitive = pair_orbits == 1
        evidence["stabilizer_two_transitive_on_neighbors"] = two_transitive
        if two_transitive != ok:
            raise InternalCheckFailed(
                "2-arc criteria disagree: one orbit on 2-arcs is "
                f"{ok}, stabilizer 2-transitive on the neighbors is {two_transitive}")
    return TransitivityCheck(ok, None if ok else "multiple orbits on arcs", evidence), pair_orbits


def is_2_geodesic_transitive(g: Graph, group: PermutationGroup) -> TransitivityCheck:
    """Arc transitivity plus a single orbit on 2-arcs with non-adjacent ends."""
    _validate_pair(g, group)
    if is_complete(g):
        raise CompleteGraphError("complete graphs have no 2-geodesics")
    return _geodesic_transitivity(g, group, _arc_transitivity(g, group, 1)[0])


def _geodesic_transitivity(g: Graph, group: PermutationGroup,
                           at1: TransitivityCheck) -> TransitivityCheck:
    """The 2-geodesic verdict for a non-complete graph, given its 1-arc verdict."""
    if not at1:
        return TransitivityCheck(False, "not arc-transitive", at1.evidence)
    # arc transitivity makes the group vertex-transitive, so every vertex
    # starts as many 2-geodesics as vertex 0
    from_zero = [(0, a, c) for a in g.adjacency[0] for c in g.adjacency[a]
                 if c != 0 and not g.has_edge(0, c)]
    geodesic_count = g.n * len(from_zero)
    orbit_size = g.n * _orbits_at_0(group, [from_zero[0][1:]])[0]
    ok = orbit_size == geodesic_count
    return TransitivityCheck(
        ok, None if ok else "multiple orbits on 2-geodesics",
        {"geodesic_count": geodesic_count, "orbit_size": orbit_size})


class ConditionCheck(NamedTuple):
    """Verdict of the grid condition, with the projection/kernel sub-flags."""

    satisfied: bool
    projects_onto_swap: bool
    kernel_order: int
    kernel_two_transitive: bool
    kernel_three_transitive: bool

    def __bool__(self) -> bool:
        return self.satisfied


def check_condition_3_1(group: PermutationGroup, m: int) -> ConditionCheck:
    """For a subgroup of the 2 x m grid symmetry group S2 x Sm: does it project
    onto the row swap while its column kernel is 2- but not 3-transitive?

    Each generator is read as (swaps the rows?, column permutation). The
    column kernel, of index 1 or 2, is generated by the Schreier generators
    over the coset representatives {1, t}, t the first swapping column
    permutation (Seress, §4.1); its one chain gives the order, and the basic
    orbits give 2- and 3-transitivity."""
    if m < 3:
        raise ParameterError("the grid condition needs m >= 3")
    if group.degree != 2 * m:
        raise DegreeMismatch(f"expected degree {2 * m}, got {group.degree}")
    rows = [frozenset(range(m)), frozenset(range(m, 2 * m))]
    stays, swaps = [], []
    for gen in group.generators:
        image0 = frozenset(gen.images[p] for p in rows[0])
        if image0 == rows[0]:
            col_from_row1 = [gen.images[j] for j in range(m)]
            col_from_row2 = [gen.images[m + j] - m for j in range(m)]
        elif image0 == rows[1]:
            col_from_row1 = [gen.images[j] - m for j in range(m)]
            col_from_row2 = [gen.images[m + j] for j in range(m)]
        else:
            raise InvariantCellError("the two row cells are not invariant")
        if col_from_row1 != col_from_row2:
            raise InvariantCellError(
                "generator applies different column permutations to the two rows")
        (stays if image0 == rows[0] else swaps).append(Permutation(col_from_row1))
    kernel_gens = stays
    if swaps:
        t = swaps[0]
        t_inv = t.inverse()
        kernel_gens = (stays + [t * s * t_inv for s in stays]
                       + [s * t_inv for s in swaps] + [t * s for s in swaps])
    chain = PermutationGroup(m, kernel_gens).chain
    two, three = chain_transitivity(chain)
    projects = bool(swaps)
    return ConditionCheck(
        satisfied=projects and two and not three,
        projects_onto_swap=projects,
        kernel_order=chain.order(),
        kernel_two_transitive=two,
        kernel_three_transitive=three,
    )


_CONDITION_WITNESSES = {4: lambda: alt(4), 5: lambda: agl1(5), 6: psl25}


def condition_3_1_examples(m: int) -> list[PermutationGroup]:
    """Witness groups <row swap> x H on grid_complement(m) vertices, for the
    built-in 2-transitive-not-3-transitive H (m = 4, 5, 6)."""
    if m not in _CONDITION_WITNESSES:
        raise ParameterError(
            f"no built-in witness for m={m}; supported m: "
            f"{', '.join(str(k) for k in sorted(_CONDITION_WITNESSES))}")
    group = direct_product(sym(2), _CONDITION_WITNESSES[m]())
    if not check_condition_3_1(group, m).satisfied:
        raise InternalCheckFailed(f"the witness for m={m} fails the grid condition")
    return [group]


# -- catalog rows -------------------------------------------------------------

ROW_GRID_COMPLEMENT_4 = "grid_complement(4)"
ROW_OCTAHEDRON = "octahedron"
ROW_HAMMING_2_3 = "hamming(2,3)"
ROW_LINE_GRAPH = "line_graph_of_cubic_3_arc_transitive"
ROW_GRID_COMPLEMENT_5 = "grid_complement(5)"
ROW_ICOSAHEDRON = "icosahedron"
ROW_GRID_COMPLEMENT_6 = "grid_complement(6)"


# -- structural recognisers: each decides "g is isomorphic to this family
# graph" from local structure that fixes the graph up to isomorphism. Three
# rows are fixed by their vertex count n, valency k and neighbourhoods, each
# inducing a d-regular graph, as (n, k, d): the octahedron's complement is a
# perfect matching; a locally 2K2 graph on 9 vertices is the line graph of a
# triangle-free cubic graph on 6 vertices, K_{3,3}; the icosahedron is the one
# locally pentagonal graph.
_LOCAL_SHAPES = {ROW_OCTAHEDRON: (6, 4, 2), ROW_HAMMING_2_3: (9, 4, 1),
                 ROW_ICOSAHEDRON: (12, 5, 2)}


def _locally_regular(g: Graph, n: int, k: int, d: int) -> bool:
    """n vertices, k-regular, and every neighbourhood induces a d-regular graph."""
    return g.n == n and g.is_regular() and g.degree(0) == k and all(
        sum(g.has_edge(w, x) for x in nbrs) == d for nbrs in g.adjacency for w in nbrs)


def _bipartite(g: Graph) -> bool:
    """No edge inside a distance layer from 0: the even and the odd layers are
    the two parts (of the component of 0)."""
    return not any(g.has_edge(u, w) for layer in distance_partition(g, 0).layers
                   for u, w in combinations(layer, 2))


def _grid_labelling(g: Graph, m: int) -> tuple | None:
    """The labelling of g onto ``grid_complement(m)`` (vertex r * m + c in row
    r and column c), or ``None`` when g is not that graph. An (m - 1)-regular
    bipartite graph on 2m vertices is K_{m,m} minus a perfect matching, whose
    pairs are the columns: row 0 is the part holding 0, in ascending order,
    and each vertex's column partner is its one non-neighbour in the other
    part. The labelling is checked edge by edge."""
    if not (_locally_regular(g, 2 * m, m - 1, 0) and _bipartite(g)):
        return None
    layers = distance_partition(g, 0).layers
    row1 = [v for layer in layers[1::2] for v in layer]
    labelling = [None] * g.n
    for c, u in enumerate(sorted(v for layer in layers[0::2] for v in layer)):
        labelling[u] = c
        for w in row1:
            if not g.has_edge(u, w):
                labelling[w] = m + c
    if set(labelling) != set(range(g.n)) or any(
            labelling[u] // m == labelling[w] // m or labelling[u] % m == labelling[w] % m
            for u, w in g.edges()):
        raise InternalCheckFailed("the grid-complement labelling failed its edge check")
    return tuple(labelling)


def _is_complete_bipartite(g: Graph, k: int) -> bool:
    """``K_{k,k}``: 2k vertices, k-regular and triangle-free. The
    neighbourhoods of two adjacent vertices are then two disjoint independent
    sets of k vertices, which make up the graph."""
    return _locally_regular(g, 2 * k, k, 0)


def _match_grid_row(g: Graph, group: PermutationGroup, m: int) -> str | None:
    labelling = _grid_labelling(g, m)
    if labelling is not None and check_condition_3_1(
            group.relabeled(Permutation(labelling)), m).satisfied:
        return f"grid_complement({m})"
    return None


def _match_octahedron(g: Graph, group: PermutationGroup) -> str | None:
    if not _locally_regular(g, *_LOCAL_SHAPES[ROW_OCTAHEDRON]) or group.order() not in (24, 48):
        return None
    antipodal = [{v, w} for v in range(6) for w in range(v + 1, 6) if not g.has_edge(v, w)]
    projection, _ = induced_action(group, antipodal)
    return ROW_OCTAHEDRON if projection.order() == 6 else None


def _match_hamming23(g: Graph, group: PermutationGroup) -> str | None:
    if not _locally_regular(g, *_LOCAL_SHAPES[ROW_HAMMING_2_3]) or group.order() not in (36, 72):
        return None
    # the six triangles split into two parallel classes (the rows and the
    # columns of the 3 x 3 grid); a triangle meets each triangle of the other
    # class in one vertex and is disjoint from the rest of its own, and the
    # row condition asks for an element swapping the classes
    a = g.adjacency[0][0]
    triangle = {0, a, *(w for w in g.adjacency[0] if g.has_edge(a, w))}
    for gen in group.generators:
        if len(triangle.intersection(gen.images[v] for v in triangle)) == 1:
            return ROW_HAMMING_2_3
    return None


def _match_line_graph_row(second_layer_size: int, gt2: bool) -> str | None:
    return ROW_LINE_GRAPH if second_layer_size == 8 and gt2 else None


def _match_icosahedron(g: Graph, group: PermutationGroup) -> str | None:
    shaped = _locally_regular(g, *_LOCAL_SHAPES[ROW_ICOSAHEDRON])
    return ROW_ICOSAHEDRON if shaped and group.order() in (60, 120) else None


def _match_table_row(g: Graph, group: PermutationGroup, valency: int, girth_value,
                     second_layer_size: int, gt2: bool) -> str | None:
    if girth_value == 4:
        return _match_grid_row(g, group, valency + 1)
    if (valency, girth_value) == (4, 3):
        return (_match_octahedron(g, group)
                or _match_hamming23(g, group)
                or _match_line_graph_row(second_layer_size, gt2))
    if (valency, girth_value) == (5, 3):
        return _match_icosahedron(g, group)
    return None


class TransitivityReport(NamedTuple):
    """Full verdict for one (graph, group) pair."""

    vertex_count: int
    valency: int
    girth: object
    diameter: int
    group_order: int
    vertex_transitive: bool
    distance_transitive: dict
    arc_transitive: dict
    two_geodesic_transitive: bool | None
    intersection_triples: tuple
    layer_regular: tuple
    neighborhood: dict
    shortcuts: dict
    matched_row: str | None

    def to_dict(self) -> dict:
        return {
            "graph": {
                "vertices": self.vertex_count,
                "valency": self.valency,
                "girth": None if self.girth == math.inf else self.girth,
                "diameter": self.diameter,
            },
            "group": {"order": self.group_order},
            "vertex_transitive": self.vertex_transitive,
            "distance_transitive": {str(s): v for s, v in self.distance_transitive.items()},
            "arc_transitive": {str(s): v for s, v in self.arc_transitive.items()},
            "two_geodesic_transitive": self.two_geodesic_transitive,
            "intersection_numbers": [list(t) if t is not None else None
                                     for t in self.intersection_triples],
            "layer_regular": list(self.layer_regular),
            "neighborhood": self.neighborhood,
            "shortcuts": self.shortcuts,
            "matched_row": self.matched_row,
        }


def classify_pair(g: Graph, group: PermutationGroup) -> TransitivityReport:
    """Fill the whole report: transitivity flags, intersection numbers,
    neighborhood orbit counts, girth shortcuts, and the catalog row (with
    "VIOLATION" when a qualifying pair matches no row)."""
    # every vertex-local fact is read off the layering from vertex 0 that the
    # validation stores on the graph; a vertex-transitive group puts vertex 0
    # on a shortest cycle, so one BFS closes one, and an intransitive group
    # needs the girth and diameter over all vertices
    _validate_pair(g, group)
    dp = distance_partition(g, 0)
    valency = g.valency()
    transitive = group.is_transitive()
    girth_value = bfs_cycle_length(g, 0) if transitive else girth(g)
    complete_graph = is_complete(g)
    dt = {s: _distance_transitivity(g, group, s) for s in (1, 2)}
    at1, _ = _arc_transitivity(g, group, 1)
    at2, pair_orbits = _arc_transitivity(g, group, 2)
    at = {1: at1, 2: at2}
    gt2 = None if complete_graph else bool(_geodesic_transitivity(g, group, at1))
    inter = intersection_numbers(g, 0)

    neighborhood: dict = {"neighborhood_size": valency,
                          "second_layer_size": len(dp.layer(2))}
    if transitive and valency >= 1:
        counts = _layer_orbit_counts(g, group)
        neighborhood["orbits_on_neighbors"] = counts[1]
        if dp.layer(2):
            neighborhood["orbits_on_second_layer"] = counts[2]
        if valency >= 2:
            # the 2-arc check counted the neighbour-pair orbits exactly when
            # the group is vertex-transitive and the valency is at least 2
            neighborhood["orbits_on_ordered_neighbor_pairs"] = pair_orbits

    girth5_applicable = girth_value >= 5 and bool(dt[2])
    girth3_applicable = girth_value == 3 and not complete_graph
    shortcuts = {
        "girth_ge_5_forces_2at": {
            "applicable": girth5_applicable,
            "agrees": (not girth5_applicable) or bool(at[2]),
        },
        "girth_3_blocks_2at": {
            "applicable": girth3_applicable,
            "agrees": (not girth3_applicable) or not bool(at[2]),
        },
    }

    matched = None
    if bool(dt[2]) and not bool(at[2]) and valency <= 5 and not complete_graph:
        matched = _match_table_row(g, group, valency, girth_value,
                                   len(dp.layer(2)), gt2) or "VIOLATION"

    return TransitivityReport(
        vertex_count=g.n,
        valency=valency,
        girth=girth_value,
        diameter=dp.eccentricity if transitive else diameter(g),
        group_order=group.order(),
        vertex_transitive=transitive,
        distance_transitive={s: bool(v) for s, v in dt.items()},
        arc_transitive={s: bool(v) for s, v in at.items()},
        two_geodesic_transitive=gt2,
        intersection_triples=inter.triples,
        layer_regular=inter.well_defined,
        neighborhood=neighborhood,
        shortcuts=shortcuts,
        matched_row=matched,
    )
