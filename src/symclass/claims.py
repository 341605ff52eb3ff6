"""Built-in claim catalog, verified by exhaustive computation at desk scale.

Each claim code names one finite, mechanically checkable statement about the
standard corpus of small symmetric graph/group pairs (girth shortcuts,
exhaustive subgroup classifications, girth-4 structure, and the valency <= 5
catalog rows). Verifiers return a :class:`ClaimVerdict`; "refuted" means the
computation contradicted the claim, which would indicate an implementation
bug, and "skipped" carries the reason (budget or precondition).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import families
from .actions import find_block_systems, induced_action, transitivity_degree_tests
from .classify import (
    ROW_GRID_COMPLEMENT_4,
    ROW_GRID_COMPLEMENT_5,
    ROW_GRID_COMPLEMENT_6,
    ROW_HAMMING_2_3,
    ROW_ICOSAHEDRON,
    ROW_LINE_GRAPH,
    ROW_OCTAHEDRON,
    TransitivityReport,
    _arc_transitivity,
    _distance_transitivity,
    _grid_labelling,
    _is_complete_bipartite,
    _match_grid_row,
    _validate_pair,
    check_condition_3_1,
    classify_pair,
    condition_3_1_examples,
    neighborhood_action,
)
from .errors import UnknownClaim
from .graphs import (
    Graph,
    distance_partition,
    edge_action,
    intersection_numbers,
    line_graph,
)
from .group import PermutationGroup
from .numtheory import is_prime, prime_power
from .perm import Permutation
from .subgroups import SUBGROUP_ORDER_CAP, subgroup_classes


class ClaimVerdict(NamedTuple):
    """Outcome of one catalog-claim verification."""

    claim: str
    status: str  # "verified" | "refuted" | "skipped"
    evidence: dict
    reason: str | None = None

    def to_dict(self) -> dict:
        out = {"claim": self.claim, "status": self.status, "evidence": self.evidence}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def check_kantor_conditions(group: PermutationGroup) -> ClaimVerdict:
    """Arithmetic constraints on a 2-homogeneous, not 2-transitive group:
    degree a prime power congruent to 3 mod 4, odd order divisible by
    n(n-1)/2. Skipped unless the precondition holds."""
    flags = transitivity_degree_tests(group)
    if not flags.two_homogeneous or flags.two_transitive:
        return ClaimVerdict(
            "kantor-conditions", "skipped",
            {"two_homogeneous": flags.two_homogeneous,
             "two_transitive": flags.two_transitive},
            reason="group is not 2-homogeneous-but-not-2-transitive")
    n = group.degree
    order = group.order()
    pp = prime_power(n)
    checks = {
        "degree": n,
        "order": order,
        "degree_is_prime_power": pp is not None,
        "degree_3_mod_4": n % 4 == 3,
        "order_odd": order % 2 == 1,
        "order_divisible_by_half_pairs": order % (n * (n - 1) // 2) == 0,
    }
    ok = (checks["degree_is_prime_power"] and checks["degree_3_mod_4"]
          and checks["order_odd"] and checks["order_divisible_by_half_pairs"])
    return ClaimVerdict("kantor-conditions", "verified" if ok else "refuted", checks)


class Budget(NamedTuple):
    """Caps for the expensive searches; override via CLI --budget or the
    SYMCLASS_BUDGET environment variable."""

    subgroup_order_cap: int = SUBGROUP_ORDER_CAP


class CorpusPair(NamedTuple):
    name: str
    graph: Graph
    group: PermutationGroup


@lru_cache(maxsize=1)
def standard_corpus() -> tuple:
    """The fixed corpus of (graph, group) pairs exercised by the claim suite."""
    pairs = []

    def add(name, graph, group):
        pairs.append(CorpusPair(name, graph, group))

    for m in (4, 5, 6):
        fam = families.grid_complement(m)
        add(f"grid_complement({m})+wreath_grid({m})", fam.graph, fam.symmetry_group())
        add(f"grid_complement({m})+sym2x{m}witness", fam.graph, condition_3_1_examples(m)[0])

    add("hamming(3,2)+s2wr_sym3", families.hamming(3, 2).graph,
        families.wreath_hamming(families.sym(3), 3))
    add("hamming(3,2)+s2wr_cyclic3", families.hamming(3, 2).graph,
        families.wreath_hamming(families.cyclic(3), 3))
    add("hamming(4,2)+s2wr_sym4", families.hamming(4, 2).graph,
        families.wreath_hamming(families.sym(4), 4))
    add("hamming(7,2)+s2wr_frobenius21", families.hamming(7, 2).graph,
        families.wreath_hamming(families.two_homog_frobenius(7), 7))
    add("hamming(2,3)+sym3wr_sym2", families.hamming(2, 3).graph,
        families.hamming_full(2, 3))

    for m in (2, 3, 4, 5):
        add(f"complete_bipartite({m},{m})+wreath", families.complete_bipartite(m, m).graph,
            families.wreath_bipartite(m))

    add("octahedron+octahedral", families.octahedron().graph, families.octahedral())
    add("icosahedron+rotations", families.icosahedron().graph,
        families.icosahedral_rotations())
    add("icosahedron+full", families.icosahedron().graph, families.icosahedral())

    petersen = families.petersen()
    add("petersen+sym5", petersen.graph, families.petersen_sym5())
    lp, _ = line_graph(petersen.graph)
    add("line(petersen)+sym5", lp, edge_action(families.petersen_sym5(), petersen.graph))

    add("cycle(5)+dihedral", families.cycle(5).graph, families.dihedral(5))
    add("cycle(6)+dihedral", families.cycle(6).graph, families.dihedral(6))
    add("complete(4)+sym4", families.complete(4).graph, families.sym(4))
    add("complete(5)+sym5", families.complete(5).graph, families.sym(5))
    return tuple(pairs)


class PairProfile(NamedTuple):
    """The facts the claims read about one corpus pair, each taken from the
    pair's ``classify_pair`` report."""

    name: str
    graph: Graph
    group: PermutationGroup
    report: TransitivityReport
    girth: object
    valency: int
    complete: bool
    dt2: bool
    at2: bool
    c2: object
    second_layer: int


@lru_cache(maxsize=1)
def corpus_profiles() -> tuple:
    """One profile per corpus pair, in corpus order: one ``classify_pair``
    each, and every fact read off its report."""
    profiles = []
    for pair in standard_corpus():
        report = classify_pair(pair.graph, pair.group)
        triples = report.intersection_triples
        profiles.append(PairProfile(
            *pair, report,
            girth=report.girth,
            valency=report.valency,
            complete=report.valency == report.vertex_count - 1,
            dt2=report.distance_transitive[2],
            at2=report.arc_transitive[2],
            c2=triples[2][0] if len(triples) > 2 and triples[2] is not None else None,
            second_layer=report.neighborhood["second_layer_size"],
        ))
    return tuple(profiles)


def _profile(name: str) -> PairProfile:
    return next(p for p in corpus_profiles() if p.name == name)


# each catalog row with the corpus pair that realizes it, its valency and girth
CATALOG_ROWS = (
    (ROW_GRID_COMPLEMENT_4, "grid_complement(4)+sym2x4witness", 3, 4),
    (ROW_OCTAHEDRON, "octahedron+octahedral", 4, 3),
    (ROW_HAMMING_2_3, "hamming(2,3)+sym3wr_sym2", 4, 3),
    (ROW_LINE_GRAPH, "line(petersen)+sym5", 4, 3),
    (ROW_GRID_COMPLEMENT_5, "grid_complement(5)+sym2x5witness", 4, 4),
    (ROW_ICOSAHEDRON, "icosahedron+rotations", 5, 3),
    (ROW_GRID_COMPLEMENT_6, "grid_complement(6)+sym2x6witness", 5, 4),
)

# corpus pairs near a catalog row that must match none
NEAR_MISSES = ("complete_bipartite(4,4)+wreath", "complete(5)+sym5", "cycle(6)+dihedral")


def table_row_reports() -> tuple:
    """Each catalog row as ``(row, valency, girth, report)``, the report
    being the one its corpus pair's profile holds."""
    return tuple((row, valency, girth, _profile(pair).report)
                 for row, pair, valency, girth in CATALOG_ROWS)


@lru_cache(maxsize=1)
def girth4_graph_corpus() -> tuple:
    """Named girth-4 graphs for the per-vertex edge-count identity."""
    out = []
    for m in range(4, 9):
        out.append((f"grid_complement({m})", families.grid_complement(m).graph))
    for d in range(3, 8):
        out.append((f"hamming({d},2)", families.hamming(d, 2).graph))
    for k in range(3, 6):
        out.append((f"complete_bipartite({k},{k})",
                    families.complete_bipartite(k, k).graph))
    return tuple(out)


def _needs_enumeration(budget: Budget, claim: str, order: int):
    if order > budget.subgroup_order_cap:
        return ClaimVerdict(
            claim, "skipped", {"group_order": order,
                               "subgroup_order_cap": budget.subgroup_order_cap},
            reason=f"subgroup enumeration budget {budget.subgroup_order_cap} "
                   f"is below the group order {order}")
    return None


# -- individual claims ---------------------------------------------------------


def _claim_l22(budget: Budget) -> ClaimVerdict:
    failures = []
    girth5_cases = girth3_cases = 0
    for p in corpus_profiles():
        if p.girth >= 5 and p.dt2:
            girth5_cases += 1
            if not p.at2:
                failures.append(f"{p.name}: girth >= 5 and 2-DT but not 2-AT")
        if p.girth == 3 and not p.complete:
            girth3_cases += 1
            if p.at2:
                failures.append(f"{p.name}: girth 3 non-complete but 2-AT")
    evidence = {"pairs_checked": len(corpus_profiles()),
                "girth5_implications": girth5_cases,
                "girth3_implications": girth3_cases,
                "failures": failures}
    return ClaimVerdict("L2.2", "verified" if not failures else "refuted", evidence)


def _subgroup_flags(graph: Graph, ambient: PermutationGroup, subgroups) -> list:
    """``(dt2, at2)`` for each subgroup of ``ambient``. The pair is validated
    once, through the ambient group's generators (every subgroup element is
    then an automorphism too), and every subgroup reads the partition from
    vertex 0 that the validation stores on the graph."""
    _validate_pair(graph, ambient)
    return [(bool(_distance_transitivity(graph, sub, 2)),
             bool(_arc_transitivity(graph, sub, 2)[0])) for sub in subgroups]


def _lattice(graph: Graph, ambient: PermutationGroup, budget: Budget) -> list:
    """``(representative, class length, dt2, at2)`` for each conjugacy class
    of subgroups of ``ambient``. ``ambient`` acts on ``graph`` by
    automorphisms, so conjugate subgroups give isomorphic pairs and every
    verdict is the representative's; each count is weighted by the length."""
    classes = subgroup_classes(ambient, budget.subgroup_order_cap)
    flags = _subgroup_flags(graph, ambient, [sub for sub, _ in classes])
    return [(sub, length, dt2, at2) for (sub, length), (dt2, at2) in zip(classes, flags)]


def _claim_l32(budget: Budget) -> ClaimVerdict:
    wreath = families.wreath_grid(4)
    skip = _needs_enumeration(budget, "L3.2", wreath.order())
    if skip:
        return skip
    lattice = _lattice(families.grid_complement(4).graph, wreath, budget)
    mismatches = []
    condition_count = 0
    for sub, length, dt2, at2 in lattice:
        condition = check_condition_3_1(sub, 4).satisfied
        qualifying = dt2 and not at2
        if condition:
            condition_count += length
        if condition != qualifying:
            mismatches += [{"order": sub.order(), "condition": condition,
                            "qualifying": qualifying}] * length
    witness_results = {}
    for m in (5, 6):
        witness = _profile(f"grid_complement({m})+sym2x{m}witness")
        full = _profile(f"grid_complement({m})+wreath_grid({m})")
        witness_results[f"m{m}_witness"] = (
            check_condition_3_1(witness.group, m).satisfied
            and witness.dt2 and not witness.at2)
        witness_results[f"m{m}_full_group_excluded"] = (
            not check_condition_3_1(full.group, m).satisfied
            and not (full.dt2 and not full.at2))
    ok = not mismatches and all(witness_results.values())
    evidence = {"m4_subgroups": sum(length for _, length, _, _ in lattice),
                "m4_condition_count": condition_count,
                "m4_discrepancies": mismatches,
                **witness_results}
    return ClaimVerdict("L3.2", "verified" if ok else "refuted", evidence)


def _claim_l33(budget: Budget) -> ClaimVerdict:
    evidence = {}
    failures = []
    for m in (2, 3):
        wreath = families.wreath_bipartite(m)
        skip = _needs_enumeration(budget, "L3.3", wreath.order())
        if skip:
            return skip
        lattice = _lattice(families.complete_bipartite(m, m).graph, wreath, budget)
        dt_count = at_count = 0
        for sub, length, dt2, at2 in lattice:
            dt_count += dt2 * length
            at_count += at2 * length
            if dt2 != at2:
                failures += [{"m": m, "order": sub.order(), "dt2": dt2, "at2": at2}] * length
        evidence[f"m{m}_subgroups"] = sum(length for _, length, _, _ in lattice)
        evidence[f"m{m}_2dt_groups"] = dt_count
        evidence[f"m{m}_2at_groups"] = at_count
    evidence["discrepancies"] = failures
    return ClaimVerdict("L3.3", "verified" if not failures else "refuted", evidence)


def _claim_l34(budget: Budget) -> ClaimVerdict:
    full = families.octahedral()
    skip = _needs_enumeration(budget, "L3.4", full.order())
    if skip:
        return skip
    blocks = [{0, 3}, {1, 4}, {2, 5}]
    lattice = _lattice(families.octahedron().graph, full, budget)
    dt_orders = []
    dt_index2_images = []
    any_at = False
    index2_images = []
    small_block_image_dt = None
    for sub, length, dt2, at2 in lattice:
        any_at = any_at or at2
        if dt2:
            dt_orders += [sub.order()] * length
        if sub.order() == 24:
            projection, _ = induced_action(sub, blocks)
            index2_images += [projection.order()] * length
            if dt2:
                dt_index2_images += [projection.order()] * length
            if projection.order() == 3:
                small_block_image_dt = dt2
    ok = (sorted(dt_orders) == [24, 24, 48]
          and sorted(index2_images) == [3, 6, 6]
          and sorted(dt_index2_images) == [6, 6]
          and small_block_image_dt is False
          and not any_at)
    evidence = {"subgroups": sum(length for _, length, _, _ in lattice),
                "two_dt_orders": sorted(dt_orders),
                "index2_block_image_orders": sorted(index2_images),
                "dt_index2_block_image_orders": sorted(dt_index2_images),
                "cyclic_block_image_subgroup_is_2dt": small_block_image_dt,
                "any_2at": any_at}
    return ClaimVerdict("L3.4", "verified" if ok else "refuted", evidence)


def _claim_l35(budget: Budget) -> ClaimVerdict:
    full = families.icosahedral()
    skip = _needs_enumeration(budget, "L3.5", full.order())
    if skip:
        return skip
    lattice = _lattice(families.icosahedron().graph, full, budget)
    dt_orders = sorted(order for sub, length, dt2, _ in lattice if dt2
                       for order in [sub.order()] * length)
    ok = dt_orders == [60, 120]
    return ClaimVerdict("L3.5", "verified" if ok else "refuted",
                        {"subgroups": sum(length for _, length, _, _ in lattice),
                         "two_dt_orders": dt_orders})


def _claim_l41(budget: Budget) -> ClaimVerdict:
    checked = 0
    failures = []
    for name, graph in girth4_graph_corpus():
        for u in range(graph.n):
            k = graph.degree(u)
            # the identity is local: layers 0-2 from u, not the whole graph
            inter = intersection_numbers(graph, u, depth=2)
            checked += 1
            if inter.c(2) is None or k * (k - 1) != inter.c(2) * inter.sizes[2]:
                failures.append(f"{name} at vertex {u}")
    evidence = {"graphs": len(girth4_graph_corpus()),
                "vertices_checked": checked, "failures": failures}
    return ClaimVerdict("L4.1", "verified" if not failures else "refuted", evidence)


def _psi_is_bijection(graph: Graph, u: int, k: int) -> bool:
    """Each second-layer vertex meets the neighborhood in a distinct 2-subset,
    and the count matches k choose 2."""
    nbrs = set(graph.adjacency[u])
    layer2 = distance_partition(graph, u, depth=2).layer(2)
    images = set()
    for w in layer2:
        meet = frozenset(nbrs & set(graph.adjacency[w]))
        if len(meet) != 2:
            return False
        images.add(meet)
    return len(images) == len(layer2) == k * (k - 1) // 2


def _claim_l42(budget: Budget) -> ClaimVerdict:
    qualifying = [p for p in corpus_profiles()
                  if p.girth == 4 and p.c2 == 2 and p.dt2 and not p.at2]
    failures = []
    for p in qualifying:
        kantor = check_kantor_conditions(neighborhood_action(p.graph, p.group, 0))
        if kantor.status != "verified":
            failures.append(f"{p.name}: neighborhood action fails the Kantor conditions")
        if not all(_psi_is_bijection(p.graph, u, p.valency) for u in range(p.graph.n)):
            failures.append(f"{p.name}: second layer does not biject onto 2-subsets")
    evidence = {"qualifying_pairs": [p.name for p in qualifying], "failures": failures}
    status = "verified" if qualifying and not failures else (
        "refuted" if failures else "skipped")
    reason = None if qualifying else "no qualifying corpus pair"
    return ClaimVerdict("L4.2", status, evidence, reason)


def _claim_l43(budget: Budget) -> ClaimVerdict:
    profile = _profile("hamming(7,2)+s2wr_frobenius21")
    group = profile.group
    stabilizer = group.point_stabilizer(0)
    flips_inside = all(
        Permutation(tuple(v ^ (1 << i) for v in range(128))) in group
        for i in range(7))
    checks = {
        "is_2dt_not_2at": profile.dt2 and not profile.at2,
        "c2": profile.c2,
        "coordinate_flips_are_members": flips_inside,
        "order_factorizes": group.order() == 128 * stabilizer.order(),
        "stabilizer_order": stabilizer.order(),
    }
    ok = (checks["is_2dt_not_2at"] and checks["c2"] == 2
          and flips_inside and checks["order_factorizes"]
          and stabilizer.order() == 21)
    return ClaimVerdict("L4.3", "verified" if ok else "refuted", checks)


def _claim_l44(budget: Budget) -> ClaimVerdict:
    failures = []
    instances = {"c2_equals_k": 0, "c2_equals_k_minus_1": 0}
    for k in (3, 4, 5):
        for p in corpus_profiles():
            if p.girth != 4 or not p.dt2 or p.valency != k:
                continue
            if p.c2 == k:
                instances["c2_equals_k"] += 1
                if not _is_complete_bipartite(p.graph, k):
                    failures.append(f"{p.name}: expected complete bipartite")
            elif p.c2 == k - 1:
                instances["c2_equals_k_minus_1"] += 1
                if _grid_labelling(p.graph, k + 1) is None:
                    failures.append(f"{p.name}: expected grid complement")
    ok = not failures and all(v > 0 for v in instances.values())
    evidence = {**instances, "failures": failures}
    return ClaimVerdict("L4.4", "verified" if ok else "refuted", evidence)


def _qualifying_girth4(profiles) -> list:
    return [p for p in profiles
            if p.girth == 4 and p.dt2 and not p.at2 and p.valency >= 3]


def _claim_t11(budget: Budget) -> ClaimVerdict:
    failures = []
    qualifying = _qualifying_girth4(corpus_profiles())
    boundary = interior = 0
    for p in qualifying:
        k = p.valency
        if not (p.c2 is not None and 2 <= p.c2 <= k - 1):
            failures.append(f"{p.name}: c2={p.c2} outside 2..{k - 1}")
            continue
        if p.c2 == k - 1:
            boundary += 1
            if not _match_grid_row(p.graph, p.group, k + 1):
                failures.append(f"{p.name}: c2=k-1 but no grid-complement row match")
                continue
        if p.c2 == 2:
            interior += 1
            kantor = check_kantor_conditions(neighborhood_action(p.graph, p.group, 0))
            if kantor.status != "verified":
                failures.append(f"{p.name}: neighborhood action fails the Kantor conditions")
    evidence = {"qualifying": [p.name for p in qualifying],
                "c2_boundary_cases": boundary, "c2_equals_2_cases": interior,
                "failures": failures}
    ok = bool(qualifying) and not failures
    return ClaimVerdict("T1.1", "verified" if ok else "refuted", evidence)


def _claim_c12(budget: Budget) -> ClaimVerdict:
    failures = []
    prime_cases = []
    part_iii_cases = []
    for p in _qualifying_girth4(corpus_profiles()):
        if not is_prime(p.valency):
            continue
        prime_cases.append(p.name)
        pv = p.valency
        if _grid_labelling(p.graph, pv + 1) is not None:
            continue
        if not (p.c2 is not None and (pv - 1) % p.c2 == 0 and 2 <= p.c2 <= (pv - 1) // 2):
            failures.append(f"{p.name}: c2={p.c2} violates the divisibility bound")
        if p.c2 == 2 and pv % 4 != 3:
            failures.append(f"{p.name}: c2=2 but valency != 3 mod 4")
        if p.c2 == (pv - 1) // 2:
            part_iii_cases.append(p.name)
            if p.second_layer != 2 * pv:
                failures.append(f"{p.name}: second layer size is not 2p")
            stab = p.group.point_stabilizer(0)
            layer2 = distance_partition(p.graph, 0).layer(2)
            restricted, _ = induced_action(stab, [{v} for v in layer2])
            if not find_block_systems(restricted):
                failures.append(f"{p.name}: stabilizer is primitive on the second layer")
    evidence = {"prime_valency_pairs": prime_cases,
                "part_iii": part_iii_cases or "no qualifying instance in corpus",
                "failures": failures}
    ok = bool(prime_cases) and not failures
    return ClaimVerdict("C1.2", "verified" if ok else "refuted", evidence)


def _claim_t13(budget: Budget) -> ClaimVerdict:
    failures = []
    matched = 0
    for row, valency, girth, report in table_row_reports():
        ok = (report.matched_row == row
              and report.distance_transitive[2]
              and not report.arc_transitive[2]
              and report.valency == valency
              and report.girth == girth)
        if ok:
            matched += 1
        else:
            failures.append({"row": row, "matched": report.matched_row,
                             "dt2": report.distance_transitive[2],
                             "at2": report.arc_transitive[2]})
    clear = 0
    for name in NEAR_MISSES:
        report = _profile(name).report
        if report.matched_row is None:
            clear += 1
        else:
            failures.append({"near_miss": name, "matched": report.matched_row})
    evidence = {"rows_matched": matched, "rows_total": len(CATALOG_ROWS),
                "near_misses_clear": clear, "failures": failures}
    ok = matched == len(CATALOG_ROWS) and clear == len(NEAR_MISSES)
    return ClaimVerdict("T1.3", "verified" if ok else "refuted", evidence)


# the claim catalog, in report order: each code with its verifier and description
_CLAIMS = {
    "L2.2": (_claim_l22,
             "girth shortcuts: girth >= 5 forces 2-arc transitivity of 2-distance "
             "transitive pairs; girth 3 non-complete forbids it"),
    "L3.2": (_claim_l32,
             "grid complements: 2-DT-not-2-AT coincides with the row-swap / "
             "2-transitive-column condition (exhaustive at m=4, witnesses at m=5,6)"),
    "L3.3": (_claim_l33,
             "complete bipartite: 2-distance transitive iff 2-arc transitive "
             "(exhaustive for the 2x2 and 3x3 cases)"),
    "L3.4": (_claim_l34,
             "octahedron: the qualifying groups are the full wreath group and the "
             "two index-2 subgroups with full block image"),
    "L3.5": (_claim_l35,
             "icosahedron: exactly two subgroups act 2-distance transitively"),
    "L4.1": (_claim_l41,
             "girth-4 identity k(k-1) = c2 * |second layer| at every vertex"),
    "L4.2": (_claim_l42,
             "girth-4 c2=2 pairs: neighborhood stabilizer 2-homogeneous but not "
             "2-transitive and valency a prime power = 3 (mod 4)"),
    "L4.3": (_claim_l43,
             "binary 7-cube instance: coordinate flips extended by the Frobenius "
             "group of order 21 is 2-DT-not-2-AT with the product decomposition"),
    "L4.4": (_claim_l44,
             "girth-4 boundary: c2=k forces the complete bipartite graph, c2=k-1 "
             "forces the grid complement (k = 3, 4, 5)"),
    "T1.1": (_claim_t11,
             "girth-4 2-DT-not-2-AT pairs satisfy 2 <= c2 <= k-1 with the stated "
             "boundary structure"),
    "C1.2": (_claim_c12,
             "prime-valency girth-4 refinement: c2 divides p-1 with "
             "2 <= c2 <= (p-1)/2, plus the c2=2 and c2=(p-1)/2 structure"),
    "T1.3": (_claim_t13,
             "valency <= 5 catalog: the seven rows are reproduced and near-misses "
             "match no row"),
}

CLAIM_IDS = tuple(_CLAIMS)
CLAIM_DESCRIPTIONS = {claim: description for claim, (_, description) in _CLAIMS.items()}


def verify_claim(claim: str, budget: Budget = Budget()) -> ClaimVerdict:
    key = claim.strip().upper()
    if key not in _CLAIMS:
        raise UnknownClaim(
            f"unknown claim {claim!r}; known claims: {', '.join(CLAIM_IDS)}")
    return _CLAIMS[key][0](budget)


def verify_all_claims(budget: Budget = Budget()) -> list:
    return [verify_claim(claim, budget) for claim in CLAIM_IDS]
