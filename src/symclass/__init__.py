"""symclass: exact permutation-group and graph machinery for deciding
2-distance, 2-arc and 2-geodesic transitivity of concrete (graph, group)
pairs, with an exhaustively verified catalog of small classification claims."""

from .actions import (
    BlockSystem,
    TransitivityDegrees,
    find_block_systems,
    induced_action,
    transitivity_degree_tests,
)
from .autgroup import IsomorphismResult, automorphism_group, canonical_form, is_isomorphic
from .claims import (
    Budget,
    CLAIM_DESCRIPTIONS,
    CLAIM_IDS,
    ClaimVerdict,
    check_kantor_conditions,
    standard_corpus,
    verify_all_claims,
    verify_claim,
)
from .classify import (
    ConditionCheck,
    TransitivityCheck,
    TransitivityReport,
    check_condition_3_1,
    classify_pair,
    is_2_geodesic_transitive,
    is_s_arc_transitive,
    is_s_distance_transitive,
    neighborhood_action,
)
from .errors import SymclassError
from .graph6 import decode_graph6, decode_graph6_lines, encode_graph6
from .graphs import (
    DistancePartition,
    Graph,
    IntersectionNumbers,
    complement,
    diameter,
    distance_partition,
    edge_action,
    girth,
    intersection_numbers,
    is_complete,
    line_graph,
)
from .group import (
    PermutationGroup,
    StabilizerChain,
    format_generator_file,
    parse_generator_file,
)
from .perm import Permutation
from .subgroups import enumerate_subgroups

__all__ = [
    "BlockSystem", "Budget", "CLAIM_DESCRIPTIONS", "CLAIM_IDS", "ClaimVerdict",
    "ConditionCheck", "DistancePartition", "Graph", "IntersectionNumbers",
    "IsomorphismResult", "Permutation", "PermutationGroup", "StabilizerChain",
    "SymclassError", "TransitivityCheck", "TransitivityDegrees",
    "TransitivityReport", "automorphism_group", "canonical_form",
    "check_condition_3_1", "check_kantor_conditions", "classify_pair",
    "complement", "decode_graph6", "decode_graph6_lines", "diameter",
    "distance_partition", "edge_action", "encode_graph6",
    "enumerate_subgroups", "find_block_systems", "format_generator_file",
    "girth", "induced_action", "intersection_numbers", "is_2_geodesic_transitive",
    "is_complete", "is_isomorphic", "is_s_arc_transitive",
    "is_s_distance_transitive", "line_graph",
    "neighborhood_action", "parse_generator_file", "standard_corpus",
    "transitivity_degree_tests", "verify_all_claims", "verify_claim",
]
