"""Exact computations on finite permutation actions.

The package makes the finite core of permutation-stability theory
executable: exact Hamming metric, action traces and statistics with
inclusion-exclusion, orbit-type multiplicity vectors with conjugacy
witnesses, constructive small conjugators, extension and retract
decisions, amalgam assembly, lift composition, correction of
almost-centralizing permutations, and action-graph statistics.
"""

from .errors import PermStabError
from .perm import (
    Permutation,
    direct_sum,
    hamming_distance,
    parse_permutation,
    replicate,
)
from .groups import (
    FiniteGroup,
    FpGroup,
    PermHomomorphism,
    Subgroup,
    check_homomorphism,
    coset_action,
    cyclic_group,
    dihedral_group,
    direct_product,
    direct_sum_hom,
    evaluate_word,
    group_from_permutations,
    klein_four_group,
    quaternion_group,
    subgroup_conjugacy_classes,
    symmetric_group,
    trivial_hom,
)
from .trace_stats import ActionTrace, action_trace, bs_statistic, s_from_tr, tr_from_s
from .multiplicity import (
    MultiplicityVector,
    hom_order_leq,
    is_conjugate,
    multiplicity_vector,
    rep_subtract,
)
from .stability import (
    AmalgamHom,
    amalgamated_hom,
    centralizer_correct,
    compose_lift,
    find_normal_complement,
    has_extension,
    min_conjugator_distance,
    replication_count,
    small_conjugator,
)
from .graphs import (
    LabeledDigraph,
    RootedPattern,
    SimpleGraph,
    action_graph,
    decode_simple,
    encode_to_simple,
    enumerate_patterns,
    pattern_frequency,
    stat_distance_truncated,
)

__version__ = "0.1.0"
