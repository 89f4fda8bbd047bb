"""Finite groups and groupoids with coset-acyclic Cayley graphs.

Builds groups from edge-coloured graphs whose colour classes are partial
matchings, searches their Cayley graphs for coset cycles, grows extensions
that exclude such cycles up to a target length (optionally relative to a
reachability template), extracts pattern groupoids from the result, and
applies everything to finite graph and hypergraph coverings.
"""

from .acyclicity import (
    GammaFilter,
    coset_support,
    find_coset_cycle,
    girth,
    is_n_acyclic,
    is_two_acyclic,
    minimal_support,
    validate_coset_cycle,
)
from .amalgam import (
    Amalgam,
    FailureWitness,
    amalgam_chain,
    amalgam_cluster,
    beta_components,
    embed_into_cayley,
    free_amalgam,
    has_cluster_property,
)
from .canon import canonical_form, find_isomorphism, is_symmetry, isomorphic
from .constraint import (
    IContext,
    Skeleton,
    SmallCosetAmalgam,
    ce_cluster_property,
    direct_product,
    find_i_coset_cycle,
    i_component,
    is_free_over,
    is_free_skeleton,
    is_n_acyclic_over,
    is_skeleton,
    minimal_tag_support,
    small_coset_amalgam,
    trivial_constraint_graph,
    validate_i_coset_cycle,
)
from .covering import (
    Covering,
    Hypergraph,
    check_n_acyclic_hypergraph,
    graph_cover,
    hypergraph_cover,
    intersection_graph,
    verify_cover,
)
from .egraph import (
    EGraph,
    alpha_component,
    biggs_tree,
    disjoint_union,
    hypercube,
    new_egraph,
    reduce_word,
    rename,
    trivial_completion,
    walk_target,
)
from .errors import (
    AcygroupsError,
    CompatibilityRequired,
    DegenerateGenerators,
    IncompleteGraph,
    MatchingViolation,
    PreconditionFailed,
    ResourceCap,
    SchemaError,
    StrictnessViolation,
    TransitivityViolation,
    UnknownName,
)
from .groupoid import (
    ConstraintPattern,
    HatTranslation,
    IGraph,
    IGroupoid,
    construct_n_acyclic_groupoid,
    find_groupoid_coset_cycle,
    groupoid_cayley,
    groupoid_from_group,
    hat_translation,
    is_compatible_groupoid,
    is_n_acyclic_groupoid,
    pattern_igraph,
    sym_igraph,
    translate_igraph,
    verify_groupoid_axioms,
)
from .groups import (
    EGroup,
    cayley_graph,
    coset_graph,
    evaluate_word,
    homomorphism,
    is_compatible,
    is_group_symmetry,
    subgroup,
    sym,
)
from .synthesis import (
    StageReport,
    SynthesisConfig,
    construct_n_acyclic,
    construct_n_acyclic_over,
    stage_graph,
)

__version__ = "0.1.0"
