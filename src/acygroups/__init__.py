"""Finite groups and groupoids with coset-acyclic Cayley graphs.

Builds groups from edge-coloured graphs whose colour classes are partial
matchings, searches their Cayley graphs for coset cycles, grows extensions
that exclude such cycles up to a target length (optionally relative to a
reachability template), extracts pattern groupoids from the result, and
applies everything to finite graph and hypergraph coverings.
"""

from .acyclicity import (
    GammaFilter,
    find_coset_cycle,
    girth,
    is_two_acyclic,
    validate_coset_cycle,
)
from .amalgam import Amalgam, amalgam_chain, amalgam_cluster
from .canon import canonical_form
from .constraint import (
    IContext,
    Skeleton,
    SmallCosetAmalgam,
    find_i_coset_cycle,
    is_free_over,
    is_free_skeleton,
    small_coset_amalgam,
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
from .egraph import EGraph, biggs_tree, disjoint_union, hypercube, new_egraph, trivial_completion
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
    pattern_igraph,
    sym_igraph,
    translate_igraph,
    verify_groupoid_axioms,
)
from .groups import (
    EGroup,
    cayley_graph,
    homomorphism,
    is_compatible,
    is_group_symmetry,
    sym,
)
from .serialize import TOOL_VERSION as __version__
from .synthesis import (
    StageReport,
    SynthesisConfig,
    construct_n_acyclic,
    stage_graph,
)
