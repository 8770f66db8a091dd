"""Exact solvers for parameterized clustering and cluster selection under
Minkowski-type distances, with reduction instance generators."""

from .core import (
    Clustering,
    Dataset,
    DistanceOrder,
    InitialCluster,
    distance,
    merge_cost_bound,
    regularize,
)
from .cost_model import Cost, CostSet, cost_eq, cost_eval, cost_le, enumerate_cost_set
from .centroids import (
    WeightedCluster,
    binary_coordinate_cost,
    centroid_l0,
    centroid_l1,
    centroid_l2,
    centroid_linf_grid,
    centroid_linf_lp,
    centroid_lp,
    optimal_cluster_cost,
)
from .hypergraph import (
    Hypergraph,
    build_difference_hypergraph,
    candidate_coordinate_sets,
    enumerate_patterns,
    find_appearances,
    quarter_cover_holds,
)
from .selection import (
    EnumerationCapExceeded,
    SelectionInstance,
    SelectionResult,
    select_bruteforce,
    select_fixed_centroid,
    solve_selection,
)
from .solver import (
    ClusteringInstance,
    SolveConfig,
    SolveResult,
    coloring_success_estimate,
    solve_bruteforce,
    solve_color_coding,
)
from .generators import (
    BinarySelectionInstance,
    CnfFormula,
    EmptyGroupError,
    Graph,
    HioctInstance,
    ReductionReport,
    gen_hioct_from_3sat,
    gen_l0_clustering_from_clique,
    gen_l0_selection_from_mcc,
    gen_l1_selection_from_mcc,
    gen_linf2_from_hioct,
    gen_linf_clustering_from_clique,
    gen_linf_selection_from_mcc,
    gen_lp_selection_from_mcc,
    graph_has_clique,
    hioct_bruteforce,
    hioct_check,
    l0_cluster_diagnostics,
    verify_reduction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
