"""Exact spectra and resolving sets of combination graphs.

Two families over an alphabet {1..d} and sequence length c: the base graph
on nondecreasing sequences (adjacent when every coordinate differs by at
most one) and its extension by c extra vertices wired to the sequences by
their count of ones.  Everything is computed in exact integer or rational
arithmetic: distances, Laplacian spectra, closed-form eigenvectors,
resolving sets.
"""

from .families import (
    aligned,
    canonical_order,
    combination_graph,
    combination_labels,
    expected_orders,
    label_sort_key,
    resolver_graph,
    resolver_graph_indexed,
    resolver_graph_iterative,
    resolver_graph_step,
)
from .formats import (
    read_edgelist,
    read_graph6,
    read_graph_auto,
    write_dot,
    write_edgelist,
    write_graph6,
)
from .graphs import (
    Combination,
    DisconnectedGraphError,
    Graph,
    Resolver,
    all_pairs_distances,
    are_adjacency_equal,
    bfs_distances,
    degree_sequence,
    diameter,
    disjoint_union,
    eccentricities,
    join,
    permuted,
    radius,
)
from .linalg import char_poly
from .metric import (
    SearchExhausted,
    SearchResult,
    dimension_search,
    is_multiset_resolving,
    is_outer_multiset_resolving,
    is_resolving,
    multiset_rep,
    outer_multiset_dimension,
    vector_rep,
)
from .spectra import (
    EigenpairReport,
    Spectrum,
    VerificationError,
    edge_partition_sums,
    eigenvalue_of_class,
    eigenvector_family,
    integral_spectrum,
    laplacian,
    rayleigh,
    realizability_step,
    realizes_gap_spectrum,
    verify_eigenpairs,
)
from .verify import Check, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "Check",
    "Combination",
    "DisconnectedGraphError",
    "EigenpairReport",
    "Graph",
    "Resolver",
    "SearchExhausted",
    "SearchResult",
    "Spectrum",
    "VerificationError",
    "VerifyReport",
    "aligned",
    "all_pairs_distances",
    "are_adjacency_equal",
    "bfs_distances",
    "canonical_order",
    "char_poly",
    "combination_graph",
    "combination_labels",
    "degree_sequence",
    "diameter",
    "dimension_search",
    "disjoint_union",
    "eccentricities",
    "edge_partition_sums",
    "eigenvalue_of_class",
    "eigenvector_family",
    "expected_orders",
    "integral_spectrum",
    "is_multiset_resolving",
    "is_outer_multiset_resolving",
    "is_resolving",
    "join",
    "label_sort_key",
    "laplacian",
    "multiset_rep",
    "outer_multiset_dimension",
    "permuted",
    "radius",
    "rayleigh",
    "read_edgelist",
    "read_graph6",
    "read_graph_auto",
    "realizability_step",
    "realizes_gap_spectrum",
    "resolver_graph",
    "resolver_graph_indexed",
    "resolver_graph_iterative",
    "resolver_graph_step",
    "run_verify",
    "vector_rep",
    "verify_eigenpairs",
    "write_dot",
    "write_edgelist",
    "write_graph6",
    "__version__",
]
