"""Random generation and exact extremal analysis of ordered task-dependency graphs.

The carrier type is a labeled DAG on vertices 1..n whose edges all point from
a lower to a higher index.  The package provides seeded randomized processes
that grow or strip such graphs toward a prescribed number of sources and
sinks, closed-form extremal values with brute-force cross-checks, named
extremal graph families, and a reproducible Monte-Carlo experiment harness.
"""

from .analysis import (
    ExtremalKind,
    StructureCase,
    StructureLabel,
    classify_extremal,
    expected_tree_path_length,
    extremal_value,
    find_removable_path,
    is_minimal_xy,
    removal_density_limit,
    remove_removable_path,
    retention_probability_bound,
)
from .errors import CapacityError, ConfigError, DomainError, GraphError, TaskDagError
from .families import (
    addition_trap,
    build_family,
    densest_connected_minimal_graph,
    densest_graph,
    densest_minimal_graph,
    removal_trap,
)
from .graph import OrderedDag, VertexProfile, complete_graph, empty_graph, ordered_pairs
from .harness import (
    TrialSummary,
    derive_seed,
    export,
    growth_experiment,
    run_trials,
    table_experiment,
)
from .oracle import (
    EnumerationScope,
    ExactDistribution,
    enumerate_graphs,
    exact_process_distribution,
    oracle_extremal,
    oracle_is_minimal,
    oracle_linear_extensions,
)
from .processes import (
    HaltReason,
    ProcessConfig,
    ProcessKind,
    ProcessOutcome,
    combined_process,
    edge_addition_process,
    edge_removal_process,
    random_directed_tree,
    run_process,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConfigError",
    "DomainError",
    "EnumerationScope",
    "ExactDistribution",
    "ExtremalKind",
    "GraphError",
    "HaltReason",
    "OrderedDag",
    "ProcessConfig",
    "ProcessKind",
    "ProcessOutcome",
    "StructureCase",
    "StructureLabel",
    "TaskDagError",
    "TrialSummary",
    "VertexProfile",
    "addition_trap",
    "build_family",
    "classify_extremal",
    "combined_process",
    "complete_graph",
    "densest_connected_minimal_graph",
    "densest_graph",
    "densest_minimal_graph",
    "derive_seed",
    "edge_addition_process",
    "edge_removal_process",
    "empty_graph",
    "enumerate_graphs",
    "exact_process_distribution",
    "expected_tree_path_length",
    "export",
    "extremal_value",
    "find_removable_path",
    "growth_experiment",
    "is_minimal_xy",
    "oracle_extremal",
    "oracle_is_minimal",
    "oracle_linear_extensions",
    "ordered_pairs",
    "random_directed_tree",
    "removal_density_limit",
    "removal_trap",
    "remove_removable_path",
    "retention_probability_bound",
    "run_process",
    "run_trials",
    "table_experiment",
]
