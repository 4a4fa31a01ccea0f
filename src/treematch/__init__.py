"""Flexible matching of labeled trees via token similarity.

Builds an IDF-weighted token similarity between the nodes of two trees,
turns the positive-similarity pairs into a sparse bipartite graph, and
searches the graph for a cheap full matching with a Metropolis walk. Ships
with a tree-edit-distance baseline plus a mutation-based evaluation harness
with signature ground truth.
"""

from .baselines import ted_distance, ted_match
from .evaluate import (
    BenchRow,
    MutantBundle,
    QualityReport,
    SweepRow,
    load_bundle,
    optimal_rate,
    run_benchmark,
    score_matching,
    sensitivity_sweep,
    write_bundle,
)
from .graph import Edge, MatchGraph, Matching, build_graph, edge_count, matching_cost
from .mutate import MutationLog, MutationOp, assign_signatures, ground_truth, mutate
from .optimize import initial_matching, metropolis, suggest_matching
from .pipeline import match_trees, match_trees_detailed
from .similarity import (
    SftmParams,
    SimilarityTable,
    TokenIndex,
    apply_threshold,
    build_token_index,
    initial_similarity,
    propagate,
)
from .tokens import TokenOptions, string_tokenize, tokenize_node
from .tree import (
    LabeledTree,
    TreeNode,
    parse_html,
    parse_tree_json,
    serialize_tree_json,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "Edge",
    "LabeledTree",
    "MatchGraph",
    "Matching",
    "MutantBundle",
    "MutationLog",
    "MutationOp",
    "QualityReport",
    "SftmParams",
    "SimilarityTable",
    "SweepRow",
    "TokenIndex",
    "TokenOptions",
    "TreeNode",
    "apply_threshold",
    "assign_signatures",
    "build_graph",
    "build_token_index",
    "edge_count",
    "ground_truth",
    "initial_matching",
    "initial_similarity",
    "load_bundle",
    "match_trees",
    "match_trees_detailed",
    "matching_cost",
    "metropolis",
    "mutate",
    "optimal_rate",
    "parse_html",
    "parse_tree_json",
    "propagate",
    "run_benchmark",
    "score_matching",
    "sensitivity_sweep",
    "serialize_tree_json",
    "string_tokenize",
    "suggest_matching",
    "ted_distance",
    "ted_match",
    "tokenize_node",
    "write_bundle",
]
