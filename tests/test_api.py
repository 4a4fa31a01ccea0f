"""The public names of the package, pinned so that adding or removing one is
a deliberate change to this list."""

from __future__ import annotations

import treematch

PUBLIC_NAMES = {
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
}


def test_all_is_pinned():
    assert sorted(treematch.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(treematch, name) for name in treematch.__all__)
