"""End-to-end matching: similarity, propagation straight into the graph,
then Metropolis search."""

from __future__ import annotations

from .graph import MatchGraph, Matching, propagate_graph
from .optimize import metropolis
from .similarity import SftmParams, initial_similarity
from .tree import LabeledTree


def match_trees_detailed(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams = SftmParams(),
) -> tuple[Matching, MatchGraph]:
    s0 = initial_similarity(t1, t2, params)
    g = propagate_graph(s0, t1, t2, params)
    return metropolis(g, params), g


def match_trees(
    t1: LabeledTree, t2: LabeledTree, params: SftmParams = SftmParams()
) -> Matching:
    """Match two trees and return the best full matching found."""
    matching, _ = match_trees_detailed(t1, t2, params)
    return matching
