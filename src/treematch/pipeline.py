"""End-to-end matching: similarity, graph build, then Metropolis search."""

from __future__ import annotations

from .graph import MatchGraph, Matching, build_graph
from .optimize import metropolis
from .similarity import SftmParams, initial_similarity, propagate
from .tree import LabeledTree


def match_trees_detailed(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams = SftmParams(),
) -> tuple[Matching, MatchGraph]:
    s0 = initial_similarity(t1, t2, params)
    sp = propagate(s0, t1, t2, params)
    g = build_graph(sp, t1, t2)
    return metropolis(g, params), g


def match_trees(
    t1: LabeledTree, t2: LabeledTree, params: SftmParams = SftmParams()
) -> Matching:
    """Match two trees and return the best full matching found."""
    matching, _ = match_trees_detailed(t1, t2, params)
    return matching
