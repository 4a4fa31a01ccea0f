"""End-to-end matching: similarity rows streamed through propagation
straight into the graph, then Metropolis search. No similarity table is
built: each scored row goes into the climb as it is made."""

from __future__ import annotations

from .graph import MatchGraph, Matching, graph_from_rows
from .optimize import metropolis
from .similarity import SftmParams, initial_rows
from .tree import LabeledTree


def match_trees_detailed(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams = SftmParams(),
) -> tuple[Matching, MatchGraph]:
    # the scored rows stream into the climb, so no similarity table is built
    g = graph_from_rows(initial_rows(t1, t2, params), t1, t2, params)
    return metropolis(g, params), g


def match_trees(
    t1: LabeledTree, t2: LabeledTree, params: SftmParams = SftmParams()
) -> Matching:
    """Match two trees and return the best full matching found."""
    matching, _ = match_trees_detailed(t1, t2, params)
    return matching
