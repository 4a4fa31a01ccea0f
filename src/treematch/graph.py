"""Sparse bipartite matching graph and full matchings over it.

An edge exists only for node pairs with a positive propagated similarity;
its cost is 1/(1+score), so better-scoring pairs are cheaper. A full
matching covers every node of both trees exactly once, either by a pair or
by leaving it in the unmatched set (the no-match assignment), and is charged
``no_match_cost`` per unmatched node.

The graph keeps its edges as three parallel arrays (t1 node, t2 node, cost)
sorted by (cost, n, m), so the optimizer scans plain tuples and no object is
built per edge on the matching path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

from .similarity import SftmParams, SimilarityTable
from .tree import LabeledTree


class NotFull(ValueError):
    """The matching does not cover every node exactly once."""


@dataclass(frozen=True)
class Edge:
    n: int
    m: int
    cost: float


@dataclass(frozen=True)
class MatchGraph:
    """Edges as parallel arrays sorted by (cost, n, m), plus per-node adjacency.

    Edge ``i`` joins t1 node ``edge_n[i]`` to t2 node ``edge_m[i]`` at cost
    ``edge_cost[i]``. ``t1_adjacency[n]`` and ``t2_adjacency[m]`` list the
    indices of a node's edges in that order, cheapest first. The optimizer
    reads the arrays directly; :attr:`edges` is a convenience view.
    """

    edge_n: tuple[int, ...]
    edge_m: tuple[int, ...]
    edge_cost: tuple[float, ...]
    t1_adjacency: tuple[tuple[int, ...], ...]
    t2_adjacency: tuple[tuple[int, ...], ...]
    t1_size: int
    t2_size: int

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as :class:`Edge` objects, built on each access."""
        return tuple(map(Edge, self.edge_n, self.edge_m, self.edge_cost))


def build_graph(sp: SimilarityTable, t1: LabeledTree, t2: LabeledTree) -> MatchGraph:
    """One edge per positive similarity entry, cost 1/(1+score)."""
    keyed = sorted((1.0 / (1.0 + score), n, m) for (n, m), score in sp.scores.items())
    edge_cost, edge_n, edge_m = zip(*keyed) if keyed else ((), (), ())
    t1_adj: list[list[int]] = [[] for _ in range(len(t1))]
    t2_adj: list[list[int]] = [[] for _ in range(len(t2))]
    for idx, n in enumerate(edge_n):
        t1_adj[n].append(idx)
    for idx, m in enumerate(edge_m):
        t2_adj[m].append(idx)
    return MatchGraph(
        edge_n=edge_n,
        edge_m=edge_m,
        edge_cost=edge_cost,
        t1_adjacency=tuple(map(tuple, t1_adj)),
        t2_adjacency=tuple(map(tuple, t2_adj)),
        t1_size=len(t1),
        t2_size=len(t2),
    )


def edge_count(g: MatchGraph) -> int:
    return len(g.edge_n)


def neighbors(g: MatchGraph, side: str, node_id: int) -> list[Edge]:
    """Edges incident to a node, cheapest first. ``side`` is "t1" or "t2"."""
    if side == "t1":
        adjacency = g.t1_adjacency
    elif side == "t2":
        adjacency = g.t2_adjacency
    else:
        raise ValueError(f"side must be 't1' or 't2', got {side!r}")
    if not 0 <= node_id < len(adjacency):
        return []
    return [Edge(g.edge_n[i], g.edge_m[i], g.edge_cost[i]) for i in adjacency[node_id]]


@dataclass(frozen=True)
class Matching:
    """A full matching: ordered selected pairs plus the unmatched remainder.

    ``pairs[k]`` is (t1 node, t2 node) and ``pair_costs[k]`` its edge cost.
    Pair order is meaningful to the optimizer's suggestion step and is
    preserved.
    """

    pairs: tuple[tuple[int, int], ...]
    pair_costs: tuple[float, ...]
    unmatched_t1: frozenset[int]
    unmatched_t2: frozenset[int]
    t1_size: int
    t2_size: int
    _checked: bool = field(default=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        """Edge count of the full matching, no-match assignments included."""
        return len(self.pairs) + len(self.unmatched_t1) + len(self.unmatched_t2)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[int, int]],
        costs: Iterable[float],
        t1_size: int,
        t2_size: int,
    ) -> Matching:
        """The full matching whose unmatched sets are every node no pair covers.

        Raises :class:`NotFull` when a node is in two pairs or ``costs`` does
        not line up with ``pairs``.
        """
        pairs = tuple(pairs)
        costs = tuple(costs)
        free_t1 = bytearray(b"\x01") * t1_size
        free_t2 = bytearray(b"\x01") * t2_size
        for n, m in pairs:
            free_t1[n] = 0
            free_t2[m] = 0
        unmatched_t1 = frozenset(compress(range(t1_size), free_t1))
        unmatched_t2 = frozenset(compress(range(t2_size), free_t2))
        if (
            len(costs) != len(pairs)
            or len(pairs) + len(unmatched_t1) != t1_size
            or len(pairs) + len(unmatched_t2) != t2_size
        ):
            raise NotFull("pairs do not form a matching over the given node ranges")
        return cls(pairs, costs, unmatched_t1, unmatched_t2, t1_size, t2_size, _checked=True)


def validate_full(m: Matching) -> None:
    """Raise :class:`NotFull` unless every node is covered exactly once."""
    if m._checked:
        return
    if len(m.pairs) != len(m.pair_costs):
        raise NotFull("pair/cost length mismatch")
    t1_seen = {n for n, _ in m.pairs}
    t2_seen = {mm for _, mm in m.pairs}
    if len(t1_seen) != len(m.pairs) or len(t2_seen) != len(m.pairs):
        raise NotFull("a node appears in more than one pair")
    if t1_seen & m.unmatched_t1 or t2_seen & m.unmatched_t2:
        raise NotFull("a node is both matched and unmatched")
    if len(m.pairs) + len(m.unmatched_t1) != m.t1_size:
        raise NotFull(
            f"t1 coverage {len(m.pairs)}+{len(m.unmatched_t1)} != {m.t1_size}"
        )
    if len(m.pairs) + len(m.unmatched_t2) != m.t2_size:
        raise NotFull(
            f"t2 coverage {len(m.pairs)}+{len(m.unmatched_t2)} != {m.t2_size}"
        )


def matching_cost(m: Matching, params: SftmParams) -> float:
    """Total cost: selected edge costs plus the no-match penalty per uncovered node."""
    validate_full(m)
    return sum(m.pair_costs) + params.no_match_cost * (
        len(m.unmatched_t1) + len(m.unmatched_t2)
    )


def matching_to_json(m: Matching, t1: LabeledTree, t2: LabeledTree, indent: int | None = 2) -> str:
    """Serialize a matching with xpaths rather than bare node ids."""
    obj = {
        "pairs": [
            {
                "t1_xpath": t1.node(n).xpath,
                "t2_xpath": t2.node(mm).xpath,
                "cost": cost,
            }
            for (n, mm), cost in zip(m.pairs, m.pair_costs)
        ],
        "unmatched_t1": sorted(t1.node(n).xpath for n in m.unmatched_t1),
        "unmatched_t2": sorted(t2.node(mm).xpath for mm in m.unmatched_t2),
    }
    return json.dumps(obj, ensure_ascii=False, indent=indent)
