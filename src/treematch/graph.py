"""Sparse bipartite matching graph and full matchings over it.

An edge exists only for node pairs with a positive propagated similarity;
its cost is 1/(1+score), so better-scoring pairs are cheaper. A full
matching covers every node of both trees exactly once, either by a pair or
by leaving it in the unmatched set (the no-match assignment), and is charged
``no_match_cost`` per unmatched node.

The graph keeps its edges as three parallel arrays (t1 node, t2 node, cost)
sorted by (cost, n, m), so the optimizer scans plain tuples and no object is
built per edge on the matching path. That order comes from two sorts on
plain keys: one by the int ``n * len(t2) + m``, then a stable one by the
float cost. Per-node adjacency is built on first access and cached, since
the matching path never reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable

from .similarity import SftmParams, SimilarityTable
from .tree import LabeledTree


class NodeOutOfRange(ValueError):
    """A similarity entry names a node id outside its tree."""


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
    indices of a node's edges in that order, cheapest first; they are built
    on first access. The optimizer reads the arrays directly; :attr:`edges`
    is a convenience view.
    """

    edge_n: tuple[int, ...]
    edge_m: tuple[int, ...]
    edge_cost: tuple[float, ...]
    t1_size: int
    t2_size: int

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as :class:`Edge` objects, built on each access."""
        return tuple(map(Edge, self.edge_n, self.edge_m, self.edge_cost))

    @cached_property
    def t1_adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.edge_n, self.t1_size)

    @cached_property
    def t2_adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.edge_m, self.t2_size)


def _adjacency(ends: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    incident: list[list[int]] = [[] for _ in range(size)]
    for idx, node in enumerate(ends):
        incident[node].append(idx)
    return tuple(map(tuple, incident))


def build_graph(sp: SimilarityTable, t1: LabeledTree, t2: LabeledTree) -> MatchGraph:
    """One edge per positive similarity entry, cost 1/(1+score).

    Raises :class:`NodeOutOfRange` when an entry names a node outside
    ``t1`` or ``t2``.
    """
    t1_size, t2_size = len(t1), len(t2)
    ns: list[int] = []
    ms: list[int] = []
    keys: list[int] = []
    costs: list[float] = []
    for m, row in sp.rows.items():
        if not row:
            continue
        if not 0 <= m < t2_size:
            raise NodeOutOfRange(f"t2 node {m} outside a {t2_size}-node tree")
        lo, hi = min(row), max(row)
        if lo < 0 or hi >= t1_size:
            bad = lo if lo < 0 else hi
            raise NodeOutOfRange(f"t1 node {bad} outside a {t1_size}-node tree")
        ns.extend(row)
        ms.extend(repeat(m, len(row)))
        keys.extend([n * t2_size + m for n in row])
        costs.extend([1.0 / (1.0 + s) for s in row.values()])
    # (n, m) order by the int key, then a stable sort by cost: (cost, n, m)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    order.sort(key=costs.__getitem__)
    edge_n = tuple(map(ns.__getitem__, order))
    edge_m = tuple(map(ms.__getitem__, order))
    edge_cost = tuple(map(costs.__getitem__, order))
    return MatchGraph(
        edge_n=edge_n,
        edge_m=edge_m,
        edge_cost=edge_cost,
        t1_size=t1_size,
        t2_size=t2_size,
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
