"""Sparse bipartite matching graph and full matchings over it.

An edge exists only for node pairs with a positive propagated similarity;
its cost is 1/(1+score), so better-scoring pairs are cheaper. The matcher
builds it with :func:`propagate_graph`, which propagates the initial scores
straight into the edge groups; :func:`build_graph` builds the same graph from
a table that is already propagated. A full matching covers every node of
both trees exactly once, either by a pair or by the no-match assignment, and
is charged ``no_match_cost`` per unmatched node. A :class:`Matching` stores
only its pairs and the two tree sizes; the unmatched sets are every node no
pair covers, so they are derived, never stored.

The graph keeps its edges as three parallel arrays (t1 node, t2 node, cost)
sorted by (cost, n, m), so the optimizer scans plain tuples and no object is
built per edge on the matching path. That order comes from grouping the int
keys ``n * len(t2) + m``, which sort as (n, m) does, by cost: scores that
round to one cost share a group, the distinct costs are sorted, and each
group is sorted by key. Both builders group their keys by score and share
that step. Per-node adjacency is built on first access and cached, since
the matching path never reads it. The optimizer reads per-node edge chains
instead: for each node of the smaller tree, its edge indices linked in that
order, kept in two compact ``array('i')``s built on first access.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import floordiv, mod

# NodeOutOfRange is raised by check_row and stays importable from here
from .similarity import (
    NodeOutOfRange,
    SftmParams,
    SimilarityTable,
    ancestor_levels,
    check_row,
)
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
    """Edges as parallel arrays sorted by (cost, n, m), plus per-node views.

    Edge ``i`` joins t1 node ``edge_n[i]`` to t2 node ``edge_m[i]`` at cost
    ``edge_cost[i]``. ``t1_adjacency[n]`` and ``t2_adjacency[m]`` list the
    indices of a node's edges in that order, cheapest first. :attr:`chains`
    links the same indices for the nodes of the smaller tree (t1 on a tie),
    which is what the optimizer walks. The views are built on first access
    and cached on the graph. :attr:`edges` is a convenience view.
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

    @property
    def chains_on_t1(self) -> bool:
        """Whether :attr:`chains` run over t1, the smaller tree or a tie."""
        return self.t1_size <= self.t2_size

    @cached_property
    def chains(self) -> tuple[array, array]:
        """``(first, nxt)``: each chain-side node's edges, linked in edge order.

        ``first[u]`` is the index of node ``u``'s cheapest edge and
        ``nxt[e]`` the index of the next edge of edge ``e``'s node; both
        hold the edge count where there is none.
        """
        return _chains(self.edge_n if self.chains_on_t1 else self.edge_m,
                       min(self.t1_size, self.t2_size))


def _adjacency(ends: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    incident: list[list[int]] = [[] for _ in range(size)]
    for idx, node in enumerate(ends):
        incident[node].append(idx)
    return tuple(map(tuple, incident))


def _chains(ends: tuple[int, ...], size: int) -> tuple[array, array]:
    end = len(ends)
    first = [end] * size
    nxt = [end] * end
    for idx in range(end - 1, -1, -1):
        node = ends[idx]
        nxt[idx] = first[node]
        first[node] = idx
    return array("i", first), array("i", nxt)


def build_graph(sp: SimilarityTable, t1: LabeledTree, t2: LabeledTree) -> MatchGraph:
    """One edge per positive similarity entry, cost 1/(1+score).

    Raises :class:`NodeOutOfRange` when an entry names a node outside
    ``t1`` or ``t2``.
    """
    t1_size, t2_size = len(t1), len(t2)
    # edge keys n * t2_size + m, grouped by score; a key sorts as (n, m) does
    by_score: defaultdict[float, list[int]] = defaultdict(list)
    for m, row in sp.rows.items():
        check_row(m, row, t1_size, t2_size)
        for n, score in row.items():
            by_score[score].append(n * t2_size + m)
    return _sorted_graph(by_score, t1_size, t2_size)


def propagate_graph(
    s0: SimilarityTable, t1: LabeledTree, t2: LabeledTree, params: SftmParams
) -> MatchGraph:
    """``build_graph(propagate(s0, t1, t2, params), t1, t2)`` in one pass.

    Each pair climbs its ancestor chain as in :func:`propagate`, and its
    blended score goes straight to its group of edge keys, so no propagated
    table is built. Edges and costs equal the two-step form's to the bit.
    Raises :class:`NodeOutOfRange` when an entry names a node outside ``t1``
    or ``t2``.
    """
    weights = params.weights
    w0 = weights[0]
    parents1, parents2 = t1.parents, t2.parents
    t1_size, t2_size = len(t1), len(t2)
    base = s0.rows
    by_score: defaultdict[float, list[int]] = defaultdict(list)
    for m, row in base.items():
        check_row(m, row, t1_size, t2_size)
        levels = ancestor_levels(m, base, parents2, weights)
        for n, s in row.items():
            total = w0 * s
            a = n
            for w, up_row in levels:
                a = parents1[a]
                if a is None:
                    break
                up = up_row.get(a)
                if up is not None:
                    total += w * up
            by_score[total].append(n * t2_size + m)
    return _sorted_graph(by_score, t1_size, t2_size)


def _sorted_graph(
    by_score: Mapping[float, list[int]], t1_size: int, t2_size: int
) -> MatchGraph:
    """The graph whose edge keys ``n * t2_size + m`` are grouped by score."""
    # distinct scores can round to one cost; their keys then sort together
    by_cost: defaultdict[float, list[int]] = defaultdict(list)
    for score, keys in by_score.items():
        by_cost[1.0 / (1.0 + score)].extend(keys)
    costs = sorted(by_cost)
    groups = [sorted(by_cost[cost]) for cost in costs]
    edge_keys = list(chain.from_iterable(groups))
    return MatchGraph(
        edge_n=tuple(map(floordiv, edge_keys, repeat(t2_size))),
        edge_m=tuple(map(mod, edge_keys, repeat(t2_size))),
        edge_cost=tuple(chain.from_iterable(map(repeat, costs, map(len, groups)))),
        t1_size=t1_size,
        t2_size=t2_size,
    )


def edge_count(g: MatchGraph) -> int:
    return len(g.edge_n)


@dataclass(frozen=True)
class Matching:
    """A full matching: ordered selected pairs over trees of known sizes.

    ``pairs[k]`` is (t1 node, t2 node) and ``pair_costs[k]`` its edge cost.
    Pair order is meaningful to the optimizer's suggestion step and is
    preserved. Every node no pair covers takes the no-match assignment, so
    :attr:`unmatched_t1` and :attr:`unmatched_t2` are derived from the pairs.

    Construction raises :class:`NotFull` unless ``pair_costs`` lines up with
    ``pairs``, every id is in range, and no node is in two pairs.
    """

    pairs: tuple[tuple[int, int], ...]
    pair_costs: tuple[float, ...]
    t1_size: int
    t2_size: int
    # Ignored. Kept so ``replace(m, _checked=False)`` (as the benchmark in
    # perfbench/ calls it) still works; that re-runs the check like any
    # other construction.
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked: bool) -> None:
        pairs = self.pairs
        if len(self.pair_costs) != len(pairs):
            raise NotFull(f"{len(self.pair_costs)} costs for {len(pairs)} pairs")
        used_t1 = bytearray(self.t1_size)
        used_t2 = bytearray(self.t2_size)
        try:
            for n, m in pairs:
                if n < 0 or m < 0:  # a negative index would wrap around
                    raise IndexError
                used_t1[n] = used_t2[m] = 1
        except IndexError:
            raise NotFull(
                f"pair {(n, m)} outside a {self.t1_size}x{self.t2_size} node range"
            ) from None
        if used_t1.count(1) != len(pairs) or used_t2.count(1) != len(pairs):
            raise NotFull("a node is in two pairs")

    @property
    def unmatched_t1(self) -> frozenset[int]:
        return frozenset(range(self.t1_size)).difference(n for n, _ in self.pairs)

    @property
    def unmatched_t2(self) -> frozenset[int]:
        return frozenset(range(self.t2_size)).difference(m for _, m in self.pairs)

    @property
    def size(self) -> int:
        """Edge count of the full matching, no-match assignments included."""
        return self.t1_size + self.t2_size - len(self.pairs)


def matching_cost(m: Matching, params: SftmParams) -> float:
    """Total cost: selected edge costs plus the no-match penalty per uncovered node."""
    return sum(m.pair_costs) + params.no_match_cost * (
        m.t1_size + m.t2_size - 2 * len(m.pairs)
    )


def matching_to_json(m: Matching, t1: LabeledTree, t2: LabeledTree) -> str:
    """Serialize a matching with xpaths rather than bare node ids."""
    xpaths1, xpaths2 = t1.xpaths(), t2.xpaths()
    obj = {
        "pairs": [
            {
                "t1_xpath": xpaths1[n],
                "t2_xpath": xpaths2[mm],
                "cost": cost,
            }
            for (n, mm), cost in zip(m.pairs, m.pair_costs)
        ],
        "unmatched_t1": sorted(xpaths1[n] for n in m.unmatched_t1),
        "unmatched_t2": sorted(xpaths2[mm] for mm in m.unmatched_t2),
    }
    return json.dumps(obj, ensure_ascii=False, indent=2)
