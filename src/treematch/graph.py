"""Sparse bipartite matching graph and full matchings over it.

An edge exists only for node pairs with a positive propagated similarity;
its cost is 1/(1+score), so better-scoring pairs are cheaper. The matcher
builds it with :func:`graph_from_rows`, which runs the propagation climb of
``similarity`` on the initial rows as they are scored, then groups its
score groups by cost and builds the edge layout. :func:`build_graph`, the
graph of a table that is already propagated, checks the table and runs
the depth-0 case on its rows: no ancestor level, so each score is its
own. A full matching covers every node of both trees exactly once, either
by a pair or by the no-match assignment, and is charged ``no_match_cost``
per unmatched node. A :class:`Matching` stores only its pairs and the two
tree sizes; the unmatched sets are every node no pair covers, so they are
derived, never stored.

The graph keeps its edges as three parallel arrays (t1 node, t2 node, cost)
sorted by (cost, n, m), so the optimizer scans plain tuples and no object is
built per edge on the matching path. That order comes from grouping the int
keys ``n * len(t2) + m``, which sort as (n, m) does, by cost: scores that
round to one cost share a group, the distinct costs are sorted, and each
group is sorted by key. The build holds little beside its output: the
climb keeps only the initial rows of open ancestors, the first score group
of each cost becomes the cost group and is sorted in place, each temporary
is dropped once read, and the node ids in the edge arrays are one shared
int object per node, not one per edge. Each node id is looked up as it is
read, so no int object per edge lives past its lookup.

Per-node adjacency is built on first access and cached, since the matching
path never reads it. The optimizer reads per-node edge chains instead: for
each node of the smaller tree, its edge indices linked in that order, kept
in two compact ``array('i')``s built on first access, with each link
written straight into its array, and a byte mark on each chain's first edge
that every proposal copies.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import floordiv, mod
from typing import TypeVar

from .similarity import SftmParams, SimilarityTable, _check_table, _score_groups
from .tree import LabeledTree

T = TypeVar("T")


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
    which is what the optimizer walks from :attr:`cursor_marks`. The views
    are built on first access and cached on the graph. :attr:`edges` is a
    convenience view.
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

    @cached_property
    def cursor_marks(self) -> bytes:
        """The edge count plus one bytes, set at each chain's first edge and
        at the end: every chain-side node's cursor before a proposal."""
        first = self.chains[0]
        marks = bytearray(len(self.edge_n) + 1)
        for idx in first:
            marks[idx] = 1
        marks[-1] = 1
        return bytes(marks)


def _adjacency(ends: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    incident: list[list[int]] = [[] for _ in range(size)]
    for idx, node in enumerate(ends):
        incident[node].append(idx)
    return tuple(map(tuple, incident))


def _chains(ends: tuple[int, ...], size: int) -> tuple[array, array]:
    end = len(ends)
    first = [end] * size
    nxt = array("i", [end]) * end
    # written through a memoryview, which stores an int faster than the
    # array does, so no int object is kept per edge
    with memoryview(nxt) as links:
        for idx in range(end - 1, -1, -1):
            node = ends[idx]
            links[idx] = first[node]
            first[node] = idx
    return array("i", first), nxt


# one level, w0 = 1: no ancestor climbs, and 1.0 * s is s to the bit
_NO_PROPAGATION = SftmParams(weights=(1.0,))


def build_graph(sp: SimilarityTable, t1: LabeledTree, t2: LabeledTree) -> MatchGraph:
    """One edge per similarity entry, cost 1/(1+score).

    :func:`graph_from_rows` at depth 0 on the table's rows, in ascending
    ``m``. ``sp`` is only read. Before the build, ``similarity._check_table``
    raises :class:`~treematch.similarity.NodeOutOfRange` when an entry names
    a node outside ``t1`` or ``t2``, and ``ValueError`` when a score is not
    positive and finite.
    """
    _check_table(sp, t1, t2)
    return graph_from_rows(sorted(sp.rows.items()), t1, t2, _NO_PROPAGATION)


def graph_from_rows(
    rows: Iterable[tuple[int, dict[int, float]]],
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> MatchGraph:
    """The graph of the initial ``rows``, given as ``(m, row)`` in ascending
    ``m``, propagated with ``params.weights``.

    The climb is the one :func:`propagate` runs, and its score groups of
    edge keys go straight into cost groups, so no propagated table is
    built. Fed by ``similarity.initial_rows``, as the matcher does, no
    initial table is built either: the climb keeps only the rows of open
    ancestors. Each later temporary is dropped once read, and the node ids
    in ``edge_n`` and ``edge_m`` are one shared int object per node.

    Nothing here is checked: every node id in ``rows`` must be in range and
    every score positive and finite. ``similarity.initial_rows`` yields
    only such rows, and :func:`build_graph` checks its table first.
    """
    t1_size, t2_size = len(t1), len(t2)
    by_score = _score_groups(rows, t1, t2, params.weights)
    costs, groups = _cost_groups(by_score)
    del by_score
    sizes = list(map(len, groups))
    edge_n = _shared(t1_size, map(floordiv, chain.from_iterable(groups), repeat(t2_size)))
    edge_m = _shared(t2_size, map(mod, chain.from_iterable(_drained(groups)), repeat(t2_size)))
    return MatchGraph(
        edge_n=edge_n,
        edge_m=edge_m,
        edge_cost=tuple(chain.from_iterable(map(repeat, costs, sizes))),
        t1_size=t1_size,
        t2_size=t2_size,
    )


def _cost_groups(by_score: dict[float, list[int]]) -> tuple[list[float], list[list[int]]]:
    """Empty ``by_score`` into the sorted distinct costs and each cost's edge
    keys, sorted. Distinct scores can round to one cost: the first score
    list of a cost becomes its group, and the others are added to it and
    freed."""
    by_cost: dict[float, list[int]] = {}
    while by_score:
        score, keys = by_score.popitem()
        group = by_cost.setdefault(1.0 / (1.0 + score), keys)
        if group is not keys:
            group.extend(keys)
    costs = sorted(by_cost)
    groups = [by_cost[cost] for cost in costs]
    for keys in groups:
        keys.sort()
    return costs, groups


def _drained(items: list[T]) -> Iterator[T]:
    """Empty ``items`` in order, so that each is freed once it is read."""
    items.reverse()
    while items:
        yield items.pop()


def _shared(size: int, ids: Iterator[int]) -> tuple[int, ...]:
    """The node ids ``ids``, each in ``range(size)``, as a tuple that holds
    one int object per node rather than one per edge; each id read is
    freed at once."""
    return tuple(map(list(range(size)).__getitem__, ids))


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
    return full_cost(m.pair_costs, m.t1_size, m.t2_size, params.no_match_cost)


def full_cost(
    pair_costs: Sequence[float], t1_size: int, t2_size: int, no_match_cost: float
) -> float:
    """:func:`matching_cost` of the full matching whose pairs cost ``pair_costs``.

    The one cost expression, so a walk that holds its pairs as lists gets
    the floats :func:`matching_cost` gives, to the bit.
    """
    return sum(pair_costs) + no_match_cost * (t1_size + t2_size - 2 * len(pair_costs))


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
