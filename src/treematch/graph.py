"""Sparse bipartite matching graph and full matchings over it.

An edge exists only for node pairs with a positive propagated similarity;
its cost is 1/(1+score), so better-scoring pairs are cheaper. The matcher
builds it with :func:`propagate_graph`, which propagates the initial scores
straight into the edge groups. :func:`build_graph`, the graph of a table
that is already propagated, is its depth-0 case: no ancestor level, so each
score is its own. A full matching covers every node of both trees exactly
once, either by a pair or by the no-match assignment, and is charged
``no_match_cost`` per unmatched node. A :class:`Matching` stores only its
pairs and the two tree sizes; the unmatched sets are every node no pair
covers, so they are derived, never stored.

The graph keeps its edges as three parallel arrays (t1 node, t2 node, cost)
sorted by (cost, n, m), so the optimizer scans plain tuples and no object is
built per edge on the matching path. That order comes from grouping the int
keys ``n * len(t2) + m``, which sort as (n, m) does, by cost: scores that
round to one cost share a group, the distinct costs are sorted, and each
group is sorted by key. The build holds little beside its output: a
similarity table passed straight into :func:`propagate_graph` is freed once
the climb has read it, the first score group of each cost becomes the cost
group and is sorted in place, each temporary is dropped once read, and the
node ids in the edge arrays are one shared int object per node, not one per
edge.

Per-node adjacency is built on first access and cached, since the matching
path never reads it. The optimizer reads per-node edge chains instead: for
each node of the smaller tree, its edge indices linked in that order, kept
in two compact ``array('i')``s built on first access, and a byte mark on
each chain's first edge that every proposal copies.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import floordiv, itemgetter, mod

from .similarity import NodeOutOfRange, SftmParams, SimilarityTable, ancestor_levels
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
    nxt = [end] * end
    for idx in range(end - 1, -1, -1):
        node = ends[idx]
        nxt[idx] = first[node]
        first[node] = idx
    return array("i", first), array("i", nxt)


# one level, w0 = 1: no ancestor climbs, and 1.0 * s is s to the bit
_NO_PROPAGATION = SftmParams(weights=(1.0,))


def build_graph(sp: SimilarityTable, t1: LabeledTree, t2: LabeledTree) -> MatchGraph:
    """One edge per positive similarity entry, cost 1/(1+score).

    The depth-0 case of :func:`propagate_graph`. Raises
    :class:`NodeOutOfRange` when an entry names a node outside ``t1`` or
    ``t2``.
    """
    return propagate_graph(sp, t1, t2, _NO_PROPAGATION)


def propagate_graph(
    s0: SimilarityTable, t1: LabeledTree, t2: LabeledTree, params: SftmParams
) -> MatchGraph:
    """``build_graph(propagate(s0, t1, t2, params), t1, t2)`` in one pass.

    Each pair climbs its ancestor chain as in :func:`propagate`, and its
    blended score goes straight to its group of edge keys, so no propagated
    table is built. Edges and costs equal the two-step form's to the bit.
    Raises :class:`NodeOutOfRange` when an entry names a node outside ``t1``
    or ``t2``.

    ``s0`` is only read. When it is passed straight in, as in
    ``propagate_graph(initial_similarity(...), ...)``, this call holds its
    last reference, so the table is freed once the climb ends, before any
    edge column is built; a table the caller keeps stays alive, unchanged.
    Each later temporary is dropped once read, and the node ids in
    ``edge_n`` and ``edge_m`` are one shared int object per node.
    """
    t1_size, t2_size = len(t1), len(t2)
    by_score = _score_groups(s0.rows, t1.parents, t2.parents, params.weights, t1_size, t2_size)
    del s0  # frees a table passed straight in, with every row the climb read
    costs, groups = _cost_groups(by_score, t1_size, t2_size)
    del by_score
    sizes = list(map(len, groups))
    count = sum(sizes)
    edge_n = _shared(t1_size, map(floordiv, chain.from_iterable(groups), repeat(t2_size)), count)
    edge_m = _shared(
        t2_size, map(mod, chain.from_iterable(_drained(groups)), repeat(t2_size)), count)
    return MatchGraph(
        edge_n=edge_n,
        edge_m=edge_m,
        edge_cost=tuple(chain.from_iterable(map(repeat, costs, sizes))),
        t1_size=t1_size,
        t2_size=t2_size,
    )


def _score_groups(
    base: dict[int, dict[int, float]],
    parents1: tuple[int | None, ...],
    parents2: tuple[int | None, ...],
    weights: tuple[float, ...],
    t1_size: int,
    t2_size: int,
) -> dict[float, list[int]]:
    """The climb: each pair's blended score, with the edge keys
    ``n * t2_size + m`` that have it; a key sorts as (n, m) does."""
    w0 = weights[0]
    by_score: defaultdict[float, list[int]] = defaultdict(list)
    try:
        for m, row in base.items():
            if not 0 <= m < t2_size:
                raise NodeOutOfRange(f"t2 node {m} outside a {t2_size}-node tree")
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
    except IndexError:
        # a t1 id outside [-t1_size, t1_size) fails the climb's first step;
        # other ids out of range are caught by the key range after the sort
        raise _t1_out_of_range(n, t1_size) from None
    return by_score


def _cost_groups(
    by_score: dict[float, list[int]], t1_size: int, t2_size: int
) -> tuple[list[float], list[list[int]]]:
    """Empty ``by_score`` into the sorted distinct costs and each cost's edge
    keys, sorted. Distinct scores can round to one cost: the first score
    list of a cost becomes its group, and the others are added to it and
    freed. Raises :class:`NodeOutOfRange` if a key names a t1 node out of
    range."""
    by_cost: dict[float, list[int]] = {}
    while by_score:
        score, keys = by_score.popitem()
        group = by_cost.setdefault(1.0 / (1.0 + score), keys)
        if group is not keys:
            group.extend(keys)
    costs = sorted(by_cost)
    groups = [by_cost[cost] for cost in costs]
    # with m in range, a key is in [0, t1_size * t2_size) exactly when n is,
    # and each sorted group's range is its first and last key
    end = t1_size * t2_size
    for keys in groups:
        keys.sort()
        for key in (keys[0], keys[-1]):
            if not 0 <= key < end:
                raise _t1_out_of_range(key // t2_size, t1_size)
    return costs, groups


def _drained(groups: list[list[int]]) -> Iterator[list[int]]:
    """Empty ``groups`` in order, so that each is freed once it is read."""
    groups.reverse()
    while groups:
        yield groups.pop()


def _shared(size: int, ids: Iterator[int], count: int) -> tuple[int, ...]:
    """The ``count`` node ids ``ids``, each in ``range(size)``, as a tuple
    that holds one int object per node rather than one per edge."""
    nodes = list(range(size))
    if count > 1:
        return itemgetter(*ids)(nodes)
    # itemgetter needs an index, and gives a bare item for one
    return tuple(map(nodes.__getitem__, ids))


def _t1_out_of_range(n: int, t1_size: int) -> NodeOutOfRange:
    return NodeOutOfRange(f"t1 node {n} outside a {t1_size}-node tree")


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
