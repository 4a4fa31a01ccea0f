"""Metropolis search for a low-cost full matching on the sparse graph.

The walk repeatedly proposes a related matching: keep a random-length prefix
of the current pairs, then complete by scanning the remaining edges in cost
order, stopping on each scanned edge with probability ``gamma``. It starts
from the greedy matching, the proposal from the empty matching at ``gamma``
1, which takes every live edge it scans, cheapest first. Costs are fixed up
front and never recomputed. Acceptance uses the standard Metropolis rule on
the normalized objective exp(-beta * cost / size); the best matching seen is
returned.

A proposal keeps a pair in O(1): an edge is live while neither endpoint is
used, judged on demand from two per-tree byte flags, so no incident edge is
visited. Its scan reaches the live edges through the graph's per-node edge
chains over the smaller tree (:attr:`MatchGraph.chains`). Each unused node
of that side has a cursor on the first of its edges that may still be live,
and a byte array of the edge count plus one marks the cursors. The marks a
proposal starts from, one per chain, are built once per graph
(:attr:`MatchGraph.cursor_marks`); each proposal copies them in one C-level
copy and clears the marks of the kept pairs' chain nodes. The frontier
jumps to the next mark with ``bytearray.find``, a memchr that only moves
forward, so one proposal sweeps the array once in C. A chain node that is
used drops its cursor, so all its dead edges are skipped at once; a cursor
whose edge has a used other end steps down its chain past such edges, and
those steps are the only dead edges a proposal visits. Each scan round first
revisits, in order, the live edges an earlier round passed over, then
resumes the frontier. The live edges are therefore visited in the order of a
fresh scan from the cheapest one, the scan over every edge that
``tests/oracles.py`` keeps.

A proposal is held as two plain lists, its pairs and their costs. It is full
by construction: every pair it adds is a live edge, so no node is in two
pairs. The walk keeps its current and best matchings as such lists and
builds one :class:`Matching`, whose construction checks fullness, for the
matching it returns. A proposal's cost is :func:`full_cost`, the expression
:func:`matching_cost` evaluates, summed in the same order, so the walk's
costs equal the public ones to the bit. :func:`suggest_matching` and
:func:`initial_matching` wrap the same list-level proposal.

The walk is driven by one seeded generator (the greedy start draws from
its own, and at ``gamma`` 1 no draw changes what it takes); per proposal
the draw order is the kept-prefix length first, then one uniform draw per
scanned live edge (no draw when a scan runs out and falls back to the last
live edge), then one acceptance draw per iteration. Dead edges draw
nothing, so skipping them leaves the draws as they were. Runs reproduce
bit-for-bit given (graph, params, seed).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator

from .graph import MatchGraph, Matching, full_cost
from .similarity import SftmParams

ProgressHook = Callable[[int, float, float], None]
Pairs = list[tuple[int, int]]


def _live_edges(
    g: MatchGraph, head: bytearray, t1_used: bytearray, t2_used: bytearray
) -> Iterator[int]:
    """Yield the index of each live edge (both endpoints unused), in edge order.

    An edge is judged when the scan reaches it, so pairs the caller takes
    between two yields count. Each unused chain-side node has a cursor on the
    first of its edges at or past the scan that may still be live; ``head``
    marks the cursors and ``head.find`` jumps to the next one. The caller
    passes a copy of :attr:`MatchGraph.cursor_marks` with the marks of the
    used chain-side nodes cleared, and the scan moves the marks in it.
    """
    if g.chains_on_t1:
        ends, others, used, other_used = g.edge_n, g.edge_m, t1_used, t2_used
    else:
        ends, others, used, other_used = g.edge_m, g.edge_n, t2_used, t1_used
    nxt = g.chains[1]
    end = len(nxt)
    head[end] = 1  # sentinel: find() stops here whatever the caller cleared
    find = head.find
    idx = find(1)
    while idx != end:
        head[idx] = 0
        node = ends[idx]
        if not used[node]:  # else the caller took the node: a stale cursor
            if not other_used[others[idx]]:
                yield idx
            if not used[node]:
                # move the cursor past the edges whose other end is used
                later = nxt[idx]
                while later != end and other_used[others[later]]:
                    later = nxt[later]
                head[later] = 1
        idx = find(1, idx + 1)


def _propose(
    g: MatchGraph, pairs: Pairs, costs: list[float], gamma: float, rng: random.Random
) -> tuple[Pairs, list[float]]:
    """The proposal from the full matching whose pairs are ``pairs`` at
    ``costs``, as new ``(pairs, costs)`` lists; the arguments are not changed.

    Every pair it adds is a live edge, so the proposal is full when the kept
    pairs are edges of ``g``; nothing here checks that.
    """
    to_keep = rng.randint(0, len(pairs))
    pairs = pairs[:to_keep]
    costs = costs[:to_keep]
    t1_used = bytearray(g.t1_size)
    t2_used = bytearray(g.t2_size)
    # a used chain-side node has no cursor
    head = bytearray(g.cursor_marks)
    first = g.chains[0]
    if g.chains_on_t1:
        for n, m in pairs:
            t1_used[n] = t2_used[m] = 1
            head[first[n]] = 0
    else:
        for n, m in pairs:
            t1_used[n] = t2_used[m] = 1
            head[first[m]] = 0

    rand = rng.random
    edge_n, edge_m, edge_cost = g.edge_n, g.edge_m, g.edge_cost
    # live edges not yet reached by any scan, cheapest first
    frontier = _live_edges(g, head, t1_used, t2_used)
    # edges some round scanned and passed over, in edge order; every live edge
    # behind the frontier is in here, but entries may have died since
    pending: list[int] = []

    while True:
        # one scan round; a break out of either loop leaves idx on the
        # chosen edge
        i = 0
        while i < len(pending):
            idx = pending[i]
            if t1_used[edge_n[idx]] or t2_used[edge_m[idx]]:
                del pending[i]
            elif rand() < gamma:
                del pending[i]
                break
            else:
                i += 1
        else:  # nothing chosen behind the frontier: resume the forward pass
            for idx in frontier:
                if rand() < gamma:
                    break
                pending.append(idx)
            else:
                if not pending:
                    break  # no live edge left
                idx = pending.pop()  # scan exhausted: take the last live edge
        n = edge_n[idx]
        m = edge_m[idx]
        pairs.append((n, m))
        costs.append(edge_cost[idx])
        t1_used[n] = t2_used[m] = 1

    return pairs, costs


def _greedy(g: MatchGraph) -> tuple[Pairs, list[float]]:
    """The proposal from the empty matching at ``gamma`` 1, as lists."""
    return _propose(g, [], [], 1.0, random.Random(0))


def initial_matching(g: MatchGraph, params: SftmParams) -> Matching:
    """Greedy start: the proposal from the empty matching at ``gamma`` 1.

    It reads no field of ``params``.
    """
    pairs, costs = _greedy(g)
    return Matching(tuple(pairs), tuple(costs), g.t1_size, g.t2_size)


def suggest_matching(
    g: MatchGraph, m_t: Matching, params: SftmParams, rng: random.Random
) -> Matching:
    """Propose a full matching related to ``m_t``.

    Keeps a uniform-random number of ``m_t``'s pairs in stored order, then
    repeatedly scans the live edges (both endpoints unused) cheapest first,
    selecting each scanned edge with probability ``gamma`` and falling back
    to the last live edge when a scan runs out. Nodes left with no selected
    edge become unmatched. This is one step of :func:`metropolis`, which
    makes the same draws and pairs.

    Raises :class:`ValueError` when ``m_t``'s tree sizes are not ``g``'s.
    That each of ``m_t``'s pairs is an edge of ``g`` is the caller's
    contract; it is not checked.
    """
    if (m_t.t1_size, m_t.t2_size) != (g.t1_size, g.t2_size):
        raise ValueError(f"a {m_t.t1_size}x{m_t.t2_size} matching on a "
                         f"{g.t1_size}x{g.t2_size} graph")
    pairs, costs = _propose(g, list(m_t.pairs), list(m_t.pair_costs), params.gamma, rng)
    return Matching(tuple(pairs), tuple(costs), g.t1_size, g.t2_size)


def metropolis(
    g: MatchGraph, params: SftmParams, progress: ProgressHook | None = None
) -> Matching:
    """Run the Metropolis walk and return the cheapest full matching seen.

    The walk holds its proposals as ``(pairs, costs)`` lists and builds, and
    so checks, one :class:`Matching`: the one it returns. ``progress``, when
    given, is called after each iteration with its number, the current cost
    and the best cost, which equal :func:`matching_cost` of those matchings
    to the bit.
    """
    t1_size, t2_size = g.t1_size, g.t2_size
    nodes = t1_size + t2_size
    if nodes == 0:
        return Matching((), (), 0, 0)  # both trees empty; nothing to walk over
    rng = random.Random(params.seed)
    gamma, beta, no_match_cost = params.gamma, params.beta, params.no_match_cost
    cur_pairs, cur_costs = best_pairs, best_costs = _greedy(g)
    cur_cost = best_cost = full_cost(cur_costs, t1_size, t2_size, no_match_cost)
    cur_size = nodes - len(cur_pairs)

    for it in range(1, params.iterations + 1):
        pairs, costs = _propose(g, cur_pairs, cur_costs, gamma, rng)
        cost = full_cost(costs, t1_size, t2_size, no_match_cost)
        size = nodes - len(pairs)
        log_ratio = -beta * (cost / size - cur_cost / cur_size)
        accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
        if rng.random() < accept_prob:
            cur_pairs, cur_costs, cur_cost, cur_size = pairs, costs, cost, size
        if cost < best_cost:
            best_pairs, best_costs, best_cost = pairs, costs, cost
        if progress is not None:
            progress(it, cur_cost, best_cost)

    return Matching(tuple(best_pairs), tuple(best_costs), t1_size, t2_size)
