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
and a byte array of the edge count plus one marks the cursors. The frontier
jumps to the next mark with ``bytearray.find``, a memchr that only moves
forward, so one proposal sweeps the array once in C. A chain node that is
used drops its cursor, so all its dead edges are skipped at once; a cursor
whose edge has a used other end steps down its chain past such edges, and
those steps are the only dead edges a proposal visits. Each scan round first
revisits, in order, the live edges an earlier round passed over, then
resumes the frontier. The live edges are therefore visited in the order of a
fresh scan from the cheapest one, the scan over every edge that
``tests/oracles.py`` keeps.

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
from dataclasses import replace
from typing import Callable, Iterator

from .graph import MatchGraph, Matching, matching_cost
from .similarity import SftmParams

ProgressHook = Callable[[int, float, float], None]


def _live_edges(g: MatchGraph, t1_used: bytearray, t2_used: bytearray) -> Iterator[int]:
    """Yield the index of each live edge (both endpoints unused), in edge order.

    An edge is judged when the scan reaches it, so pairs the caller takes
    between two yields count. Each unused chain-side node has a cursor on the
    first of its edges at or past the scan that may still be live; ``head``
    marks the cursors and ``head.find`` jumps to the next one.
    """
    if g.chains_on_t1:
        ends, others, used, other_used = g.edge_n, g.edge_m, t1_used, t2_used
    else:
        ends, others, used, other_used = g.edge_m, g.edge_n, t2_used, t1_used
    first, nxt = g.chains
    end = len(nxt)
    head = bytearray(end + 1)
    for node, idx in enumerate(first):
        if not used[node]:
            head[idx] = 1
    head[end] = 1  # sentinel: find() stops here whatever the chains hold
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


def initial_matching(g: MatchGraph, params: SftmParams) -> Matching:
    """Greedy start: the proposal from the empty matching at ``gamma`` 1."""
    empty = Matching((), (), g.t1_size, g.t2_size)
    return suggest_matching(g, empty, replace(params, gamma=1.0), random.Random(0))


def suggest_matching(
    g: MatchGraph, m_t: Matching, params: SftmParams, rng: random.Random
) -> Matching:
    """Propose a full matching related to ``m_t``.

    Keeps a uniform-random number of ``m_t``'s pairs in stored order, then
    repeatedly scans the live edges (both endpoints unused) cheapest first,
    selecting each scanned edge with probability ``gamma`` and falling back
    to the last live edge when a scan runs out. Nodes left with no selected
    edge become unmatched.
    """
    t1_used = bytearray(g.t1_size)
    t2_used = bytearray(g.t2_size)
    to_keep = rng.randint(0, len(m_t.pairs))
    pairs = list(m_t.pairs[:to_keep])
    costs = list(m_t.pair_costs[:to_keep])
    for n, m in pairs:
        t1_used[n] = 1
        t2_used[m] = 1

    gamma = params.gamma
    rand = rng.random
    edge_n, edge_m, edge_cost = g.edge_n, g.edge_m, g.edge_cost
    # live edges not yet reached by any scan, cheapest first
    frontier = _live_edges(g, t1_used, t2_used)
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

    return Matching(tuple(pairs), tuple(costs), g.t1_size, g.t2_size)


def metropolis(
    g: MatchGraph, params: SftmParams, progress: ProgressHook | None = None
) -> Matching:
    """Run the Metropolis walk and return the cheapest full matching seen."""
    rng = random.Random(params.seed)
    current = initial_matching(g, params)
    if current.size == 0:
        return current  # both trees empty; nothing to walk over
    best = current
    cur_cost = best_cost = matching_cost(current, params)
    accepted = 0
    beta = params.beta

    for it in range(1, params.iterations + 1):
        proposal = suggest_matching(g, current, params, rng)
        prop_cost = matching_cost(proposal, params)
        log_ratio = -beta * (prop_cost / proposal.size - cur_cost / current.size)
        accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
        if rng.random() < accept_prob:
            current = proposal
            cur_cost = prop_cost
            accepted += 1
        if prop_cost < best_cost:
            best = proposal
            best_cost = prop_cost
        if progress is not None:
            progress(it, cur_cost, best_cost)

    return best
