"""Metropolis search for a low-cost full matching on the sparse graph.

The walk starts from a greedy matching and repeatedly proposes a related
matching: keep a random-length prefix of the current pairs, then complete by
scanning the remaining edges in cost order, stopping on each scanned edge
with probability ``gamma``. Costs are fixed up front and never recomputed.
Acceptance uses the standard Metropolis rule on the normalized objective
exp(-beta * cost / size); the best matching seen is returned.

A proposal makes one forward pass over the graph's cost-ordered edge arrays.
An edge is live while neither endpoint is used, judged on demand from two
per-tree byte flags, so keeping a pair costs O(1) and no incident edges are
visited. Each scan round first revisits, in order, the live edges an earlier
round passed over, then resumes the pass where it stopped. That visits the
live edges in the same order as a fresh scan from the cheapest one would.

Everything is driven by one seeded generator; per proposal the draw order is
the kept-prefix length first, then one uniform draw per scanned live edge
(no draw when a scan runs out and falls back to the last live edge), then
one acceptance draw per iteration. Runs reproduce bit-for-bit given
(graph, params, seed).
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .graph import MatchGraph, Matching, matching_cost
from .similarity import SftmParams

ProgressHook = Callable[[int, float, float], None]


def initial_matching(g: MatchGraph, params: SftmParams) -> Matching:
    """Greedy start: walk edges cheapest-first, take both-endpoints-free ones."""
    del params  # deterministic; kept because callers pass it
    t1_used = bytearray(g.t1_size)
    t2_used = bytearray(g.t2_size)
    pairs: list[tuple[int, int]] = []
    costs: list[float] = []
    for n, m, cost in zip(g.edge_n, g.edge_m, g.edge_cost):
        if not t1_used[n] and not t2_used[m]:
            t1_used[n] = 1
            t2_used[m] = 1
            pairs.append((n, m))
            costs.append(cost)
    return Matching(tuple(pairs), tuple(costs), g.t1_size, g.t2_size)


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
    # edges not yet reached by any scan, cheapest first
    frontier = zip(g.edge_n, g.edge_m, g.edge_cost)
    # edges some round scanned and passed over, in edge order; every live edge
    # behind the frontier is in here, but entries may have died since
    pending: list[tuple[int, int, float]] = []

    while True:
        # one scan round; a break out of either loop leaves (n, m, cost) on
        # the chosen edge
        i = 0
        while i < len(pending):
            n, m, cost = pending[i]
            if t1_used[n] or t2_used[m]:
                del pending[i]
            elif rand() < gamma:
                del pending[i]
                break
            else:
                i += 1
        else:  # nothing chosen behind the frontier: resume the forward pass
            for n, m, cost in frontier:
                if t1_used[n] or t2_used[m]:
                    continue
                if rand() < gamma:
                    break
                pending.append((n, m, cost))
            else:
                if not pending:
                    break  # no live edge left
                n, m, cost = pending.pop()  # scan exhausted: take the last live edge
        pairs.append((n, m))
        costs.append(cost)
        t1_used[n] = 1
        t2_used[m] = 1

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
