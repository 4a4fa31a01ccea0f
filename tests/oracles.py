"""Independent reference computations the fast paths are checked against.

These deliberately avoid the library's index/DP machinery: the similarity
oracle does pairwise token intersections, the edit-distance oracle is the
plain recursive forest definition, the Metropolis oracle is the walk as
first written, over a graph of ``Edge`` objects with per-edge kill loops,
the scan oracles are the greedy start and proposal as one forward pass that
steps over every edge, as they were before the per-node edge chains,
the mutation oracle rescans the whole draft tree for candidates before every
operator, and the similarity oracles keep the table as one flat
``(n, m) -> score`` dict. ``brute_force_optimal`` is the exact optimum of the
walk's objective by exhaustive search, for graphs of at most 16 nodes;
``enumerate_matching_costs`` checks it on toy graphs. ``ReferenceZsRun`` is
Zhang-Shasha as first written, always decomposing along leftmost paths, and
``reference_postorder_structure`` its two path decompositions as first
written, by a stack walk of the tree in each direction.
``reference_parse_tree_json`` and ``reference_freeze`` are the tree readers as
first written: a recursive JSON reader that builds a ``DraftNode`` and a path
string per node, and a freeze that assigns full xpath strings while it walks
the drafts, escaping each tag's step by its own character loop, and returns
one ``TreeNode`` per node, where the library stores columns and joins xpaths
from segments on demand. For format 2 the reader checks the columns one
entry at a time, each parent against the ancestors of the node before it,
and links ``DraftNode``s by their parent ids.
``reference_freeze`` is also the independent check on the columns a
``LabeledTree`` derives on first use: it lists children and ranks same-tag
siblings while it walks the drafts, where the tree derives both from its
stored tag and parent columns.
``reference_serialize_tree_json`` is the format-1 writer the library used
before format 2. ``reference_parse_html`` is the HTML reader that builds a
``DraftNode`` per element and then freezes the drafts the same way; it
decodes bytes by its own byte-order-mark sniff, ``reference_decode``,
written from the WHATWG encoding standard.
``reference_build_graph`` sorts ``Edge`` objects by (cost, n, m) directly.
``neighbor_scores`` scores one second-tree node against a token index by a
plain loop over the node's own sorted tokens, and
``reference_initial_similarity`` is that loop over every node, so the
oracle for ``initial_similarity`` shares no scoring code with it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import string
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from html.parser import HTMLParser

from treematch.baselines import _Structure
from treematch.graph import Edge, MatchGraph, Matching, matching_cost
from treematch.mutate import (
    _CHANGE_LETTER_FRACTION,
    _STRUCTURAL_KINDS,
    _WRAPPER_TAG,
    MUTATION_KINDS,
    ExhaustedTargets,
    MutationLog,
    MutationOp,
    _drop_words,
    _random_word,
)
from treematch.similarity import (
    SftmParams,
    SimilarityTable,
    TokenIndex,
    apply_threshold,
    threshold_cutoff,
)
from treematch.tokens import DEFAULT_TOKEN_OPTIONS, TokenOptions, tokenize_node
from treematch.tree import (
    _IMPLIED_CLOSE,
    _RAWTEXT_TAGS,
    _VOID_TAGS,
    DraftNode,
    FormatError,
    IngestError,
    LabeledTree,
    TreeNode,
    freeze,
)


def thaw(tree: LabeledTree) -> list[DraftNode]:
    """Deep mutable copy of a tree, inverse of ``freeze`` (ids and
    segments dropped): the drafts indexed by node id, so the root is ``[0]``."""
    drafts = [
        DraftNode(tag=tag, attrs=list(attrs), text=text, signature=signature)
        for tag, attrs, text, signature
        in zip(tree.tags, tree.attributes, tree.texts, tree.signatures)
    ]
    for draft, kids in zip(drafts, tree.children):
        draft.children = [drafts[c] for c in kids]
    return drafts


def brute_force_s0(
    t1: LabeledTree,
    t2: LabeledTree,
    alpha: float,
    options=DEFAULT_TOKEN_OPTIONS,
) -> dict[tuple[int, int], float]:
    """O(N^2) pairwise shared-token IDF sums, thresholded the same way."""
    tokens1 = [tokenize_node(t1, n, options) for n in range(len(t1))]
    tokens2 = [tokenize_node(t2, m, options) for m in range(len(t2))]
    multiplicity: dict[str, int] = {}
    for toks in tokens1:
        for t in toks:
            multiplicity[t] = multiplicity.get(t, 0) + 1
    cutoff = threshold_cutoff(len(t1), alpha)
    n1 = len(t1)
    out: dict[tuple[int, int], float] = {}
    for n, m in itertools.product(range(len(t1)), range(len(t2))):
        total = 0.0
        for t in sorted(tokens1[n] & tokens2[m]):
            count = multiplicity[t]
            if count > cutoff:
                continue
            total += math.log(n1 / count)
        if total > 0.0:
            out[(n, m)] = total
    return out


# ---------------------------------------------------------------------------
# Initial similarity and propagation over one flat (n, m)-keyed dict, as first
# written: a tuple key per pair and two ancestor-pair lookups per level.

def table_from_scores(scores: dict[tuple[int, int], float]) -> SimilarityTable:
    """The row-per-node table holding a flat ``(n, m) -> score`` dict."""
    rows: dict[int, dict[int, float]] = {}
    for (n, m), score in scores.items():
        rows.setdefault(m, {})[n] = score
    return SimilarityTable(rows=rows)


def flat_scores(table: SimilarityTable) -> dict[tuple[int, int], float]:
    """A table as one flat ``(n, m) -> score`` dict."""
    return {(n, m): s for m, row in table.rows.items() for n, s in row.items()}


def neighbor_scores(
    t2: LabeledTree,
    m: int,
    index: TokenIndex,
    options: TokenOptions = DEFAULT_TOKEN_OPTIONS,
) -> dict[int, float]:
    """Initial similarity of one second-tree node against all indexed nodes.

    Each shared token, in sorted order, adds its IDF, log(N / multiplicity),
    to the token-holders' scores; a token with IDF 0 or less adds nothing,
    so every score in the result is positive.
    """
    scores: dict[int, float] = {}
    for token in sorted(tokenize_node(t2, m, options)):
        holders = index.entries.get(token)
        if not holders:
            continue
        weight = math.log(index.t1_size / len(holders))
        if weight <= 0.0:
            continue
        for n in holders:
            scores[n] = scores.get(n, 0.0) + weight
    return scores


def reference_initial_similarity(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
    options: TokenOptions = DEFAULT_TOKEN_OPTIONS,
) -> dict[tuple[int, int], float]:
    # the index as first written, from each node's own sorted token set
    entries: dict[str, set[int]] = {}
    for n in range(len(t1)):
        for token in sorted(tokenize_node(t1, n, options)):
            entries.setdefault(token, set()).add(n)
    index = apply_threshold(TokenIndex(entries=entries, t1_size=len(t1)), params.alpha)
    table: dict[tuple[int, int], float] = {}
    for m in range(len(t2)):
        for n, s in neighbor_scores(t2, m, index, options).items():
            table[(n, m)] = s
    return table


def reference_propagate(
    base: dict[tuple[int, int], float],
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> dict[tuple[int, int], float]:
    weights = params.weights
    depth = len(weights) - 1
    parents1 = [node.parent for node in t1]
    parents2 = [node.parent for node in t2]
    out: dict[tuple[int, int], float] = {}
    for (n, m), score in base.items():
        total = weights[0] * score
        a: int | None = n
        b: int | None = m
        for i in range(1, depth + 1):
            a = parents1[a]  # type: ignore[index]
            b = parents2[b]  # type: ignore[index]
            if a is None or b is None:
                break
            up = base.get((a, b))
            if up is not None:
                total += weights[i] * up
        out[(n, m)] = total
    return out


# ---------------------------------------------------------------------------

def _nested(tree: LabeledTree, node_id: int):
    node = tree.node(node_id)
    return (
        (node.tag, node.attributes),
        tuple(_nested(tree, c) for c in node.children),
    )


def exhaustive_edit_distance(t1: LabeledTree, t2: LabeledTree) -> float:
    """Recursive forest edit distance straight from the definition, with
    unit insert, delete and relabel costs.

    Exponential; only for tiny trees.
    """

    @lru_cache(maxsize=None)
    def dist(f1, f2) -> float:
        if not f1 and not f2:
            return 0.0
        best = math.inf
        if f1:
            label, children = f1[-1]
            best = min(best, 1.0 + dist(f1[:-1] + children, f2))
        if f2:
            label, children = f2[-1]
            best = min(best, 1.0 + dist(f1, f2[:-1] + children))
        if f1 and f2:
            (lab1, kids1) = f1[-1]
            (lab2, kids2) = f2[-1]
            rel = 0.0 if lab1 == lab2 else 1.0
            best = min(best, rel + dist(kids1, kids2) + dist(f1[:-1], f2[:-1]))
        return best

    result = dist((_nested(t1, t1.root),), (_nested(t2, t2.root),))
    dist.cache_clear()
    return result


# ---------------------------------------------------------------------------
# Zhang-Shasha's two path decompositions as first written: a stack walk per
# direction, a position map, and keyroots collected in a dict and sorted.

def reference_postorder_structure(tree: LabeledTree) -> tuple[_Structure, _Structure]:
    """Left-to-right and mirrored structure of ``tree``.

    The mirrored one is the left-to-right structure of the tree with every
    child list reversed: its postorder visits children right to left and its
    leftmost leaves are the tree's rightmost ones. The root is always the
    last position and the last keyroot.
    """
    structures = []
    for mirrored in (False, True):
        # right-to-left pre-order, reversed, is left-to-right postorder
        order: list[int] = []
        stack = [tree.root]
        while stack:
            node_id = stack.pop()
            order.append(node_id)
            children = tree.node(node_id).children
            stack.extend(children[::-1] if mirrored else children)
        order.reverse()
        first = -1 if mirrored else 0
        pos_of = [0] * len(order)
        lmd_by_pos: list[int] = []
        for pos, node_id in enumerate(order):
            pos_of[node_id] = pos
            children = tree.node(node_id).children
            lmd_by_pos.append(lmd_by_pos[pos_of[children[first]]] if children else pos)
        last_for_lmd: dict[int, int] = {}
        for pos, lmd in enumerate(lmd_by_pos):
            last_for_lmd[lmd] = pos
        structures.append(_Structure(order, lmd_by_pos, sorted(last_for_lmd.values())))
    return structures[0], structures[1]


# ---------------------------------------------------------------------------
# Zhang-Shasha as it ran before the distance pass chose its direction: the
# leftmost-path decomposition only, with the backtrace of the library.

def _reference_postorder(tree: LabeledTree) -> tuple[list[int], list[int], list[int]]:
    """Postorder node ids, leftmost-leaf-descendant indices, and keyroots.

    ``lmd`` is expressed in postorder positions. Keyroots are the positions
    with a distinct leftmost descendant, ascending; the root is always last.
    """
    # right-to-left pre-order, reversed, is left-to-right postorder
    order: list[int] = []
    stack = [tree.root]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack.extend(tree.node(node_id).children)
    order.reverse()
    pos_of = [0] * len(order)
    lmd_by_pos: list[int] = []
    for pos, node_id in enumerate(order):
        pos_of[node_id] = pos
        children = tree.node(node_id).children
        lmd_by_pos.append(lmd_by_pos[pos_of[children[0]]] if children else pos)
    last_for_lmd: dict[int, int] = {}
    for pos, lmd in enumerate(lmd_by_pos):
        last_for_lmd[lmd] = pos
    return order, lmd_by_pos, sorted(last_for_lmd.values())


def _reference_labels(
    t1: LabeledTree, order1: list[int], t2: LabeledTree, order2: list[int]
) -> tuple[list[int], list[int]]:
    interned: dict[tuple, int] = {}

    def build(tree: LabeledTree, order: list[int]) -> list[int]:
        out = []
        for node_id in order:
            node = tree.node(node_id)
            key = (node.tag, node.attributes)
            out.append(interned.setdefault(key, len(interned)))
        return out

    return build(t1, order1), build(t2, order2)


class ReferenceZsRun:
    """One left-to-right distance computation and its backtrace."""

    def __init__(self, t1: LabeledTree, t2: LabeledTree):
        self.order1, self.lmd1, self.kr1 = _reference_postorder(t1)
        self.order2, self.lmd2, self.kr2 = _reference_postorder(t2)
        self.lab1, self.lab2 = _reference_labels(t1, self.order1, t2, self.order2)
        n1, n2 = len(self.lab1), len(self.lab2)
        self.td = [[0.0] * n2 for _ in range(n1)]
        # one reusable forest-distance buffer; each subtree pair only touches
        # its own top-left region before reading it
        self.fd = [[0.0] * (n2 + 1) for _ in range(n1 + 1)]
        for i in self.kr1:
            self._fill(i, self.kr2)

    def _fill(self, i: int, js: Iterable[int]) -> None:
        """Forest distances of subtree ``i`` against each subtree in ``js``.

        Writes the tree distances of the pairs on both leftmost paths into
        ``td``; the table of the last pair stays in ``fd``.
        """
        lmd1, lmd2 = self.lmd1, self.lmd2
        lab1, lab2 = self.lab1, self.lab2
        cost = 1.0
        td, fd = self.td, self.fd
        li = lmd1[i]
        m = i - li + 2
        ioff = li - 1
        for j in js:
            lj = lmd2[j]
            n = j - lj + 2
            joff = lj - 1
            row0 = fd[0]
            row0[0] = 0.0
            for y in range(1, n):
                row0[y] = row0[y - 1] + cost
            prev = row0
            for x in range(1, m):
                xi = x + ioff
                cur = fd[x]
                cur[0] = prev[0] + cost
                lx = lmd1[xi]
                tdx = td[xi]
                labx = lab1[xi]
                if lx == li:
                    for y in range(1, n):
                        yj = y + joff
                        best = prev[y] + cost
                        left = cur[y - 1] + cost
                        if left < best:
                            best = left
                        if lmd2[yj] == lj:
                            diag = prev[y - 1] + (0.0 if labx == lab2[yj] else cost)
                            if diag < best:
                                best = diag
                            cur[y] = best
                            tdx[yj] = best
                        else:
                            sub = fd[lx - 1 - ioff][lmd2[yj] - 1 - joff] + tdx[yj]
                            if sub < best:
                                best = sub
                            cur[y] = best
                else:
                    p_row = fd[lx - 1 - ioff]
                    for y in range(1, n):
                        yj = y + joff
                        best = prev[y] + cost
                        left = cur[y - 1] + cost
                        if left < best:
                            best = left
                        sub = p_row[lmd2[yj] - 1 - joff] + tdx[yj]
                        if sub < best:
                            best = sub
                        cur[y] = best
                prev = cur

    @property
    def distance(self) -> float:
        return self.td[-1][-1]

    def mapping(self) -> list[tuple[int, int]]:
        """Matched (postorder1, postorder2) positions of one optimal script."""
        pairs: list[tuple[int, int]] = []
        stack = [(len(self.order1) - 1, len(self.order2) - 1)]
        while stack:
            self._extract(*stack.pop(), pairs, stack)
        return pairs

    def _extract(
        self,
        i: int,
        j: int,
        out: list[tuple[int, int]],
        stack: list[tuple[int, int]],
    ) -> None:
        self._fill(i, (j,))
        fd = self.fd
        lmd1, lmd2 = self.lmd1, self.lmd2
        li = lmd1[i]
        lj = lmd2[j]
        ioff = li - 1
        joff = lj - 1
        x = i - ioff
        y = j - joff
        # walk the table backwards, preferring the matching branch on ties
        while x > 0 and y > 0:
            xi = x + ioff
            yj = y + joff
            cur = fd[x][y]
            if lmd1[xi] == li and lmd2[yj] == lj:
                rel = 0.0 if self.lab1[xi] == self.lab2[yj] else 1.0
                if cur == fd[x - 1][y - 1] + rel:
                    out.append((xi, yj))
                    x -= 1
                    y -= 1
                elif cur == fd[x - 1][y] + 1.0:
                    x -= 1
                else:
                    y -= 1
            else:
                p = lmd1[xi] - 1 - ioff
                q = lmd2[yj] - 1 - joff
                if cur == fd[p][q] + self.td[xi][yj]:
                    stack.append((xi, yj))
                    x = p
                    y = q
                elif cur == fd[x - 1][y] + 1.0:
                    x -= 1
                else:
                    y -= 1


def reference_ted_table(t1: LabeledTree, t2: LabeledTree) -> list[list[float]]:
    """Every subtree distance, indexed by left-to-right postorder positions."""
    return ReferenceZsRun(t1, t2).td


def reference_ted_match(t1: LabeledTree, t2: LabeledTree) -> Matching:
    """``ted_match`` of the left-to-right run."""
    run = ReferenceZsRun(t1, t2)
    mapped = sorted(
        (run.order1[x], run.order2[y], 0.0 if run.lab1[x] == run.lab2[y] else 1.0)
        for x, y in run.mapping()
    )
    return Matching(
        tuple((n, m) for n, m, _ in mapped), tuple(c for _, _, c in mapped), len(t1), len(t2)
    )


# ---------------------------------------------------------------------------
# Exhaustive optima of the walk's objective on toy graphs: the cost of every
# full matching, and the cheapest one by branch and bound.

def enumerate_matching_costs(g: MatchGraph, params: SftmParams) -> list[float]:
    """Cost of every full matching constructible from the graph's edges.

    Iterates over every subset of pairwise-disjoint edges; for checking
    ``brute_force_optimal`` on toy graphs only.
    """
    edges = list(g.edges)
    w = params.no_match_cost
    costs: list[float] = []
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            t1_nodes = [e.n for e in combo]
            t2_nodes = [e.m for e in combo]
            if len(set(t1_nodes)) != r or len(set(t2_nodes)) != r:
                continue
            edge_cost = sum(e.cost for e in combo)
            unmatched = (g.t1_size - r) + (g.t2_size - r)
            costs.append(edge_cost + w * unmatched)
    return costs


class TooLarge(ValueError):
    """Instance exceeds the exhaustive-search guard."""


_BRUTE_FORCE_LIMIT = 16
_TIE_TOL = 1e-12


def brute_force_optimal(g: MatchGraph, params: SftmParams) -> Matching:
    """Exhaustively enumerate full matchings built from the graph's edges.

    Returns the minimum-cost one; exact cost ties are broken by the
    lexicographically smallest pair list. Guarded to tiny instances.
    """
    total_nodes = g.t1_size + g.t2_size
    if total_nodes > _BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{total_nodes} nodes exceeds the limit of {_BRUTE_FORCE_LIMIT}")

    w = params.no_match_cost
    # candidate edges per t1 node as (cost, m), cheapest first
    adjacency = g.t1_adjacency
    options: list[list[tuple[float, int]]] = [
        sorted((g.edge_cost[i], g.edge_m[i]) for i in adjacency[n])
        for n in range(g.t1_size)
    ]
    # delta of a pair relative to leaving both ends unmatched
    node_best = [min([c - 2.0 * w for c, _ in opts] + [0.0]) for opts in options]
    suffix_bound = [0.0] * (g.t1_size + 1)
    for n in range(g.t1_size - 1, -1, -1):
        suffix_bound[n] = suffix_bound[n + 1] + node_best[n]

    best_delta = 0.0  # all-unmatched is always feasible
    best_pairs: list[tuple[int, int, float]] = []
    chosen: list[tuple[int, int, float]] = []

    def search(n: int, used_t2: int, delta: float) -> None:
        nonlocal best_delta, best_pairs
        if delta + suffix_bound[n] > best_delta + _TIE_TOL:
            return
        if n == g.t1_size:
            if delta < best_delta - _TIE_TOL:
                best_delta = delta
                best_pairs = list(chosen)
            elif delta <= best_delta + _TIE_TOL:
                cand = [(a, b) for a, b, _ in chosen]
                cur = [(a, b) for a, b, _ in best_pairs]
                if cand < cur:
                    best_delta = min(best_delta, delta)
                    best_pairs = list(chosen)
            return
        search(n + 1, used_t2, delta)  # leave n unmatched
        for cost, m in options[n]:
            bit = 1 << m
            if used_t2 & bit:
                continue
            chosen.append((n, m, cost))
            search(n + 1, used_t2 | bit, delta + cost - 2.0 * w)
            chosen.pop()

    search(0, 0, 0.0)

    pairs = tuple((n, m) for n, m, _ in best_pairs)
    costs = tuple(c for _, _, c in best_pairs)
    return Matching(pairs, costs, g.t1_size, g.t2_size)


# ---------------------------------------------------------------------------
# Metropolis walk over a graph of Edge objects, with the kept prefix and each
# chosen edge pruned by clearing the alive flag of every incident edge.

@dataclass
class ReferenceGraph:
    """Edges sorted by (cost, n, m) plus per-node adjacency into that order."""

    edges: tuple[Edge, ...]
    t1_adjacency: tuple[tuple[int, ...], ...]
    t2_adjacency: tuple[tuple[int, ...], ...]
    t1_size: int
    t2_size: int
    _scratch: object = field(default=None, repr=False, compare=False)


def reference_build_graph(sp: SimilarityTable, t1: LabeledTree, t2: LabeledTree) -> ReferenceGraph:
    edges = sorted(
        (Edge(n=n, m=m, cost=1.0 / (1.0 + s)) for (n, m), s in flat_scores(sp).items()),
        key=lambda e: (e.cost, e.n, e.m),
    )
    t1_adj: list[list[int]] = [[] for _ in range(len(t1))]
    t2_adj: list[list[int]] = [[] for _ in range(len(t2))]
    for idx, edge in enumerate(edges):
        t1_adj[edge.n].append(idx)
        t2_adj[edge.m].append(idx)
    return ReferenceGraph(
        edges=tuple(edges),
        t1_adjacency=tuple(tuple(a) for a in t1_adj),
        t2_adjacency=tuple(tuple(a) for a in t2_adj),
        t1_size=len(t1),
        t2_size=len(t2),
    )


class _Scratch:
    """Working arrays derived from a graph, shared across suggestion calls."""

    def __init__(self, g: ReferenceGraph):
        self.edge_n = [e.n for e in g.edges]
        self.edge_m = [e.m for e in g.edges]
        self.edge_cost = [e.cost for e in g.edges]
        self.t1_incident = [list(a) for a in g.t1_adjacency]
        self.t2_incident = [list(a) for a in g.t2_adjacency]
        self.count = len(g.edges)
        self.alive_template = b"\x01" * self.count
        self.skip_base = list(range(1, self.count + 1))


def _scratch_for(g: ReferenceGraph) -> _Scratch:
    scratch = g._scratch
    if scratch is None:
        scratch = _Scratch(g)
        g._scratch = scratch
    return scratch  # type: ignore[return-value]


def reference_initial_matching(g: ReferenceGraph) -> Matching:
    t1_used = bytearray(g.t1_size)
    t2_used = bytearray(g.t2_size)
    pairs: list[tuple[int, int]] = []
    costs: list[float] = []
    for edge in g.edges:
        if not t1_used[edge.n] and not t2_used[edge.m]:
            t1_used[edge.n] = 1
            t2_used[edge.m] = 1
            pairs.append((edge.n, edge.m))
            costs.append(edge.cost)
    return Matching(
        pairs=tuple(pairs),
        pair_costs=tuple(costs),
        t1_size=g.t1_size,
        t2_size=g.t2_size,
    )


def reference_suggest_matching(
    g: ReferenceGraph, m_t: Matching, params: SftmParams, rng: random.Random
) -> Matching:
    scratch = _scratch_for(g)
    edge_total = scratch.count
    edge_n = scratch.edge_n
    edge_m = scratch.edge_m
    edge_cost = scratch.edge_cost
    t1_incident = scratch.t1_incident
    t2_incident = scratch.t2_incident

    alive = bytearray(scratch.alive_template)
    skip = scratch.skip_base.copy()
    live = edge_total
    t1_used = bytearray(g.t1_size)
    t2_used = bytearray(g.t2_size)
    pairs: list[tuple[int, int]] = []
    costs: list[float] = []
    gamma = params.gamma
    rand = rng.random

    def find_live(i: int) -> int:
        # first live edge index >= i; compresses skip pointers over dead runs
        j = i
        while j < edge_total and not alive[j]:
            j = skip[j]
        while i < j:
            nxt = skip[i]
            skip[i] = j
            i = nxt
        return j

    to_keep = rng.randint(0, len(m_t.pairs))
    for k in range(to_keep):
        n, m2 = m_t.pairs[k]
        pairs.append((n, m2))
        costs.append(m_t.pair_costs[k])
        t1_used[n] = 1
        t2_used[m2] = 1
        for e in t1_incident[n]:
            if alive[e]:
                alive[e] = 0
                live -= 1
        for e in t2_incident[m2]:
            if alive[e]:
                alive[e] = 0
                live -= 1

    while live > 0:
        pos = find_live(0)
        chosen = -1
        last = -1
        while pos < edge_total:
            last = pos
            if rand() < gamma:
                chosen = pos
                break
            pos = find_live(pos + 1)
        if chosen < 0:
            chosen = last  # scan exhausted: take the last remaining edge
        n = edge_n[chosen]
        m2 = edge_m[chosen]
        pairs.append((n, m2))
        costs.append(edge_cost[chosen])
        t1_used[n] = 1
        t2_used[m2] = 1
        for e in t1_incident[n]:
            if alive[e]:
                alive[e] = 0
                live -= 1
        for e in t2_incident[m2]:
            if alive[e]:
                alive[e] = 0
                live -= 1

    return Matching(
        pairs=tuple(pairs),
        pair_costs=tuple(costs),
        t1_size=g.t1_size,
        t2_size=g.t2_size,
    )


def reference_metropolis(g: ReferenceGraph, params: SftmParams) -> Matching:
    rng = random.Random(params.seed)
    current = reference_initial_matching(g)
    if current.size == 0:
        return current
    best = current
    cur_cost = matching_cost(current, params)
    best_cost = cur_cost
    beta = params.beta

    for _ in range(params.iterations):
        proposal = reference_suggest_matching(g, current, params, rng)
        prop_cost = matching_cost(proposal, params)
        log_ratio = -beta * (prop_cost / proposal.size - cur_cost / current.size)
        accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
        if rng.random() < accept_prob:
            current = proposal
            cur_cost = prop_cost
        if prop_cost < best_cost:
            best = proposal
            best_cost = prop_cost
    return best


# ---------------------------------------------------------------------------
# The greedy start and proposal as one forward pass over the whole edge array,
# stepping over every edge, dead or alive; kept verbatim from before the
# per-node edge chains.

def scan_initial_matching(g: MatchGraph, params: SftmParams) -> Matching:
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


def scan_suggest_matching(
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


def scan_metropolis(
    g: MatchGraph,
    params: SftmParams,
    progress: Callable[[int, float, float], None] | None = None,
) -> Matching:
    """``metropolis`` with the one-pass greedy start and proposal, each a
    checked :class:`Matching` costed by ``matching_cost``."""
    rng = random.Random(params.seed)
    current = scan_initial_matching(g, params)
    if current.size == 0:
        return current
    best = current
    cur_cost = best_cost = matching_cost(current, params)
    beta = params.beta
    for it in range(1, params.iterations + 1):
        proposal = scan_suggest_matching(g, current, params, rng)
        prop_cost = matching_cost(proposal, params)
        log_ratio = -beta * (prop_cost / proposal.size - cur_cost / current.size)
        accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
        if rng.random() < accept_prob:
            current = proposal
            cur_cost = prop_cost
        if prop_cost < best_cost:
            best = proposal
            best_cost = prop_cost
        if progress is not None:
            progress(it, cur_cost, best_cost)
    return best


def _copy_deep(node: DraftNode) -> DraftNode:
    """Copy of a draft subtree with every signature cleared."""

    def shallow(original: DraftNode) -> DraftNode:
        return DraftNode(tag=original.tag, attrs=list(original.attrs), text=original.text)

    top = shallow(node)
    stack = [(node, top)]
    while stack:
        original, copy = stack.pop()
        copy.children = [shallow(c) for c in original.children]
        stack.extend(zip(original.children, copy.children))
    return top


def _signatures_in(node: DraftNode) -> list[str]:
    """Signatures of a draft subtree in pre-order."""
    found: list[str] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.signature is not None:
            found.append(current.signature)
        stack.extend(reversed(current.children))
    return found


class ReferenceMutator:
    def __init__(self, tree: LabeledTree, ratio: float, seed: int, source_page: str):
        if not 0.0 <= ratio <= 0.5:
            raise ValueError(f"mutation ratio must be in [0, 0.5], got {ratio}")
        for node in tree:
            if node.signature is None:
                raise ValueError(f"node {node.id} has no signature; sign the tree first")
        self.ratio = ratio
        self.seed = seed
        self.source_page = source_page
        self.target = int(ratio * len(tree) + 0.5)
        self.root = thaw(tree)[0]
        self.rng = random.Random(seed)
        self.mutated: set[str] = set()
        self.removed: set[str] = set()
        self.ops: list[MutationOp] = []
        self._entries: list[tuple[DraftNode, DraftNode | None]] | None = None
        self._signed_counts: dict[int, int] = {}

    # -- bookkeeping ---------------------------------------------------

    def entries(self) -> list[tuple[DraftNode, DraftNode | None]]:
        if self._entries is None:
            found: list[tuple[DraftNode, DraftNode | None]] = []
            counts: dict[int, int] = {}

            def walk(node: DraftNode, parent: DraftNode | None) -> int:
                found.append((node, parent))
                signed = 1 if node.signature is not None else 0
                for child in node.children:
                    signed += walk(child, node)
                counts[id(node)] = signed
                return signed

            walk(self.root, None)
            self._entries = found
            self._signed_counts = counts
        return self._entries

    def _invalidate(self) -> None:
        self._entries = None

    def _note(self, kind: str, target: str, detail: dict, signatures: list[str]) -> None:
        self.ops.append(MutationOp(kind=kind, target=target, detail=detail))
        self.mutated.update(signatures)

    # -- candidate scan --------------------------------------------------

    def candidates(self) -> dict[str, list[tuple[DraftNode, DraftNode | None]]]:
        need = self.target - len(self.mutated)
        out: dict[str, list[tuple[DraftNode, DraftNode | None]]] = {
            kind: [] for kind in MUTATION_KINDS
        }
        for node, parent in self.entries():
            if node.signature is None:
                continue
            entry = (node, parent)
            if parent is not None:
                if self._signed_counts[id(node)] <= need:
                    out["remove_node"].append(entry)
                out["duplicate"].append(entry)
                out["unwrap"].append(entry)
                if len(parent.children) >= 2:
                    out["swap"].append(entry)
            out["wrap"].append(entry)
            if node.attrs:
                out["attr_remove"].append(entry)
                if any(value.split() for _, value in node.attrs):
                    out["attr_remove_words"].append(entry)
            if node.text:
                out["content_replace_random"].append(entry)
                out["content_remove"].append(entry)
                if node.text.split():
                    out["content_remove_words"].append(entry)
                if any(ch.isalpha() for ch in node.text):
                    out["content_change_letters"].append(entry)
        return out

    # -- operators --------------------------------------------------------

    def apply(self, kind: str, node: DraftNode, parent: DraftNode | None) -> None:
        sig = node.signature
        assert sig is not None
        rng = self.rng
        if kind == "remove_node":
            assert parent is not None
            gone = _signatures_in(node)
            parent.children.remove(node)
            self.removed.update(gone)
            self._note(kind, sig, {"subtree_signatures": gone}, gone)
        elif kind == "duplicate":
            assert parent is not None
            copy = _copy_deep(node)
            parent.children.insert(parent.children.index(node) + 1, copy)
            self._note(kind, sig, {}, [sig])
        elif kind == "wrap":
            wrapper = DraftNode(tag=_WRAPPER_TAG, children=[node])
            if parent is None:
                self.root = wrapper
            else:
                parent.children[parent.children.index(node)] = wrapper
            self._note(kind, sig, {"wrapper_tag": _WRAPPER_TAG}, [sig])
        elif kind == "unwrap":
            assert parent is not None
            idx = parent.children.index(node)
            parent.children[idx : idx + 1] = node.children
            self.removed.add(sig)
            self._note(kind, sig, {}, [sig])
        elif kind == "swap":
            assert parent is not None
            others = [c for c in parent.children if c is not node]
            partner = rng.choice(others)
            i = parent.children.index(node)
            j = next(k for k, child in enumerate(parent.children) if child is partner)
            parent.children[i], parent.children[j] = partner, node
            touched = [sig] + ([partner.signature] if partner.signature else [])
            self._note(kind, sig, {"partner": partner.signature}, touched)
        elif kind == "attr_remove":
            name = rng.choice([n for n, _ in node.attrs])
            node.attrs = [(n, v) for n, v in node.attrs if n != name]
            self._note(kind, sig, {"attribute": name}, [sig])
        elif kind == "attr_remove_words":
            name, value = rng.choice(
                [(n, v) for n, v in node.attrs if v.split()]
            )
            shrunk = _drop_words(value, rng)
            node.attrs = [(n, shrunk if n == name else v) for n, v in node.attrs]
            self._note(kind, sig, {"attribute": name}, [sig])
        elif kind == "content_replace_random":
            count = max(1, len(node.text.split()))  # type: ignore[union-attr]
            node.text = " ".join(_random_word(rng) for _ in range(count))
            self._note(kind, sig, {"words": count}, [sig])
        elif kind == "content_change_letters":
            chars = list(node.text)  # type: ignore[arg-type]
            letter_positions = [i for i, ch in enumerate(chars) if ch.isalpha()]
            k = max(1, int(_CHANGE_LETTER_FRACTION * len(letter_positions) + 0.5))
            for i in rng.sample(letter_positions, min(k, len(letter_positions))):
                chars[i] = rng.choice(string.ascii_lowercase)
            node.text = "".join(chars)
            self._note(kind, sig, {"letters": k}, [sig])
        elif kind == "content_remove":
            node.text = None
            self._note(kind, sig, {}, [sig])
        elif kind == "content_remove_words":
            node.text = _drop_words(node.text, rng) or None  # type: ignore[arg-type]
            self._note(kind, sig, {}, [sig])
        else:  # pragma: no cover - guarded by MUTATION_KINDS
            raise ValueError(f"unknown mutation kind {kind!r}")
        if kind in _STRUCTURAL_KINDS:
            self._invalidate()

    def run(self) -> tuple[LabeledTree, MutationLog]:
        while len(self.mutated) < self.target:
            pools = self.candidates()
            usable = [kind for kind in MUTATION_KINDS if pools[kind]]
            if not usable:
                raise ExhaustedTargets(
                    f"{len(self.mutated)} of {self.target} nodes mutated, no target left"
                )
            kind = self.rng.choice(usable)
            node, parent = self.rng.choice(pools[kind])
            self.apply(kind, node, parent)
        log = MutationLog(
            source_page=self.source_page,
            seed=self.seed,
            ratio=self.ratio,
            ops=tuple(self.ops),
            removed_signatures=frozenset(self.removed),
        )
        return freeze(self.root), log


def reference_mutate(
    tree: LabeledTree, ratio: float, seed: int, source_page: str = ""
) -> tuple[LabeledTree, MutationLog]:
    """The mutator as first written: a full candidate rescan before every operator."""
    return ReferenceMutator(tree, ratio, seed, source_page).run()


# ---------------------------------------------------------------------------
# The JSON reader and freeze as first written: one DraftNode and one path
# string per JSON object, read recursively, then xpaths assigned while the
# draft tree is walked, each step spelled out character by character.

def _reference_step(tag: str) -> str:
    """A tag as its xpath step spells it, one character at a time: ``\\``,
    ``/`` and ``[`` each get a backslash before them."""
    return "".join("\\" + c if c in "\\/[" else c for c in tag)


def reference_freeze(root: DraftNode) -> tuple[TreeNode, ...]:
    """The tree as one ``TreeNode`` per node, each with its full xpath string."""
    walk: list[tuple[DraftNode, int | None, str]] = []
    child_ids: list[list[int]] = []
    stack: list[tuple[DraftNode, int | None, str]] = [
        (root, None, "/" + _reference_step(root.tag))
    ]
    while stack:
        draft, parent_id, xpath = entry = stack.pop()
        node_id = len(walk)
        walk.append(entry)
        child_ids.append([])
        if parent_id is not None:
            child_ids[parent_id].append(node_id)
        if not draft.children:
            continue
        tag_counts: dict[str, int] = {}
        for child in draft.children:
            tag_counts[child.tag] = tag_counts.get(child.tag, 0) + 1
        seen: dict[str, int] = {}
        entries = []
        for child in draft.children:
            tag = child.tag
            step = _reference_step(tag)
            if tag_counts[tag] >= 2:
                seen[tag] = rank = seen.get(tag, 0) + 1
                entries.append((child, node_id, f"{xpath}/{step}[{rank}]"))
            else:
                entries.append((child, node_id, f"{xpath}/{step}"))
        stack.extend(reversed(entries))

    nodes = []
    for node_id, (draft, parent_id, xpath) in enumerate(walk):
        text = draft.text
        if text is not None:
            text = " ".join(text.split()) or None
        names: set[str] = set()
        attrs = []
        for name, value in draft.attrs:
            if name not in names:  # a repeated name keeps its first value
                names.add(name)
                attrs.append((name, value))
        nodes.append(
            TreeNode(
                id=node_id,
                tag=draft.tag,
                attributes=tuple(attrs),
                text=text,
                parent=parent_id,
                children=tuple(child_ids[node_id]),
                xpath=xpath,
                signature=draft.signature,
            )
        )
    return tuple(nodes)


def _reference_draft_from_json(obj: object, path: str) -> DraftNode:
    if not isinstance(obj, dict):
        raise FormatError(f"expected object, got {type(obj).__name__}", path)
    if "tag" not in obj:
        raise FormatError("missing required field 'tag'", path)
    tag = obj["tag"]
    if not isinstance(tag, str) or not tag:
        raise FormatError("'tag' must be a non-empty string", path)

    attrs_obj = obj.get("attrs", {})
    if not isinstance(attrs_obj, dict):
        raise FormatError("'attrs' must be an object", path + ".attrs")
    attrs = []
    for name, value in attrs_obj.items():
        if not isinstance(value, str):
            raise FormatError("attribute values must be strings", f"{path}.attrs.{name}")
        attrs.append((name, value))

    text = obj.get("text")
    if text is not None and not isinstance(text, str):
        raise FormatError("'text' must be a string", path + ".text")
    signature = obj.get("signature")
    if signature is not None and not isinstance(signature, str):
        raise FormatError("'signature' must be a string", path + ".signature")

    children_obj = obj.get("children", [])
    if not isinstance(children_obj, list):
        raise FormatError("'children' must be an array", path + ".children")
    children = [
        _reference_draft_from_json(child, f"{path}.children[{k}]")
        for k, child in enumerate(children_obj)
    ]
    return DraftNode(tag=tag, attrs=attrs, text=text, signature=signature, children=children)


_REFERENCE_COLUMNS = ("tags", "parents", "attrs", "texts", "signatures")


def _reference_draft_from_columns(doc: dict) -> DraftNode:
    """The format-2 reader as plain loops: every check one entry at a time,
    in the order the library reports them, and the parent rule checked
    against the ancestors of the node before, walked up one by one."""
    version = doc["version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != 2:
        raise FormatError(f"unknown format version {version!r}", "$.version")
    for name in _REFERENCE_COLUMNS:
        if not isinstance(doc.get(name), list):
            raise FormatError(f"'{name}' must be an array", f"$.{name}")
    tags, parents, attrs, texts, signatures = (doc[name] for name in _REFERENCE_COLUMNS)
    size = len(tags)
    if size == 0:
        raise FormatError("'tags' must list at least one node", "$.tags")
    for name in _REFERENCE_COLUMNS:
        if len(doc[name]) != size:
            raise FormatError(f"'{name}' has {len(doc[name])} entries for {size} tags", f"$.{name}")
    for k, tag in enumerate(tags):
        if not isinstance(tag, str) or tag == "":
            raise FormatError("tags must be non-empty strings", f"$.tags[{k}]")
    if parents[0] is not None:
        raise FormatError("the root's parent must be null", "$.parents[0]")
    for v in range(1, size):
        parent = parents[v]
        if isinstance(parent, bool) or not isinstance(parent, int):
            raise FormatError("parent ids must be ints", f"$.parents[{v}]")
        allowed = []
        node = v - 1
        while node is not None:
            allowed.append(node)
            node = parents[node]
        if parent not in allowed:
            raise FormatError(f"parent {parent} is not node {v - 1} or one of its ancestors",
                              f"$.parents[{v}]")
    for k, entry in enumerate(attrs):
        if not isinstance(entry, dict):
            raise FormatError("'attrs' entries must be objects", f"$.attrs[{k}]")
    for k, entry in enumerate(attrs):
        for name, value in entry.items():
            if not isinstance(value, str):
                raise FormatError("attribute values must be strings", f"$.attrs[{k}].{name}")
    for name, column in (("texts", texts), ("signatures", signatures)):
        for k, value in enumerate(column):
            if value is not None and not isinstance(value, str):
                raise FormatError(f"'{name}' entries must be strings or null", f"$.{name}[{k}]")
    drafts = []
    for v in range(size):
        draft = DraftNode(tag=tags[v], attrs=list(attrs[v].items()), text=texts[v],
                          signature=signatures[v])
        if v:
            drafts[parents[v]].children.append(draft)
        drafts.append(draft)
    return drafts[0]


def reference_parse_tree_json(text: str | bytes) -> tuple[TreeNode, ...]:
    """Either JSON tree format: an object with a ``version`` key is format 2."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8: {exc}", "$") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", "$") from exc
    except RecursionError:
        raise FormatError("nested too deeply to read", "$") from None
    if isinstance(doc, dict) and "version" in doc:
        return reference_freeze(_reference_draft_from_columns(doc))
    try:
        draft = _reference_draft_from_json(doc, "$")
    except RecursionError:
        raise FormatError("nested too deeply to read", "$") from None
    return reference_freeze(draft)


def reference_serialize_tree_json(tree: LabeledTree) -> str:
    """A tree in JSON tree format 1, nested objects, as the library wrote it
    before format 2; the pinned mutant digests hash this text. Raises
    ``RecursionError`` for a tree deeper than the JSON encoder can nest."""
    tags, attributes, texts, signatures = tree.tags, tree.attributes, tree.texts, tree.signatures
    objs: list = [None] * len(tree)
    # children before parents, so each child list is built from finished objects
    for v, kids in zip(range(len(tree) - 1, -1, -1), reversed(tree.children)):
        obj: dict = {"tag": tags[v]}
        if attributes[v]:
            obj["attrs"] = dict(attributes[v])
        if texts[v] is not None:
            obj["text"] = texts[v]
        if signatures[v] is not None:
            obj["signature"] = signatures[v]
        obj["children"] = [objs[c] for c in kids]
        objs[v] = obj
    return json.dumps(objs[0], ensure_ascii=False)


class _ReferenceTreeBuilder(HTMLParser):
    """The HTML tree builder as first written: one ``DraftNode`` per element,
    and a stack of the open drafts."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root: DraftNode | None = None
        self.stack: list[DraftNode] = []
        self.texts: dict[int, tuple[DraftNode, list[str]]] = {}
        self.done = False

    def _open(self, tag: str, attrs: list[tuple[str, str | None]], void: bool) -> None:
        if self.done:
            return
        if not self.stack and self.root is not None:
            return  # extra top-level element after the root closed
        while self.stack:
            top = self.stack[-1]
            closers = _IMPLIED_CLOSE.get(top.tag)
            if closers is not None and tag in closers:
                self.stack.pop()
                if not self.stack:
                    self.done = True
                    return
            else:
                break
        seen: set[str] = set()
        clean_attrs = []
        for name, value in attrs:
            if name in seen:
                continue
            seen.add(name)
            clean_attrs.append((name, value if value is not None else ""))
        node = DraftNode(tag=tag, attrs=clean_attrs)
        if self.stack:
            self.stack[-1].children.append(node)
        else:
            self.root = node
        if not (void or tag in _VOID_TAGS):
            self.stack.append(node)
        elif not self.stack and self.root is node:
            self.done = True  # void root, e.g. "<br>"

    def handle_starttag(self, tag, attrs):
        self._open(tag, attrs, void=False)

    def handle_startendtag(self, tag, attrs):
        self._open(tag, attrs, void=True)

    def handle_endtag(self, tag):
        if self.done or not self.stack:
            return
        for depth in range(len(self.stack) - 1, -1, -1):
            if self.stack[depth].tag == tag:
                del self.stack[depth:]
                if not self.stack:
                    self.done = True
                return

    def handle_data(self, data):
        if self.done or not self.stack:
            return
        top = self.stack[-1]
        if top.tag in _RAWTEXT_TAGS:
            return
        self.texts.setdefault(id(top), (top, []))[1].append(data)

    def finish(self) -> DraftNode:
        if self.root is None:
            raise IngestError("document contains no element")
        for node, pieces in self.texts.values():
            node.text = "".join(pieces)
        return self.root


# the WHATWG encoding standard's BOM sniff: each byte-order mark and the
# encoding it names; the mark itself is left out of the decoded text
_BOMS = ((b"\xef\xbb\xbf", "utf-8"), (b"\xfe\xff", "utf-16-be"), (b"\xff\xfe", "utf-16-le"))


def reference_decode(document: bytes) -> str:
    """Bytes as text by the BOM sniff, and UTF-8 when no mark leads them;
    undecodable bytes become U+FFFD."""
    for bom, encoding in _BOMS:
        if document.startswith(bom):
            return document[len(bom):].decode(encoding, errors="replace")
    return document.decode("utf-8", errors="replace")


def reference_parse_html(document: bytes | str) -> tuple[TreeNode, ...]:
    if isinstance(document, bytes):
        document = reference_decode(document)
    builder = _ReferenceTreeBuilder()
    builder.feed(document)
    builder.close()
    return reference_freeze(builder.finish())
