"""Token-level similarity between the nodes of two trees.

Pipeline: build an inverted index over the first tree's tokens, drop tokens
that occur in too many nodes (sublinear threshold), score each second-tree
node against the index with IDF weighting, then propagate scores up the
parent chain so local topology counts too.

Nodes that share a label (tag and attributes, plus text when content is
tokenized) share every token but their xpath, so :func:`initial_similarity`
tokenizes each distinct label of both trees once, and each node adds only
its xpath token. A node's tokens are kept in sorted order, the order its
IDF weights are summed in, so the scores equal those of
:func:`neighbor_scores`, which tokenizes the node on its own, to the bit.

The table is kept as one row per second-tree node: ``rows[m]`` maps each
first-tree node ``n`` to the score of the pair ``(n, m)``. Scoring fills a
row per ``m`` and propagation rewrites a row at a time, so every lookup is
keyed by a plain int and no tuple is built per pair.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .tokens import (
    DEFAULT_TOKEN_OPTIONS,
    TokenOptions,
    label_tokens,
    tokenize_node,
    xpath_token,
)
from .tree import LabeledTree


@dataclass(frozen=True)
class SftmParams:
    """Tuning knobs for the whole matching pipeline.

    ``alpha`` sets the token-multiplicity cutoff f(N) = N**alpha; tokens held
    by more than ceil(f(N)) first-tree nodes are ignored. ``weights`` holds
    w0..wp, one per propagation level, so its length sets the depth
    p = len(weights) - 1. ``beta`` sharpens the optimizer's
    objective, ``gamma`` is the per-edge stop probability of the matching
    suggestion scan, and ``no_match_cost`` is the penalty for leaving a node
    unmatched. ``tokens`` holds the tokenization switches of both trees.
    """

    alpha: float = 0.5
    weights: tuple[float, ...] = (1.0, 0.5, 0.25)
    beta: float = 4.0
    gamma: float = 0.9
    iterations: int = 100
    no_match_cost: float = 1.0
    seed: int = 0
    tokens: TokenOptions = DEFAULT_TOKEN_OPTIONS

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.weights:
            raise ValueError("weights must hold at least w0")
        if self.weights[0] <= 0:
            raise ValueError("weight w0 must be > 0")
        if not all(0 <= w < math.inf for w in self.weights):
            raise ValueError(f"weights must be finite and non-negative, got {self.weights}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 < self.no_match_cost < math.inf:
            raise ValueError(f"no_match_cost must be finite and > 0, got {self.no_match_cost}")


@dataclass
class TokenIndex:
    """Inverted index: token -> set of first-tree node ids that carry it."""

    entries: dict[str, set[int]]
    t1_size: int


@dataclass
class SimilarityTable:
    """Sparse similarity table, one row per second-tree node.

    ``rows[m][n]`` is the score of the pair ``(n, m)``; an absent row or
    entry means zero. Tables computed here never store an empty row, and
    their stored scores are > 0.
    """

    rows: dict[int, dict[int, float]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(map(len, self.rows.values()))


def build_token_index(
    t1: LabeledTree, options: TokenOptions = DEFAULT_TOKEN_OPTIONS
) -> TokenIndex:
    """Index every node of the first tree under each of its tokens."""
    return _index(node_tokens(t1, options, {}), len(t1))


def _index(token_lists: Iterable[list[str]], t1_size: int) -> TokenIndex:
    entries: dict[str, set[int]] = {}
    for node_id, tokens in enumerate(token_lists):
        for token in tokens:
            bucket = entries.get(token)
            if bucket is None:
                entries[token] = {node_id}
            else:
                bucket.add(node_id)
    return TokenIndex(entries=entries, t1_size=t1_size)


def threshold_cutoff(t1_size: int, alpha: float) -> int:
    # the epsilon guards against pow() landing a hair above an exact integer
    return math.ceil(t1_size**alpha - 1e-9)


def apply_threshold(index: TokenIndex, alpha: float) -> TokenIndex:
    """Drop tokens carried by more than ceil(N**alpha) nodes; keep the rest."""
    cutoff = threshold_cutoff(index.t1_size, alpha)
    entries = {t: nodes for t, nodes in index.entries.items() if len(nodes) <= cutoff}
    return TokenIndex(entries=entries, t1_size=index.t1_size)


def neighbor_scores(
    t2: LabeledTree,
    m: int,
    index: TokenIndex,
    options: TokenOptions = DEFAULT_TOKEN_OPTIONS,
) -> dict[int, float]:
    """Initial similarity of one second-tree node against all indexed nodes.

    Each shared token adds its IDF, log(N / multiplicity), to the
    token-holders' scores; a token with IDF 0 adds nothing, so every score
    in the result is positive.
    """
    return _scores(sorted(tokenize_node(t2, m, options)), index)


def _scores(tokens: list[str], index: TokenIndex) -> dict[int, float]:
    # IDF weights are added in sorted token order, so every caller sums the
    # same floats in the same order
    scores: dict[int, float] = {}
    entries, t1_size = index.entries, index.t1_size
    for token in tokens:
        bucket = entries.get(token)
        if not bucket:
            continue
        weight = math.log(t1_size / len(bucket))
        if weight <= 0.0:
            continue
        for n in bucket:
            scores[n] = scores.get(n, 0.0) + weight
    return scores


def node_tokens(
    tree: LabeledTree,
    options: TokenOptions,
    labels: dict[tuple, tuple[list[str], set[str]]],
) -> Iterator[list[str]]:
    """Each node's tokens in sorted order, in node order: the same lists as
    ``sorted(tokenize_node(tree, n, options))``.

    ``labels`` maps each node label seen so far, tag and attributes (and
    text with ``options.include_content``), to its tokens, sorted and as a
    set; passing one dict for both trees tokenizes each label once. A node
    then adds only its xpath token. In the namespaced mode that token sorts
    after every label token, since ``xpath:`` sorts after the other
    prefixes; in the flat mode it may sort anywhere, or repeat a label
    token, so it is sorted in with the label's set.
    """
    flat, content = options.flat, options.include_content
    for node in tree:
        text = node.text if content else None
        key = (node.tag, node.attributes, text)
        label = labels.get(key)
        if label is None:
            words = label_tokens(node.tag, node.attributes, text, options)
            label = labels[key] = (sorted(words), words)
        ordered, words = label
        xpath = xpath_token(node.xpath, options)
        yield sorted(words | {xpath}) if flat else [*ordered, xpath]


def initial_similarity(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> SimilarityTable:
    """Label-only similarity for every node pair that shares an indexed token."""
    options = params.tokens
    labels: dict[tuple, tuple[list[str], set[str]]] = {}
    index = apply_threshold(_index(node_tokens(t1, options, labels), len(t1)), params.alpha)
    rows: dict[int, dict[int, float]] = {}
    for m, tokens in enumerate(node_tokens(t2, options, labels)):
        row = _scores(tokens, index)
        if row:
            rows[m] = row
    return SimilarityTable(rows=rows)


_EMPTY_ROW: dict[int, float] = {}


def propagate(
    s0: SimilarityTable,
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> SimilarityTable:
    """Blend each pair's score with its ancestors' scores, weighted per level.

    Weight ``weights[k]`` applies to the ancestor pair k levels up, so the
    depth is ``len(weights) - 1``. Only pairs with a positive initial score are kept; a missing ancestor or
    an absent ancestor-pair score contributes nothing. For each row ``m`` the
    weight and ancestor row of every level are looked up once; each ``n``
    then climbs its own parent chain alongside them.
    """
    weights = params.weights
    w0 = weights[0]
    parents1 = [node.parent for node in t1]
    parents2 = [node.parent for node in t2]
    base = s0.rows
    out: dict[int, dict[int, float]] = {}
    for m, row in base.items():
        # (weight, ancestor row) for each level above m, stopping at the root;
        # trailing levels with an empty row add nothing, so they are dropped
        levels: list[tuple[float, dict[int, float]]] = []
        b = parents2[m]
        for w in weights[1:]:
            if b is None:
                break
            levels.append((w, base.get(b, _EMPTY_ROW)))
            b = parents2[b]
        while levels and not levels[-1][1]:
            levels.pop()
        blended: dict[int, float] = {}
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
            blended[n] = total
        out[m] = blended
    return SimilarityTable(rows=out)
