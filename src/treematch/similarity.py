"""Token-level similarity between the nodes of two trees.

Pipeline: build an inverted index over the first tree's tokens, drop tokens
that occur in too many nodes (sublinear threshold), score each second-tree
node against the index with IDF weighting, then propagate scores up the
parent chain so local topology counts too.

The table is kept as one row per second-tree node: ``rows[m]`` maps each
first-tree node ``n`` to the score of the pair ``(n, m)``. Scoring fills a
row per ``m`` and propagation rewrites a row at a time, so every lookup is
keyed by a plain int and no tuple is built per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .tokens import DEFAULT_TOKEN_OPTIONS, TokenOptions, tokenize_node
from .tree import LabeledTree


class MissingToken(KeyError):
    """Requested a token that is not in the index."""


@dataclass(frozen=True)
class SftmParams:
    """Tuning knobs for the whole matching pipeline.

    ``alpha`` sets the token-multiplicity cutoff f(N) = N**alpha; tokens held
    by more than ceil(f(N)) first-tree nodes are ignored. ``weights`` has one
    entry per propagation level 0..p. ``beta`` sharpens the optimizer's
    objective, ``gamma`` is the per-edge stop probability of the matching
    suggestion scan, and ``no_match_cost`` is the penalty for leaving a node
    unmatched.
    """

    alpha: float = 0.5
    p: int = 2
    weights: tuple[float, ...] = (1.0, 0.5, 0.25)
    beta: float = 4.0
    gamma: float = 0.9
    iterations: int = 100
    no_match_cost: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.p < 0:
            raise ValueError(f"propagation depth must be >= 0, got {self.p}")
        if len(self.weights) != self.p + 1:
            raise ValueError(
                f"need {self.p + 1} weights for depth {self.p}, got {len(self.weights)}"
            )
        if self.weights[0] <= 0:
            raise ValueError("weight w0 must be > 0")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.no_match_cost <= 0:
            raise ValueError(f"no_match_cost must be > 0, got {self.no_match_cost}")


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

    @classmethod
    def from_scores(cls, scores: dict[tuple[int, int], float]) -> SimilarityTable:
        """The table holding a flat ``(n, m) -> score`` dict."""
        rows: dict[int, dict[int, float]] = {}
        for (n, m), score in scores.items():
            row = rows.get(m)
            if row is None:
                rows[m] = {n: score}
            else:
                row[n] = score
        return cls(rows=rows)

    @property
    def scores(self) -> dict[tuple[int, int], float]:
        """The table as a flat ``(n, m) -> score`` dict, built on each access."""
        return {(n, m): s for m, row in self.rows.items() for n, s in row.items()}

    def get(self, n: int, m: int) -> float:
        row = self.rows.get(m)
        return 0.0 if row is None else row.get(n, 0.0)

    def __len__(self) -> int:
        return sum(map(len, self.rows.values()))


def build_token_index(
    t1: LabeledTree, options: TokenOptions = DEFAULT_TOKEN_OPTIONS
) -> TokenIndex:
    """Index every node of the first tree under each of its tokens."""
    entries: dict[str, set[int]] = {}
    for node in t1:
        for token in sorted(tokenize_node(t1, node.id, options)):
            bucket = entries.get(token)
            if bucket is None:
                entries[token] = {node.id}
            else:
                bucket.add(node.id)
    return TokenIndex(entries=entries, t1_size=len(t1))


def threshold_cutoff(t1_size: int, alpha: float) -> int:
    # the epsilon guards against pow() landing a hair above an exact integer
    return math.ceil(t1_size**alpha - 1e-9)


def apply_threshold(index: TokenIndex, alpha: float) -> TokenIndex:
    """Drop tokens carried by more than ceil(N**alpha) nodes; keep the rest."""
    cutoff = threshold_cutoff(index.t1_size, alpha)
    entries = {t: nodes for t, nodes in index.entries.items() if len(nodes) <= cutoff}
    return TokenIndex(entries=entries, t1_size=index.t1_size)


def idf(index: TokenIndex, token: str) -> float:
    """log(N / multiplicity): how rare, hence how informative, a token is."""
    nodes = index.entries.get(token)
    if nodes is None:
        raise MissingToken(token)
    return math.log(index.t1_size / len(nodes))


def neighbor_scores(
    t2: LabeledTree,
    m: int,
    index: TokenIndex,
    options: TokenOptions = DEFAULT_TOKEN_OPTIONS,
    contribution_log: dict[str, int] | None = None,
) -> dict[int, float]:
    """Initial similarity of one second-tree node against all indexed nodes.

    Each shared token with a positive IDF adds it to the token-holders'
    scores, so every score in the result is positive. When given,
    ``contribution_log`` records each shared token's index multiplicity.
    """
    scores: dict[int, float] = {}
    entries, t1_size = index.entries, index.t1_size
    for token in sorted(tokenize_node(t2, m, options)):
        bucket = entries.get(token)
        if not bucket:
            continue
        if contribution_log is not None:
            contribution_log[token] = len(bucket)
        weight = math.log(t1_size / len(bucket))
        if weight <= 0.0:
            continue
        for n in bucket:
            scores[n] = scores.get(n, 0.0) + weight
    return scores


def initial_similarity(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
    options: TokenOptions = DEFAULT_TOKEN_OPTIONS,
    contribution_log: dict[str, int] | None = None,
) -> SimilarityTable:
    """Label-only similarity for every node pair that shares an indexed token."""
    index = apply_threshold(build_token_index(t1, options), params.alpha)
    rows: dict[int, dict[int, float]] = {}
    for m in range(len(t2)):
        row = neighbor_scores(t2, m, index, options, contribution_log)
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

    Only pairs with a positive initial score are kept; a missing ancestor or
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
        # (weight, ancestor row) for levels 1..p of m, stopping at the root;
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
