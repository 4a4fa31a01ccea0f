"""Token-level similarity between the nodes of two trees.

Pipeline: build an inverted index over the first tree's tokens, drop tokens
that occur in too many nodes (sublinear threshold), score each second-tree
node against the index with IDF weighting, then propagate scores up the
parent chain so local topology counts too. The matcher propagates straight
into its graph (``graph.propagate_graph``); :func:`propagate` gives the same
scores as a table.

A node's tokens are its label's tokens (tag and attributes, plus text when
content is tokenized) and its xpath token, and a pair's IDF weights are
added in sorted token order, so a score is the float a plain sum over the
node's own sorted tokens gives. In :func:`initial_similarity` labels are
interned to ints and tokenized once, the index holds label tokens only,
each kept token's weight is computed once, and the second-tree nodes of one
label share a label row: it is scored once, kept and copied only while
another node of that label follows, and the last such node (or a label's
only one) takes the row itself. ``xpath:`` sorts after every label prefix,
so a node's xpath weight is added last. An xpath names one node of its tree
(see ``tree``), so that weight is ``log(N)`` and goes to the one first-tree
node with the same xpath: the node with the same segment under the parent's
partner, found by one lookup per node. No xpath string is built.

The table is kept as one row per second-tree node: ``rows[m]`` maps each
first-tree node ``n`` to the score of the pair ``(n, m)``. Scoring fills a
row per ``m`` and propagation rewrites a row at a time, so every lookup is
keyed by a plain int and no tuple is built per pair.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat

from .tokens import DEFAULT_TOKEN_OPTIONS, TokenOptions, label_tokens, tokenize_node
from .tree import LabeledTree


class NodeOutOfRange(ValueError):
    """A similarity entry names a node id outside its tree."""


@dataclass(frozen=True)
class SftmParams:
    """Tuning knobs for the whole matching pipeline.

    ``alpha`` sets the token-multiplicity cutoff f(N) = N**alpha; tokens held
    by more than ceil(f(N)) first-tree nodes are ignored. ``weights`` holds
    w0..wp, one per propagation level, so its length sets the depth
    p = len(weights) - 1. ``beta`` sharpens the optimizer's
    objective, ``gamma`` is the per-edge stop probability of the matching
    suggestion scan, and ``no_match_cost`` is the penalty for leaving a node
    unmatched. ``tokens`` holds the tokenization switches of both trees; every
    token keeps its kind prefix, and ``tokens.include_content`` adds text
    words.
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
    entries: dict[str, set[int]] = {}
    for node_id in range(len(t1)):
        for token in tokenize_node(t1, node_id, options):
            bucket = entries.get(token)
            if bucket is None:
                entries[token] = {node_id}
            else:
                bucket.add(node_id)
    return TokenIndex(entries=entries, t1_size=len(t1))


def threshold_cutoff(t1_size: int, alpha: float) -> int:
    # the epsilon guards against pow() landing a hair above an exact integer
    return math.ceil(t1_size**alpha - 1e-9)


def apply_threshold(index: TokenIndex, alpha: float) -> TokenIndex:
    """Drop tokens carried by more than ceil(N**alpha) nodes; keep the rest."""
    cutoff = threshold_cutoff(index.t1_size, alpha)
    entries = {t: nodes for t, nodes in index.entries.items() if len(nodes) <= cutoff}
    return TokenIndex(entries=entries, t1_size=index.t1_size)


def _row(
    tokens: list[str], weighted: Mapping[str, tuple[float, list[int]]]
) -> dict[int, float]:
    """The scores some sorted tokens give, each token's IDF weight added to
    its holders in token order."""
    scores: dict[int, float] | None = None
    for token in tokens:
        entry = weighted.get(token)
        if entry is None:
            continue
        weight, bucket = entry
        if scores is None:
            scores = dict.fromkeys(bucket, weight)  # 0.0 + weight is weight
            continue
        get = scores.get
        for n in bucket:
            scores[n] = get(n, 0.0) + weight
    return {} if scores is None else scores


def _label_keys(tree: LabeledTree, options: TokenOptions) -> list[tuple]:
    """Each node's label by node id: (tag, attributes, text), with text
    ``None`` unless ``options.include_content`` is set."""
    texts = tree.texts if options.include_content else repeat(None)
    return list(zip(tree.tags, tree.attributes, texts))


def initial_similarity(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> SimilarityTable:
    """Label-only similarity for every node pair that shares an indexed token."""
    options = params.tokens
    t1_size = len(t1)
    cutoff = threshold_cutoff(t1_size, params.alpha)
    # each label of either tree interned to an int and tokenized once
    ids: dict[tuple, int] = {}
    labels1 = [ids.setdefault(key, len(ids)) for key in _label_keys(t1, options)]
    labels2 = [ids.setdefault(key, len(ids)) for key in _label_keys(t2, options)]
    tokens = [sorted(label_tokens(*key, options)) for key in ids]
    holders: list[list[int]] = [[] for _ in tokens]
    for n, label in enumerate(labels1):
        holders[label].append(n)
    # a node holds a token once, so a bucket's length is the token's multiplicity
    buckets: dict[str, list[int]] = {}
    for words, nodes in zip(tokens, holders):
        if not nodes:
            continue  # a label only t2 has
        for token in words:
            bucket = buckets.get(token)
            if bucket is None:
                buckets[token] = nodes.copy()
            else:
                bucket.extend(nodes)
    # each kept token's IDF weight and holders; a weight of 0 adds nothing
    weighted: dict[str, tuple[float, list[int]]] = {}
    for token, bucket in buckets.items():
        if len(bucket) <= cutoff:
            weight = math.log(t1_size / len(bucket))
            if weight > 0.0:
                weighted[token] = (weight, bucket)

    partners = _xpath_partners(t1, t2)
    lone = math.log(t1_size)  # the weight of an xpath, which one t1 node holds
    # t2 nodes of a label left to score; a label's base row is kept, and
    # copied, only while another node of it follows, and the last takes it
    left = [0] * len(tokens)
    for label in labels2:
        left[label] += 1
    label_rows: list[dict[int, float] | None] = [None] * len(tokens)
    rows: dict[int, dict[int, float]] = {}
    for m, (label, partner) in enumerate(zip(labels2, partners)):
        row = label_rows[label]
        if row is None:
            row = _row(tokens[label], weighted)
        left[label] -= 1
        if left[label]:
            label_rows[label] = row
            row = row.copy()
        else:
            label_rows[label] = None
        # the xpath token sorts after every label token, so its weight adds last
        if partner is not None and lone > 0.0:
            row[partner] = row.get(partner, 0.0) + lone
        if row:
            rows[m] = row
    return SimilarityTable(rows=rows)


def _xpath_partners(t1: LabeledTree, t2: LabeledTree) -> list[int | None]:
    """Each second-tree node's partner, the ``t1`` node with an equal xpath,
    or ``None``.

    Siblings never share a segment, so xpaths are equal exactly when their
    segments are, and a node's partner is the node with its segment under
    its parent's partner: one pre-order pass over ``t2``.
    """
    node = dict(zip(zip(t1.parents, t1.segments), range(len(t1))))
    segments, parents = t2.segments, t2.parents
    partners = [node.get((None, segments[0]))]
    for m in range(1, len(segments)):
        up = partners[parents[m]]  # type: ignore[index]
        partners.append(None if up is None else node.get((up, segments[m])))
    return partners


def check_row(m: int, row: Mapping[int, float], t1_size: int, t2_size: int) -> None:
    """Raise :class:`NodeOutOfRange` unless ``rows[m] = row`` names nodes of
    a ``t1_size``-node first tree and a ``t2_size``-node second tree.

    A negative id would index from the end of a column, and an id past it
    would alias another pair's edge key, so both are refused.
    """
    if not 0 <= m < t2_size:
        raise NodeOutOfRange(f"t2 node {m} outside a {t2_size}-node tree")
    if row:
        lo, hi = min(row), max(row)
        if lo < 0 or hi >= t1_size:
            bad = lo if lo < 0 else hi
            raise NodeOutOfRange(f"t1 node {bad} outside a {t1_size}-node tree")


_EMPTY_ROW: dict[int, float] = {}


def ancestor_levels(
    m: int,
    rows: Mapping[int, dict[int, float]],
    parents2: tuple[int | None, ...],
    weights: tuple[float, ...],
) -> list[tuple[float, dict[int, float]]]:
    """``(weight, ancestor row)`` for each propagation level above ``m``,
    stopping at the root; trailing levels with an empty row add nothing, so
    they are dropped. Row ``m``'s pairs climb these levels one parent at a
    time."""
    levels: list[tuple[float, dict[int, float]]] = []
    b = parents2[m]
    for w in weights[1:]:
        if b is None:
            break
        levels.append((w, rows.get(b, _EMPTY_ROW)))
        b = parents2[b]
    while levels and not levels[-1][1]:
        levels.pop()
    return levels


def propagate(
    s0: SimilarityTable,
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> SimilarityTable:
    """Blend each pair's score with its ancestors' scores, weighted per level.

    Weight ``weights[k]`` applies to the ancestor pair k levels up, so the
    depth is ``len(weights) - 1``. Only pairs with a positive initial score
    are kept; a missing ancestor or an absent ancestor-pair score contributes
    nothing. For each row ``m`` the weight and ancestor row of every level
    are looked up once; each ``n`` then climbs its own parent chain
    alongside them.

    This is the table form. The matcher runs ``graph.propagate_graph``,
    which climbs the same way and groups each blended score straight into
    the graph; this function stays for the API, as the reference the tests
    pin that step to, and for the benchmark's traced stages. Raises
    :class:`NodeOutOfRange` when an entry names a node outside ``t1`` or
    ``t2``.
    """
    weights = params.weights
    w0 = weights[0]
    parents1, parents2 = t1.parents, t2.parents
    t1_size, t2_size = len(t1), len(t2)
    base = s0.rows
    out: dict[int, dict[int, float]] = {}
    for m, row in base.items():
        check_row(m, row, t1_size, t2_size)
        levels = ancestor_levels(m, base, parents2, weights)
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
