"""Token-level similarity between the nodes of two trees.

Pipeline: build an inverted index over the first tree's tokens, drop tokens
that occur in too many nodes (sublinear threshold), score each second-tree
node against the index with IDF weighting, then propagate scores up the
parent chain so local topology counts too.

A node's tokens are its label's tokens (tag and attributes, plus text when
content is tokenized) and its xpath token, and IDF weights are added in
sorted token order, so every scoring path sums the same floats in the same
order as :func:`neighbor_scores`, which tokenizes one node on its own.
:func:`initial_similarity` takes one of two paths:

- Namespaced mode (the default): ``xpath:`` sorts after every label
  prefix, so the xpath weight is added last. Labels are interned to ints
  and tokenized once, the index holds label tokens only, each kept token's
  weight is computed once, and the second-tree nodes of one label share a
  label row. A node's row is that row plus its xpath weight, added to the
  first-tree nodes with the same xpath, found by one pre-order lookup of
  the segment under the parent's partner. No xpath string is built.
- Flat mode, or a tag holding ``/`` in either tree (a tag ``a/b`` spells
  the xpath of an ``a`` with a child ``b``, so segments no longer compare
  as xpaths do): each node's xpath string is a token, indexed and sorted in
  with its label's tokens, since a flat xpath can sort among, or equal, a
  label token.

The table is kept as one row per second-tree node: ``rows[m]`` maps each
first-tree node ``n`` to the score of the pair ``(n, m)``. Scoring fills a
row per ``m`` and propagation rewrites a row at a time, so every lookup is
keyed by a plain int and no tuple is built per pair.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import repeat

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
    tokens = sorted(tokenize_node(t2, m, options))
    entries = index.entries
    shared = {token: entries[token] for token in tokens if token in entries}
    # a bucket as large as the tree weighs log(1) = 0 or less, so the tree
    # size as the cutoff drops no token that scores
    return _row(tokens, _weighted(shared, index.t1_size, index.t1_size))


def _weighted(
    buckets: Mapping[str, Collection[int]], t1_size: int, cutoff: int
) -> dict[str, tuple[float, Collection[int]]]:
    """Each token's IDF weight and holders, for the tokens that score: held
    by one to ``cutoff`` nodes, with a positive weight."""
    out = {}
    for token, bucket in buckets.items():
        if 0 < len(bucket) <= cutoff:
            weight = math.log(t1_size / len(bucket))
            if weight > 0.0:
                out[token] = (weight, bucket)
    return out


def _row(
    tokens: list[str], weighted: Mapping[str, tuple[float, Collection[int]]]
) -> dict[int, float]:
    """The scores some sorted tokens give: every caller adds the same IDF
    weights in the same, sorted, token order, so the floats agree to the bit."""
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
    flat = options.flat
    for key, xpath in zip(_label_keys(tree, options), tree.xpaths()):
        label = labels.get(key)
        if label is None:
            words = label_tokens(*key, options)
            label = labels[key] = (sorted(words), words)
        ordered, words = label
        token = xpath_token(xpath, options)
        yield sorted(words | {token}) if flat else [*ordered, token]


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
    rows: dict[int, dict[int, float]] = {}
    if options.flat or _slashed(t1) or _slashed(t2):
        # each xpath a string token, sorted in with its label's tokens
        labels: dict[tuple, tuple[list[str], set[str]]] = {}
        index = _index(node_tokens(t1, options, labels), t1_size)
        weighted = _weighted(index.entries, t1_size, cutoff)
        for m, tokens in enumerate(node_tokens(t2, options, labels)):
            row = _row(tokens, weighted)
            if row:
                rows[m] = row
        return SimilarityTable(rows=rows)

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
    weighted = _weighted(buckets, t1_size, cutoff)

    partners, shared = _xpath_partners(t1, t2)
    lone = math.log(t1_size)  # the weight of an xpath that one t1 node holds
    label_rows: list[dict[int, float] | None] = [None] * len(tokens)
    for m, (label, partner) in enumerate(zip(labels2, partners)):
        base = label_rows[label]
        if base is None:
            base = label_rows[label] = _row(tokens[label], weighted)
        row = base.copy()
        # the xpath token sorts after every label token, so its weight adds last
        if partner is not None:
            nodes = shared.get(partner)
            if nodes is None:
                nodes, weight = [partner], lone
            else:
                weight = math.log(t1_size / len(nodes)) if len(nodes) <= cutoff else 0.0
            if weight > 0.0:
                for n in nodes:
                    row[n] = row.get(n, 0.0) + weight
        if row:
            rows[m] = row
    return SimilarityTable(rows=rows)


def _slashed(tree: LabeledTree) -> bool:
    """Whether a tag holds a ``/``: a tag ``a/b`` spells the same xpath as a
    tag ``a`` with a child ``b``, so segments no longer compare as xpaths do."""
    return any("/" in tag for tag in set(tree.tags))


def _xpath_partners(
    t1: LabeledTree, t2: LabeledTree
) -> tuple[list[int | None], dict[int, list[int]]]:
    """Each second-tree node's partner, the first ``t1`` node with an equal
    xpath, or ``None``; and each partner whose xpath two or more ``t1``
    nodes hold (a tag like ``a[1]`` among ``a`` siblings), with those nodes.

    No tag may hold a ``/``: xpaths are then equal exactly when their
    segments are, so one pre-order pass per tree finds a node's partner as
    the node with its segment under its parent's partner.
    """
    segments, parents = t1.segments, t1.parents
    first: dict[tuple[int, str], int] = {(-1, segments[0]): 0}
    firsts = [0] * len(segments)
    shared: dict[int, list[int]] = {}
    for n in range(1, len(segments)):
        key = (firsts[parents[n]], segments[n])  # type: ignore[index]
        f = firsts[n] = first.setdefault(key, n)
        if f != n:
            shared.setdefault(f, [f]).append(n)
    segments, parents = t2.segments, t2.parents
    partners = [first.get((-1, segments[0]))]
    for m in range(1, len(segments)):
        up = partners[parents[m]]  # type: ignore[index]
        partners.append(None if up is None else first.get((up, segments[m])))
    return partners, shared


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
    parents1, parents2 = t1.parents, t2.parents
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
