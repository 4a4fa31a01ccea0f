"""Token-level similarity between the nodes of two trees.

Pipeline: build an inverted index over the first tree's tokens, drop tokens
that occur in too many nodes (sublinear threshold), score each second-tree
node against the index with IDF weighting, then propagate scores up the
parent chain so local topology counts too. Scoring is one loop,
:func:`initial_rows`, which yields each second-tree node's row in
pre-order; :func:`initial_similarity` collects them into a table.
Propagation is one climb, ``_score_groups``: it reads rows in ascending
``m`` and groups the pairs by blended score, each pair as the int key
``n * len(t2) + m``. The matcher feeds it :func:`initial_rows` straight
through ``graph.graph_from_rows``, which turns the groups into edges, so no
table is built on the match path; :func:`propagate` reads the groups back
into a table. The table forms, :func:`propagate` and ``graph.build_graph``,
are the only steps that take scores from outside, and ``_check_table``
checks their node ids and scores once, before the climb; the climb itself
checks nothing.

A node's tokens are its label's tokens (tag and attributes, plus text when
content is tokenized) and its xpath token, and a pair's IDF weights are
added in sorted token order, so a score is the float a plain sum over the
node's own sorted tokens gives. In :func:`initial_rows` labels are
interned to ints and tokenized once, the index holds label tokens only,
and each kept token's weight is computed once. ``xpath:`` sorts after every
label prefix, so a node's xpath weight is added last. An xpath names one
node of its tree (see ``tree``), so that weight is ``log(N)`` and goes to
the one first-tree node with the same xpath: the node with the same segment
under the parent's partner, found by one lookup per node. No xpath string
is built.

Scores are kept as one row per second-tree node: ``rows[m]`` maps each
first-tree node ``n`` to the score of the pair ``(n, m)``. Scoring fills a
row per ``m``, and the climb reads a row per ``m`` with the ancestor rows
it needs, so every lookup is keyed by a plain int and no tuple is built per
pair. Rows come in pre-order, so a row's ancestors come before it and a
subtree's rows come together: the climb keeps a row only until its node's
subtree has been climbed, and at most the rows of one root-to-leaf path
are held at once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .tokens import DEFAULT_TOKEN_OPTIONS, TokenOptions, label_tokens, tokenize_node
from .tree import LabeledTree, label_ids, subtree_sizes


class NodeOutOfRange(ValueError):
    """A similarity entry names no node of its tree: its id is not an int,
    or lies outside the tree."""


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
        if type(self.weights) is not tuple:
            raise ValueError(f"weights must be a tuple, got {self.weights!r}")
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
        if type(self.iterations) is not int:
            raise ValueError(f"iterations must be an int, got {self.iterations!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 < self.no_match_cost < math.inf:
            raise ValueError(f"no_match_cost must be finite and > 0, got {self.no_match_cost}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")


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


def initial_similarity(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> SimilarityTable:
    """Label-only similarity for every node pair that shares an indexed token:
    the rows of :func:`initial_rows`, collected into a table."""
    return SimilarityTable(rows=dict(initial_rows(t1, t2, params)))


def initial_rows(
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> Iterator[tuple[int, dict[int, float]]]:
    """``(m, row)`` for each second-tree node ``m`` with a positive score, in
    pre-order: ``row[n]`` is the label-only similarity of the pair ``(n, m)``.
    A yielded row is the consumer's own; nothing here keeps it."""
    options = params.tokens
    t1_size = len(t1)
    cutoff = threshold_cutoff(t1_size, params.alpha)
    # each label of either tree interned to an int and tokenized once
    labels1, labels2, labels = label_ids(t1, t2, options.include_content)
    tokens = [sorted(label_tokens(*key, options)) for key in labels]
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
    for m, (label, partner) in enumerate(zip(labels2, partners)):
        row = _row(tokens[label], weighted)
        # the xpath token sorts after every label token, so its weight adds last
        if partner is not None and lone > 0.0:
            row[partner] = row.get(partner, 0.0) + lone
        if row:
            yield m, row


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


_EMPTY_ROW: dict[int, float] = {}


def _ancestor_levels(
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


def _score_groups(
    rows: Iterable[tuple[int, dict[int, float]]],
    t1: LabeledTree,
    t2: LabeledTree,
    weights: tuple[float, ...],
) -> dict[float, list[int]]:
    """The climb: each pair's blended score, with the edge keys
    ``n * len(t2) + m`` that have it; a key sorts as (n, m) does.

    ``rows`` gives each second-tree node's initial row in ascending ``m``,
    so a row's ancestor rows come before it. Only the rows of open t2
    ancestors are kept: a row is dropped once its node's subtree has been
    climbed, and a leaf's row is never kept. Siblings share their ancestor
    levels, which are found again only when the t2 parent changes. Every
    node id in ``rows`` must be in range: :func:`initial_rows` yields only
    such rows, and :func:`_check_table` refuses a table that holds another."""
    t2_size = len(t2)
    parents1, parents2 = t1.parents, t2.parents
    sizes = subtree_sizes(t2)
    w0 = weights[0]
    by_score: defaultdict[float, list[int]] = defaultdict(list)
    kept: dict[int, dict[int, float]] = {}
    # (subtree end, node) of each kept row, innermost last
    open_ends: list[tuple[int, int]] = []
    parent: int | None = -1  # no node's parent: the first row finds its levels
    for m, row in rows:
        while open_ends and open_ends[-1][0] <= m:
            del kept[open_ends.pop()[1]]
        if parents2[m] != parent:
            parent = parents2[m]
            levels = _ancestor_levels(m, kept, parents2, weights)
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
        size = sizes[m]
        if size > 1:
            open_ends.append((m + size, m))
            kept[m] = row
    return by_score


def _check_table(table: SimilarityTable, t1: LabeledTree, t2: LabeledTree) -> None:
    """Refuse a table the climb cannot read. Raises :class:`NodeOutOfRange`
    when a row key is not a ``t2`` node or an entry's key is not a ``t1``
    node (an ``int`` in range; ``bool`` and ``float`` ids are refused too),
    and ``ValueError`` naming the row when a score in it is not positive
    and finite."""
    t1_size, t2_size = len(t1), len(t2)
    for m, row in table.rows.items():
        if type(m) is not int or not 0 <= m < t2_size:
            raise NodeOutOfRange(f"t2 node {m!r} is not an int in [0, {t2_size})")
        if not row:
            continue
        # the first id that is not an int, else the lowest or the highest
        if set(map(type, row)) == {int}:
            lo, hi = min(row), max(row)
            n = lo if lo < 0 else hi
        else:
            n = next(n for n in row if type(n) is not int)
        if type(n) is not int or not 0 <= n < t1_size:
            raise NodeOutOfRange(f"t1 node {n!r} is not an int in [0, {t1_size})")
        for score in row.values():
            if not 0.0 < score < math.inf:
                raise ValueError(f"row {m} holds the score {score!r}, "
                                 "which is not positive and finite")


def propagate(
    s0: SimilarityTable,
    t1: LabeledTree,
    t2: LabeledTree,
    params: SftmParams,
) -> SimilarityTable:
    """Blend each pair's score with its ancestors' scores, weighted per level.

    Weight ``weights[k]`` applies to the ancestor pair k levels up, so the
    depth is ``len(weights) - 1``. Only pairs with an initial score are
    kept; a missing ancestor or an absent ancestor-pair score contributes
    nothing.

    This is the table form: the climb the matcher's ``graph.graph_from_rows``
    runs, on the table's rows in ascending ``m``, with its score groups read
    back into rows. It stays for the API, as the step the tests pin to their
    reference, and for the benchmark's traced stages. ``s0`` is only read.
    Before any climb, :func:`_check_table` raises :class:`NodeOutOfRange`
    when an entry names a node outside ``t1`` or ``t2``, and ``ValueError``
    when a score is not positive and finite.
    """
    _check_table(s0, t1, t2)
    t2_size = len(t2)
    by_score = _score_groups(sorted(s0.rows.items()), t1, t2, params.weights)
    rows: dict[int, dict[int, float]] = {m: {} for m in s0.rows}
    for score, keys in by_score.items():
        for key in keys:
            n, m = divmod(key, t2_size)
            rows[m][n] = score
    return SimilarityTable(rows=rows)
