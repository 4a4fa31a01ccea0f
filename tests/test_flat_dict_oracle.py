"""The row-per-node similarity table and the graph built from it, against the
flat ``(n, m)``-keyed stages kept in ``oracles.py``: same scores to the bit,
same edge arrays and adjacency. The graph built straight from the initial
table's rows, with no propagated table between, is held to the same
reference, and so is the matcher's own graph, whose climb reads the scored
rows as they stream out with no table at all. The graph of a table is also
checked on hand-made tables whose scores tie, or differ but give the same
cost."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_DIR
from oracles import (
    flat_scores,
    reference_build_graph,
    reference_initial_similarity,
    reference_propagate,
    table_from_scores,
)
from strategies import TAGS, draft_trees, labeled_trees, tree_pairs
from treematch.graph import build_graph, graph_from_rows
from treematch.mutate import assign_signatures, mutate
from treematch.pipeline import match_trees_detailed
from treematch.similarity import SftmParams, SimilarityTable, initial_similarity, propagate
from treematch.tokens import DEFAULT_TOKEN_OPTIONS, TokenOptions
from treematch.tree import DraftNode, freeze, parse_html

OPTIONS = {"default": DEFAULT_TOKEN_OPTIONS, "content": TokenOptions(include_content=True)}


def hexed(scores: dict[tuple[int, int], float]) -> dict[tuple[int, int], str]:
    return {key: value.hex() for key, value in scores.items()}


def assert_same_stages(t1, t2, params: SftmParams, options: TokenOptions) -> None:
    s0 = initial_similarity(t1, t2, replace(params, tokens=options))
    ref0 = reference_initial_similarity(t1, t2, params, options)
    assert hexed(flat_scores(s0)) == hexed(ref0)
    assert len(s0) == len(ref0)
    assert all(row for row in s0.rows.values())

    sp = propagate(s0, t1, t2, params)
    ref_p = reference_propagate(ref0, t1, t2, params)
    assert hexed(flat_scores(sp)) == hexed(ref_p)

    ref = reference_build_graph(table_from_scores(ref_p), t1, t2)
    assert_same_graph(build_graph(sp, t1, t2), ref)
    assert_same_graph(graph_from_rows(sorted(s0.rows.items()), t1, t2, params.weights), ref)
    # the matcher streams the rows into the climb, and builds no table
    _, g = match_trees_detailed(t1, t2, replace(params, tokens=options, iterations=1))
    assert_same_graph(g, ref)


def assert_same_graph(g, ref) -> None:
    assert g.edge_n == tuple(e.n for e in ref.edges)
    assert g.edge_m == tuple(e.m for e in ref.edges)
    assert [c.hex() for c in g.edge_cost] == [e.cost.hex() for e in ref.edges]
    assert g.t1_adjacency == ref.t1_adjacency
    assert g.t2_adjacency == ref.t2_adjacency


@lru_cache(maxsize=None)
def corpus_pair(page: str, ratio: float, seed: int):
    path = next(CORPUS_DIR.glob(page + "_*.html"))
    source = assign_signatures(parse_html(path.read_bytes()))
    mutant, _ = mutate(source, ratio, seed)
    return source, mutant


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("ratio", [0.02, 0.2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("page", ["p00", "p04", "p06", "p13"])
def test_corpus_mutants(corpus_pages, page, seed, ratio, options):
    t1, t2 = corpus_pair(page, ratio, seed)
    assert_same_stages(t1, t2, SftmParams(), OPTIONS[options])


@st.composite
def sftm_params(draw) -> SftmParams:
    """Depth 0, 1 or 3, with zero weights allowed past level 0, so chains that
    stop at the root and levels that add nothing both occur."""
    p = draw(st.sampled_from([0, 1, 3]))
    w0 = draw(st.sampled_from([0.5, 1.0, 2.0]))
    rest = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=p, max_size=p))
    alpha = draw(st.sampled_from([0.5, 1.0]))
    return SftmParams(alpha=alpha, weights=(w0, *rest))


@settings(max_examples=80, deadline=None)
@given(tree_pairs(max_nodes=12), sftm_params(), st.sampled_from(sorted(OPTIONS)))
def test_random_trees(pair, params, options):
    t1, t2 = pair
    assert_same_stages(t1, t2, params, OPTIONS[options])


@pytest.mark.parametrize("options", sorted(OPTIONS))
@settings(max_examples=60, deadline=None)
@given(pair=tree_pairs(max_nodes=12, odd_tags=True), params=sftm_params())
def test_random_trees_odd_tags(pair, params, options):
    """Tags like ``a[1]``, ``a/b`` and ``a\\`` would spell another node's
    xpath unescaped; escaped, every xpath names one node, and the partner
    lookup by segment agrees with the per-node xpath strings."""
    t1, t2 = pair
    assert_same_stages(t1, t2, params, OPTIONS[options])


GAP = "gap"  # a tag no first tree has
assert GAP not in TAGS


@st.composite
def gapped_pairs(draw):
    """A tree and a second tree in which some nodes are bare ``GAP`` nodes.

    A gap node shares no label token with the first tree, and no node under
    it has an xpath partner, so it has no row: a row below it climbs past a
    node without one to reach its scored ancestors."""
    shape = draw(draft_trees(max_nodes=14))
    stack = list(shape.children)
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if draw(st.integers(0, 2)) == 0:
            node.tag, node.attrs, node.text = GAP, [], None
    return draw(labeled_trees(max_nodes=12)), freeze(shape)


@settings(max_examples=80, deadline=None)
@given(gapped_pairs(), st.sampled_from([1, 2, 3, 5]), st.sampled_from([0.5, 1.0]),
       st.sampled_from(sorted(OPTIONS)))
def test_streaming_climb_over_rowless_nodes(pair, depth, alpha, options):
    """Weights of length 1, 2, 3 and 5: the matcher's graph, propagated from
    rows as they are scored, equals ``graph_from_rows`` on the initial
    table's sorted rows and the reference build to the bit, with rowless
    nodes between a row and its scored ancestors."""
    t1, t2 = pair
    params = SftmParams(alpha=alpha, weights=(1.0, 0.5, 0.25, 0.75, 2.0)[:depth])
    assert_same_stages(t1, t2, params, OPTIONS[options])


def test_rowless_nodes_between_a_row_and_its_ancestors():
    # t2's rows are 0 (div), 3 (p) and 4 (b); 1 and 2 are gaps, so the pair
    # of the two p nodes climbs two rowless levels to reach the div pair
    def chain(*tags):
        node = DraftNode(tag=tags[-1])
        for tag in reversed(tags[:-1]):
            node = DraftNode(tag=tag, children=[node])
        return freeze(node)

    t1, t2 = chain("div", "span", "a", "p", "b"), chain("div", GAP, GAP, "p", "b")
    params = SftmParams(alpha=1.0, weights=(1.0, 0.5, 0.25, 0.125))
    s0 = initial_similarity(t1, t2, params)
    assert sorted(s0.rows) == [0, 3, 4]
    assert_same_stages(t1, t2, params, DEFAULT_TOKEN_OPTIONS)
    sp = flat_scores(propagate(s0, t1, t2, params))
    assert sp[(3, 3)] == s0.rows[3][3] + 0.125 * s0.rows[0][0]


@settings(max_examples=40, deadline=None)
@given(tree_pairs(max_nodes=12), st.sampled_from([1, 2, 3, 5]))
def test_table_rows_in_any_order(pair, depth):
    """The table forms read a table's rows in ascending ``m`` whatever order
    it holds them in."""
    t1, t2 = pair
    params = SftmParams(weights=(1.0, 0.5, 0.25, 0.75, 2.0)[:depth])
    s0 = initial_similarity(t1, t2, params)
    shuffled = SimilarityTable(rows=dict(reversed(s0.rows.items())))
    sp = propagate(s0, t1, t2, params)
    assert hexed(flat_scores(propagate(shuffled, t1, t2, params))) == hexed(flat_scores(sp))
    want = build_graph(sp, t1, t2)
    got = build_graph(SimilarityTable(rows=dict(reversed(sp.rows.items()))), t1, t2)
    assert (got.edge_n, got.edge_m) == (want.edge_n, want.edge_m)
    assert [c.hex() for c in got.edge_cost] == [c.hex() for c in want.edge_cost]


# 0.1 and the next float up are distinct scores with one cost 1/(1+s)
NEAR = math.nextafter(0.1, 1.0)
SCORES = (0.1, NEAR, 0.5, 1.0, 1.0 / 3.0, 2.0, 7.25)


def flat_tree(size: int):
    return freeze(DraftNode(tag="r", children=[DraftNode(tag="c") for _ in range(size - 1)]))


@st.composite
def tied_tables(draw):
    """Sizes and a sparse table whose scores come from ``SCORES``."""
    n1, n2 = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    scores = draw(st.dictionaries(cells, st.sampled_from(SCORES), max_size=n1 * n2))
    return n1, n2, scores


def test_near_scores_share_a_cost():
    assert NEAR != 0.1 and 1.0 / (1.0 + NEAR) == 1.0 / (1.0 + 0.1)


@settings(max_examples=100, deadline=None)
@given(tied_tables())
def test_graph_on_tied_scores(table):
    n1, n2, scores = table
    t1, t2 = flat_tree(n1), flat_tree(n2)
    sp = table_from_scores(scores)
    ref = reference_build_graph(sp, t1, t2)
    assert_same_graph(build_graph(sp, t1, t2), ref)


def test_near_scores_sort_by_ids_together():
    # (2, 0) has the score 0.1 and (1, 1) the next float up: one cost, so the
    # edges sort by (n, m) across the two scores
    t1, t2 = flat_tree(3), flat_tree(2)
    sp = table_from_scores({(2, 0): 0.1, (1, 1): NEAR, (0, 1): 0.1, (0, 0): 1.0})
    ref = reference_build_graph(sp, t1, t2)
    g = build_graph(sp, t1, t2)
    assert list(zip(g.edge_n, g.edge_m)) == [(0, 0), (0, 1), (1, 1), (2, 0)]
    assert_same_graph(g, ref)
