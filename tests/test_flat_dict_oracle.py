"""The row-per-node similarity table and the graph built from it, against the
flat ``(n, m)``-keyed stages kept in ``oracles.py``: same scores to the bit,
same edge arrays and adjacency. The graph the matcher builds straight from
the initial table, with no propagated table between, is held to the same
reference. Both graphs are also checked on hand-made tables whose scores
tie, or differ but give the same cost."""

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
from strategies import tree_pairs
from treematch.graph import build_graph, propagate_graph
from treematch.mutate import assign_signatures, mutate
from treematch.similarity import SftmParams, initial_similarity, propagate
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
    assert_same_graph(propagate_graph(s0, t1, t2, params), ref)


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


# 0.1 and the next float up are distinct scores with one cost 1/(1+s)
NEAR = math.nextafter(0.1, 1.0)
SCORES = (0.1, NEAR, 0.5, 1.0, 1.0 / 3.0, 2.0, 7.25)
# depth 0 with w0 = 1: propagating a table leaves every score as it is
LEVEL_ZERO = SftmParams(weights=(1.0,))


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
    assert_same_graph(propagate_graph(sp, t1, t2, LEVEL_ZERO), ref)


def test_near_scores_sort_by_ids_together():
    # (2, 0) has the score 0.1 and (1, 1) the next float up: one cost, so the
    # edges sort by (n, m) across the two scores
    t1, t2 = flat_tree(3), flat_tree(2)
    sp = table_from_scores({(2, 0): 0.1, (1, 1): NEAR, (0, 1): 0.1, (0, 0): 1.0})
    ref = reference_build_graph(sp, t1, t2)
    for g in (build_graph(sp, t1, t2), propagate_graph(sp, t1, t2, LEVEL_ZERO)):
        assert list(zip(g.edge_n, g.edge_m)) == [(0, 0), (0, 1), (1, 1), (2, 0)]
        assert_same_graph(g, ref)
