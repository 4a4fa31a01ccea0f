"""The row-per-node similarity table and the graph built from it, against the
flat ``(n, m)``-keyed stages kept in ``oracles.py``: same scores to the bit,
same edge arrays and adjacency."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_DIR
from oracles import reference_build_graph, reference_initial_similarity, reference_propagate
from strategies import tree_pairs
from treematch.graph import build_graph
from treematch.mutate import assign_signatures, mutate
from treematch.similarity import SftmParams, SimilarityTable, initial_similarity, propagate
from treematch.tokens import DEFAULT_TOKEN_OPTIONS, TokenOptions
from treematch.tree import parse_html

FLAT_CONTENT = TokenOptions(flat=True, include_content=True)
OPTIONS = {"default": DEFAULT_TOKEN_OPTIONS, "flat_content": FLAT_CONTENT}


def hexed(scores: dict[tuple[int, int], float]) -> dict[tuple[int, int], str]:
    return {key: value.hex() for key, value in scores.items()}


def assert_same_stages(t1, t2, params: SftmParams, options: TokenOptions) -> None:
    log: dict[str, int] = {}
    ref_log: dict[str, int] = {}
    s0 = initial_similarity(t1, t2, replace(params, tokens=options), log)
    ref0 = reference_initial_similarity(t1, t2, params, options, ref_log)
    assert hexed(s0.scores) == hexed(ref0)
    assert log == ref_log
    assert len(s0) == len(ref0)
    assert all(row for row in s0.rows.values())

    sp = propagate(s0, t1, t2, params)
    ref_p = reference_propagate(ref0, t1, t2, params)
    assert hexed(sp.scores) == hexed(ref_p)

    g = build_graph(sp, t1, t2)
    ref = reference_build_graph(SimilarityTable.from_scores(ref_p), t1, t2)
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
    return SftmParams(alpha=alpha, p=p, weights=(w0, *rest))


@settings(max_examples=80, deadline=None)
@given(tree_pairs(max_nodes=12), sftm_params(), st.sampled_from(sorted(OPTIONS)))
def test_random_trees(pair, params, options):
    t1, t2 = pair
    assert_same_stages(t1, t2, params, OPTIONS[options])
