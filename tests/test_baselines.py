from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_DIR
from oracles import enumerate_matching_costs, exhaustive_edit_distance
from strategies import labeled_trees, tree_pairs
from treematch.baselines import (
    TooLarge,
    brute_force_optimal,
    ted_distance,
    ted_match,
)
from treematch.graph import Matching, build_graph, matching_cost
from treematch.mutate import assign_signatures, mutate
from treematch.optimize import metropolis
from treematch.similarity import SftmParams, SimilarityTable, initial_similarity, propagate
from treematch.tree import DraftNode, LabeledTree, freeze, parse_html

PARAMS = SftmParams()


def graph_of(scores, t1_size, t2_size):
    def line(n):
        root = DraftNode(tag="r")
        root.children = [DraftNode(tag=f"c{k}") for k in range(n - 1)]
        return freeze(root)

    return build_graph(SimilarityTable.from_scores(scores), line(t1_size), line(t2_size))


class TestBruteForce:
    def test_zero_edges_all_unmatched(self):
        g = graph_of({}, 3, 2)
        m = brute_force_optimal(g, PARAMS)
        assert m.pairs == ()
        assert matching_cost(m, PARAMS) == pytest.approx(PARAMS.no_match_cost * 5)

    def test_single_cheap_edge_selected(self):
        g = graph_of({(0, 0): 1.0 / 0.4 - 1.0}, 1, 1)
        m = brute_force_optimal(g, PARAMS)
        assert m.pairs == ((0, 0),)
        assert matching_cost(m, PARAMS) == pytest.approx(0.4)

    def test_expensive_edge_rejected(self):
        # w_n = 0.1 each side: unmatched total 0.2 beats an edge of cost 0.4
        params = SftmParams(no_match_cost=0.1)
        g = graph_of({(0, 0): 1.0 / 0.4 - 1.0}, 1, 1)
        m = brute_force_optimal(g, params)
        assert m.pairs == ()

    def test_three_by_three_matches_enumeration(self):
        scores = {
            (0, 0): 4.0, (0, 1): 1.0,
            (1, 1): 3.0, (1, 2): 0.5,
            (2, 0): 2.0, (2, 2): 6.0,
        }
        g = graph_of(scores, 3, 3)
        m = brute_force_optimal(g, PARAMS)
        assert matching_cost(m, PARAMS) == pytest.approx(
            min(enumerate_matching_costs(g, PARAMS))
        )

    def test_guard(self):
        g = graph_of({}, 9, 8)
        with pytest.raises(TooLarge):
            brute_force_optimal(g, PARAMS)

    def test_result_is_full_and_tie_broken(self):
        # two equal-cost perfect matchings; lexicographically smaller pair list wins
        s = 1.0  # cost 0.5 each
        g = graph_of({(0, 0): s, (1, 1): s, (0, 1): s, (1, 0): s}, 2, 2)
        m = brute_force_optimal(g, PARAMS)
        assert Matching(m.pairs, m.pair_costs, m.t1_size, m.t2_size) == m
        assert m.pairs == ((0, 0), (1, 1))

    @settings(max_examples=25, deadline=None)
    @given(tree_pairs(max_nodes=6), st.integers(0, 9999))
    def test_never_above_metropolis(self, pair, seed):
        t1, t2 = pair
        params = SftmParams(iterations=30, seed=seed)
        sp = propagate(initial_similarity(t1, t2, params), t1, t2, params)
        g = build_graph(sp, t1, t2)
        exact = matching_cost(brute_force_optimal(g, params), params)
        walked = matching_cost(metropolis(g, params), params)
        assert exact <= walked + 1e-9


def chain(*tags: str) -> LabeledTree:
    root = node = DraftNode(tag=tags[0])
    for tag in tags[1:]:
        child = DraftNode(tag=tag)
        node.children.append(child)
        node = child
    return freeze(root)


class TestTedDistance:
    def test_identical_trees(self):
        t = chain("a", "b", "c")
        assert ted_distance(t, t) == 0.0

    def test_single_relabel(self):
        t1 = chain("a", "b")
        t2 = chain("a", "z")
        assert ted_distance(t1, t2) == 1.0

    def test_pure_insertion(self):
        t1 = chain("a")
        t2 = chain("a", "b", "c")
        assert ted_distance(t1, t2) == pytest.approx(2.0)

    def test_attributes_count_for_equality(self):
        t1 = freeze(DraftNode(tag="a", attrs=[("id", "x")]))
        t2 = freeze(DraftNode(tag="a"))
        assert ted_distance(t1, t2) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(tree_pairs(max_nodes=5))
    def test_matches_exhaustive_oracle(self, pair):
        t1, t2 = pair
        assert ted_distance(t1, t2) == pytest.approx(
            exhaustive_edit_distance(t1, t2), abs=1e-9
        )

    def test_symmetry_with_unit_costs(self):
        t1 = chain("a", "b", "c")
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="x"), DraftNode(tag="c")]))
        assert ted_distance(t1, t2) == pytest.approx(ted_distance(t2, t1))


def descendants(tree: LabeledTree, node_id: int) -> set[int]:
    out = set()
    stack = list(tree.node(node_id).children)
    while stack:
        nid = stack.pop()
        out.add(nid)
        stack.extend(tree.node(nid).children)
    return out


class TestTedMatch:
    def test_identity_matching(self):
        t = chain("a", "b", "c")
        m = ted_match(t, t)
        assert set(m.pairs) == {(0, 0), (1, 1), (2, 2)}
        assert not m.unmatched_t1 and not m.unmatched_t2

    def test_relabel_keeps_all_nodes_matched(self):
        t1 = chain("a", "b", "c")
        t2 = chain("a", "q", "c")
        m = ted_match(t1, t2)
        assert len(m.pairs) == 3
        assert sum(m.pair_costs) == pytest.approx(1.0)
        assert ted_distance(t1, t2) == pytest.approx(1.0)

    def test_matching_is_full(self):
        t1 = chain("a", "b")
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b"), DraftNode(tag="c")]))
        m = ted_match(t1, t2)
        assert Matching(m.pairs, m.pair_costs, m.t1_size, m.t2_size) == m

    @settings(max_examples=40, deadline=None)
    @given(tree_pairs(max_nodes=8))
    def test_ancestry_preserved(self, pair):
        t1, t2 = pair
        m = ted_match(t1, t2)
        pairs = dict(m.pairs)
        for n, mm in pairs.items():
            desc_n = descendants(t1, n)
            desc_m = descendants(t2, mm)
            for n2, m2 in pairs.items():
                if n2 in desc_n:
                    assert m2 in desc_m

    @settings(max_examples=40, deadline=None)
    @given(tree_pairs(max_nodes=8))
    def test_sibling_order_preserved(self, pair):
        t1, t2 = pair
        pairs = sorted(ted_match(t1, t2).pairs)
        # postorder positions are monotone for mapped pairs in TED; with
        # preorder ids, left-to-right order among disjoint nodes still holds
        for (a, x) in pairs:
            for (b, y) in pairs:
                da = descendants(t1, a)
                if a < b and b not in da and a not in descendants(t1, b):
                    dx = descendants(t2, x)
                    assert (x < y and y not in dx) or y in dx or x in descendants(t2, y)

    def test_matched_pairs_costs(self):
        t1 = chain("a", "b")
        t2 = chain("a", "z")
        m = ted_match(t1, t2)
        assert dict(zip(m.pairs, m.pair_costs))[(1, 1)] == 1.0
        assert dict(zip(m.pairs, m.pair_costs))[(0, 0)] == 0.0


# ted_match on corpus mutants (ratio 0.2): pair count, summed relabel cost,
# first 16 hex digits of sha256(repr(pairs)), and ted_distance. Every value
# is an integer or an exact float, so no libm difference can move them.
PINNED_TED = [
    ("p00", 0, 125, 6.0, "baadfd33f5e84d93", 24.0),
    ("p00", 1, 121, 4.0, "17bbcc330bb8e803", 20.0),
    ("p00", 2, 127, 4.0, "82a32a9a99027f5b", 24.0),
    ("p01", 0, 165, 18.0, "c6b4ae5ee9e5d125", 41.0),
    ("p01", 1, 162, 5.0, "481915f5a51e9a6e", 23.0),
    ("p01", 2, 163, 10.0, "5a083d47650e0269", 39.0),
]


class TestTedOnCorpus:
    @pytest.mark.parametrize("prefix,seed,count,relabel,digest,distance", PINNED_TED)
    def test_pinned_mapping_and_distance(self, prefix, seed, count, relabel, digest, distance):
        pages = sorted(CORPUS_DIR.glob(f"{prefix}_*.html"))
        if not pages:
            pytest.skip("bundled corpus not generated")
        source = assign_signatures(parse_html(pages[0].read_bytes()))
        mutant, _ = mutate(source, 0.2, seed)
        m = ted_match(source, mutant)
        assert len(m.pairs) == count
        assert sum(m.pair_costs) == relabel
        assert hashlib.sha256(repr(m.pairs).encode()).hexdigest()[:16] == digest
        assert ted_distance(source, mutant) == distance


def test_ted_distance_on_deep_chain():
    depth = 3000
    deep = parse_html("<div>" * depth + "</div>" * depth)
    small = parse_html("<html><body><p>x</p></body></html>")
    # relabel the three small nodes onto the chain, delete the rest
    assert ted_distance(deep, small) == float(depth)
    assert ted_distance(small, deep) == float(depth)
