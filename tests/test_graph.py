from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from oracles import brute_force_s0
from strategies import tree_pairs
from treematch.graph import (
    Matching,
    NodeOutOfRange,
    NotFull,
    build_graph,
    edge_count,
    matching_cost,
    matching_to_json,
    neighbors,
)
from treematch.similarity import (
    SftmParams,
    SimilarityTable,
    apply_threshold,
    build_token_index,
    initial_similarity,
    propagate,
)
from treematch.tree import DraftNode, freeze

PARAMS = SftmParams()


def pair_of_single_nodes():
    return freeze(DraftNode(tag="a")), freeze(DraftNode(tag="a"))


def full_matching(pairs, costs, t1_size, t2_size):
    matched_n = {n for n, _ in pairs}
    matched_m = {m for _, m in pairs}
    return Matching(
        pairs=tuple(pairs),
        pair_costs=tuple(costs),
        unmatched_t1=frozenset(set(range(t1_size)) - matched_n),
        unmatched_t2=frozenset(set(range(t2_size)) - matched_m),
        t1_size=t1_size,
        t2_size=t2_size,
    )


class TestBuildGraph:
    def test_empty_table(self):
        t1, t2 = pair_of_single_nodes()
        g = build_graph(SimilarityTable(), t1, t2)
        assert edge_count(g) == 0

    def test_cost_formula(self):
        t1, t2 = pair_of_single_nodes()
        g = build_graph(SimilarityTable.from_scores({(0, 0): 1.0}), t1, t2)
        assert g.edges[0].cost == pytest.approx(0.5)

    def test_zero_score_pairs_have_no_edge(self):
        t1, t2 = pair_of_single_nodes()
        g = build_graph(SimilarityTable.from_scores({}), t1, t2)
        assert edge_count(g) == 0  # absent pair means no edge, not cost 1

    def test_edges_sorted_by_cost_then_ids(self):
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        table = SimilarityTable.from_scores({(0, 0): 1.0, (1, 1): 3.0, (0, 1): 1.0, (1, 0): 0.5})
        g = build_graph(table, t1, t2)
        keys = [(e.cost, e.n, e.m) for e in g.edges]
        assert keys == sorted(keys)
        assert g.edges[0].cost == pytest.approx(0.25)

    @pytest.mark.parametrize("key", [(1, 0), (-1, 0)])
    def test_t1_node_out_of_range_is_typed(self, key):
        t1, t2 = pair_of_single_nodes()
        table = SimilarityTable.from_scores({(0, 0): 1.0, key: 1.0})
        with pytest.raises(NodeOutOfRange, match="t1 node"):
            build_graph(table, t1, t2)

    @pytest.mark.parametrize("key", [(0, 1), (0, -1)])
    def test_t2_node_out_of_range_is_typed(self, key):
        # without the check, (0, 1) would alias the int key of (1, 0)
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a"))
        table = SimilarityTable.from_scores({(0, 0): 1.0, key: 1.0})
        with pytest.raises(NodeOutOfRange, match="t2 node"):
            build_graph(table, t1, t2)
        assert issubclass(NodeOutOfRange, ValueError)

    def test_adjacency_built_once(self):
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        g = build_graph(SimilarityTable.from_scores({(0, 0): 1.0, (1, 0): 2.0}), t1, t2)
        assert g.t1_adjacency == ((1,), (0,))
        assert g.t2_adjacency == ((0, 1), ())
        assert g.t1_adjacency is g.t1_adjacency
        assert g.t2_adjacency is g.t2_adjacency

    @settings(max_examples=25, deadline=None)
    @given(tree_pairs(max_nodes=10))
    def test_cost_bounds_and_adjacency(self, pair):
        t1, t2 = pair
        sp = propagate(initial_similarity(t1, t2, PARAMS), t1, t2, PARAMS)
        g = build_graph(sp, t1, t2)
        if sp.scores:
            top = 1.0 / (1.0 + min(sp.scores.values()))
            for e in g.edges:
                assert 0.0 < e.cost <= top < 1.0
        assert edge_count(g) == len(sp.scores)
        for n in range(len(t1)):
            for e in neighbors(g, "t1", n):
                assert e.n == n
        for m in range(len(t2)):
            costs = [e.cost for e in neighbors(g, "t2", m)]
            assert costs == sorted(costs)

    @settings(max_examples=25, deadline=None)
    @given(tree_pairs(max_nodes=10))
    def test_edge_count_bound(self, pair):
        t1, t2 = pair
        index = apply_threshold(build_token_index(t1), PARAMS.alpha)
        sp = propagate(initial_similarity(t1, t2, PARAMS), t1, t2, PARAMS)
        g = build_graph(sp, t1, t2)
        assert edge_count(g) <= sum(len(nodes) for nodes in index.entries.values()) * len(t2)


class TestAccessors:
    def toy_graph(self):
        # two tiny DOMs sharing some vocabulary, as in a worked index example
        t1 = freeze(
            DraftNode(tag="div", children=[
                DraftNode(tag="p", attrs=[("class", "x")]),
                DraftNode(tag="span"),
            ])
        )
        t2 = freeze(
            DraftNode(tag="div", children=[
                DraftNode(tag="p", attrs=[("class", "x")]),
                DraftNode(tag="b"),
            ])
        )
        params = SftmParams(alpha=1.0, p=0, weights=(1.0,))
        table = initial_similarity(t1, t2, params)
        return build_graph(table, t1, t2), t1, t2, table

    def test_edge_multiset_matches_nonzero_pairs(self):
        g, t1, t2, table = self.toy_graph()
        assert {(e.n, e.m) for e in g.edges} == set(table.scores)
        oracle = brute_force_s0(t1, t2, 1.0)
        assert {(e.n, e.m) for e in g.edges} == set(oracle)

    def test_empty_graph_count(self):
        t1, t2 = pair_of_single_nodes()
        assert edge_count(build_graph(SimilarityTable(), t1, t2)) == 0

    def test_unknown_node_empty_list(self):
        g, *_ = self.toy_graph()
        assert neighbors(g, "t1", 99) == []
        assert neighbors(g, "t2", -5) == []

    def test_bad_side_rejected(self):
        g, *_ = self.toy_graph()
        with pytest.raises(ValueError):
            neighbors(g, "left", 0)


class TestMatchingCost:
    def test_three_perfect_pairs(self):
        m = full_matching([(0, 0), (1, 1), (2, 2)], [0.5, 0.5, 0.5], 3, 3)
        assert matching_cost(m, PARAMS) == pytest.approx(1.5)

    def test_everything_unmatched(self):
        m = full_matching([], [], 2, 2)
        assert matching_cost(m, PARAMS) == pytest.approx(4.0)

    def test_mixed(self):
        m = full_matching([(0, 1)], [0.5], 2, 2)
        assert matching_cost(m, PARAMS) == pytest.approx(2.5)

    def test_not_full_missing_coverage(self):
        m = Matching(
            pairs=((0, 0),),
            pair_costs=(0.5,),
            unmatched_t1=frozenset(),
            unmatched_t2=frozenset(),
            t1_size=2,
            t2_size=1,
        )
        with pytest.raises(NotFull):
            matching_cost(m, PARAMS)

    def test_not_full_duplicate_node(self):
        m = Matching(
            pairs=((0, 0), (0, 1)),
            pair_costs=(0.5, 0.5),
            unmatched_t1=frozenset({1}),
            unmatched_t2=frozenset(),
            t1_size=3,
            t2_size=2,
        )
        with pytest.raises(NotFull):
            matching_cost(m, PARAMS)

    def test_fullness_arithmetic(self):
        m = full_matching([(0, 2), (1, 0)], [0.4, 0.6], 4, 3)
        assert len(m.pairs) + len(m.unmatched_t1) == m.t1_size
        assert len(m.pairs) + len(m.unmatched_t2) == m.t2_size
        assert len(m.pairs) <= min(m.t1_size, m.t2_size)


class TestFromPairs:
    def test_equals_hand_built(self):
        m = Matching.from_pairs([(0, 2), (1, 0)], [0.4, 0.6], 4, 3)
        assert m == full_matching([(0, 2), (1, 0)], [0.4, 0.6], 4, 3)

    def test_node_in_two_pairs_rejected(self):
        with pytest.raises(NotFull):
            Matching.from_pairs([(0, 0), (0, 1)], [0.5, 0.5], 2, 2)


class TestSerialization:
    def test_json_shape(self):
        t1 = freeze(DraftNode(tag="div", children=[DraftNode(tag="p")]))
        t2 = freeze(DraftNode(tag="div", children=[DraftNode(tag="b")]))
        m = full_matching([(0, 0)], [0.25], 2, 2)
        obj = json.loads(matching_to_json(m, t1, t2))
        assert obj["pairs"] == [{"t1_xpath": "/div", "t2_xpath": "/div", "cost": 0.25}]
        assert obj["unmatched_t1"] == ["/div/p"]
        assert obj["unmatched_t2"] == ["/div/b"]
