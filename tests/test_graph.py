from __future__ import annotations

import json
import math
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings

from oracles import brute_force_s0, flat_scores, table_from_scores
from strategies import tree_pairs
from treematch import graph, similarity
from treematch.graph import (
    MatchGraph,
    Matching,
    NotFull,
    build_graph,
    edge_count,
    matching_cost,
    matching_to_json,
)
from treematch.similarity import (
    NodeOutOfRange,
    SftmParams,
    SimilarityTable,
    apply_threshold,
    build_token_index,
    initial_similarity,
    propagate,
)
from treematch.tree import DraftNode, freeze

PARAMS = SftmParams()
EXACT = SftmParams(alpha=1.0)


# every step that reads a table refuses a node id outside its tree and a
# score that is not positive and finite
FROM_TABLE = {
    "build_graph": build_graph,
    "propagate": lambda table, t1, t2: propagate(table, t1, t2, PARAMS),
}


def pair_of_single_nodes():
    return freeze(DraftNode(tag="a")), freeze(DraftNode(tag="a"))


class TestBuildGraph:
    def test_empty_table(self):
        t1, t2 = pair_of_single_nodes()
        g = build_graph(SimilarityTable(), t1, t2)
        assert edge_count(g) == 0

    def test_cost_formula(self):
        t1, t2 = pair_of_single_nodes()
        g = build_graph(table_from_scores({(0, 0): 1.0}), t1, t2)
        assert g.edges[0].cost == pytest.approx(0.5)

    def test_zero_score_pairs_have_no_edge(self):
        t1, t2 = pair_of_single_nodes()
        g = build_graph(table_from_scores({}), t1, t2)
        assert edge_count(g) == 0  # absent pair means no edge, not cost 1

    def test_edges_sorted_by_cost_then_ids(self):
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        table = table_from_scores({(0, 0): 1.0, (1, 1): 3.0, (0, 1): 1.0, (1, 0): 0.5})
        g = build_graph(table, t1, t2)
        keys = [(e.cost, e.n, e.m) for e in g.edges]
        assert keys == sorted(keys)
        assert g.edges[0].cost == pytest.approx(0.25)

    @pytest.mark.parametrize("build", sorted(FROM_TABLE))
    @pytest.mark.parametrize("key", [(2, 0), (-1, 0), (2, 1), (-1, 1)])
    def test_t1_node_out_of_range_is_typed(self, key, build):
        # unchecked, propagate would read node 1's parent for -1 and fail
        # with a bare IndexError on 2, or keep either id when no level climbs
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        table = table_from_scores({(0, 0): 1.0, key: 1.0})
        with pytest.raises(NodeOutOfRange, match="t1 node"):
            FROM_TABLE[build](table, t1, t2)

    @pytest.mark.parametrize("build", sorted(FROM_TABLE))
    @pytest.mark.parametrize("key", [(0, 1), (0, -1)])
    def test_t2_node_out_of_range_is_typed(self, key, build):
        # without the check, (0, 1) would alias the int key of (1, 0)
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a"))
        table = table_from_scores({(0, 0): 1.0, key: 1.0})
        with pytest.raises(NodeOutOfRange, match="t2 node"):
            FROM_TABLE[build](table, t1, t2)
        assert issubclass(NodeOutOfRange, ValueError)

    @pytest.mark.parametrize("build", sorted(FROM_TABLE))
    @pytest.mark.parametrize("side", ["t1", "t2"])
    @pytest.mark.parametrize("node", [0.5, 1.0, True])
    def test_node_that_is_not_an_int_is_typed(self, node, side, build):
        # unchecked, a float t2 key raised a bare TypeError from both forms,
        # and a float t1 key a KeyError from propagate's climb
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        key = (node, 0) if side == "t1" else (0, node)
        table = table_from_scores({(0, 0): 1.0, key: 1.0})
        with pytest.raises(NodeOutOfRange, match=f"{side} node {node!r} is not an int"):
            FROM_TABLE[build](table, t1, t2)

    @pytest.mark.parametrize("build", sorted(FROM_TABLE))
    @pytest.mark.parametrize("score", [0.0, -1.0, -3.0, math.nan, math.inf])
    def test_score_not_positive_and_finite_is_refused(self, score, build):
        # unchecked, -1.0 divides by zero, -3.0 gives a negative cost the walk
        # picks, 0.0 a cost of 1.0 and nan a cost that breaks the edge sort
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a"))
        table = table_from_scores({(0, 0): score, (1, 0): 1.0})
        with pytest.raises(ValueError, match=r"row 0 holds the score .*not positive and finite"):
            FROM_TABLE[build](table, t1, t2)

    @pytest.mark.parametrize("build", sorted(FROM_TABLE))
    @pytest.mark.parametrize("scores", [
        {(0, 0): 1.0, (2, 0): 1.0},
        {(0, 0): 1.0, (0, 1): 1.0},
        {(0, 0): 1.0, (1, 0): -1.0},
    ])
    def test_bad_table_raises_before_the_climb(self, monkeypatch, scores, build):
        def refuse(*args):
            raise AssertionError("the climb ran on a bad table")

        # graph holds its own name for the climb
        for module in (similarity, graph):
            monkeypatch.setattr(module, "_score_groups", refuse)
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a"))
        with pytest.raises(ValueError):  # the AssertionError would pass through
            FROM_TABLE[build](table_from_scores(scores), t1, t2)

    def test_empty_row_is_checked_as_no_pairs(self):
        # _check_table skips an empty row, which holds no id to check, and
        # propagate keeps it; the pair (1, 1) has no ancestor score to add
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        table = SimilarityTable(rows={0: {}, 1: {1: 2.0}})
        assert propagate(table, t1, t2, PARAMS).rows == {0: {}, 1: {1: 2.0}}
        g = build_graph(table, t1, t2)
        assert [(e.n, e.m, e.cost) for e in g.edges] == [(1, 1, 1.0 / 3.0)]

    def test_adjacency_built_once(self):
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        g = build_graph(table_from_scores({(0, 0): 1.0, (1, 0): 2.0}), t1, t2)
        assert g.t1_adjacency == ((1,), (0,))
        assert g.t2_adjacency == ((0, 1), ())
        assert g.t1_adjacency is g.t1_adjacency
        assert g.t2_adjacency is g.t2_adjacency

    def test_chains_built_once(self):
        t1 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        g = build_graph(table_from_scores({(0, 0): 1.0, (1, 0): 2.0}), t1, t2)
        assert g.chains_on_t1  # a tie goes to t1
        first, nxt = g.chains
        # edge 0 is (1, 0), edge 1 is (0, 0); each t1 node has one edge
        assert (first.tolist(), nxt.tolist()) == ([1, 0], [2, 2])
        # packed in one go, byte for byte what array("i", list) builds
        assert first.tobytes() == array("i", [1, 0]).tobytes()
        assert nxt.tobytes() == array("i", [2, 2]).tobytes()
        assert first.typecode == nxt.typecode == "i"
        assert g.chains is g.chains
        # a mark on each chain's first edge and on the end
        assert g.cursor_marks == bytes([1, 1, 1])
        assert g.cursor_marks is g.cursor_marks

    def test_chains_of_empty_graph(self):
        for t1_size, t2_size in ((0, 0), (0, 3), (2, 0), (2, 3)):
            g = MatchGraph((), (), (), t1_size, t2_size)
            first, nxt = g.chains
            assert first.tolist() == [0] * min(t1_size, t2_size)
            assert nxt.tolist() == []
            assert g.cursor_marks == b"\x01"

    @settings(max_examples=25, deadline=None)
    @given(tree_pairs(max_nodes=10))
    def test_cost_bounds_and_adjacency(self, pair):
        t1, t2 = pair
        sp = propagate(initial_similarity(t1, t2, PARAMS), t1, t2, PARAMS)
        g = build_graph(sp, t1, t2)
        scores = flat_scores(sp)
        if scores:
            top = 1.0 / (1.0 + min(scores.values()))
            for e in g.edges:
                assert 0.0 < e.cost <= top < 1.0
        assert edge_count(g) == len(scores)
        for n, incident in enumerate(g.t1_adjacency):
            assert all(g.edge_n[i] == n for i in incident)
        for incident in g.t2_adjacency:
            costs = [g.edge_cost[i] for i in incident]
            assert costs == sorted(costs)
        # each chain links its node's adjacency in order, ending at E
        adjacency = g.t1_adjacency if g.chains_on_t1 else g.t2_adjacency
        first, nxt = g.chains
        assert len(first) == min(len(t1), len(t2))
        for node, incident in enumerate(adjacency):
            chain, idx = [], first[node]
            while idx != edge_count(g):
                chain.append(idx)
                idx = nxt[idx]
            assert tuple(chain) == incident
        heads = set(first) | {edge_count(g)}
        assert g.cursor_marks == bytes(i in heads for i in range(edge_count(g) + 1))

    @settings(max_examples=25, deadline=None)
    @given(tree_pairs(max_nodes=10))
    def test_edge_count_bound(self, pair):
        t1, t2 = pair
        index = apply_threshold(build_token_index(t1), PARAMS.alpha)
        sp = propagate(initial_similarity(t1, t2, PARAMS), t1, t2, PARAMS)
        g = build_graph(sp, t1, t2)
        assert edge_count(g) <= sum(len(nodes) for nodes in index.entries.values()) * len(t2)


class TestTableLifetime:
    """``propagate`` and ``build_graph`` only read their table."""

    def trees(self):
        shape = DraftNode(tag="div", children=[
            DraftNode(tag="p", children=[DraftNode(tag="b")]) for _ in range(3)])
        return freeze(shape), freeze(shape)

    @staticmethod
    def snapshot(table):
        rows = dict(table.rows)
        return rows, {key: score.hex() for key, score in flat_scores(table).items()}

    def assert_unchanged(self, table, before):
        rows, scores = before
        assert {key: score.hex() for key, score in flat_scores(table).items()} == scores
        assert all(table.rows[m] is row for m, row in rows.items())

    def test_held_table_is_unchanged(self):
        t1, t2 = self.trees()
        table = initial_similarity(t1, t2, EXACT)
        before = self.snapshot(table)
        first = propagate(table, t1, t2, PARAMS)
        second = propagate(table, t1, t2, PARAMS)
        assert flat_scores(first) == flat_scores(second)
        self.assert_unchanged(table, before)
        before = self.snapshot(first)
        g1 = build_graph(first, t1, t2)
        g2 = build_graph(first, t1, t2)
        assert edge_count(g1) == 19  # 1 + 9 + 9
        assert (g1.edge_n, g1.edge_m) == (g2.edge_n, g2.edge_m)
        assert [c.hex() for c in g1.edge_cost] == [c.hex() for c in g2.edge_cost]
        self.assert_unchanged(first, before)


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
        params = SftmParams(alpha=1.0, weights=(1.0,))
        table = initial_similarity(t1, t2, params)
        return build_graph(table, t1, t2), t1, t2, table

    def test_edge_multiset_matches_nonzero_pairs(self):
        g, t1, t2, table = self.toy_graph()
        assert {(e.n, e.m) for e in g.edges} == set(flat_scores(table))
        oracle = brute_force_s0(t1, t2, 1.0)
        assert {(e.n, e.m) for e in g.edges} == set(oracle)

    def test_empty_graph_count(self):
        t1, t2 = pair_of_single_nodes()
        assert edge_count(build_graph(SimilarityTable(), t1, t2)) == 0


class TestMatchingCost:
    def test_three_perfect_pairs(self):
        m = Matching(((0, 0), (1, 1), (2, 2)), (0.5, 0.5, 0.5), 3, 3)
        assert matching_cost(m, PARAMS) == pytest.approx(1.5)

    def test_everything_unmatched(self):
        m = Matching((), (), 2, 2)
        assert matching_cost(m, PARAMS) == pytest.approx(4.0)

    def test_mixed(self):
        m = Matching(((0, 1),), (0.5,), 2, 2)
        assert matching_cost(m, PARAMS) == pytest.approx(2.5)

    def test_fullness_arithmetic(self):
        m = Matching(((0, 2), (1, 0)), (0.4, 0.6), 4, 3)
        assert len(m.pairs) + len(m.unmatched_t1) == m.t1_size
        assert len(m.pairs) + len(m.unmatched_t2) == m.t2_size
        assert len(m.pairs) <= min(m.t1_size, m.t2_size)


class TestConstruction:
    def test_unmatched_sets_derived(self):
        m = Matching(((0, 2), (1, 0)), (0.4, 0.6), 4, 3)
        assert m.unmatched_t1 == frozenset({2, 3})
        assert m.unmatched_t2 == frozenset({1})
        assert m.size == 5

    @pytest.mark.parametrize(
        "pairs, costs",
        [
            (((-1, 0),), (0.5,)),
            (((0, -1),), (0.5,)),
            (((5, 0),), (0.5,)),
            (((0, 2),), (0.5,)),
            (((0, 0), (0, 1)), (0.5, 0.5)),
            (((0, 1), (2, 1)), (0.5, 0.5)),
            (((0, 0), (1, 1)), (0.5,)),
        ],
        ids=["negative_t1", "negative_t2", "t1_past_end", "t2_past_end",
             "t1_node_reused", "t2_node_reused", "misaligned_costs"],
    )
    def test_rejected(self, pairs, costs):
        with pytest.raises(NotFull):
            Matching(pairs, costs, 3, 2)

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, None], ids=["half", "float", "bool", "none"])
    @pytest.mark.parametrize("side", ["t1", "t2"])
    def test_id_that_is_not_an_int(self, side, bad):
        pair = (bad, 0) if side == "t1" else (0, bad)
        with pytest.raises(NotFull, match="not an int"):
            Matching((pair,), (0.5,), 2, 2)

    def test_replace_rechecks(self):
        m = Matching(((0, 1), (2, 0)), (0.4, 0.6), 3, 2)
        assert replace(m, _checked=False) == m
        with pytest.raises(NotFull):
            replace(m, pairs=((0, 0), (0, 1)))


class TestSerialization:
    def test_json_shape(self):
        t1 = freeze(DraftNode(tag="div", children=[DraftNode(tag="p")]))
        t2 = freeze(DraftNode(tag="div", children=[DraftNode(tag="b")]))
        m = Matching(((0, 0),), (0.25,), 2, 2)
        obj = json.loads(matching_to_json(m, t1, t2))
        assert obj["pairs"] == [{"t1_xpath": "/div", "t2_xpath": "/div", "cost": 0.25}]
        assert obj["unmatched_t1"] == ["/div/p"]
        assert obj["unmatched_t2"] == ["/div/b"]
