from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_force_optimal,
    reference_build_graph,
    reference_metropolis,
    reference_suggest_matching,
    scan_initial_matching,
    scan_metropolis,
    scan_suggest_matching,
    table_from_scores,
)
from strategies import tree_pairs
from treematch.graph import MatchGraph, Matching, build_graph, matching_cost
from treematch.mutate import assign_signatures, mutate
from treematch.optimize import initial_matching, metropolis, suggest_matching
from treematch.pipeline import match_trees_detailed
from treematch.similarity import SftmParams, initial_similarity, propagate
from treematch.tree import DraftNode, freeze, parse_html

PARAMS = SftmParams()


def graph_from_scores(scores: dict, t1_size: int, t2_size: int, build=build_graph):
    def line(n):
        root = DraftNode(tag="r")
        for k in range(n - 1):
            root.children.append(DraftNode(tag=f"c{k}"))
        return freeze(root)

    return build(table_from_scores(scores), line(t1_size), line(t2_size))


def cost_to_score(cost: float) -> float:
    # invert cost = 1 / (1 + s)
    return 1.0 / cost - 1.0


class ScriptedRng:
    """random.Random stand-in replaying fixed draws."""

    def __init__(self, randints=(), randoms=()):
        self._randints = list(randints)
        self._randoms = list(randoms)

    def randint(self, a, b):
        value = self._randints.pop(0)
        assert a <= value <= b, f"scripted randint {value} outside [{a}, {b}]"
        return value

    def random(self):
        return self._randoms.pop(0) if self._randoms else 0.0


class TestInitialMatching:
    def test_zero_edge_graph(self):
        g = graph_from_scores({}, 3, 2)
        m = initial_matching(g, PARAMS)
        assert m.pairs == ()
        assert m.unmatched_t1 == frozenset({0, 1, 2})
        assert m.unmatched_t2 == frozenset({0, 1})

    def test_conflicting_edges_take_cheaper(self):
        g = graph_from_scores({(0, 0): 3.0, (0, 1): 1.0}, 1, 2)
        m = initial_matching(g, PARAMS)
        assert m.pairs == ((0, 0),)
        assert m.unmatched_t2 == frozenset({1})

    def test_identity_pair_selects_self_edges(self):
        page = DraftNode(
            tag="html",
            children=[
                DraftNode(tag="body", children=[
                    DraftNode(tag="div", attrs=[("id", "a")]),
                    DraftNode(tag="div", attrs=[("id", "b")],
                              children=[DraftNode(tag="p", text="x")]),
                ])
            ],
        )
        tree = freeze(page)
        sp = propagate(initial_similarity(tree, tree, PARAMS), tree, tree, PARAMS)
        g = build_graph(sp, tree, tree)
        m = initial_matching(g, PARAMS)
        assert set(m.pairs) == {(i, i) for i in range(len(tree))}

    @settings(max_examples=30, deadline=None)
    @given(tree_pairs(max_nodes=6))
    def test_never_beats_brute_force(self, pair):
        t1, t2 = pair
        sp = propagate(initial_similarity(t1, t2, PARAMS), t1, t2, PARAMS)
        g = build_graph(sp, t1, t2)
        greedy = matching_cost(initial_matching(g, PARAMS), PARAMS)
        best = matching_cost(brute_force_optimal(g, PARAMS), PARAMS)
        assert best <= greedy + 1e-9


class TestSuggestMatching:
    def toy(self):
        # edges (a,a')=0.2, (b,b')=0.3, (a,b')=0.4 in cost order
        scores = {
            (0, 0): cost_to_score(0.2),
            (1, 1): cost_to_score(0.3),
            (0, 1): cost_to_score(0.4),
        }
        return graph_from_scores(scores, 2, 2)

    def test_forced_walk_keep_nothing_gamma_one(self):
        g = self.toy()
        params = SftmParams(gamma=1.0)
        current = initial_matching(g, params)
        rng = ScriptedRng(randints=[0], randoms=[0.0, 0.0])
        m = suggest_matching(g, current, params, rng)
        assert set(m.pairs) == {(0, 0), (1, 1)}

    def test_gamma_one_is_deterministic_greedy(self):
        g = self.toy()
        params = SftmParams(gamma=1.0)
        current = initial_matching(g, params)
        results = set()
        for _ in range(5):
            rng = ScriptedRng(randints=[0], randoms=[0.0] * 10)
            results.add(suggest_matching(g, current, params, rng).pairs)
        assert len(results) == 1

    def test_empty_graph_all_unmatched(self):
        g = graph_from_scores({}, 2, 3)
        current = initial_matching(g, PARAMS)
        m = suggest_matching(g, current, PARAMS, random.Random(1))
        assert m.pairs == ()
        assert len(m.unmatched_t1) == 2
        assert len(m.unmatched_t2) == 3

    def test_kept_prefix_preserved(self):
        g = self.toy()
        current = initial_matching(g, PARAMS)  # ((0,0),(1,1))
        rng = ScriptedRng(randints=[2], randoms=[])
        m = suggest_matching(g, current, PARAMS, rng)
        assert m.pairs == current.pairs

    def test_scan_exhaustion_falls_back_to_last_edge(self):
        g = graph_from_scores({(0, 0): 1.0, (1, 1): 0.5}, 2, 2)
        params = SftmParams(gamma=0.5)
        current = initial_matching(g, params)
        # keep nothing; every Bernoulli fails (1.0 >= gamma), so each scan
        # exhausts and takes the last remaining edge: (1,1) then (0,0)
        rng = ScriptedRng(randints=[0], randoms=[1.0] * 10)
        m = suggest_matching(g, current, params, rng)
        assert m.pairs == ((1, 1), (0, 0))

    @pytest.mark.parametrize(
        "foreign",
        [Matching(((4, 4),), (0.2,), 5, 5), Matching(((0, 0),), (0.2,), 1, 1)],
        ids=["5x5", "1x1"],
    )
    def test_matching_of_other_sizes_is_refused(self, foreign):
        with pytest.raises(ValueError, match=rf"{foreign.t1_size}x{foreign.t2_size}.* 2x2 "):
            suggest_matching(self.toy(), foreign, PARAMS, ScriptedRng(randints=[1]))

    @settings(max_examples=30, deadline=None)
    @given(tree_pairs(max_nodes=10), st.integers(0, 2**32 - 1))
    def test_fullness_after_every_suggestion(self, pair, seed):
        t1, t2 = pair
        sp = propagate(initial_similarity(t1, t2, PARAMS), t1, t2, PARAMS)
        g = build_graph(sp, t1, t2)
        rng = random.Random(seed)
        m = initial_matching(g, PARAMS)
        for _ in range(5):
            m = suggest_matching(g, m, PARAMS, rng)
            assert Matching(m.pairs, m.pair_costs, m.t1_size, m.t2_size) == m
            # selected pairs correspond to graph edges
            edge_set = {(e.n, e.m) for e in g.edges}
            assert set(m.pairs) <= edge_set


class TestMetropolis:
    def test_single_edge_graph(self):
        g = graph_from_scores({(0, 0): 2.0}, 1, 1)
        for iterations in (1, 7, 50):
            m = metropolis(g, SftmParams(iterations=iterations))
            assert m.pairs == ((0, 0),)

    def test_deterministic_given_seed(self):
        t1 = freeze(DraftNode(tag="div", children=[
            DraftNode(tag="p", attrs=[("class", "a b")]),
            DraftNode(tag="p", attrs=[("class", "a")]),
            DraftNode(tag="span", attrs=[("id", "k")]),
        ]))
        sp = propagate(initial_similarity(t1, t1, PARAMS), t1, t1, PARAMS)
        g = build_graph(sp, t1, t1)
        params = SftmParams(iterations=40, seed=123)
        a = metropolis(g, params)
        b = metropolis(g, params)
        assert a.pairs == b.pairs
        assert a.pair_costs == b.pair_costs

    def test_best_cost_non_increasing(self):
        t1 = freeze(DraftNode(tag="div", children=[
            DraftNode(tag="p", attrs=[("class", "a")]) for _ in range(4)
        ]))
        sp = propagate(initial_similarity(t1, t1, PARAMS), t1, t1, PARAMS)
        g = build_graph(sp, t1, t1)
        seen = []
        metropolis(g, SftmParams(iterations=60, seed=5),
                   progress=lambda it, cur, best: seen.append(best))
        assert seen == sorted(seen, reverse=True)
        assert len(seen) == 60

    def test_one_iteration_no_worse_than_greedy(self):
        g = graph_from_scores({(0, 0): 1.0, (1, 1): 2.0, (0, 1): 4.0}, 2, 2)
        params = SftmParams(iterations=1)
        greedy_cost = matching_cost(initial_matching(g, params), params)
        best_cost = matching_cost(metropolis(g, params), params)
        assert best_cost <= greedy_cost + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(tree_pairs(max_nodes=6), st.integers(0, 10_000))
    def test_close_to_brute_force_on_small_instances(self, pair, seed):
        t1, t2 = pair
        params = SftmParams(iterations=120, seed=seed)
        matching, g = match_trees_detailed(t1, t2, params)
        found = matching_cost(matching, params)
        optimal = matching_cost(brute_force_optimal(g, params), params)
        assert found >= optimal - 1e-9

    def test_builds_one_matching_whatever_the_iterations(self, corpus_pages, monkeypatch):
        # proposals are lists; the walk builds, and checks, only its result
        path = next(p for p in corpus_pages if p.name.startswith("p00_"))
        source = assign_signatures(parse_html(path.read_bytes()))
        mutant, _ = mutate(source, 0.2, 1)
        g = match_trees_detailed(source, mutant, PARAMS)[1]
        built = []
        check = Matching.__post_init__

        def spy(self, _checked):
            built.append(self)
            check(self, _checked)

        monkeypatch.setattr(Matching, "__post_init__", spy)
        counts = []
        for iterations in (1, 200):
            built.clear()
            best = metropolis(g, SftmParams(iterations=iterations))
            counts.append(len(built))
            assert built[-1] is best
        assert counts == [1, 1]


def test_progress_hook_reports_iterations():
    g = graph_from_scores({(0, 0): 1.0}, 1, 1)
    calls = []
    metropolis(g, SftmParams(iterations=5),
               progress=lambda it, cur, best: calls.append((it, cur, best)))
    assert [c[0] for c in calls] == [1, 2, 3, 4, 5]


class TestAgainstReferenceWalk:
    """The one-pass proposal against the walk with per-edge kill loops."""

    @staticmethod
    def assert_same_walk(t1, t2, params):
        sp = propagate(initial_similarity(t1, t2, params), t1, t2, params)
        g = build_graph(sp, t1, t2)
        ref = reference_build_graph(sp, t1, t2)
        assert g.edges == ref.edges
        assert (g.t1_adjacency, g.t2_adjacency) == (ref.t1_adjacency, ref.t2_adjacency)
        assert metropolis(g, params) == reference_metropolis(ref, params)

    @settings(max_examples=40, deadline=None)
    @given(
        tree_pairs(max_nodes=10),
        st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_random_trees(self, pair, gamma, seed):
        t1, t2 = pair
        self.assert_same_walk(t1, t2, SftmParams(gamma=gamma, iterations=30, seed=seed))

    @pytest.mark.parametrize("page", ["p00", "p04", "p08"])
    @pytest.mark.parametrize("ratio", [0.1, 0.3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_corpus_mutants(self, corpus_pages, page, ratio, seed):
        path = next(p for p in corpus_pages if p.name.startswith(page + "_"))
        source = assign_signatures(parse_html(path.read_bytes()))
        mutant, _ = mutate(source, ratio, seed)
        self.assert_same_walk(source, mutant, SftmParams(seed=seed))

    def test_passed_over_edge_chosen_or_dropped_later(self):
        # cost order: (0,0) (1,0) (1,1) (2,2). Round 1 passes over the first
        # three and takes (2,2); round 2 passes (0,0) again and takes (1,0),
        # which kills both (0,0) and (1,1); round 3 finds nothing live.
        costs = {(0, 0): 0.2, (1, 0): 0.3, (1, 1): 0.4, (2, 2): 0.5}
        scores = {k: cost_to_score(c) for k, c in costs.items()}
        g = graph_from_scores(scores, 3, 3)
        ref = graph_from_scores(scores, 3, 3, build=reference_build_graph)
        params = SftmParams(gamma=0.5)
        empty = initial_matching(graph_from_scores({}, 3, 3), params)
        draws = [0.9, 0.9, 0.9, 0.0, 0.9, 0.0]
        rng = ScriptedRng(randints=[0], randoms=draws)
        m = suggest_matching(g, empty, params, rng)
        assert m.pairs == ((2, 2), (1, 0))
        assert m.unmatched_t1 == frozenset({0})
        assert m.unmatched_t2 == frozenset({1})
        assert rng._randoms == []  # one draw per scanned live edge: all used
        assert m == reference_suggest_matching(
            ref, empty, params, ScriptedRng(randints=[0], randoms=draws)
        )


@st.composite
def scored_graphs(draw, relation):
    """Graphs of at most 9 nodes a side whose t1 is smaller than, the size
    of or larger than t2; costs take a few values, so ties are common."""
    t1_size = draw(st.integers(1, 6))
    t2_size = t1_size + {"smaller": draw(st.integers(1, 3)), "equal": 0,
                         "larger": -draw(st.integers(0, t1_size - 1))}[relation]
    if relation == "larger" and t2_size == t1_size:
        t1_size += 1
    pairs = [(n, m) for n in range(t1_size) for m in range(t2_size)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    scores = {pair: draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])) for pair in chosen}
    return graph_from_scores(scores, t1_size, t2_size)


class TestAgainstScanWalk:
    """The chain walk against the one-pass scan over every edge."""

    @staticmethod
    def assert_same_proposals(g, params, proposals):
        current = initial_matching(g, params)
        assert current == scan_initial_matching(g, params)
        rng, scan_rng = random.Random(params.seed), random.Random(params.seed)
        for _ in range(proposals):
            proposal = suggest_matching(g, current, params, rng)
            assert proposal == scan_suggest_matching(g, current, params, scan_rng)
            assert rng.getstate() == scan_rng.getstate()
            current = proposal
        assert metropolis(g, params) == scan_metropolis(g, params)
        # the walk's list-level costs against matching_cost of each Matching
        walk, scan_walk = [], []
        metropolis(g, params, lambda *step: walk.append(step))
        scan_metropolis(g, params, lambda *step: scan_walk.append(step))
        assert len(walk) == params.iterations
        assert [(it, cur.hex(), best.hex()) for it, cur, best in walk] == [
            (it, cur.hex(), best.hex()) for it, cur, best in scan_walk
        ]

    @pytest.mark.parametrize("relation", ["smaller", "equal", "larger"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_graphs(self, relation, data):
        g = data.draw(scored_graphs(relation))
        assert g.chains_on_t1 == (relation != "larger")
        params = SftmParams(
            gamma=data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])),
            iterations=10,
            seed=data.draw(st.integers(0, 2**32 - 1)),
        )
        self.assert_same_proposals(g, params, 10)

    @pytest.mark.parametrize(
        "page, ratio, seed, on_t1",
        [("p06", 0.3, 1, True), ("p11", 0.2, 2, False)],
        ids=["mutant-larger", "mutant-smaller"],
    )
    def test_corpus_mutants(self, corpus_pages, page, ratio, seed, on_t1):
        path = next(p for p in corpus_pages if p.name.startswith(page + "_"))
        source = assign_signatures(parse_html(path.read_bytes()))
        mutant, _ = mutate(source, ratio, seed)
        params = SftmParams(seed=seed, iterations=10)
        g = match_trees_detailed(source, mutant, params)[1]
        assert g.chains_on_t1 == on_t1
        self.assert_same_proposals(g, params, 10)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_stale_cursor_of_a_node_taken_from_pending(self, transpose):
        # cost order: (0,0) (1,1) (0,2); the chains run over the two-node
        # tree. Round 1 passes over (0,0), which moves node 0's cursor ahead
        # to (0,2), and takes (1,1). Round 2 takes (0,0) from pending, so the
        # cursor on (0,2) is stale; round 3 must drop it, not take (0,2).
        costs = {(0, 0): 0.2, (1, 1): 0.3, (0, 2): 0.4}
        sizes = (2, 3)
        if transpose:
            costs = {(m, n): c for (n, m), c in costs.items()}
            sizes = (3, 2)
        g = graph_from_scores({k: cost_to_score(c) for k, c in costs.items()}, *sizes)
        assert g.chains_on_t1 != transpose
        params = SftmParams(gamma=0.5)
        empty = initial_matching(graph_from_scores({}, *sizes), params)
        draws = [0.9, 0.0, 0.0]
        rng = ScriptedRng(randints=[0], randoms=draws)
        m = suggest_matching(g, empty, params, rng)
        pairs = ((1, 1), (0, 0))
        assert m.pairs == (tuple(p[::-1] for p in pairs) if transpose else pairs)
        assert rng._randoms == []
        assert m == scan_suggest_matching(
            g, empty, params, ScriptedRng(randints=[0], randoms=draws)
        )

    def test_every_chain_ends_in_a_take(self):
        # cost order: (0,0) (1,1) (1,0). Each t1 node's chain stops at the
        # edge taken, so no cursor walks off a chain onto the end byte, and
        # only the sentinel stops the scan behind (1,0)
        g = graph_from_scores({(0, 0): 2.0, (1, 1): 1.0, (1, 0): 0.5}, 2, 2)
        greedy = initial_matching(g, PARAMS)
        assert greedy.pairs == ((0, 0), (1, 1))
        rng = ScriptedRng(randints=[0], randoms=[0.0, 0.0])
        assert suggest_matching(g, greedy, PARAMS, rng) == greedy

    def test_empty_trees(self):
        for sizes in ((0, 0), (0, 2), (2, 0)):
            g = MatchGraph((), (), (), *sizes)
            greedy = initial_matching(g, PARAMS)
            assert greedy.pairs == ()
            assert suggest_matching(g, greedy, PARAMS, random.Random(1)) == greedy
            assert metropolis(g, PARAMS) == greedy
