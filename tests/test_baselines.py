from __future__ import annotations

import copy
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_DIR, build
from oracles import (
    ReferenceZsRun,
    TooLarge,
    brute_force_optimal,
    enumerate_matching_costs,
    exhaustive_edit_distance,
    reference_postorder_structure,
    reference_ted_match,
    reference_ted_table,
    table_from_scores,
    thaw,
)
from strategies import labeled_trees, leaf_child_trees, tree_pairs
from treematch.baselines import (
    _postorder_structure,
    _to_two_nodes,
    _ZsRun,
    ted_distance,
    ted_match,
)
from treematch.graph import Matching, build_graph, matching_cost
from treematch.mutate import assign_signatures, mutate
from treematch.optimize import metropolis
from treematch.similarity import SftmParams, initial_similarity, propagate
from treematch.tree import DraftNode, LabeledTree, freeze, label_ids, parse_html

PARAMS = SftmParams()


def graph_of(scores, t1_size, t2_size):
    def line(n):
        root = DraftNode(tag="r")
        root.children = [DraftNode(tag=f"c{k}") for k in range(n - 1)]
        return freeze(root)

    return build_graph(table_from_scores(scores), line(t1_size), line(t2_size))


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


def mirrored(tree: LabeledTree) -> LabeledTree:
    """``tree`` with every child list reversed."""
    root = thaw(tree)[0]
    stack = [root]
    while stack:
        draft = stack.pop()
        draft.children.reverse()
        stack.extend(draft.children)
    return freeze(root)


def p00_pair(mirror: bool) -> tuple[LabeledTree, LabeledTree]:
    """The ratio-0.2 seed-0 mutant pair of p00; its pass runs mirrored, and
    with every child list reversed (``mirror``) left to right."""
    pages = sorted(CORPUS_DIR.glob("p00_*.html"))
    if not pages:
        pytest.skip("bundled corpus not generated")
    source = assign_signatures(parse_html(pages[0].read_bytes()))
    mutant, _ = mutate(source, 0.2, 0)
    return (mirrored(source), mirrored(mutant)) if mirror else (source, mutant)


class TestPostorderStructure:
    """Both path decompositions, read off ids and subtree sizes, equal the
    ones a stack walk of each tree finds."""

    @staticmethod
    def assert_like_reference(tree: LabeledTree) -> None:
        for t in (tree, mirrored(tree)):
            assert _postorder_structure(t) == reference_postorder_structure(t)

    @settings(max_examples=150, deadline=None)
    @given(labeled_trees(max_nodes=20, with_attrs=False))
    def test_random_trees_equal_reference(self, tree):
        self.assert_like_reference(tree)

    @pytest.mark.parametrize("tree", [
        freeze(build("a")),
        chain("a", "b", "c", "d", "e"),
        freeze(build("ul", *(build("li") for _ in range(5)))),
        freeze(build("div", build("ul", build("li"), build("li")), build("p"),
                     build("a", build("b", build("c"))))),
    ], ids=["one-node", "chain", "star", "mixed"])
    def test_small_shapes_equal_reference(self, tree):
        self.assert_like_reference(tree)

    def test_corpus_and_mutants_equal_reference(self, corpus_pages):
        for path in corpus_pages:
            source = assign_signatures(parse_html(path.read_bytes()))
            mutant, _ = mutate(source, 0.2, 0)
            self.assert_like_reference(source)
            self.assert_like_reference(mutant)


class TestTedDirection:
    """The distance pass may run mirrored; nothing it returns may show it."""

    @staticmethod
    def assert_like_left_to_right(t1: LabeledTree, t2: LabeledTree) -> bool:
        run, table = _ZsRun(t1, t2), reference_ted_table(t1, t2)
        assert run.td == table
        distance = ted_distance(t1, t2)
        assert distance == table[-1][-1]
        assert type(distance) is float
        got, want = ted_match(t1, t2), reference_ted_match(t1, t2)
        assert got.pairs == want.pairs
        assert [c.hex() for c in got.pair_costs] == [c.hex() for c in want.pair_costs]
        return run.mirrored

    @settings(max_examples=80, deadline=None)
    @given(tree_pairs(max_nodes=10))
    def test_tables_and_matchings_equal_left_to_right_oracle(self, pair):
        t1, t2 = pair
        (left1, right1), (left2, right2) = _postorder_structure(t1), _postorder_structure(t2)
        left_cells, right_cells = left1.span * left2.span, right1.span * right2.span
        # mirroring both trees swaps the two counts, so one of the two runs
        # goes each way unless they tie, when both run left to right
        directions = {
            self.assert_like_left_to_right(t1, t2),
            self.assert_like_left_to_right(mirrored(t1), mirrored(t2)),
        }
        assert directions == ({False} if left_cells == right_cells else {False, True})

    def test_rightmost_chain_runs_mirrored(self):
        # a root whose deep branch is its last child: the leftmost paths are
        # short, so left to right every node of the branch is a keyroot
        deep = DraftNode(tag="a")
        node = deep
        for _ in range(4):
            node.children = [DraftNode(tag="x"), DraftNode(tag="y")]
            node = node.children[-1]
        t1 = freeze(deep)
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="x"), DraftNode(tag="z")]))
        assert self.assert_like_left_to_right(t1, t2)
        assert not self.assert_like_left_to_right(mirrored(t1), mirrored(t2))


class TestTedLeafKeyroots:
    """Pairs with a leaf keyroot are written in closed form; the kernel runs
    only on pairs of keyroots of three or more nodes."""

    @staticmethod
    def assert_both_directions(t1: LabeledTree, t2: LabeledTree) -> None:
        TestTedDirection.assert_like_left_to_right(t1, t2)
        TestTedDirection.assert_like_left_to_right(mirrored(t1), mirrored(t2))

    @settings(max_examples=80, deadline=None)
    @given(labeled_trees(max_nodes=12, with_attrs=False),
           labeled_trees(max_nodes=12, with_attrs=False))
    def test_tag_only_pairs_equal_left_to_right_oracle(self, t1, t2):
        # eight tags and no attributes: a leaf's label is often in the other
        # tree and often not
        self.assert_both_directions(t1, t2)

    @pytest.mark.parametrize("tag", ["p", "b"], ids=["present", "absent"])
    def test_one_node_tree_on_either_side(self, tag):
        tree = freeze(build("div", build("p", build("a")), build("span"), build("ul", build("li"))))
        one = freeze(build(tag))
        self.assert_both_directions(tree, one)
        self.assert_both_directions(one, tree)
        assert ted_distance(tree, one) == ted_distance(one, tree) == (5.0 if tag == "p" else 6.0)

    @pytest.mark.parametrize("t2_tag,distance", [("a", 0.0), ("b", 1.0)])
    def test_two_one_node_trees(self, t2_tag, distance):
        t1, t2 = freeze(build("a")), freeze(build(t2_tag))
        self.assert_both_directions(t1, t2)
        assert ted_distance(t1, t2) == distance
        assert ted_match(t1, t2).pair_costs == (distance,)

    def test_star_against_chain(self):
        star = freeze(build("ul", *(build(tag) for tag in ("li", "a", "li", "p", "li"))))
        line = chain("ul", "li", "p", "li")
        self.assert_both_directions(star, line)
        self.assert_both_directions(line, star)

    def test_only_inner_keyroot_is_the_root(self):
        # left to right, the inner child shares the root's leftmost leaf, so
        # every other keyroot is a leaf
        t1 = freeze(build("div", build("ul", build("li"), build("li")), build("p"), build("a")))
        t2 = freeze(build("div", build("ul", build("li")), build("a")))
        for tree in (t1, t2):
            left, _ = _postorder_structure(tree)
            assert [k for k in left.keyroots if left.lmd[k] != k] == [len(tree) - 1]
        self.assert_both_directions(t1, t2)
        self.assert_both_directions(t2, t1)

    @pytest.mark.parametrize("mirror", [False, True], ids=["mirrored-pass", "left-to-right-pass"])
    def test_kernel_gets_only_keyroots_of_three_or_more_nodes(self, monkeypatch, mirror):
        source, mutant = p00_pair(mirror)
        calls: list[tuple[int, list[int]]] = []
        fill = _ZsRun._fill

        def spy(run: _ZsRun, i: int, js) -> None:
            js = list(js)
            assert run.lmd1[i] < i - 1 and all(run.lmd2[j] < j - 1 for j in js)
            calls.append((i, js))
            fill(run, i, js)

        monkeypatch.setattr(_ZsRun, "_fill", spy)
        run = _ZsRun(source, mutant)
        assert run.mirrored is not mirror
        # one call per keyroot of three or more nodes in t1, against every
        # such keyroot of t2; both trees have two-node keyroots the kernel skips
        pass1, pass2 = (s[run.mirrored] for s in map(_postorder_structure, (source, mutant)))
        for s in (pass1, pass2):
            assert any(s.lmd[k] == k - 1 for k in s.keyroots)
        big1, big2 = ([k for k in s.keyroots if s.lmd[k] < k - 1] for s in (pass1, pass2))
        assert calls == [(i, big2) for i in big1]


class TestTedTwoNodeKeyroots:
    """Pairs with a two-node keyroot are written in closed form too."""

    # (tree, its distance to a top "a" over a bottom "b"), by the case of
    # ``_to_two_nodes`` that gives it
    CASES = {
        "one-node-top": (build("a"), 1),
        "one-node-bottom": (build("b"), 1),
        "one-node-other": (build("c"), 2),
        # t - 2 + 0: the top node's grandchild is a bottom node
        "top-over-bottom": (build("a", build("c", build("b")), build("c")), 2),
        # t - 2 + 1: a top node with a child, and no bottom node under it
        "inner-top": (build("c", build("b"), build("a", build("c"))), 3),
        # t - 2 + 1: a bottom node below the root; the top node is a leaf
        "bottom-below-root": (build("c", build("c", build("b")), build("a")), 3),
        # t - 2 + 2: the bottom node is the root and the top node a leaf
        "neither": (build("b", build("c"), build("a")), 3),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_distance_to_two_nodes(self, name):
        draft, distance = self.CASES[name]
        tree, two = freeze(draft), freeze(build("a", build("b")))
        ids, (top, bottom), _ = label_ids(tree, two)
        left, _ = _postorder_structure(tree)
        got = _to_two_nodes([ids[v] for v in left.order], left.lmd, top, bottom)
        assert got[-1] == distance
        # every subtree's distance, the root's included, is the oracle's
        assert got == [row[-1] for row in reference_ted_table(tree, two)]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([("a", "b"), ("a", "b", "c")]).flatmap(
        lambda tags: st.tuples(*[leaf_child_trees(tags=tags)] * 2)))
    def test_leaf_child_pairs_equal_left_to_right_oracle(self, pair):
        # every inner node has zero or one leaf child, so many keyroots have
        # two nodes, and with two or three tags their labels often repeat
        t1, t2 = pair
        TestTedLeafKeyroots.assert_both_directions(t1, t2)


class TestTedForestTables:
    """For every inner keyroot pair the kernel leaves the oracle's forest
    table in ``fd``, which the backtrace reads."""

    @staticmethod
    def assert_like_reference(t1: LabeledTree, t2: LabeledTree) -> None:
        run, reference = _ZsRun(t1, t2), ReferenceZsRun(t1, t2)
        lmd1, lmd2 = run.lmd1, run.lmd2
        for i in (i for i in run.kr1 if lmd1[i] != i):
            m = i - lmd1[i] + 2
            for j in (j for j in run.kr2 if lmd2[j] != j):
                n = j - lmd2[j] + 2
                run._fill(i, (j,))
                reference._fill(i, (j,))
                # int cells against the oracle's float cells, by value
                assert [row[:n] for row in run.fd[:m]] == [row[:n] for row in reference.fd[:m]]
        assert run.td == reference.td

    @settings(max_examples=60, deadline=None)
    @given(tree_pairs(max_nodes=12))
    def test_random_pairs_equal_reference(self, pair):
        self.assert_like_reference(*pair)

    def test_corpus_pair_equals_reference(self):
        self.assert_like_reference(*p00_pair(mirror=False))


class TestTedBacktrace:
    """The backtrace refills every pair it descends into but the one whose
    forest table the distance pass left in ``fd``, each only in the band its
    tree distance allows, and never writes ``td``."""

    @staticmethod
    def mapping_fills(monkeypatch, t1: LabeledTree, t2: LabeledTree):
        """``_ZsRun(t1, t2).mapping()``, checked against the oracle's, with
        each refill's pair and the number of cells it computed."""
        run = _ZsRun(t1, t2)
        td = copy.deepcopy(run.td)
        written = [0]

        class CountedRow(list):
            # the kernel writes a cell at a time; column 0 and the resets
            # before a refill are not computed cells
            def __setitem__(self, key, value):
                if type(key) is int and key:
                    written[0] += 1
                super().__setitem__(key, value)

        run.fd = [CountedRow(row) for row in run.fd]
        calls: list[tuple[int, tuple[int, ...], int]] = []
        fill = _ZsRun._fill

        def spy(run: _ZsRun, i: int, js, rows=None) -> None:
            js = tuple(js)
            before = written[0]
            fill(run, i, js, rows)
            calls.append((i, js, written[0] - before))

        with monkeypatch.context() as patch:
            patch.setattr(_ZsRun, "_fill", spy)
            pairs = run.mapping()
        assert pairs == ReferenceZsRun(t1, t2).mapping()
        assert run.td == td
        return run, calls, (len(t1) - 1, (len(t2) - 1,))

    @staticmethod
    def assert_in_band(run: _ZsRun, calls) -> None:
        """Each refill of ``(i, j)`` computes at most ``D + 1`` cells a row."""
        for i, (j,), cells in calls:
            assert cells <= (i - run.lmd1[i] + 1) * (run.td[i][j] + 1)

    def test_left_to_right_pass_reuses_root_table(self, monkeypatch):
        run, calls, root = self.mapping_fills(monkeypatch, *p00_pair(mirror=True))
        assert not run.mirrored
        assert calls and root not in [(i, js) for i, js, _ in calls]

    def test_mirrored_pass_refills_root_table(self, monkeypatch):
        run, calls, root = self.mapping_fills(monkeypatch, *p00_pair(mirror=False))
        assert run.mirrored
        assert calls[0][:2] == root

    @pytest.mark.parametrize("child", ["a", "b"])
    def test_one_node_tree_refills_root_table(self, monkeypatch, child):
        # every whole tree is a keyroot of one or two nodes, so the pass
        # leaves no table in ``fd``; in the last case both are two-node trees
        one, two = freeze(build("a")), freeze(build("div", build(child)))
        other = freeze(build("div", build("a")))
        for t1, t2 in ((one, two), (two, one), (two, other)):
            run, calls, root = self.mapping_fills(monkeypatch, t1, t2)
            assert [(i, js) for i, js, _ in calls] == [root]
            got, want = ted_match(t1, t2), reference_ted_match(t1, t2)
            assert got.pairs == want.pairs
            assert [c.hex() for c in got.pair_costs] == [c.hex() for c in want.pair_costs]

    @pytest.mark.parametrize("mirror", [False, True], ids=["mirrored-pass", "left-to-right-pass"])
    def test_corpus_refills_stay_in_band(self, monkeypatch, mirror):
        # mapping_fills also checks that td is left as the pass wrote it
        run, calls, _ = self.mapping_fills(monkeypatch, *p00_pair(mirror))
        self.assert_in_band(run, calls)
        full = sum((i - run.lmd1[i] + 1) * (j - run.lmd2[j] + 1) for i, (j,), _ in calls)
        assert sum(cells for *_, cells in calls) < full / 2

    @pytest.mark.parametrize("t2,distance", [
        (freeze(build("div", build("ul", build("li"), build("li")), build("p", build("a")))), 0),
        (freeze(build("div", build("ul", build("li"), build("li")), build("p", build("b")))), 1),
        (freeze(build("div", build("ol", build("li"), build("li")), build("p", build("a")))), 1),
        (freeze(build("div", build("ul", build("li"), build("li")), build("p"))), 1),
        (freeze(build("div", build("ul", build("li"), build("li"), build("li")),
                      build("p", build("a")))), 1),
    ], ids=["identical", "relabel-leaf", "relabel-inner", "delete", "insert"])
    def test_narrowest_bands(self, monkeypatch, t2, distance):
        # a band of one diagonal (D = 0), or of two or three (D = 1)
        t1 = freeze(build("div", build("ul", build("li"), build("li")), build("p", build("a"))))
        assert ted_distance(t1, t2) == distance
        for a, b in ((t1, t2), (t2, t1), (mirrored(t1), mirrored(t2))):
            run, calls, _ = self.mapping_fills(monkeypatch, a, b)
            self.assert_in_band(run, calls)
            got, want = ted_match(a, b), reference_ted_match(a, b)
            assert got.pairs == want.pairs
            assert [c.hex() for c in got.pair_costs] == [c.hex() for c in want.pair_costs]
            # a relabel is paid in a pair cost, an insert or delete in none
            assert sum(got.pair_costs) == (distance if len(a) == len(b) else 0.0)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([("a",), ("a", "b")]).flatmap(lambda tags: st.tuples(
        *[labeled_trees(max_nodes=24, with_attrs=False, tags=tags)] * 2)))
    def test_tie_heavy_pairs_equal_left_to_right_oracle(self, pair):
        # with one or two labels, many scripts tie, and which one the walk
        # back takes rests on the cells next to the optimal path, some of
        # which the band leaves out
        t1, t2 = pair
        for a, b in ((t1, t2), (mirrored(t1), mirrored(t2))):
            got, want = ted_match(a, b), reference_ted_match(a, b)
            assert got.pairs == want.pairs
            assert [c.hex() for c in got.pair_costs] == [c.hex() for c in want.pair_costs]


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


# The same mutants with every child list reversed in both trees, so the
# left-to-right pass is the cheaper one; pinned from the left-to-right-only
# implementation.
PINNED_TED_MIRRORED = [
    ("p00", 0, 125, 6.0, "211742f4b33f1ed0", 24.0),
    ("p00", 1, 121, 4.0, "5acfde437e03ea6f", 20.0),
    ("p00", 2, 127, 4.0, "fd1dcf1b22d9c133", 24.0),
    ("p01", 0, 165, 18.0, "b2e45f74685b4a29", 41.0),
    ("p01", 1, 162, 5.0, "eb3baf51b5326c14", 23.0),
    ("p01", 2, 163, 10.0, "ff8709a8de518ba9", 39.0),
]


@pytest.mark.parametrize("prefix,seed,count,relabel,digest,distance", PINNED_TED_MIRRORED)
def test_pinned_mirrored_mapping_and_distance(prefix, seed, count, relabel, digest, distance):
    pages = sorted(CORPUS_DIR.glob(f"{prefix}_*.html"))
    if not pages:
        pytest.skip("bundled corpus not generated")
    source = assign_signatures(parse_html(pages[0].read_bytes()))
    mutant, _ = mutate(source, 0.2, seed)
    # the pinned pair itself runs mirrored, its mirror left to right
    assert _ZsRun(source, mutant).mirrored
    source, mutant = mirrored(source), mirrored(mutant)
    assert not _ZsRun(source, mutant).mirrored
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
