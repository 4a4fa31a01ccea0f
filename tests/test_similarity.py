from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_DIR
from oracles import (
    brute_force_s0,
    flat_scores,
    neighbor_scores,
    reference_initial_similarity,
    table_from_scores,
)
from strategies import labeled_trees, tree_pairs
from treematch import similarity
from treematch.similarity import (
    SftmParams,
    TokenIndex,
    apply_threshold,
    build_token_index,
    initial_similarity,
    propagate,
    threshold_cutoff,
)
from treematch.tokens import TokenOptions, label_tokens, tokenize_node
from treematch.tree import DraftNode, freeze, label_ids, parse_html

EXACT = SftmParams(alpha=1.0)


def tree_of(html_shape: DraftNode):
    return freeze(html_shape)


class TestParams:
    def test_defaults_valid(self):
        params = SftmParams()
        assert params.alpha == 0.5
        assert params.weights == (1.0, 0.5, 0.25)  # depth 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"weights": ()},  # no w0, so no depth
            {"weights": (0.0, 1.0)},  # w0 must be positive
            {"weights": (1.0, -0.5, 0.25)},
            {"beta": 0.0},
            {"gamma": 1.5},
            {"iterations": 0},
            {"no_match_cost": 0.0},
            # a NaN passes every ordering check, and an infinite cost or
            # sharpness can make the acceptance ratio NaN
            {"beta": math.nan},
            {"beta": math.inf},
            {"no_match_cost": math.nan},
            {"no_match_cost": math.inf},
            {"weights": (math.nan,)},
            {"weights": (1.0, math.nan)},
            {"weights": (1.0, 0.5, math.inf)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SftmParams(**kwargs)


class TestTokenIndex:
    def test_single_node_tree(self):
        tree = tree_of(DraftNode(tag="p"))
        index = build_token_index(tree)
        assert index.entries == {"tag:p": {0}, "xpath:/p": {0}}

    def test_sibling_entries(self):
        tree = tree_of(DraftNode(tag="div", children=[DraftNode(tag="p"), DraftNode(tag="p")]))
        index = build_token_index(tree)
        assert index.entries["tag:p"] == {1, 2}
        assert index.entries["xpath:/div/p[1]"] == {1}
        assert index.entries["xpath:/div/p[2]"] == {2}

    @given(labeled_trees(max_nodes=15))
    def test_index_matches_direct_scan(self, tree):
        from treematch.tokens import tokenize_node

        index = build_token_index(tree)
        for token, nodes in index.entries.items():
            assert nodes == {
                n.id for n in tree if token in tokenize_node(tree, n.id)
            }
        for node in tree:
            for token in tokenize_node(tree, node.id):
                assert node.id in index.entries[token]


class TestThreshold:
    def test_cutoff_formula(self):
        assert threshold_cutoff(10000, 0.5) == 100
        assert threshold_cutoff(100, 0.5) == 10
        assert threshold_cutoff(100, 1.0) == 100

    def test_drop_over_cutoff(self):
        index = TokenIndex(
            entries={"big": set(range(101)), "ok": set(range(100))}, t1_size=10000
        )
        kept = apply_threshold(index, 0.5)
        # cutoff is 100: |big| = 101 > 100 dropped, |ok| = 100 kept untouched
        assert set(kept.entries) == {"ok"}
        assert kept.entries["ok"] == index.entries["ok"]

    def test_alpha_one_keeps_everything(self):
        index = TokenIndex(entries={"t": set(range(50))}, t1_size=50)
        assert apply_threshold(index, 1.0).entries == index.entries

    def test_boundary_sizes(self):
        index = TokenIndex(
            entries={"a": set(range(5)), "b": set(range(10)), "c": set(range(11))},
            t1_size=100,
        )
        kept = apply_threshold(index, 0.5)
        assert set(kept.entries) == {"a", "b"}


def token_weight(tree, index: TokenIndex, token: str) -> float:
    """What ``token`` alone adds to the score of the nodes that carry it."""
    holders = index.entries[token]
    holder = min(holders)
    single = TokenIndex(entries={token: holders}, t1_size=index.t1_size)
    return neighbor_scores(tree, holder, single).get(holder, 0.0)


class TestIdf:
    """The IDF weight log(N / multiplicity) that the oracle's
    ``neighbor_scores`` adds."""

    def test_formula(self):
        index = TokenIndex(entries={"tag:p": set(range(10))}, t1_size=100)
        t2 = tree_of(DraftNode(tag="p"))
        assert neighbor_scores(t2, 0, index) == {n: math.log(10.0) for n in range(10)}

    def test_ubiquitous_token_is_zero(self):
        index = TokenIndex(entries={"tag:p": set(range(64))}, t1_size=64)
        assert neighbor_scores(tree_of(DraftNode(tag="p")), 0, index) == {}

    def test_singleton_tree(self):
        index = TokenIndex(entries={"tag:p": {0}}, t1_size=1)
        assert neighbor_scores(tree_of(DraftNode(tag="p")), 0, index) == {}

    @given(labeled_trees(max_nodes=20))
    def test_monotone_in_rarity(self, tree):
        index = build_token_index(tree)
        weight = {t: token_weight(tree, index, t) for t in index.entries}
        for a in weight:
            for b in weight:
                if len(index.entries[a]) < len(index.entries[b]):
                    assert weight[a] > weight[b]


class TestNeighborScores:
    def test_disjoint_vocabulary(self):
        t1 = tree_of(DraftNode(tag="div"))
        t2 = tree_of(DraftNode(tag="table"))
        index = build_token_index(t1)
        assert neighbor_scores(t2, 0, index) == {}

    def test_sum_of_shared_idf(self):
        t1 = tree_of(
            DraftNode(tag="div", children=[
                DraftNode(tag="p", attrs=[("class", "x")]),
                DraftNode(tag="p"),
            ])
        )
        t2 = tree_of(DraftNode(tag="p", attrs=[("class", "x")]))
        index = build_token_index(t1)
        scores = neighbor_scores(t2, 0, index)
        # node 1 shares tag:p (in 2 of 3 nodes), attr:class and val:x (1 of
        # 3 each); node 2 shares tag:p
        expected_1 = math.log(3 / 2) + 2 * math.log(3)
        assert scores[1] == pytest.approx(expected_1, rel=1e-12)
        assert scores[2] == pytest.approx(math.log(3 / 2), rel=1e-12)


class TestInitialSimilarity:
    def test_token_of_every_first_tree_node_adds_nothing(self):
        # tag:p is kept at alpha 1 but weighs log(3/3) = 0, so only the
        # root's xpath, held by one of three nodes, scores
        t1 = tree_of(DraftNode(tag="p", children=[DraftNode(tag="p"), DraftNode(tag="p")]))
        t2 = tree_of(DraftNode(tag="p"))
        assert initial_similarity(t1, t2, EXACT).rows == {0: {0: math.log(3)}}

    def test_sum_of_shared_idf(self):
        t1 = tree_of(
            DraftNode(tag="div", children=[
                DraftNode(tag="p", attrs=[("class", "x")]),
                DraftNode(tag="p"),
            ])
        )
        t2 = tree_of(DraftNode(tag="p", attrs=[("class", "x")]))
        # node 1 shares tag:p (in 2 of 3 nodes) and the class name and value
        # (1 of 3 each); node 2 shares tag:p; no xpath is shared
        rows = initial_similarity(t1, t2, EXACT).rows
        assert rows.keys() == {0} and rows[0].keys() == {1, 2}
        row = rows[0]
        assert row[1] == pytest.approx(math.log(3 / 2) + 2 * math.log(3), rel=1e-12)
        assert row[2] == pytest.approx(math.log(3 / 2), rel=1e-12)

    def test_single_node_identical_trees_all_idf_zero(self):
        # every token of a 1-node tree has multiplicity N=1, so IDF = 0 and
        # no strictly positive score exists
        t = tree_of(DraftNode(tag="p"))
        assert initial_similarity(t, t, EXACT).rows == {}

    def test_identical_two_node_trees(self):
        t = tree_of(DraftNode(tag="div", children=[DraftNode(tag="p")]))
        table = initial_similarity(t, t, EXACT)
        # each node's tag and xpath tokens are singletons: ln(2) + ln(2)
        expected = {(0, 0): 2 * math.log(2), (1, 1): 2 * math.log(2)}
        assert flat_scores(table) == pytest.approx(expected, rel=1e-12)

    def test_disjoint_trees_empty(self):
        t1 = tree_of(DraftNode(tag="div"))
        t2 = tree_of(DraftNode(tag="table"))
        assert initial_similarity(t1, t2, EXACT).rows == {}

    @settings(max_examples=40, deadline=None)
    @given(tree_pairs(max_nodes=12))
    def test_matches_brute_force_alpha_one(self, pair):
        t1, t2 = pair
        scores = flat_scores(initial_similarity(t1, t2, EXACT))
        oracle = brute_force_s0(t1, t2, 1.0)
        assert scores == pytest.approx(oracle, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(tree_pairs(max_nodes=12))
    def test_matches_brute_force_default_alpha(self, pair):
        t1, t2 = pair
        params = SftmParams()
        scores = flat_scores(initial_similarity(t1, t2, params))
        oracle = brute_force_s0(t1, t2, params.alpha)
        assert scores == pytest.approx(oracle, rel=1e-12)

    def test_threshold_soundness_instrumented(self):
        t = tree_of(
            DraftNode(tag="div", children=[DraftNode(tag="p") for _ in range(8)])
        )
        params = SftmParams(alpha=0.5)
        rows = initial_similarity(t, t, params).rows
        assert threshold_cutoff(len(t), params.alpha) == 3
        # tag:p sits in 8 nodes > cutoff 3 and must not contribute: a p node
        # scores only its own xpath, ln(9), and no other p node
        for m in range(1, 9):
            assert rows[m] == {m: math.log(9)}


TOKEN_MODES = {
    "namespaced": TokenOptions(),
    "content": TokenOptions(include_content=True),
}


class TestXpathTerm:
    """Tags that would spell another node's xpath unescaped share no xpath
    token with it, pinned in every token mode against the per-node string
    tokens of the oracle."""

    @pytest.mark.parametrize("mode", sorted(TOKEN_MODES))
    def test_slashed_tag_shares_no_xpath_with_a_chain(self, mode):
        # t1's root is a tag "a/b" and t2's node 1 a child "b" of an "a":
        # /a\/b and /a/b differ, and no label token is shared either
        t1 = freeze(DraftNode(tag="a/b", children=[DraftNode(tag="x")]))
        t2 = freeze(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        assert t1.xpaths() == ("/a\\/b", "/a\\/b/x")
        params = SftmParams(tokens=TOKEN_MODES[mode])
        assert initial_similarity(t1, t2, params).rows == {}
        assert reference_initial_similarity(t1, t2, params, TOKEN_MODES[mode]) == {}

    @pytest.mark.parametrize("mode", sorted(TOKEN_MODES))
    def test_bracketed_tag_shares_no_xpath_with_a_sibling(self, mode):
        # t1's "a[1]" spells /r/a\[1], and its first "a" alone holds /r/a[1]
        t1 = freeze(DraftNode(tag="r", children=[
            DraftNode(tag="a"), DraftNode(tag="a"), DraftNode(tag="a[1]")]))
        t2 = freeze(DraftNode(tag="r", children=[DraftNode(tag="a"), DraftNode(tag="a")]))
        assert t1.xpaths() == ("/r", "/r/a[1]", "/r/a[2]", "/r/a\\[1]")
        params = SftmParams(tokens=TOKEN_MODES[mode])
        scores = flat_scores(initial_similarity(t1, t2, params))
        half = math.log(4 / 2)  # tag:a is held twice
        assert scores[(1, 1)] == half + math.log(4)
        assert scores[(2, 1)] == half
        assert not any(n == 3 for n, _ in scores)
        assert scores == reference_initial_similarity(t1, t2, params, TOKEN_MODES[mode])

    @pytest.mark.parametrize("mode", sorted(TOKEN_MODES))
    def test_backslashed_tag_shares_no_xpath_with_a_bracketed_one(self, mode):
        # the second of t1's two "a\" would spell /r/a\[2] with its backslash
        # left bare, which is t2's escaped "a[2]"; only the roots score
        t1 = freeze(DraftNode(tag="r", children=[DraftNode(tag="a\\"), DraftNode(tag="a\\")]))
        t2 = freeze(DraftNode(tag="r", children=[DraftNode(tag="a[2]")]))
        assert t1.xpaths() == ("/r", "/r/a\\\\[1]", "/r/a\\\\[2]")
        assert t2.xpaths() == ("/r", "/r/a\\[2]")
        params = SftmParams(tokens=TOKEN_MODES[mode])
        scores = flat_scores(initial_similarity(t1, t2, params))
        assert scores == {(0, 0): 2 * math.log(3)}
        assert scores == reference_initial_similarity(t1, t2, params, TOKEN_MODES[mode])


# attribute names that look like other token kinds, or like xpaths
ODD_NAMES = ("!", "#id", "", "/a", "/a/div", "/div", "class", "Z", "xpath:/a")


@st.composite
def odd_label_trees(draw, max_nodes: int = 10):
    n = draw(st.integers(1, max_nodes))
    parents = [draw(st.integers(0, min(k - 1, 2))) for k in range(1, n)]
    nodes = []
    for _ in range(n):
        names = draw(st.lists(st.sampled_from(ODD_NAMES), max_size=3, unique=True))
        values = st.sampled_from(("", "x", "a-b", "/a", "div 2"))
        attrs = [(name, draw(values)) for name in names]
        text = draw(st.sampled_from((None, "", "a", "x y", "div")))
        tag = draw(st.sampled_from(("a", "div", "x", "a[1]", "a[2]", "a/b", "a\\")))
        nodes.append(DraftNode(tag=tag, attrs=attrs, text=text))
    for k, parent in enumerate(parents, start=1):
        nodes[parent].children.append(nodes[k])
    return freeze(nodes[0])


def label_keys(tree, options):
    """Each node's label by node id, as ``initial_similarity`` interns it."""
    ids, _, labels = label_ids(tree, tree, options.include_content)
    return [labels[label] for label in ids]


def label_then_xpath(tree, options):
    """Each node's sorted label tokens followed by its xpath token: the
    order in which ``initial_similarity`` adds a node's weights."""
    return [
        sorted(label_tokens(*key, options)) + ["xpath:" + xpath]
        for key, xpath in zip(label_keys(tree, options), tree.xpaths())
    ]


def sorted_tokens(tree, options):
    return [sorted(tokenize_node(tree, n, options)) for n in range(len(tree))]


def spy_label_tokens(monkeypatch) -> list[tuple]:
    """Record the label of every ``label_tokens`` call ``initial_similarity``
    makes."""
    calls: list[tuple] = []

    def spy(tag, attributes, text, options):
        calls.append((tag, attributes, text))
        return label_tokens(tag, attributes, text, options)

    monkeypatch.setattr(similarity, "label_tokens", spy)
    return calls


class TestLabelTokens:
    """The per-label tokens ``initial_similarity`` scores with, against
    per-node ``sorted(tokenize_node(...))``."""

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(odd_label_trees(), odd_label_trees()), st.sampled_from(sorted(TOKEN_MODES)))
    def test_label_tokens_then_xpath_equal_sorted_tokenize_node(self, pair, mode):
        options = TOKEN_MODES[mode]
        for tree in pair:
            assert label_then_xpath(tree, options) == sorted_tokens(tree, options)

    @pytest.mark.parametrize("mode", sorted(TOKEN_MODES))
    @pytest.mark.parametrize("page", ["p04", "p13"])
    def test_corpus_pages(self, corpus_pages, page, mode):
        tree = parse_html(next(CORPUS_DIR.glob(page + "_*.html")).read_bytes())
        options = TOKEN_MODES[mode]
        assert label_then_xpath(tree, options) == sorted_tokens(tree, options)
        assert len(set(label_keys(tree, options))) < len(tree)

    def test_xpath_token_sorts_after_label_tokens(self):
        tree = freeze(DraftNode(tag="zz", attrs=[("~", "zz")], text="zz"))
        tokens = sorted(tokenize_node(tree, 0, TOKEN_MODES["content"]))
        assert tokens == ["attr:~", "tag:zz", "text:zz", "val:zz", "xpath:/zz"]

    def test_attribute_spelled_like_an_xpath_token_stays_apart(self):
        tree = freeze(DraftNode(tag="a", attrs=[("xpath:/a", "")]))
        assert sorted(tokenize_node(tree, 0)) == ["attr:xpath:/a", "tag:a", "xpath:/a"]

    @settings(max_examples=60, deadline=None)
    @given(odd_label_trees())
    def test_xpath_token_is_held_by_one_node(self, tree):
        index = build_token_index(tree)
        xpath_buckets = [b for t, b in index.entries.items() if t.startswith("xpath:")]
        assert len(xpath_buckets) == len(tree)
        assert all(len(bucket) == 1 for bucket in xpath_buckets)

    def test_one_label_tokenized_once_across_trees(self, monkeypatch):
        calls = spy_label_tokens(monkeypatch)
        t1 = freeze(DraftNode(tag="p", children=[DraftNode(tag="p"), DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="b", children=[DraftNode(tag="p")]))
        initial_similarity(t1, t2, SftmParams(tokens=TOKEN_MODES["namespaced"]))
        assert sorted(calls) == [("b", (), None), ("p", (), None)]

    def test_text_is_part_of_the_label_only_with_content(self, monkeypatch):
        tree = freeze(DraftNode(tag="p", children=[DraftNode(tag="p", text="x")]))
        for mode, count in (("namespaced", 1), ("content", 2)):
            calls = spy_label_tokens(monkeypatch)
            initial_similarity(tree, tree, SftmParams(tokens=TOKEN_MODES[mode]))
            assert len(calls) == count

    def test_second_tree_nodes_of_one_label_share_a_row(self, monkeypatch):
        rows: list[list[str]] = []
        real_row = similarity._row

        def spy(tokens, weighted):
            rows.append(tokens)
            return real_row(tokens, weighted)

        monkeypatch.setattr(similarity, "_row", spy)
        t1 = freeze(DraftNode(tag="div", children=[
            DraftNode(tag="p"), DraftNode(tag="p"), DraftNode(tag="b")]))
        t2 = freeze(DraftNode(tag="div", children=[DraftNode(tag="p") for _ in range(4)]))
        table = initial_similarity(t1, t2, EXACT)
        assert rows == [["tag:div"], ["tag:p"]]
        # the shared label row is copied: each xpath weight goes to one row
        half = math.log(4 / 2)  # tag:p is held twice
        assert table.rows[1] == {1: half + math.log(4), 2: half}
        assert table.rows[2] == {1: half, 2: half + math.log(4)}
        assert table.rows[3] == table.rows[4] == {1: half, 2: half}

    def test_rows_of_one_label_are_distinct_and_kept_only_while_repeated(self, monkeypatch):
        made: list[dict[int, float]] = []
        real_row = similarity._row

        def spy(tokens, weighted):
            made.append(real_row(tokens, weighted))
            return made[-1]

        monkeypatch.setattr(similarity, "_row", spy)
        shape = DraftNode(tag="div", children=[DraftNode(tag="p"), DraftNode(tag="p"),
                                               DraftNode(tag="b")])
        t1, t2 = freeze(shape), freeze(shape)
        table = initial_similarity(t1, t2, EXACT)
        rows = table.rows
        # the two <p> have different xpath partners, so rows of their own
        assert rows[1] is not rows[2] and rows[1] != rows[2]
        # one row per label is made; the first <p> takes a copy of its label's
        # row, and the last node of each label takes the row itself
        div_row, p_row, b_row = made
        assert rows[0] is div_row and rows[2] is p_row and rows[3] is b_row
        want = reference_initial_similarity(t1, t2, EXACT)
        assert {k: v.hex() for k, v in flat_scores(table).items()} == {
            k: v.hex() for k, v in want.items()}


class TestPropagate:
    def chain_pair(self):
        t1 = tree_of(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        t2 = tree_of(DraftNode(tag="a", children=[DraftNode(tag="b")]))
        return t1, t2

    def test_depth_zero_is_identity(self):
        t1, t2 = self.chain_pair()
        s0 = table_from_scores({(0, 0): 2.0, (1, 1): 1.0})
        params = SftmParams(weights=(1.0,))
        assert propagate(s0, t1, t2, params) == s0

    def test_roots_have_no_ancestors(self):
        t1 = tree_of(DraftNode(tag="a"))
        t2 = tree_of(DraftNode(tag="a"))
        s0 = table_from_scores({(0, 0): 2.0})
        params = SftmParams(weights=(1.0, 0.5, 0.25))
        assert flat_scores(propagate(s0, t1, t2, params)) == {(0, 0): 2.0}

    def test_chain_sum(self):
        t1, t2 = self.chain_pair()
        s0 = table_from_scores({(0, 0): 1.0, (1, 1): 1.0})
        params = SftmParams(weights=(1.0, 0.5))
        result = flat_scores(propagate(s0, t1, t2, params))
        assert result[(1, 1)] == pytest.approx(1.5)
        assert result[(0, 0)] == pytest.approx(1.0)

    def test_zero_s0_pairs_stay_excluded(self):
        t1, t2 = self.chain_pair()
        # children similar, parents similar, but no (child, parent) entry may appear
        s0 = table_from_scores({(0, 0): 3.0})
        params = SftmParams(weights=(1.0, 0.5))
        assert set(flat_scores(propagate(s0, t1, t2, params))) == {(0, 0)}

    def test_missing_ancestor_entry_contributes_zero(self):
        t1, t2 = self.chain_pair()
        s0 = table_from_scores({(1, 1): 2.0})
        params = SftmParams(weights=(1.0, 0.5, 0.25))
        assert flat_scores(propagate(s0, t1, t2, params))[(1, 1)] == pytest.approx(2.0)

    @settings(max_examples=30, deadline=None)
    @given(tree_pairs(max_nodes=10))
    def test_lower_bound_w0_s0(self, pair):
        t1, t2 = pair
        params = SftmParams()
        s0 = initial_similarity(t1, t2, params)
        base_scores = flat_scores(s0)
        scores = flat_scores(propagate(s0, t1, t2, params))
        assert set(scores) == set(base_scores)
        for key, base in base_scores.items():
            assert scores[key] >= params.weights[0] * base - 1e-12
            assert math.isfinite(scores[key])

    def test_propagation_locality(self):
        # a pair's propagated score depends only on score entries along its
        # ancestor chain within depth p: perturbing pairs confined to a
        # different branch leaves it untouched
        def page():
            left = DraftNode(tag="ul", children=[DraftNode(tag="li")])
            right = DraftNode(tag="div", children=[DraftNode(tag="p")])
            return freeze(DraftNode(tag="body", children=[left, right]))

        t1 = page()
        t2 = page()
        ul, li, div, p_ = 1, 2, 3, 4
        base = {(0, 0): 1.0, (ul, ul): 1.0, (li, li): 1.0, (div, div): 1.0, (p_, p_): 1.0}
        perturbed = dict(base)
        perturbed[(div, div)] = 9.0
        perturbed[(p_, p_)] = 9.0
        params = SftmParams(weights=(1.0, 0.5))
        sp_a = flat_scores(propagate(table_from_scores(base), t1, t2, params))
        sp_b = flat_scores(propagate(table_from_scores(perturbed), t1, t2, params))
        # the ul/li branch chains (depth 1) avoid the div branch entirely
        assert sp_a[(ul, ul)] == sp_b[(ul, ul)]
        assert sp_a[(li, li)] == sp_b[(li, li)]
        # while the perturbed branch did move
        assert sp_a[(p_, p_)] != sp_b[(p_, p_)]
