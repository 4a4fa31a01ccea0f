from __future__ import annotations

import re

from hypothesis import given, strategies as st

from strategies import labeled_trees
from treematch.tokens import TokenOptions, string_tokenize, tokenize_node
from treematch.tree import DraftNode, freeze


class TestStringTokenize:
    def test_split_on_non_letters(self):
        assert string_tokenize("nav-bar main2") == ["nav", "bar", "main"]

    def test_empty(self):
        assert string_tokenize("") == []

    def test_accented_letters_are_separators(self):
        assert string_tokenize("été") == ["t"]

    def test_case_preserved(self):
        assert string_tokenize("NavBar left") == ["NavBar", "left"]

    @given(st.text(max_size=40))
    def test_only_letter_runs(self, s):
        for token in string_tokenize(s):
            assert re.fullmatch(r"[A-Za-z]+", token)

    @given(st.text(max_size=40))
    def test_concatenation_is_subsequence(self, s):
        stripped = re.sub(r"[^A-Za-z]+", "", s)
        assert "".join(string_tokenize(s)) == stripped


class TestTokenizeNode:
    def test_div_with_class(self):
        tree = freeze(
            DraftNode(tag="html", children=[DraftNode(tag="div", attrs=[("class", "nav-bar")])])
        )
        assert tokenize_node(tree, 1) == {
            "tag:div", "attr:class", "val:nav", "val:bar", "xpath:/html/div"
        }

    def test_no_attributes(self):
        tree = freeze(DraftNode(tag="html", children=[DraftNode(tag="p")]))
        assert tokenize_node(tree, 1) == {"tag:p", "xpath:/html/p"}

    def test_duplicate_values_collapse(self):
        tree = freeze(DraftNode(tag="a", attrs=[("href", "x"), ("id", "x")]))
        tokens = tokenize_node(tree, 0)
        assert tokens == {"tag:a", "attr:href", "attr:id", "val:x", "xpath:/a"}

    def test_namespaced_kinds_do_not_collide(self):
        tree = freeze(DraftNode(tag="class", attrs=[("class", "class")]))
        tokens = tokenize_node(tree, 0)
        assert {"tag:class", "attr:class", "val:class"} <= tokens

    def test_text_excluded_by_default(self):
        tree = freeze(DraftNode(tag="p", text="secret words"))
        assert not any("secret" in t for t in tokenize_node(tree, 0))

    def test_content_opt_in(self):
        tree = freeze(DraftNode(tag="p", text="some words"))
        tokens = tokenize_node(tree, 0, TokenOptions(include_content=True))
        assert {"text:some", "text:words"} <= tokens

    def test_signature_never_tokenized(self):
        plain = freeze(DraftNode(tag="p", attrs=[("id", "k")]))
        signed = freeze(DraftNode(tag="p", attrs=[("id", "k")], signature="s99999"))
        assert tokenize_node(plain, 0) == tokenize_node(signed, 0)

    @given(labeled_trees(max_nodes=15))
    def test_xpath_token_unique_within_tree(self, tree):
        seen = set()
        for node in tree:
            xpath_tokens = {t for t in tokenize_node(tree, node.id) if t.startswith("xpath:")}
            assert len(xpath_tokens) == 1
            assert not (xpath_tokens & seen)
            seen |= xpath_tokens

    @given(labeled_trees(max_nodes=15))
    def test_size_bound_and_determinism(self, tree):
        from treematch.tokens import string_tokenize as tk

        for node in tree:
            tokens = tokenize_node(tree, node.id)
            # tag + xpath + one per attribute name + the value words
            bound = 2 + 2 * len(node.attributes) + sum(
                len(tk(v)) for _, v in node.attributes
            )
            assert len(tokens) <= bound
            assert tokenize_node(tree, node.id) == tokens
