from __future__ import annotations

import pytest
from hypothesis import given

from strategies import draft_trees, labeled_trees
from treematch.tree import (
    DraftNode,
    FormatError,
    IngestError,
    TooDeep,
    freeze,
    parse_html,
    parse_tree_json,
    serialize_tree_json,
    thaw,
)


class TestParseHtml:
    def test_three_nodes(self):
        tree = parse_html(b"<html><body><p>hi</p></body></html>")
        assert len(tree) == 3
        assert tree.node(0).tag == "html"
        assert tree.node(2).xpath == "/html/body/p"
        assert tree.node(2).text == "hi"

    def test_sibling_rank(self):
        tree = parse_html(b"<div><p/><p/></div>")
        assert [n.xpath for n in tree] == ["/div", "/div/p[1]", "/div/p[2]"]

    def test_rank_only_with_same_tag_siblings(self):
        tree = parse_html(b"<div><span/><p/><p/></div>")
        assert tree.node(1).xpath == "/div/span"
        assert tree.node(2).xpath == "/div/p[1]"

    def test_empty_input_raises(self):
        with pytest.raises(IngestError):
            parse_html(b"")
        with pytest.raises(IngestError):
            parse_html(b"   just text, no elements ")

    def test_comments_and_rawtext_excluded(self):
        tree = parse_html(b"<div><!-- note --><script>var x = 1;</script><p>t</p></div>")
        tags = [n.tag for n in tree]
        assert tags == ["div", "script", "p"]
        script = tree.node(1)
        assert script.text is None

    def test_attributes_order_and_bare_values(self):
        tree = parse_html(b'<input type="text" disabled name="q">')
        assert tree.node(0).attributes == (("type", "text"), ("disabled", ""), ("name", "q"))

    def test_duplicate_attributes_keep_first(self):
        tree = parse_html(b'<a href="x" href="y">z</a>')
        assert tree.node(0).attributes == (("href", "x"),)

    def test_unclosed_paragraphs_recover(self):
        tree = parse_html(b"<div><p>one<p>two</div>")
        div = tree.node(0)
        assert [tree.node(c).tag for c in div.children] == ["p", "p"]
        assert tree.node(div.children[0]).text == "one"

    def test_unclosed_list_items(self):
        tree = parse_html(b"<ul><li>a<li>b</ul>")
        assert [tree.node(c).text for c in tree.node(0).children] == ["a", "b"]

    def test_mismatched_end_tags(self):
        tree = parse_html(b"<div><b><i>x</b></div>")
        assert [n.tag for n in tree] == ["div", "b", "i"]

    def test_first_top_level_element_wins(self):
        tree = parse_html(b"<p>a</p><div>b</div>")
        assert len(tree) == 1
        assert tree.node(0).tag == "p"

    def test_void_elements_do_not_nest(self):
        tree = parse_html(b"<div><br><img src='x.png'><p>t</p></div>")
        div = tree.node(0)
        assert [tree.node(c).tag for c in div.children] == ["br", "img", "p"]

    def test_text_whitespace_collapsed(self):
        tree = parse_html(b"<p>  a \n  b\t c  </p>")
        assert tree.node(0).text == "a b c"

    def test_entities_decoded(self):
        tree = parse_html(b"<p>a &amp; b</p>")
        assert tree.node(0).text == "a & b"


    def test_deep_chain(self):
        depth = 3000
        tree = parse_html("<div>" * depth + "</div>" * depth)
        assert len(tree) == depth
        assert tree.node(depth - 1).parent == depth - 2
        assert tree.node(depth - 1).xpath == "/div" * depth


class TestJsonFormat:
    def test_single_node(self):
        tree = parse_tree_json('{"tag":"a","children":[]}')
        assert len(tree) == 1
        assert tree.node(0).tag == "a"
        assert tree.node(0).xpath == "/a"

    def test_round_trip_identity(self):
        draft = DraftNode(
            tag="html",
            children=[
                DraftNode(
                    tag="body",
                    attrs=[("class", "dark wide"), ("id", "main")],
                    text="hello world",
                    signature="s1",
                    children=[DraftNode(tag="p"), DraftNode(tag="p", text="x")],
                )
            ],
        )
        tree = freeze(draft)
        again = parse_tree_json(serialize_tree_json(tree))
        for a, b in zip(tree, again):
            assert (a.id, a.tag, a.attributes, a.text, a.parent, a.children,
                    a.xpath, a.signature) == (
                b.id, b.tag, b.attributes, b.text, b.parent, b.children,
                b.xpath, b.signature)

    def test_missing_tag_reports_path(self):
        with pytest.raises(FormatError) as err:
            parse_tree_json('{"tag":"a","children":[{"children":[]}]}')
        assert "children[0]" in str(err.value)

    def test_bad_attr_type(self):
        with pytest.raises(FormatError):
            parse_tree_json('{"tag":"a","attrs":{"x":3}}')

    def test_invalid_json(self):
        with pytest.raises(FormatError):
            parse_tree_json("{nope")

    def test_too_deep_to_write_is_typed(self):
        deep = parse_html("<div>" * 600 + "</div>" * 600)
        with pytest.raises(TooDeep):
            serialize_tree_json(deep)

    def test_too_deep_to_read_is_format_error(self):
        text = '{"tag":"a","children":[' * 600 + '{"tag":"b"}' + "]}" * 600
        with pytest.raises(FormatError):
            parse_tree_json(text)

    @given(labeled_trees(max_nodes=15))
    def test_round_trip_property(self, tree):
        again = parse_tree_json(serialize_tree_json(tree))
        assert [
            (n.id, n.tag, n.attributes, n.text, n.parent, n.children, n.xpath, n.signature)
            for n in tree
        ] == [
            (n.id, n.tag, n.attributes, n.text, n.parent, n.children, n.xpath, n.signature)
            for n in again
        ]


class TestInvariants:
    @given(labeled_trees(max_nodes=20))
    def test_xpaths_unique(self, tree):
        xpaths = [n.xpath for n in tree]
        assert len(set(xpaths)) == len(xpaths)

    @given(labeled_trees(max_nodes=20))
    def test_parent_child_consistency(self, tree):
        seen_root = 0
        for node in tree:
            if node.parent is None:
                seen_root += 1
            else:
                assert node.id in tree.node(node.parent).children
            for c in node.children:
                assert tree.node(c).parent == node.id
        assert seen_root == 1

    @given(draft_trees(max_nodes=15))
    def test_thaw_freeze_round_trip(self, draft):
        tree = freeze(draft)
        again = freeze(thaw(tree))
        assert serialize_tree_json(tree) == serialize_tree_json(again)

    def test_ids_are_preorder(self):
        tree = parse_html(b"<a><b><c/></b><d/></a>")
        assert [(n.id, n.tag) for n in tree] == [(0, "a"), (1, "b"), (2, "c"), (3, "d")]
