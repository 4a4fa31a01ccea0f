from __future__ import annotations

import json
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    reference_freeze,
    reference_parse_html,
    reference_parse_tree_json,
    reference_serialize_tree_json,
    thaw,
)
from strategies import draft_trees, html_documents, labeled_trees, signed_tree, tree_columns
import treematch.tree as tree_module
from treematch.tree import (
    DraftNode,
    FormatError,
    IngestError,
    TreeNode,
    _TOKEN,
    _scan,
    freeze,
    label_ids,
    parse_html,
    parse_tree_json,
    serialize_tree_json,
    subtree_sizes,
)


# malformed and edge-case documents, each read by both HTML builders, and
# whether _scan reads it (True) or hands it to HTMLParser (False)
_HTML_SNIPPETS = [
    (b"<div><p>one<p>two</div>", True),  # unclosed p
    (b"<ul><li>a<li>b</ul>", True),  # unclosed li
    (b"<table><tr><td>a<td>b<tr><th>c</table>", True),  # unclosed cells and rows
    (b"<div><b><i>x</b>y</div>tail", True),  # mismatched end tags
    (b"</q><div>a</span>b</div>", True),  # stray end tags
    (b"<div><b>x</b></b>y<i><b>z</i></b>w</div>", True),  # stray after the tag has closed
    (b"<br>", True),  # void root
    (b"<img src='x.png'/>text</img><p>after</p>", True),  # void root, self-closed, then more
    (b"<p>a</p><div>b</div>", True),  # second top-level element
    (b"<p>a<div>b</div>", True),  # the root closed by an implied end
    # comments and rawtext
    (b"<div><!-- note --><script>var x = 1;</script><style>p{}</style><p>t</p>u</div>", True),
    # self-closing tags: a start tag, then an end tag
    (b"<div/>", True),  # self-closed root
    (b"<p>a<p/>b</p>", True),  # self-closed p closes the open p, and with it the root
    (b"<div><script/>t</div>", False),  # self-closed rawtext element
    (b"<div></div><br/><p/>", True),  # self-closed tags after the root closed
    (b"<div><span/>a<br/>b<img src=x />c</div>", True),  # text after each self-closed tag
    (b"<ul><li/><li>a<li/>b</ul>", True),  # self-closed li among implied ends
    (b"<div><p>a<div/>b</p>c</div>", True),  # self-closed block closes the open p
    (b"<table><tr/><td/>x</table>", True),  # self-closed cells and rows
    (b"<div a=1 a=2 b c=''/>", True),  # duplicate, bare and empty attributes
    (b"<b><i>x<b/>y</i>z</b>", True),  # self-closed tag named like an open one
    (b"<div><style/>s<hr/>t</div>", False),  # self-closed style, and a void block starter
    (b"<br/>", True),  # void root, self-closed
    (b"<r><a></a><a></a><a[1]></a[1]></r>", False),  # a tag that would spell a sibling's xpath
    # the reader skips HTMLParser's line and column counting; these are the
    # branches that count newlines
    (b"<div\n class='a\nb'\n id=x\n>one\ntwo<p\n>three</p\n></div>", True),  # tags over lines
    (b"<div><a b='1'junk>x</a><a b='1'\njunk\n>y</a>z</div>", False),  # junk after attributes
    (b"<div>x<a\x00\nb='1'\n>y\nz</a></div>", False),  # junk the start tag gives back as text
    (b"<div>a\n<br>\nb\n<img src=x>\n<hr/>\nc</div>", True),  # newlines around void tags
    (b"<div><script>if (a)\n{ s = '</p>'; }\n</script>\n<p>t</p></div>", False),  # </p> in a script
    # the two fast ones again, through HTMLParser: a lone "<" at the end sends them there
    (b"<div\n class='a\nb'\n id=x\n>one\ntwo<p\n>three</p\n></div>\n<", False),
    (b"<div>a\n<br>\nb\n<img src=x>\n<hr/>\nc</div>\n<", False),
    # the rules of the strict subset that _scan reads, each on both sides
    (b"<div\tclass=a\r\n\fid=b>x</div>", True),  # whitespace in a tag is [ \t\n\r\f]
    (b"<div><a\vhref=y>z</a></div>", False),  # and never \v
    (b"<DIV CLASS=Up><Span>x</SPAN></div>", True),  # names lowercased
    (b"<div><a/ b>c</a></div>", False),  # "/" before an attribute
    (b"<div><a b==1>c</a></div>", False),  # "=" doubled
    (b"<div><a href=x/>y</div>", True),  # a bare value ends at whitespace or ">": "x/"
    ("<div><b href=x\xa0y>z</b></div>".encode(), False),  # and at no other space
    (b"<a href='/x?a=1&amp;b=2' title=\"&lt;t&gt;\" hidden e=''>x</a>", True),  # values
    (b"<p>&am<!---->p;</p>", True),  # each text run decoded on its own
    (b"<div><script>a && b</script><style>p{}</style><p>y</p></div>", True),  # raw-text bodies
    (b"<div><script><b>x</b></script><p>y</p></div>", False),  # a tag in a script body is text
    (b"<html><title>a &amp; b</title><textarea>t</textarea></html>", True),  # text bodies
    (b"<div><title>a<b>c</b></title></div>", False),  # a tag in a title body
    (b"<!DOCTYPE html><div><!-- c --><!---->x</div>", True),  # doctype and comments
    (b"<div><!-->a-->b</div>", False),  # a comment that ends where it opens, in some releases
    (b"<div><!-- a --!>b--></div>", False),  # "--!>"
    (b"<div>a<![CDATA[b]]>c</div>", False),  # CDATA
    (b"<div><p>a</p x>b</div>", False),  # junk in an end tag
    (b"<div title='a\x00b'>c</div>", False),  # NUL in a value
    (b"<div><p>a &amp", True),  # tags left open, and a reference cut, at the end
    # raw tag names match in ASCII case only: HTMLParser reads "<\u017f" as text
    ("<div><\u017fcript>x</\u017fcript></div>".encode(), False),  # long s for "s"
    ("<div><\u017ftyle>y</\u017ftyle></div>".encode(), False),
    ("<div><t\u0131tle>y</t\u0131tle></div>".encode(), False),  # dotless i for "i"
    ("<div><no\u017fcript>a</no\u017fcript></div>".encode(), False),
]


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

    def test_bracketed_tag_gets_its_own_xpath(self):
        # unescaped, the tag "a[1]" would spell the first "a"'s xpath
        tree = parse_html(b"<r><a></a><a></a><a[1]></a[1]></r>")
        assert tree.tags == ("r", "a", "a", "a[1]")
        assert tree.xpaths() == ("/r", "/r/a[1]", "/r/a[2]", "/r/a\\[1]")

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

    @pytest.mark.parametrize("document", [document for document, _ in _HTML_SNIPPETS])
    def test_snippet_equals_reference(self, document):
        assert _node_rows(parse_html(document)) == _node_rows(reference_parse_html(document))

    @pytest.mark.parametrize("document, fast", _HTML_SNIPPETS)
    def test_snippet_takes_its_path(self, document, fast):
        assert (_scan(document.decode()) is not None) == fast

    @settings(max_examples=300)
    @given(html_documents())
    def test_documents_equal_reference(self, document):
        want = _rows_or_error(reference_parse_html, document)
        assert _rows_or_error(parse_html, document) == want

    def test_corpus_equals_reference(self, corpus_pages):
        for path in corpus_pages:
            document = path.read_bytes()
            got, want = parse_html(document), reference_parse_html(document)
            assert _node_rows(got) == _node_rows(want), path.name

    def test_corpus_takes_fast_path(self, corpus_pages):
        # a slip in the strict subset would send pages to HTMLParser, and
        # every output would still match
        for path in corpus_pages:
            assert _scan(path.read_text(encoding="utf-8")) is not None, path.name

    def test_fallback_stops_at_first_stray_token(self, monkeypatch):
        # the scan ends at the first "<" outside the subset and builds
        # nothing, so a document outside it costs little beyond HTMLParser
        document = "<div>" + "<p class=a>x &amp; y</p>" * 50 + "<iframe></iframe>" + "<p>z</p>" * 50
        assert _TOKEN.findall(document)[-1][-1] == "<iframe></iframe>" + "<p>z</p>" * 50
        monkeypatch.setattr(tree_module, "_TreeBuilder", None)
        assert _scan(document) is None

    @pytest.mark.parametrize("tail", ["", "<"], ids=["fast", "fallback"])
    def test_stray_end_tags_take_linear_time(self, tail):
        # each stray end tag scanned the whole open stack: 8,000 levels took 2.0 s
        small = "<div><p>" * 3 + "</b></i>" * 3 + "</p>x</div>" + tail
        assert _node_rows(parse_html(small)) == _node_rows(reference_parse_html(small))
        depth = 20_000
        start = time.perf_counter()
        tree = parse_html("<div>" * depth + "</b>" * depth + tail)
        assert time.perf_counter() - start < 2.0
        assert len(tree) == depth

    def test_deep_chain(self):
        depth = 3000
        tree = parse_html("<div>" * depth + "</div>" * depth)
        assert len(tree) == depth
        assert tree.node(depth - 1).parent == depth - 2
        assert tree.node(depth - 1).xpath == "/div" * depth

    def test_deep_chain_memory_is_linear(self):
        # a full xpath string per node held about 2·d² characters, 19.2 MB
        # at 3,000 levels; the segment column holds one tag per node
        depth = 3000
        document = "<div>" * depth + "</div>" * depth
        tracemalloc.start()
        try:
            tree = parse_html(document)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.92e6, (retained, peak)
        assert tree.node(depth - 1).xpath == "/div" * depth


class TestTreeNode:
    def test_fields_cannot_be_assigned(self):
        node = parse_html(b"<p class='x'>hi</p>").node(0)
        for name in TreeNode._fields:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
        assert node.tag == "p"

    def test_equal_nodes_hash_equal(self):
        one, two = (parse_html(b"<div class='c'><p>hi</p><p/></div>") for _ in range(2))
        for a, b in zip(one, two, strict=True):
            assert a == b and a is not b
            assert hash(a) == hash(b)
        assert len(set(one) | set(two)) == len(one)


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

    def test_600_levels_write_and_read_back(self):
        # format 1 stopped just under 500 levels; format 2 has no depth limit
        deep = parse_html("<div>" * 600 + "</div>" * 600)
        text = serialize_tree_json(deep)
        assert tree_columns(parse_tree_json(text)) == tree_columns(deep)
        assert serialize_tree_json(parse_tree_json(text)) == text

    def test_too_deep_to_read_is_format_error(self):
        text = '{"tag":"a","children":[' * 600 + '{"tag":"b"}' + "]}" * 600
        with pytest.raises(FormatError):
            parse_tree_json(text)

    @given(labeled_trees(max_nodes=15))
    def test_round_trip_property(self, tree):
        text = serialize_tree_json(tree)
        again = parse_tree_json(text)
        assert serialize_tree_json(again) == text
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

    @given(labeled_trees(max_nodes=20, odd_tags=True))
    def test_xpaths_distinct_with_odd_tags(self, tree):
        assert len(set(tree.xpaths())) == len(tree)

    def test_escaped_steps(self):
        tree = freeze(DraftNode(tag="a/b", children=[
            DraftNode(tag="c\\"), DraftNode(tag="c\\"), DraftNode(tag="[d]")]))
        assert tree.xpaths() == (
            "/a\\/b", "/a\\/b/c\\\\[1]", "/a\\/b/c\\\\[2]", "/a\\/b/\\[d]")
        assert tree.tags == ("a/b", "c\\", "c\\", "[d]")

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
        again = freeze(thaw(tree)[0])
        assert serialize_tree_json(tree) == serialize_tree_json(again)

    @given(labeled_trees(max_nodes=12), labeled_trees(max_nodes=12), st.booleans())
    def test_label_ids_intern_over_both_trees(self, t1, t2, with_text):
        ids1, ids2, labels = label_ids(t1, t2, with_text)

        def keys(tree):
            texts = tree.texts if with_text else [None] * len(tree)
            return list(zip(tree.tags, tree.attributes, texts))

        # equal ints exactly for equal labels, numbered in order of first use
        assert [labels[i] for i in ids1] == keys(t1)
        assert [labels[i] for i in ids2] == keys(t2)
        assert labels == list(dict.fromkeys(keys(t1) + keys(t2)))

    @given(labeled_trees(max_nodes=20))
    def test_subtree_sizes_are_id_ranges(self, tree):
        size = subtree_sizes(tree)
        for node in tree:
            v = node.id
            assert size[v] == 1 + sum(size[c] for c in node.children)
            descendants = set()
            stack = list(node.children)
            while stack:
                c = stack.pop()
                descendants.add(c)
                stack.extend(tree.node(c).children)
            # v + size - 1 is v's last descendant, and none lies between
            assert descendants == set(range(v + 1, v + size[v]))

    def test_ids_are_preorder(self):
        tree = parse_html(b"<a><b><c/></b><d/></a>")
        assert [(n.id, n.tag) for n in tree] == [(0, "a"), (1, "b"), (2, "c"), (3, "d")]


def _node_rows(tree):
    return [
        (n.id, n.tag, n.attributes, n.text, n.parent, n.children, n.xpath, n.signature)
        for n in tree
    ]


def _rows_or_error(parse, document):
    """The node rows ``parse`` reads from ``document``, or its IngestError's text."""
    try:
        return _node_rows(parse(document))
    except IngestError as exc:
        return str(exc)


def _read(reader, text):
    """A reader's tree as node tuples, or its error message and path."""
    try:
        return _node_rows(reader(text))
    except FormatError as exc:
        return str(exc), exc.path


def _preorder(obj: dict) -> list[dict]:
    out, stack = [], [obj]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(reversed(current.get("children", [])))
    return out


# each breaks one field of one node object; the last two are valid nulls
_CORRUPTIONS = {
    "attrs null": lambda o: o.__setitem__("attrs", None),
    "attrs array": lambda o: o.__setitem__("attrs", [["k", "v"]]),
    "attr value int": lambda o: o.setdefault("attrs", {}).__setitem__("x.y", 3),
    "attr value null": lambda o: o.setdefault("attrs", {}).__setitem__("k", None),
    "children null": lambda o: o.__setitem__("children", None),
    "children object": lambda o: o.__setitem__("children", {}),
    "child int": lambda o: o.setdefault("children", []).append(7),
    "child string": lambda o: o.setdefault("children", []).insert(0, "div"),
    "child array": lambda o: o.setdefault("children", []).append([]),
    "child null": lambda o: o.setdefault("children", []).append(None),
    "tag missing": lambda o: o.pop("tag"),
    "tag empty": lambda o: o.__setitem__("tag", ""),
    "tag int": lambda o: o.__setitem__("tag", 1),
    "tag null": lambda o: o.__setitem__("tag", None),
    "text int": lambda o: o.__setitem__("text", 3),
    "signature list": lambda o: o.__setitem__("signature", ["s"]),
    "text null": lambda o: o.__setitem__("text", None),
    "signature null": lambda o: o.__setitem__("signature", None),
}


@st.composite
def malformed_documents(draw) -> str:
    """A random tree's format-1 JSON with one to three of its nodes corrupted."""
    tree = draw(labeled_trees(max_nodes=12, edge_values=True))
    obj = json.loads(reference_serialize_tree_json(tree))
    nodes = _preorder(obj)
    indexes = st.integers(0, len(nodes) - 1)
    for k in draw(st.lists(indexes, min_size=1, max_size=3, unique=True)):
        _CORRUPTIONS[draw(st.sampled_from(sorted(_CORRUPTIONS)))](nodes[k])
    return json.dumps(obj)


class TestReaderOracle:
    """The one-pass JSON reader and freeze against the draft-based readers
    kept in ``oracles.py``."""

    @settings(max_examples=50)
    @given(draft_trees(max_nodes=25, edge_values=True))
    def test_freeze_equals_reference(self, draft):
        assert _node_rows(freeze(draft)) == _node_rows(reference_freeze(draft))

    @settings(max_examples=50)
    @given(draft_trees(max_nodes=25, odd_tags=True))
    def test_odd_tags_equal_reference(self, draft):
        tree = freeze(draft)
        assert _node_rows(tree) == _node_rows(reference_freeze(draft))
        for text in (reference_serialize_tree_json(tree), serialize_tree_json(tree)):
            assert _read(parse_tree_json, text) == _read(reference_parse_tree_json, text)

    def test_freeze_collapses_blank_text(self):
        draft = DraftNode(tag="a", text=" \n ", children=[DraftNode(tag="b", text=" x  y ")])
        assert _node_rows(freeze(draft)) == _node_rows(reference_freeze(draft))
        assert [n.text for n in freeze(draft)] == [None, "x y"]

    @settings(max_examples=50)
    @given(labeled_trees(max_nodes=25, edge_values=True))
    def test_valid_documents(self, tree):
        tree = signed_tree(tree)
        reads = []
        for text in (reference_serialize_tree_json(tree), serialize_tree_json(tree)):
            reads.append(_read(parse_tree_json, text))
            assert reads[-1] == _read(reference_parse_tree_json, text)
        assert reads[0] == reads[1]  # format 1 and format 2 give one tree

    @settings(max_examples=120)
    @given(malformed_documents())
    def test_malformed_documents(self, text):
        assert _read(parse_tree_json, text) == _read(reference_parse_tree_json, text)

    @pytest.mark.parametrize("text, path", [
        ('{"tag":"a","attrs":null}', "$.attrs"),
        ('{"tag":"a","children":null}', "$.children"),
        ('{"tag":"a","children":[{"tag":"b"},{"tag":"c","attrs":{"k":1}}]}',
         "$.children[1].attrs.k"),
        ('{"tag":"a","children":[{"tag":"b","children":[{"tag":"c"},3]}]}',
         "$.children[0].children[1]"),
        ('{"tag":"a","children":[{"tag":"b","children":[{"tag":""}]},{"tag":"c"}]}',
         "$.children[0].children[0]"),
        ('[{"tag":"a"}]', "$"),
    ])
    def test_error_paths(self, text, path):
        with pytest.raises(FormatError) as err:
            parse_tree_json(text)
        assert err.value.path == path
        assert _read(parse_tree_json, text) == _read(reference_parse_tree_json, text)

    def test_null_text_and_signature_read_as_absent(self):
        text = '{"tag":"a","text":null,"signature":null,"attrs":{},"children":[]}'
        assert _read(parse_tree_json, text) == [(0, "a", (), None, None, (), "/a", None)]


_COLUMN_NAMES = ("tags", "parents", "attrs", "texts", "signatures")


def _set_entry(draw, doc: dict, name: str, value) -> None:
    """Set one entry of a column, if the column is still a non-empty array."""
    column = doc.get(name)
    if isinstance(column, list) and column:
        column[draw(st.integers(0, len(column) - 1))] = value


def _length_mismatch(draw, doc: dict, tree) -> None:
    column = doc.get(draw(st.sampled_from(_COLUMN_NAMES)))
    if isinstance(column, list):
        if column and draw(st.booleans()):
            column.pop()
        else:
            column.append(column[-1] if column else None)


def _parent_at_or_past_v(draw, doc: dict, tree) -> None:
    parents = doc.get("parents")
    if isinstance(parents, list) and len(parents) > 1:
        v = draw(st.integers(1, len(parents) - 1))
        parents[v] = v + draw(st.integers(0, 2))


def _off_path_parents(tree) -> list[tuple[int, int]]:
    """Every ``(v, u)`` where ``u`` comes before ``v - 1`` and is not one of
    its ancestors, so that ``u`` as ``v``'s parent breaks pre-order."""
    choices = []
    for v in range(2, len(tree)):
        path, u = set(), v - 1
        while u is not None:
            path.add(u)
            u = tree.parents[u]
        choices += [(v, u) for u in range(v - 1) if u not in path]
    return choices


def _parent_off_the_path(draw, doc: dict, tree) -> None:
    parents = doc.get("parents")
    choices = _off_path_parents(tree)
    if isinstance(parents, list) and len(parents) == len(tree) and choices:
        v, u = draw(st.sampled_from(choices))
        parents[v] = u


def _attr_value(draw, doc: dict, tree) -> None:
    attrs = doc.get("attrs")
    if isinstance(attrs, list) and attrs:
        entry = attrs[draw(st.integers(0, len(attrs) - 1))]
        if isinstance(entry, dict):
            entry["x.y"] = draw(st.sampled_from([3, None, True, ["v"]]))


# each breaks one column or one entry; "text null" is a valid null
_FLAT_CORRUPTIONS = {
    "version": lambda draw, doc, tree: doc.__setitem__(
        "version", draw(st.sampled_from([1, 3, "2", True, 2.0, None]))),
    "column missing": lambda draw, doc, tree: doc.pop(draw(st.sampled_from(_COLUMN_NAMES)), None),
    "column not an array": lambda draw, doc, tree: doc.__setitem__(
        draw(st.sampled_from(_COLUMN_NAMES)), draw(st.sampled_from([None, {}, "x", 3]))),
    "columns empty": lambda draw, doc, tree: doc.update({name: [] for name in _COLUMN_NAMES}),
    "length mismatch": _length_mismatch,
    "tag empty": lambda draw, doc, tree: _set_entry(draw, doc, "tags", ""),
    "tag int": lambda draw, doc, tree: _set_entry(draw, doc, "tags", 1),
    "tag null": lambda draw, doc, tree: _set_entry(draw, doc, "tags", None),
    "parent at or past v": _parent_at_or_past_v,
    "parent off the path": _parent_off_the_path,
    "parent true": lambda draw, doc, tree: _set_entry(draw, doc, "parents", True),
    "parent float": lambda draw, doc, tree: _set_entry(draw, doc, "parents", 0.0),
    "parent negative": lambda draw, doc, tree: _set_entry(draw, doc, "parents", -1),
    "attrs entry not an object": lambda draw, doc, tree: _set_entry(
        draw, doc, "attrs", draw(st.sampled_from([None, [], "k"]))),
    "attr value not a string": _attr_value,
    "text int": lambda draw, doc, tree: _set_entry(draw, doc, "texts", 3),
    "signature list": lambda draw, doc, tree: _set_entry(draw, doc, "signatures", ["s"]),
    "text null": lambda draw, doc, tree: _set_entry(draw, doc, "texts", None),
}


@st.composite
def corrupted_flat_documents(draw) -> str:
    """A random signed tree's format-2 JSON with one to three corruptions."""
    tree = signed_tree(draw(labeled_trees(max_nodes=12, edge_values=True)))
    doc = json.loads(serialize_tree_json(tree))
    for _ in range(draw(st.integers(1, 3))):
        _FLAT_CORRUPTIONS[draw(st.sampled_from(sorted(_FLAT_CORRUPTIONS)))](draw, doc, tree)
    return json.dumps(doc)


class TestFlatFormat:
    """Format 2, the column arrays, against the plain-loop reader in
    ``oracles.py``; format 1 still reads."""

    def test_layout(self):
        tree = freeze(DraftNode(tag="a", children=[
            DraftNode(tag="b", attrs=[("k", "v")], text="x", signature="s1"),
            DraftNode(tag="é")]))
        assert serialize_tree_json(tree) == (
            '{"version": 2, "tags": ["a", "b", "é"], "parents": [null, 0, 0], '
            '"attrs": [{}, {"k": "v"}, {}], "texts": [null, "x", null], '
            '"signatures": [null, "s1", null]}')

    @settings(max_examples=150)
    @given(corrupted_flat_documents())
    def test_corrupted_documents(self, text):
        assert _read(parse_tree_json, text) == _read(reference_parse_tree_json, text)

    @given(labeled_trees(max_nodes=12), st.data())
    def test_parent_off_the_path_is_refused(self, tree, data):
        choices = _off_path_parents(tree)
        assume(choices)
        v, u = data.draw(st.sampled_from(choices))
        doc = json.loads(serialize_tree_json(tree))
        doc["parents"][v] = u
        text = json.dumps(doc)
        with pytest.raises(FormatError) as err:
            parse_tree_json(text)
        assert err.value.path == f"$.parents[{v}]"
        assert _read(parse_tree_json, text) == _read(reference_parse_tree_json, text)

    @pytest.mark.parametrize("columns, path", [
        ({"version": 3}, "$.version"),
        ({"version": True}, "$.version"),
        ({"version": "2"}, "$.version"),
        ({"tags": None}, "$.tags"),
        ({"signatures": "s"}, "$.signatures"),
        ({"tags": [], "parents": [], "attrs": [], "texts": [], "signatures": []}, "$.tags"),
        ({"texts": [None, None, None]}, "$.texts"),
        ({"tags": ["a", "", "c", "d"]}, "$.tags[1]"),
        ({"parents": [0, 0, 1, 1]}, "$.parents[0]"),
        ({"parents": [None, 0, 1, 3]}, "$.parents[3]"),  # its own id
        ({"parents": [None, 0, 2, 1]}, "$.parents[2]"),  # past its own id
        ({"parents": [None, 0, 0, 1]}, "$.parents[3]"),  # 1 is off the path to 2
        ({"parents": [None, 0, True, 1]}, "$.parents[2]"),
        ({"parents": [None, 0, 1.0, 1]}, "$.parents[2]"),
        ({"parents": [None, -1, 1, 1]}, "$.parents[1]"),
        ({"attrs": [{}, {}, {}, {"class": "x", "id": 7}]}, "$.attrs[3].id"),
        ({"attrs": [{}, {"id": 7}, [], {}]}, "$.attrs[2]"),
        ({"texts": [None, 3, None, None]}, "$.texts[1]"),
        ({"signatures": [None, None, None, ["s"]]}, "$.signatures[3]"),
    ])
    def test_error_paths(self, columns, path):
        doc = {"version": 2, "tags": ["a", "b", "c", "d"], "parents": [None, 0, 1, 1],
               "attrs": [{}, {}, {}, {}], "texts": [None] * 4, "signatures": [None] * 4}
        text = json.dumps({**doc, **columns})
        with pytest.raises(FormatError) as err:
            parse_tree_json(text)
        assert err.value.path == path
        assert _read(parse_tree_json, text) == _read(reference_parse_tree_json, text)

    @pytest.mark.parametrize("document", [
        b"\xff\xfe{}",
        b'{"version": 2, "tags": ["\xe9"], "parents": [null], "attrs": [{}], '
        b'"texts": [null], "signatures": [null]}',
        b'{"tag": "a", "text": "caf\xe9"}',
    ])
    def test_not_utf8_is_format_error(self, document):
        with pytest.raises(FormatError) as err:
            parse_tree_json(document)
        assert err.value.path == "$"
        assert _read(parse_tree_json, document) == _read(reference_parse_tree_json, document)
