"""Hypothesis strategies for random labeled trees."""

from __future__ import annotations

from hypothesis import strategies as st

from treematch.tree import DraftNode, LabeledTree, freeze

TAGS = ("div", "p", "span", "a", "ul", "li", "h1", "table")
CLASS_WORDS = ("nav", "bar", "btn", "row", "col", "card", "main", "wide")
TEXT_WORDS = ("alpha", "beta", "gamma", "delta", "news", "item")
DIGIT_WORDS = ("7", "42", "2020")
# tags whose xpaths would collide unescaped: "a[1]" beside two "a" siblings
# would spell the xpath of the first, a tag "a/b" the xpath of an "a" with a
# child "b", and the second of two "a\\" siblings, with the backslash left
# bare, the escaped "a[2]"; a tree draws its tags from one of the two sets
ODD_TAGS = (("a", "a", "a[1]", "a[2]", "b]", "a\\"), ("a", "b", "a/b", "[b", "a\\"))


@st.composite
def draft_trees(
    draw,
    max_nodes: int = 12,
    with_attrs: bool = True,
    edge_values: bool = False,
    odd_tags: bool = False,
    tags: tuple[str, ...] = TAGS,
) -> DraftNode:
    """Random draft trees with tags from ``tags``; ``edge_values`` adds
    digit-only words to texts and empty attribute values, which some text
    and attribute operators skip; ``odd_tags`` draws tags holding ``[``,
    ``]``, ``/`` or ``\\`` from ``ODD_TAGS`` instead."""
    if odd_tags:
        tags = draw(st.sampled_from(ODD_TAGS))
    text_words = TEXT_WORDS + DIGIT_WORDS if edge_values else TEXT_WORDS
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    # odd-tag trees hang every node from one of the first three, so that
    # same-tag siblings, and colliding xpaths, come up often
    parents = [
        draw(st.integers(min_value=0, max_value=min(k - 1, 2) if odd_tags else k - 1))
        for k in range(1, n)
    ]
    nodes = []
    for k in range(n):
        attrs: list[tuple[str, str]] = []
        if with_attrs:
            if draw(st.booleans()):
                words = draw(st.lists(st.sampled_from(CLASS_WORDS), min_size=1, max_size=3))
                attrs.append(("class", " ".join(words)))
            if draw(st.booleans()):
                attrs.append(("id", f"node-{k}"))
            if edge_values and draw(st.booleans()):
                attrs.append(("title", ""))
        text = None
        if draw(st.integers(0, 3)) == 0:
            text = " ".join(
                draw(st.lists(st.sampled_from(text_words), min_size=1, max_size=4))
            )
        nodes.append(DraftNode(tag=draw(st.sampled_from(tags)), attrs=attrs, text=text))
    for k, parent in enumerate(parents, start=1):
        nodes[parent].children.append(nodes[k])
    return nodes[0]


def labeled_trees(
    max_nodes: int = 12,
    with_attrs: bool = True,
    edge_values: bool = False,
    odd_tags: bool = False,
    tags: tuple[str, ...] = TAGS,
):
    return draft_trees(
        max_nodes=max_nodes, with_attrs=with_attrs, edge_values=edge_values, odd_tags=odd_tags,
        tags=tags,
    ).map(freeze)


def tree_pairs(max_nodes: int = 12, odd_tags: bool = False):
    trees = labeled_trees(max_nodes, odd_tags=odd_tags)
    return st.tuples(trees, trees)


def signed_tree(tree: LabeledTree) -> LabeledTree:
    from treematch.mutate import assign_signatures

    return assign_signatures(tree)


def tree_columns(tree: LabeledTree) -> tuple:
    """Every column of a tree, for comparing two trees column by column."""
    return (tree.tags, tree.attributes, tree.texts, tree.parents, tree.children,
            tree.segments, tree.signatures)


# Pieces of HTML documents, joined in any order. Most are in the strict
# subset that tree._scan reads; the rest are the markup each of its rules
# sends to HTMLParser, and the text that both readers must decode alike.
HTML_FRAGMENTS = (
    # tags the builder nests, closes by implication, or leaves void
    "<html>", "<body>", "</body>", "<div>", "</div>", "<p>", "</p>", "<ul>", "<li>", "</ul>",
    "<table>", "<tr>", "<td>", "</table>", "<b>", "</b>", "<i>", "</i>", "<br>", "<hr/>",
    # self-closed tags: a start tag, then an end tag
    "<span/>", "<div />", "<p/>",
    # names are lowercased
    "<DIV CLASS=Up>", "</Div>",
    # whitespace in tags is [ \t\n\r\f]; \v is not whitespace there
    "<div\tclass=a\r\n\fid=b>", "<a\vhref=x>",
    # a bare value ends at whitespace or ">", so this one is "x/" on an open tag
    "<a href=x/>", "<a href=x\xa0y>", "</a>",
    # quoted, bare, empty and missing values; a reference decoded in a value
    "<a href='/x?a=1&amp;b=2' title=\"&lt;t&gt;\" data-k=v hidden e=''>",
    # the first of two equal names wins
    "<p id=one id=two>",
    # start tags HTMLParser reads loosely, not in the strict subset
    "<a/ b>", "<a b='1'c>", "<a b==1>", "<a b =c>", "<a[1]>",
    # raw-text bodies: "<" in a script body is text, and a title body is text
    "<script>a && b</script>", "<script><b>x</b></script>", "<style>p{}</style>",
    "<title>a &amp; b</title>", "<title>a<b>c</title>", "<textarea>t</textarea>", "<script/>",
    "<iframe></iframe>",
    # letters that fold to "s" and "i" in Unicode, never in a tag name
    "<\u017fcript>x</\u017fcript>", "<\u017ftyle>y</\u017ftyle>", "<t\u0131tle>z</t\u0131tle>",
    # comments and declarations
    "<!doctype html>", "<!DOCTYPE html>", "<!-- c -->", "<!---->", "<!-->", "<!-- a --!>",
    "<!-- a -- b -->", "<![CDATA[x]]>", "<?pi?>",
    # end tags HTMLParser reads loosely
    "</x y>", "</>", "</p\n>",
    # text, references whole and cut, and characters either reader could trip on
    "a", " b ", "&amp;", "&am", "p;", "&#", "&#65;", "&lt;", "<", "&", "\x00", "\v", "\xa0",
)


def html_documents(max_fragments: int = 12):
    """Documents of up to ``max_fragments`` pieces of ``HTML_FRAGMENTS``."""
    return st.lists(st.sampled_from(HTML_FRAGMENTS), max_size=max_fragments).map("".join)


def random_html_document(rng, max_fragments: int = 12) -> str:
    """One document like those of :func:`html_documents`, drawn from a
    ``random.Random``, for seeded fuzzing outside hypothesis."""
    return "".join(rng.choice(HTML_FRAGMENTS) for _ in range(rng.randint(0, max_fragments)))


@st.composite
def leaf_child_trees(draw, max_inner: int = 8, tags: tuple[str, ...] = ("a", "b")) -> LabeledTree:
    """Random trees in which every node has zero or one leaf child.

    Up to ``max_inner`` inner nodes hang from each other; each gets one leaf
    child, in a drawn slot, if it has no other child, else with even odds.
    So an inner node with no inner child roots a two-node subtree. Tags come
    from ``tags`` and there are no attributes.
    """
    n = draw(st.integers(min_value=1, max_value=max_inner))
    nodes = [DraftNode(tag=draw(st.sampled_from(tags))) for _ in range(n)]
    for k in range(1, n):
        nodes[draw(st.integers(min_value=0, max_value=k - 1))].children.append(nodes[k])
    for node in nodes:
        if not node.children or draw(st.booleans()):
            slot = draw(st.integers(min_value=0, max_value=len(node.children)))
            node.children.insert(slot, DraftNode(tag=draw(st.sampled_from(tags))))
    return freeze(nodes[0])
