"""Rooted ordered labeled trees, with ingestion from HTML and a JSON tree format.

Trees are immutable after construction. Node ids are dense pre-order indices,
so ``tree.node(0)`` is always the root. A :class:`LabeledTree` stores five
columns, one tuple per field (tag, attributes, text, parent, signature),
indexed by node id: the five that its JSON form writes. The HTML and JSON
readers build no intermediate nodes: each appends every element's fields to
these columns, in pre-order, as the elements arrive, and ends in one step
that collapses text whitespace and stores the columns. All else is derived
from them on first use, once per tree, and kept: ``tree.children`` lists
each node's children, ``tree.segments`` each node's xpath segment (its tag,
or ``tag[k]`` among two or more same-tag siblings), ``tree.xpaths()`` joins
the segments from the root down, and ``tree.nodes`` holds the
:class:`TreeNode` views that ``tree.node(i)`` and iteration read. A tree's
memory is then linear in its size even for deep chains, and a reader pays
for no column its caller never reads. The matcher, the baseline and the
mutation engine read the columns only; the engine edits lists indexed by
node id and seals its pre-order gathers of them with the readers' last
step. Mutable :class:`DraftNode` trees are for trees built by hand;
:func:`freeze` turns drafts into a ``LabeledTree``.

HTML is read in one pass by two readers in turn, both feeding the same
tree builder, so the tree rules (implied ends, void tags, first root wins,
raw text, first duplicate attribute wins) are written once. One
regular-expression pass reads a strict, well-formed subset of HTML up to
the first ``<`` outside it, and ``HTMLParser``, whose recovery from
malformed markup is the reader's defined behaviour, reads the rest. A
document outside the subset costs ``HTMLParser``'s pass over the text from
its first stray ``<``, and nothing more. See :func:`parse_html`.

On disk a tree is JSON, in the formats the "JSON tree format" block below
sets out. :func:`serialize_tree_json` writes format 2: one array per column,
with parent ids, so nothing nests per node and any depth writes and reads.
Its reader refuses a parent column that is not in pre-order: the root's
parent is null, and each later node's parent is the node before it or one
of that node's ancestors. :func:`parse_tree_json` also reads format 1, the
nested objects written before format 2, which JSON itself limits to a few
hundred levels.

Each xpath names exactly one node. Neither reader restricts tag names, so a
tag may hold ``/``, which would spell two steps, or ``[``, which would spell
a rank: a tag ``a[1]`` beside two ``a`` siblings would share the first
one's xpath. So a segment puts a backslash before each ``\\``, ``/`` and
``[`` of its tag: ``a/b`` becomes ``a\\/b`` and ``a[1]`` becomes
``a\\[1]``. Sibling segments then always differ, two xpaths are equal
exactly when their segments are, and no tag of an ordinary HTML page
changes.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence


class IngestError(ValueError):
    """The input document did not yield a root element."""


class FormatError(ValueError):
    """JSON tree input violates the schema; ``path`` points at the bad element."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class DraftNode:
    """Mutable node of a tree built or rewritten by hand."""

    tag: str
    attrs: list[tuple[str, str]] = field(default_factory=list)
    text: str | None = None
    signature: str | None = None
    children: list["DraftNode"] = field(default_factory=list)


class TreeNode(NamedTuple):
    """A view of one element of a :class:`LabeledTree`; an immutable named tuple.

    ``attributes`` preserves source order. ``text`` is the node's own
    (direct) text content, whitespace-collapsed, or ``None``. ``signature``
    is an opaque ground-truth label that matchers never see.
    """

    id: int
    tag: str
    attributes: tuple[tuple[str, str], ...]
    text: str | None
    parent: int | None
    children: tuple[int, ...]
    xpath: str
    signature: str | None = None


class LabeledTree:
    """Immutable rooted ordered labeled tree, held as one tuple per field.

    Node ids are pre-order positions in ``[0, len(tree))``; the root is node 0,
    and every tree has one: empty columns raise :class:`IngestError`. Column
    ``k`` of each of ``tags``, ``attributes``, ``texts``, ``parents`` and
    ``signatures``, the five stored columns, belongs to node ``k``. The
    rest is derived from them when first asked for, all at once, and kept:
    ``children`` holds each node's child ids in sibling order, and
    ``segments`` each node's xpath segment, its escaped tag (see the module
    docstring), or that with ``[k]`` appended when it is the k-th of two or
    more same-tag siblings. A node's xpath is the segments from the root
    down, each after a ``/``: :meth:`xpaths` joins them, and :attr:`nodes`
    holds one ``TreeNode`` per node, which :meth:`node` and iteration read.
    """

    __slots__ = (
        "tags", "attributes", "texts", "parents", "signatures",
        "_children", "_segments", "_xpaths", "_views",
    )

    def __init__(
        self,
        tags: tuple[str, ...],
        attributes: tuple[tuple[tuple[str, str], ...], ...],
        texts: tuple[str | None, ...],
        parents: tuple[int | None, ...],
        signatures: tuple[str | None, ...],
    ):
        if not tags:
            raise IngestError("a tree needs a root: its columns are empty")
        self.tags = tags
        self.attributes = attributes
        self.texts = texts
        self.parents = parents
        self.signatures = signatures
        self._children: tuple[tuple[int, ...], ...] | None = None
        self._segments: tuple[str, ...] | None = None
        self._xpaths: tuple[str, ...] | None = None
        self._views: tuple[TreeNode, ...] | None = None

    @property
    def root(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self.nodes)

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    @property
    def nodes(self) -> tuple[TreeNode, ...]:
        """One ``TreeNode`` view per node, by node id; built on first use."""
        if self._views is None:
            self._views = tuple(map(
                TreeNode, range(len(self.tags)), self.tags, self.attributes, self.texts,
                self.parents, self.children, self.xpaths(), self.signatures,
            ))
        return self._views

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each node's child ids in sibling order, by node id; built on first use."""
        if self._children is None:
            self._children = tuple(map(tuple, _child_lists(self.parents)))
        return self._children

    @property
    def segments(self) -> tuple[str, ...]:
        """Each node's xpath segment, by node id; built on first use.

        A segment is the tag, escaped if it holds ``\\``, ``/`` or ``[``,
        with a 1-based ``[k]`` rank suffix only when the node has at least
        one same-tag sibling. Ids are in pre-order, so the nodes of one
        (parent, tag) group come in sibling order, and one count over
        ``zip(parents, tags)`` ranks them all without listing children.
        """
        if self._segments is None:
            tags = self.tags
            steps = {tag: _ODD.sub(r"\\\g<0>", tag) for tag in set(tags) if _ODD.search(tag)}
            segments = [steps.get(tag, tag) for tag in tags] if steps else list(tags)
            keys = list(zip(self.parents, tags))
            groups = Counter(keys)
            if len(groups) < len(keys):
                # the groups of two or more, each with the rank its last node took
                ranks = {group: 0 for group, n in groups.items() if n >= 2}
                for v, group in enumerate(keys):
                    if group in ranks:
                        ranks[group] = rank = ranks[group] + 1
                        segments[v] = f"{segments[v]}[{rank}]"
            self._segments = tuple(segments)
        return self._segments

    def xpaths(self) -> tuple[str, ...]:
        """Every node's absolute xpath, such as ``/html/body/p[2]``, by node id.

        Built on the first call and kept; a chain of depth d then holds about
        2·d² characters of xpath.
        """
        if self._xpaths is None:
            segments = self.segments
            paths = ["/" + segments[0]]
            for parent, segment in zip(self.parents[1:], segments[1:]):
                paths.append(f"{paths[parent]}/{segment}")  # type: ignore[index]
            self._xpaths = tuple(paths)
        return self._xpaths

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LabeledTree(size={len(self)}, root_tag={self.tags[0]!r})"


def subtree_sizes(tree: LabeledTree) -> list[int]:
    """Subtree size by node id: ``v``'s subtree is the ids ``v .. v + size - 1``."""
    size = [1] * len(tree)
    parents = tree.parents
    for v in range(len(size) - 1, 0, -1):  # children before parents
        size[parents[v]] += size[v]  # type: ignore[index]
    return size


def label_ids(
    t1: LabeledTree, t2: LabeledTree, with_text: bool = False
) -> tuple[list[int], list[int], list[tuple]]:
    """Each node's label, interned to a small int over both trees, by node id
    in ``t1`` and in ``t2``, and the labels by int. A label is ``(tag,
    attributes, text)``, with text ``None`` unless ``with_text`` is set."""
    ids: dict[tuple, int] = {}

    def intern(tree: LabeledTree) -> list[int]:
        texts = tree.texts if with_text else repeat(None)
        # listed before interning: interning straight from zip raised the
        # matcher's peak RSS by 0.7 MB on a 1,216-node page (allocator layout)
        keys = list(zip(tree.tags, tree.attributes, texts))
        return [ids.setdefault(key, len(ids)) for key in keys]

    ids1, ids2 = intern(t1), intern(t2)
    return ids1, ids2, list(ids)


# the characters a segment puts a backslash before: the backslash itself,
# the step separator "/" and the rank opener "["
_ODD = re.compile(r"[\\/\[]")


def _child_lists(parents: Sequence[int | None]) -> list[list[int]]:
    """Each node's child ids in id order, which is sibling order, by node id."""
    children: list[list[int]] = [[] for _ in parents]
    for node_id in range(1, len(parents)):
        children[parents[node_id]].append(node_id)  # type: ignore[index]
    return children


def freeze(root: DraftNode) -> LabeledTree:
    """Assign pre-order ids to a draft tree and seal it. A name repeated in
    a draft's attributes keeps its first value, as the HTML reader does."""
    columns: tuple[list, list, list, list, list] = ([], [], [], [], [])
    tags, attributes, texts, signatures, parents = columns
    stack: list[tuple[DraftNode, int | None]] = [(root, None)]
    while stack:
        draft, parent_id = stack.pop()
        node_id = len(tags)
        first: dict[str, str] = {}
        for name, value in draft.attrs:
            first.setdefault(name, value)
        tags.append(draft.tag)
        attributes.append(tuple(first.items()))
        texts.append(draft.text)
        signatures.append(draft.signature)
        parents.append(parent_id)
        if draft.children:
            stack.extend(zip(reversed(draft.children), repeat(node_id)))
    return _seal(*columns)


def _seal(
    tags: Iterable[str],
    attributes: Iterable[tuple[tuple[str, str], ...]],
    texts: Iterable[str | None],
    signatures: Iterable[str | None],
    parents: Iterable[int | None],
) -> LabeledTree:
    """Build the tree from its five columns, each one entry per node in
    pre-order.

    Text is whitespace-collapsed, and text that collapses to nothing becomes
    ``None``; the other columns are stored as they are, as tuples. Children,
    segments, xpaths and views are left for the tree to derive on first use.
    """
    texts = tuple([text if text is None else " ".join(text.split()) or None for text in texts])
    return LabeledTree(tuple(tags), tuple(attributes), texts, tuple(parents), tuple(signatures))


# ---------------------------------------------------------------------------
# HTML ingestion

_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# When a start tag in the value set arrives while the key tag is open on top
# of the stack, the key tag is implicitly closed (pragmatic HTML5 recovery).
_BLOCK_STARTERS = frozenset(
    "address article aside blockquote div dl fieldset footer form h1 h2 h3 h4 h5 h6 "
    "header hr main nav ol p pre section table ul".split()
)
_IMPLIED_CLOSE: dict[str, frozenset[str]] = {
    "p": _BLOCK_STARTERS,
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "td": frozenset({"td", "th", "tr"}),
    "th": frozenset({"td", "th", "tr"}),
    "tr": frozenset({"tr"}),
    "option": frozenset({"option", "optgroup"}),
    "thead": frozenset({"tbody", "tfoot"}),
    "tbody": frozenset({"tbody", "tfoot"}),
}

_RAWTEXT_TAGS = frozenset({"script", "style"})


class _TreeBuilder(HTMLParser):
    """Lenient element-tree builder: elements only, first top-level element wins.

    Its three handlers serve both readers, :func:`_scan` and then
    ``HTMLParser``, so the tree rules live here once. Comments, doctype, and
    processing instructions are dropped; script/style text is excluded; stray
    end tags are ignored; duplicate attributes keep the first occurrence (as
    browsers do). Elements open in pre-order, so each gets its entry in the
    tag, attribute and parent columns, and its id, the moment it opens. Once
    the root has closed the stack stays empty, and every later event is
    ignored. ``<x/>`` arrives as a start tag and an end tag, which pops the
    element if it was pushed (it is then on top) and else is stray.
    ``open_tags`` counts the open elements of each tag, so a stray end tag
    is dropped without a scan of the stack.
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tags: list[str] = []
        self.attrs: list[tuple[tuple[str, str], ...]] = []
        self.parents: list[int | None] = []
        self.stack: list[int] = []  # ids of the open elements
        self.open_tags: dict[str, int] = {}  # tag -> its elements on the stack
        self.texts: dict[int, list[str]] = {}

    def updatepos(self, i: int, j: int) -> int:
        # HTMLParser moves its line and column counters forward through
        # this hook, a count of the newlines in every chunk it consumes, and
        # reads them only in getpos(). Nothing here calls getpos(); the
        # Python versions that call it on junk after a start tag's
        # attributes throw the result away. So the counting is skipped, and
        # the hook returns what the stock one returns, the new position.
        return j

    def handle_starttag(self, tag, attrs):
        tags, stack, open_tags = self.tags, self.stack, self.open_tags
        if not stack and tags:
            return  # the root has closed
        while stack:
            top = tags[stack[-1]]
            closers = _IMPLIED_CLOSE.get(top)
            if closers is None or tag not in closers:
                break
            stack.pop()
            open_tags[top] -= 1
            if not stack:
                return
        clean_attrs: dict[str, str] = {}
        for name, value in attrs:
            clean_attrs.setdefault(name, value or "")
        node_id = len(tags)
        tags.append(tag)
        self.attrs.append(tuple(clean_attrs.items()))
        self.parents.append(stack[-1] if stack else None)
        if tag not in _VOID_TAGS:
            stack.append(node_id)
            open_tags[tag] = open_tags.get(tag, 0) + 1

    def handle_endtag(self, tag):
        open_tags = self.open_tags
        if not open_tags.get(tag):
            return  # stray end tag: no matching open element, ignore
        tags, stack = self.tags, self.stack
        if tags[stack[-1]] == tag:  # the usual case: it closes the top
            stack.pop()
            open_tags[tag] -= 1
            return
        depth = len(stack) - 2
        while tags[stack[depth]] != tag:
            depth -= 1
        for node_id in stack[depth:]:
            open_tags[tags[node_id]] -= 1
        del stack[depth:]

    def handle_data(self, data):
        if not self.stack:
            return
        top = self.stack[-1]
        if self.tags[top] in _RAWTEXT_TAGS:
            return
        self.texts.setdefault(top, []).append(data)

    def finish(self) -> tuple[list, list, list, tuple, list]:
        """The five columns, in ``_seal``'s order."""
        tags = self.tags
        if not tags:
            raise IngestError("document contains no element")
        texts: list[str | None] = [None] * len(tags)
        for node_id, pieces in self.texts.items():
            texts[node_id] = "".join(pieces)
        return tags, self.attrs, texts, (None,) * len(tags), self.parents


# One attribute of a strict start tag: whitespace, a name, and an optional
# value, quoted or bare. Whitespace is the five ASCII characters, never \s:
# HTMLParser reads "<a\vhref=x>" as one tag named "a\vhref=x". A bare value
# runs to the first quote, "=", "<", ">", backtick or Unicode whitespace, and
# only whitespace or ">" may follow it: HTMLParser reads "<a href=x/>" as an
# open tag whose value is "x/", and "<a href=x\xa0y>" splits at the \xa0.
_STRICT_ATTR = r"""
    [ \t\n\r\f]+ [a-zA-Z_:][-.a-zA-Z0-9_:]*
    (?: = (?: "[^"\x00]*" | '[^'\x00]*' | [^\s"'=<>`\x00]+ ) )?
"""
# Elements whose body some HTMLParser release reads as raw or escapable raw
# text: a "<" in such a body is text there and markup elsewhere. The first
# four get a form of their own whose body holds no "<"; the rest fall back.
# These names match in any ASCII case only, (?ai:...): Unicode case folding
# would let "s" match "\u017f" and "i" match "\u0131", and HTMLParser reads
# "<\u017fcript>" as text, since a tag opens with an ASCII letter.
_RAW_TAGS = "script|style|title|textarea"
_SPECIAL_TAGS = _RAW_TAGS + "|xmp|iframe|noembed|noframes|noscript|plaintext"

# The strict subset of HTML that _scan reads, one token per match; the
# groups a match fills tell its kind. Comments and doctypes fill none. The
# first "<" outside the subset takes the rest of the text as one last match,
# so findall stops there and _scan needs to look at that match only.
_TOKEN = re.compile(rf"""
    ([^<]+)                                              # 1 text
  | <(?!(?ai:{_SPECIAL_TAGS})(?![-.a-zA-Z0-9:_]))        # a start tag, not special:
      ([a-zA-Z][-.a-zA-Z0-9:_]*)                         # 2 its name,
      ((?:{_STRICT_ATTR})*) [ \t\n\r\f]* (/?)>           # 3 its attributes, 4 "/" if self-closed
  | </([a-zA-Z][-.a-zA-Z0-9:_]*)[ \t\n\r\f]*>            # 5 an end tag's name
  | <((?ai:{_RAW_TAGS}))(?![-.a-zA-Z0-9:_])              # 6 a raw element's name,
      ((?:{_STRICT_ATTR})*) [ \t\n\r\f]*>                # 7 its attributes,
      ([^<]*)</\6>                                       # 8 its body, closed in the same case
  | <!--(?!-?>)(?:[^-]|-(?!-))*-->                       # a comment holding no "--"
  | <!(?ai:doctype)[^<>]*>                               # a doctype
  | (<(?s:.*))                                           # 9 any other "<", and all after it
""", re.VERBOSE)
# The attributes of a tag _TOKEN has matched: name, then a double-quoted,
# single-quoted or bare value, each empty when absent
_ATTRIBUTE = re.compile(r"""([^\s=]+)(?:=(?:"([^"]*)"|'([^']*)'|(\S+)))?""")


def _attributes(text: str) -> list[tuple[str, str]]:
    """The (name, value) pairs of a strict tag's attribute text, as
    HTMLParser gives them: names lowercased, quotes stripped, references
    in values decoded, and ``""`` for a name with no value."""
    pairs = []
    for name, double, single, bare in _ATTRIBUTE.findall(text):
        value = double or single or bare
        pairs.append((name.lower(), unescape(value) if "&" in value else value))
    return pairs


def _scan(document: str, builder: _TreeBuilder) -> str:
    """Feed ``builder`` the strict tokens before the first ``<`` outside
    the subset, and return the text from that ``<`` on, or ``""``.

    One ``findall`` of ``_TOKEN`` cuts the text into text runs, start, end
    and self-closed tags, raw elements, comments and doctypes, and hands each
    to the builder's handlers in the order ``HTMLParser`` would. Each text
    run is decoded on its own, as ``HTMLParser`` decodes the text between
    two markup tokens.
    """
    tokens = _TOKEN.findall(document)
    rest = tokens.pop()[8] if tokens and tokens[-1][8] else ""
    start, end, data = builder.handle_starttag, builder.handle_endtag, builder.handle_data
    for text, tag, attrs, closed, end_tag, raw, raw_attrs, body, _ in tokens:
        if text:
            data(unescape(text) if "&" in text else text)
        elif tag:
            tag = tag.lower()
            start(tag, _attributes(attrs) if attrs else [])
            if closed:
                end(tag)
        elif end_tag:
            end(end_tag.lower())
        elif raw:
            raw = raw.lower()
            start(raw, _attributes(raw_attrs) if raw_attrs else [])
            if body:
                data(unescape(body) if "&" in body else body)
            end(raw)
    return rest


def parse_html(document: bytes | str) -> LabeledTree:
    """Parse HTML (possibly malformed) into a tree of element nodes.

    Only elements become nodes; direct text content is stored on its parent
    element. Raises :class:`IngestError` when no root element can be found.
    Bytes that start with a UTF-16 byte-order mark are read as UTF-16, and
    other bytes as UTF-8 with undecodable bytes replaced.

    :func:`_scan` feeds one :class:`_TreeBuilder` in one regular-expression
    pass, up to the first ``<`` outside a strict, well-formed subset of
    HTML, and ``HTMLParser`` feeds it the rest, if any. The subset is: text;
    start, end and self-closed tags whose names and attribute names are
    ASCII words, with ASCII whitespace between attributes and values quoted
    or bare; ``<script>``, ``<style>``, ``<title>`` and ``<textarea>``
    elements whose body holds no ``<``; comments holding no ``--``; and
    doctypes. ``HTMLParser``'s recovery from malformed markup (tags cut off
    at the end, junk in tags, CDATA, comments such as ``<!-->``, markup in
    raw-text bodies) is the behaviour this reader pins, and it differs
    between Python releases; so it is kept, and the subset leaves such
    constructs out. A strict token is whole, a raw element with its body
    and end tag, so ``HTMLParser`` would hold no pending text and no
    raw-text mode after it, and a fresh one reads the rest as one fed the
    whole document would. The scan exists only for speed: a document
    outside the subset costs ``HTMLParser``'s pass over the text from its
    first stray ``<``, and nothing more.
    """
    if isinstance(document, bytes):
        utf16 = document[:2] in (b"\xff\xfe", b"\xfe\xff")
        document = document.decode("utf-16" if utf16 else "utf-8", errors="replace")
    builder = _TreeBuilder()
    rest = _scan(document, builder)
    if rest:
        builder.feed(rest)
        builder.close()
    columns = builder.finish()
    del builder  # frees its text lists before _seal allocates, so the collector skips them
    return _seal(*columns)


# ---------------------------------------------------------------------------
# JSON tree format
#
# Format 2, written by serialize_tree_json: one array per column, every
# array one entry per node, in pre-order, keys in this order:
#
#   {"version": 2, "tags": [str, ...], "parents": [null, int, ...],
#    "attrs": [{name: value, ...}, ...], "texts": [str | null, ...],
#    "signatures": [str | null, ...]}
#
# ``parents[0]`` is null and every later ``parents[v]`` names ``v - 1`` or
# one of its ancestors, which is what makes the order pre-order: node ``v``
# is the next child of a node on the path from the root to ``v - 1``.
#
# Format 1, read for files written before format 2: an object with no
# "version" key, nested
#
#   {"tag": str, "attrs": {name: value, ...}?, "text": str?, "signature": str?,
#    "children": [...]?}
#
# recursively. Both are UTF-8.

_FORMAT_VERSION = 2
_COLUMNS = ("tags", "parents", "attrs", "texts", "signatures")
_STR = frozenset({str})
_DICT = frozenset({dict})
_STR_OR_NULL = frozenset({str, type(None)})

_NO_ATTRS: dict = {}
_NO_CHILDREN: list = []


def parse_tree_json(text: str | bytes) -> LabeledTree:
    """Read a tree in either JSON tree format; round-trips with :func:`serialize_tree_json`.

    An object with a ``version`` key is read as format 2 and any version
    other than 2 is refused; an object without one is format 1. Raises
    :class:`FormatError` for input that is not UTF-8 or not JSON, and for
    the first element that violates the schema: in format 2 the first bad
    column, then the first bad entry column by column, with a path like
    ``$.parents[7]`` or ``$.attrs[3].class``; in format 1 the first bad node
    in pre-order, with a path like ``$.children[0].attrs``.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8: {exc}", "$") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", "$") from exc
    except RecursionError:
        raise FormatError("nested too deeply to read", "$") from None
    if isinstance(doc, dict) and "version" in doc:
        return _seal(*_flat_columns(doc))
    return _seal(*_nested_columns(doc))


def _flat_columns(doc: dict) -> tuple[list, tuple, list, list, list]:
    """The columns of a format-2 document in ``_seal``'s order, checked column by column."""
    version = doc["version"]
    if type(version) is not int or version != _FORMAT_VERSION:
        raise FormatError(f"unknown format version {version!r}", "$.version")
    columns = [doc.get(name) for name in _COLUMNS]
    for name, column in zip(_COLUMNS, columns):
        if not isinstance(column, list):
            raise FormatError(f"'{name}' must be an array", f"$.{name}")
    tags, parents, attrs, texts, signatures = columns
    size = len(tags)
    if not size:
        raise FormatError("'tags' must list at least one node", "$.tags")
    for name, column in zip(_COLUMNS, columns):
        if len(column) != size:
            raise FormatError(f"'{name}' has {len(column)} entries for {size} tags", f"$.{name}")
    if not set(map(type, tags)) <= _STR or "" in tags:
        k = next(k for k, tag in enumerate(tags) if type(tag) is not str or not tag)
        raise FormatError("tags must be non-empty strings", f"$.tags[{k}]")
    _check_preorder(parents)
    if not set(map(type, attrs)) <= _DICT:
        k = next(k for k, entry in enumerate(attrs) if type(entry) is not dict)
        raise FormatError("'attrs' entries must be objects", f"$.attrs[{k}]")
    if not set(map(type, chain.from_iterable(map(dict.values, attrs)))) <= _STR:
        k, name = next((k, name) for k, entry in enumerate(attrs)
                       for name, value in entry.items() if type(value) is not str)
        raise FormatError("attribute values must be strings", f"$.attrs[{k}].{name}")
    for name, column in (("texts", texts), ("signatures", signatures)):
        if not set(map(type, column)) <= _STR_OR_NULL:
            k = next(k for k, value in enumerate(column) if type(value) not in _STR_OR_NULL)
            raise FormatError(f"'{name}' entries must be strings or null", f"$.{name}[{k}]")
    return tags, tuple(map(tuple, map(dict.items, attrs))), texts, signatures, parents


def _check_preorder(parents: list) -> None:
    """Refuse a parent column that does not list its nodes in pre-order:
    the root's parent is null and each later node's parent is an int that
    names the node before it or one of that node's ancestors."""
    if parents[0] is not None:
        raise FormatError("the root's parent must be null", "$.parents[0]")
    path = [0]  # node v - 1 and its ancestors, root first
    for v in range(1, len(parents)):
        p = parents[v]
        if type(p) is not int:
            raise FormatError("parent ids must be ints", f"$.parents[{v}]")
        if 0 <= p < v:
            while path[-1] > p:
                path.pop()
        if path[-1] != p:
            raise FormatError(f"parent {p} is not node {v - 1} or one of its ancestors",
                              f"$.parents[{v}]")
        path.append(v)


def _nested_columns(doc: object) -> tuple[list, list, list, list, list]:
    """The columns of a format-1 document in ``_seal``'s order, in pre-order,
    checked node by node."""
    columns: tuple[list, list, list, list, list] = ([], [], [], [], [])
    tags, attributes, texts, signatures, parents = columns
    stack: list[tuple[object, int | None]] = [(doc, None)]
    while stack:
        obj, parent_id = stack.pop()
        if not isinstance(obj, dict):
            raise _format_error(parents, parent_id, f"expected object, got {type(obj).__name__}")
        if "tag" not in obj:
            raise _format_error(parents, parent_id, "missing required field 'tag'")
        tag = obj["tag"]
        if not isinstance(tag, str) or not tag:
            raise _format_error(parents, parent_id, "'tag' must be a non-empty string")
        attrs_obj = obj.get("attrs", _NO_ATTRS)
        if not isinstance(attrs_obj, dict):
            raise _format_error(parents, parent_id, "'attrs' must be an object", ".attrs")
        attrs = tuple(attrs_obj.items())
        for name, value in attrs:
            if not isinstance(value, str):
                raise _format_error(parents, parent_id, "attribute values must be strings",
                                    f".attrs.{name}")
        node_text = obj.get("text")
        if node_text is not None and not isinstance(node_text, str):
            raise _format_error(parents, parent_id, "'text' must be a string", ".text")
        signature = obj.get("signature")
        if signature is not None and not isinstance(signature, str):
            raise _format_error(parents, parent_id, "'signature' must be a string", ".signature")
        children = obj.get("children", _NO_CHILDREN)
        if not isinstance(children, list):
            raise _format_error(parents, parent_id, "'children' must be an array", ".children")
        node_id = len(tags)
        tags.append(tag)
        attributes.append(attrs)
        texts.append(node_text)
        signatures.append(signature)
        parents.append(parent_id)
        if children:
            stack.extend(zip(reversed(children), repeat(node_id)))
    return columns


def _format_error(
    parents: list[int | None], parent_id: int | None, message: str, suffix: str = ""
) -> FormatError:
    """The error at the node after the ``parents`` read so far, a child of
    ``parent_id``; its path is rebuilt from their parents."""
    parents = parents + [parent_id]
    ranks: list[int] = []
    child_counts: dict[int | None, int] = {}
    for parent in parents:
        ranks.append(child_counts.get(parent, 0))
        child_counts[parent] = ranks[-1] + 1
    steps = []
    node_id = len(parents) - 1
    while (parent := parents[node_id]) is not None:
        steps.append(f".children[{ranks[node_id]}]")
        node_id = parent
    return FormatError(message, "$" + "".join(reversed(steps)) + suffix)


def serialize_tree_json(tree: LabeledTree) -> str:
    """Write a tree in JSON tree format 2, one array per column; the same
    tree always gives the same text."""
    return json.dumps({
        "version": _FORMAT_VERSION,
        "tags": tree.tags,
        "parents": tree.parents,
        "attrs": list(map(dict, tree.attributes)),
        "texts": tree.texts,
        "signatures": tree.signatures,
    }, ensure_ascii=False)
