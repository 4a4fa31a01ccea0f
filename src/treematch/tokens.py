"""Node tokenization: tag, attribute names, attribute-value words, absolute xpath.

A node's tokens are its label's tokens (:func:`label_tokens`: tag, attribute
names, value words, and text words with ``include_content``) plus one token
for its absolute xpath. Every token carries a kind prefix, so a tag "class",
an attribute "class" and a value word "class" stay apart, and the xpath
prefix sorts after all the others. An xpath names exactly one node of its
tree (tags that hold ``\\``, ``/`` or ``[`` are escaped in it; see
``tree``), so an xpath token is held by one node per tree.
:func:`tokenize_node` reads that xpath string from ``tree.xpaths()``, which
builds every node's on first use; ``similarity.initial_similarity`` builds
none, since it finds a node's xpath partner by segment (see there).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .tree import LabeledTree

_LATIN_RUN = re.compile(r"[A-Za-z]+")


def string_tokenize(s: str) -> list[str]:
    """Split a string into maximal ASCII-letter runs, in order.

    Every non-Latin character (digits, punctuation, accented letters, ...)
    acts as a separator and is discarded.
    """
    return _LATIN_RUN.findall(s)


@dataclass(frozen=True)
class TokenOptions:
    """Tokenization switches surfaced on the CLI.

    ``include_content`` additionally word-splits the node's text content
    into ``text:`` tokens.
    """

    include_content: bool = False


DEFAULT_TOKEN_OPTIONS = TokenOptions()

# prefixes of the tag, attribute-name, value-word and text tokens; the xpath
# prefix sorts after all of them
_PREFIXES = ("tag:", "attr:", "val:", "text:")
_XPATH_PREFIX = "xpath:"


def tokenize_node(
    tree: LabeledTree,
    node_id: int,
    options: TokenOptions = DEFAULT_TOKEN_OPTIONS,
) -> frozenset[str]:
    """The token set of a node: tag, attribute names, attribute-value words,
    and the node's absolute xpath as one verbatim token.

    Duplicates collapse (set semantics). Text content is excluded unless
    ``options.include_content`` is set.
    """
    tokens = label_tokens(
        tree.tags[node_id], tree.attributes[node_id], tree.texts[node_id], options
    )
    tokens.add(_XPATH_PREFIX + tree.xpaths()[node_id])
    return frozenset(tokens)


def label_tokens(
    tag: str,
    attributes: tuple[tuple[str, str], ...],
    text: str | None,
    options: TokenOptions,
) -> set[str]:
    """The tokens of a node label, which are all of a node's tokens but its
    xpath. ``text`` is read only when ``options.include_content`` is set."""
    tag_, attr, val, text_ = _PREFIXES
    tokens = {tag_ + tag}
    for name, value in attributes:
        tokens.add(attr + name)
        for word in string_tokenize(value):
            tokens.add(val + word)
    if options.include_content and text:
        for word in string_tokenize(text):
            tokens.add(text_ + word)
    return tokens
