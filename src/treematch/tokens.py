"""Node tokenization: tag, attribute names, attribute-value words, absolute xpath."""

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

    ``flat`` drops the kind prefixes so a tag "class" and an attribute
    "class" collide, which silently inflates similarity; the namespaced
    default keeps kinds apart. ``include_content`` additionally word-splits
    the node's text content.
    """

    flat: bool = False
    include_content: bool = False


DEFAULT_TOKEN_OPTIONS = TokenOptions()

# prefixes of the tag, attribute-name, value-word, xpath and text tokens
_PREFIXES = ("tag:", "attr:", "val:", "xpath:", "text:")
_FLAT_PREFIXES = ("",) * 5


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
    tag, attr, val, xpath, text = _FLAT_PREFIXES if options.flat else _PREFIXES
    node = tree.node(node_id)
    tokens = {tag + node.tag}
    for name, value in node.attributes:
        tokens.add(attr + name)
        for word in string_tokenize(value):
            tokens.add(val + word)
    tokens.add(xpath + node.xpath)
    if options.include_content and node.text:
        for word in string_tokenize(node.text):
            tokens.add(text + word)
    return frozenset(tokens)
