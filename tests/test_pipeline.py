"""The similarity matcher end to end on corpus mutants, pinned the way
``test_baselines.py`` pins TED: a change that moves one pair or one bit of a
pair cost fails here."""

from __future__ import annotations

import hashlib

import pytest

from conftest import CORPUS_DIR
from treematch.baselines import ted_match
from treematch.mutate import assign_signatures, mutate
from treematch.pipeline import match_trees, match_trees_detailed
from treematch.similarity import SftmParams
from treematch.tree import LabeledTree, parse_html, parse_tree_json, serialize_tree_json

# match_trees on corpus mutants (ratio 0.2, SftmParams(seed=seed)): pair
# count, then the first 16 hex digits of sha256(repr(pairs)) and of the pair
# costs written with float.hex and joined by spaces.
PINNED_SIMILARITY = [
    ("p00", 0, 126, "1d5e95d21ed390c0", "e16d2aae084d9a22"),
    ("p00", 1, 115, "61e1ae1e11f9aef3", "131bcbbee63b9e60"),
    ("p00", 2, 131, "23e51a8cc18da57c", "e349f36fa61da70e"),
    ("p04", 0, 258, "287084f1871d8f94", "2bd5f6ab66c402ea"),
    ("p04", 1, 237, "e1c79b268e4162aa", "1d18dab248cbb54b"),
    ("p04", 2, 262, "ec1086f47366f620", "8b172ecb2de73fa2"),
    ("p06", 0, 345, "b2d339cfd46f6ddc", "62ac862cbc46a39c"),
    ("p06", 1, 353, "09105565f0dd712d", "a56729791eb5ebf7"),
    ("p06", 2, 336, "19171238b0e92574", "2b65562a93b3d52e"),
]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("prefix,seed,count,pairs_digest,costs_digest", PINNED_SIMILARITY)
def test_pinned_matching(prefix, seed, count, pairs_digest, costs_digest):
    pages = sorted(CORPUS_DIR.glob(f"{prefix}_*.html"))
    if not pages:
        pytest.skip("bundled corpus not generated")
    source = assign_signatures(parse_html(pages[0].read_bytes()))
    mutant, _ = mutate(source, 0.2, seed)
    m = match_trees(source, mutant, SftmParams(seed=seed))
    assert len(m.pairs) == count
    assert digest(repr(m.pairs)) == pairs_digest
    assert digest(" ".join(map(float.hex, m.pair_costs))) == costs_digest


def test_match_path_builds_no_node_views_or_xpaths(monkeypatch):
    """Reading a bundle's two trees and matching them, by similarity or by
    TED, reads the tree columns only: no ``TreeNode`` view and no full
    xpath string is built."""
    page = sorted(CORPUS_DIR.glob("p00_*.html"))
    if not page:
        pytest.skip("bundled corpus not generated")
    source = assign_signatures(parse_html(page[0].read_bytes()))
    mutant, _ = mutate(source, 0.2, 0)
    texts = serialize_tree_json(source), serialize_tree_json(mutant)

    built: list[str] = []

    def recording(name, method):
        def record(self):
            built.append(name)
            return method(self)
        return record

    monkeypatch.setattr(LabeledTree, "nodes", property(recording("nodes", LabeledTree.nodes.fget)))
    monkeypatch.setattr(LabeledTree, "xpaths", recording("xpaths", LabeledTree.xpaths))

    t1, t2 = parse_tree_json(texts[0]), parse_tree_json(texts[1])
    matching, _ = match_trees_detailed(t1, t2, SftmParams())
    assert matching.pairs and built == []
    assert ted_match(t1, t2).pairs and built == []
    # views and xpaths are noticed: a view reads the views, which read the xpaths
    assert t1.node(1).xpath == t1.xpaths()[1] and built == ["nodes", "xpaths", "xpaths"]
