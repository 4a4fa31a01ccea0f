"""The similarity matcher end to end on corpus mutants, pinned the way
``test_baselines.py`` pins TED: a change that moves one pair or one bit of a
pair cost fails here."""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

import treematch.graph
import treematch.pipeline
import treematch.similarity
from conftest import CORPUS_DIR
from treematch.baselines import ted_match
from treematch.graph import build_graph, edge_count, graph_from_rows
from treematch.mutate import assign_signatures, mutate
from treematch.pipeline import match_trees, match_trees_detailed
from treematch.similarity import SftmParams, initial_similarity, propagate
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


def test_match_path_builds_no_propagated_table(monkeypatch):
    """The matcher propagates straight into its graph: with the table-form
    ``propagate`` and ``build_graph`` made to fail, it still matches, and
    its graph equals theirs to the bit."""
    page = sorted(CORPUS_DIR.glob("p00_*.html"))
    if not page:
        pytest.skip("bundled corpus not generated")
    source = assign_signatures(parse_html(page[0].read_bytes()))
    mutant, _ = mutate(source, 0.2, 0)
    params = SftmParams()
    sp = propagate(initial_similarity(source, mutant, params), source, mutant, params)
    want = build_graph(sp, source, mutant)

    def refuse(*args, **kwargs):
        raise AssertionError("the match path built a propagated table")

    # by the names the pipeline imports, and where the two are defined
    for module, name in ((treematch.pipeline, "propagate"), (treematch.pipeline, "build_graph"),
                         (treematch.similarity, "propagate"), (treematch.graph, "build_graph")):
        monkeypatch.setattr(module, name, refuse, raising=False)
    matching, g = match_trees_detailed(source, mutant, params)
    assert matching.pairs
    assert g.edge_n == want.edge_n and g.edge_m == want.edge_m
    assert [c.hex() for c in g.edge_cost] == [c.hex() for c in want.edge_cost]


def test_match_path_builds_no_similarity_table(monkeypatch):
    """The matcher streams the scored rows into the climb: with
    ``SimilarityTable`` made to fail, it still matches, and its graph equals
    the one built from the initial table to the bit."""
    page = sorted(CORPUS_DIR.glob("p00_*.html"))
    if not page:
        pytest.skip("bundled corpus not generated")
    source = assign_signatures(parse_html(page[0].read_bytes()))
    mutant, _ = mutate(source, 0.2, 0)
    params = SftmParams()
    s0 = initial_similarity(source, mutant, params)
    want = graph_from_rows(sorted(s0.rows.items()), source, mutant, params)

    def refuse(*args, **kwargs):
        raise AssertionError("the match path built a similarity table")

    for module in (treematch.similarity, treematch.pipeline):
        monkeypatch.setattr(module, "SimilarityTable", refuse, raising=False)
    with pytest.raises(AssertionError, match="similarity table"):
        initial_similarity(source, mutant, params)
    matching, g = match_trees_detailed(source, mutant, params)
    assert matching.pairs
    assert g.edge_n == want.edge_n and g.edge_m == want.edge_m
    assert [c.hex() for c in g.edge_cost] == [c.hex() for c in want.edge_cost]


def test_graph_build_peak_per_edge():
    """300 identical paragraphs matched against themselves at alpha 1.0 give
    300 * 300 + 2 edges. The climb keeps only the rows of open ancestors,
    the key groups are sorted in place, and the edge columns and chains are
    built with no int object per edge, so the traced peak of the match stays
    at or below 65 B per edge, and each node id is one int object for all
    its edges."""
    body = "<p class='x'>a</p>" * 300
    tree = parse_html(f"<html><body>{body}</body></html>".encode())
    tracemalloc.start()
    try:
        _, g = match_trees_detailed(tree, tree, SftmParams(alpha=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = edge_count(g)
    assert edges == 90_002
    assert peak / edges <= 65, f"{peak / edges:.1f} B per edge"
    # ints above 256 are built afresh, so per-edge ints would be distinct objects
    for ends in (g.edge_n, g.edge_m):
        assert len(set(map(id, ends))) == len(set(ends)) == 302
