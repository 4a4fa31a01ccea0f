from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from treematch.tree import DraftNode, LabeledTree, freeze

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

# ways to spoil a written bundle that ``load_bundle`` must refuse
SPOILS = ("deep-log", "source.html.json", "mutant.html.json")


def spoil_bundle(directory: Path, how: str) -> str:
    """Spoil one file of the bundle at ``directory``: nest its log too deeply
    to read, or give a second node of one tree (``how`` names its file) the
    signature of the first signed node. Returns what the error must name."""
    if how == "deep-log":
        (directory / "mutations.json").write_text("[" * 100_000, encoding="utf-8")
        return "mutation log nested too deeply to read"
    doc = json.loads((directory / how).read_text(encoding="utf-8"))
    signatures = doc["signatures"]
    first = next(k for k, signature in enumerate(signatures) if signature is not None)
    signatures[first + 1] = signatures[first]
    (directory / how).write_text(json.dumps(doc), encoding="utf-8")
    return f"{how} carries signature {signatures[first]!r} on more than one node"


def build(tag: str, *children: DraftNode, attrs=None, text=None) -> DraftNode:
    return DraftNode(tag=tag, attrs=list(attrs or []), text=text, children=list(children))


@pytest.fixture
def three_node_page() -> LabeledTree:
    return freeze(build("html", build("body", build("p", text="hi"))))


@pytest.fixture
def corpus_pages() -> list[Path]:
    pages = sorted(CORPUS_DIR.glob("*.html"))
    if not pages:
        pytest.skip("bundled corpus not generated")
    return pages
