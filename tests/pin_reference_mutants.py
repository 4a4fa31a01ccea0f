"""Pin the reference mutator's output on the bundled corpus.

Runs ``reference_mutate`` (the full-rescan mutator in ``oracles.py``) over
every (page, ratio, seed) case of the matrix below and writes one sha256 per
case to ``reference_mutants.json``: the digest of the mutant JSON and the log
JSON, or of the ``ExhaustedTargets`` message. ``test_mutate.py`` compares the
fast mutator with these digests, so the slow reference need not run on the
large pages in every test run.

Regenerate only from a commit whose reference is trusted:

    PYTHONPATH=src python tests/pin_reference_mutants.py [OUT]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from oracles import reference_mutate, reference_serialize_tree_json
from treematch.mutate import ExhaustedTargets, assign_signatures, mutation_log_to_json
from treematch.tree import LabeledTree, parse_html

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
PINNED_FILE = Path(__file__).resolve().parent / "reference_mutants.json"

PAGES = ("p00", "p01", "p04", "p06", "p08", "p13")
RATIOS = (0.02, 0.1, 0.2, 0.3, 0.5)
SEEDS = (0, 1, 2, 3, 100003, 100004, 100005, 100006)


def page_tree(prefix: str) -> LabeledTree:
    [page] = CORPUS_DIR.glob(f"{prefix}_*.html")
    return assign_signatures(parse_html(page.read_bytes()))


def outcome(fn, tree: LabeledTree, ratio: float, seed: int) -> tuple[str, str]:
    """(mutant JSON, log JSON), or ("exhausted", the ExhaustedTargets message).

    The mutant is written in the nested format-1 JSON of
    ``reference_serialize_tree_json``, the text the digests were pinned on."""
    try:
        mutant, log = fn(tree, ratio, seed, "page")
    except ExhaustedTargets as exc:
        return ("exhausted", str(exc))
    return reference_serialize_tree_json(mutant), mutation_log_to_json(log)


def digest(result: tuple[str, str]) -> str:
    return hashlib.sha256("\n".join(result).encode("utf-8")).hexdigest()


def case_key(prefix: str, ratio: float, seed: int) -> str:
    return f"{prefix} {ratio!r} {seed}"


def main(out: Path) -> None:
    pinned = {}
    for prefix in PAGES:
        tree = page_tree(prefix)
        for ratio in RATIOS:
            for seed in SEEDS:
                result = outcome(reference_mutate, tree, ratio, seed)
                pinned[case_key(prefix, ratio, seed)] = digest(result)
    out.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} digests to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PINNED_FILE)
