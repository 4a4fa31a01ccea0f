#!/usr/bin/env python3
"""Write the golden quality record of the matcher over the bundled corpus.

Every page of ``corpus/`` is mutated at each ratio and mutation seed, and
the mutant is matched against its source at ``SftmParams(seed=1)``. Each
run records the tree and edge counts, the graph's recall (the share of the
ground-truth pairs that have an edge) and, for the greedy start and for the
Metropolis walk, the match rate, the cost as ``float.hex`` and a sha256 of
the pairs with their cost hexes. The per-ratio means and the params close
the record. It holds no timing and is written with sorted keys, so a change
that keeps the matcher's outputs leaves the file byte for byte as it was.

    python3 scripts/quality.py                     # writes QUALITY.json
    python3 scripts/quality.py --pages p00 p01 --out /tmp/q.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treematch.evaluate import score_matching  # noqa: E402
from treematch.graph import Matching, edge_count, matching_cost  # noqa: E402
from treematch.mutate import assign_signatures, ground_truth, mutate  # noqa: E402
from treematch.optimize import initial_matching  # noqa: E402
from treematch.pipeline import match_trees_detailed  # noqa: E402
from treematch.similarity import SftmParams  # noqa: E402
from treematch.tree import parse_html  # noqa: E402

CORPUS = ROOT / "corpus"
RATIOS = (0.1, 0.2, 0.3)
SEEDS = (1, 2)
PARAMS = SftmParams(seed=1)


def outcome(matching: Matching, truth: set[tuple[int, int]], size: int) -> dict:
    """The rate, the cost and a digest of the pairs of one matching."""
    hexes = [cost.hex() for cost in matching.pair_costs]
    pairs = [[n, m, cost] for (n, m), cost in zip(matching.pairs, hexes)]
    return {
        "cost": matching_cost(matching, PARAMS).hex(),
        "pairs_sha256": hashlib.sha256(json.dumps(pairs).encode()).hexdigest(),
        "rate": score_matching(matching, truth, size).successful_match_rate,
    }


def run(page: Path, ratio: float, seed: int) -> dict:
    source = assign_signatures(parse_html(page.read_bytes()))
    mutant, _ = mutate(source, ratio, seed, page.stem)
    truth = ground_truth(source, mutant)
    walk, g = match_trees_detailed(source, mutant, PARAMS)
    edges = set(zip(g.edge_n, g.edge_m))
    return {
        "edges": edge_count(g),
        "greedy": outcome(initial_matching(g, PARAMS), truth, len(source)),
        "mutant_nodes": len(mutant),
        "page": page.stem,
        "ratio": ratio,
        "recall": len(truth & edges) / len(truth),
        "seed": seed,
        "source_nodes": len(source),
        "walk": outcome(walk, truth, len(source)),
    }


def means(runs: list[dict]) -> dict:
    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    out = {}
    for ratio in sorted({r["ratio"] for r in runs}):
        rows = [r for r in runs if r["ratio"] == ratio]
        out[repr(ratio)] = {
            "greedy_rate": mean([r["greedy"]["rate"] for r in rows]),
            "recall": mean([r["recall"] for r in rows]),
            "runs": len(rows),
            "walk_rate": mean([r["walk"]["rate"] for r in rows]),
        }
    return out


def record(pages: list[Path]) -> str:
    """The record of every page x ratio x seed run, as the JSON text written."""
    runs = [run(page, ratio, seed) for page in pages for ratio in RATIOS for seed in SEEDS]
    body = {"means": means(runs), "params": asdict(PARAMS), "runs": runs}
    return json.dumps(body, indent=1, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pages", nargs="+", metavar="PREFIX",
                        help="only the corpus pages whose names start with these (default: all)")
    parser.add_argument("--out", type=Path, default=ROOT / "QUALITY.json")
    args = parser.parse_args(argv)
    pages = sorted(CORPUS.glob("*.html"))
    if args.pages:
        pages = [p for p in pages if p.name.startswith(tuple(args.pages))]
    if not pages:
        parser.error(f"no corpus page in {CORPUS} matches")
    args.out.write_text(record(pages), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
