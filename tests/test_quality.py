"""``scripts/quality.py``, the golden quality record, on a two-page slice:
the same bytes under two string hash seeds, fields that equal the library's
own scoring, and runs that equal the checked-in ``QUALITY.json``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS_DIR
from treematch.evaluate import score_matching
from treematch.mutate import assign_signatures, ground_truth, mutate
from treematch.optimize import initial_matching
from treematch.pipeline import match_trees_detailed
from treematch.similarity import SftmParams
from treematch.tree import parse_html

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "quality.py"
PAGES = ("p00", "p01")


@pytest.fixture(scope="module")
def slice_text(tmp_path_factory) -> str:
    if not sorted(CORPUS_DIR.glob("*.html")):
        pytest.skip("bundled corpus not generated")
    texts = []
    for hash_seed in ("0", "1"):
        out = tmp_path_factory.mktemp("quality") / "q.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, str(SCRIPT), "--pages", *PAGES, "--out", str(out)],
                       check=True, env=env)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    return texts[0].decode("utf-8")


def test_slice_is_sorted_and_covers_every_run(slice_text):
    record = json.loads(slice_text)
    assert slice_text == json.dumps(record, indent=1, sort_keys=True) + "\n"
    assert record["params"]["seed"] == 1
    keys = [(r["page"][:3], r["ratio"], r["seed"]) for r in record["runs"]]
    assert keys == [(p, r, s) for p in PAGES for r in (0.1, 0.2, 0.3) for s in (1, 2)]
    for ratio, mean in record["means"].items():
        rows = [r for r in record["runs"] if repr(r["ratio"]) == ratio]
        assert mean["runs"] == len(rows) == 4
        assert mean["walk_rate"] == sum(r["walk"]["rate"] for r in rows) / len(rows)


def test_fields_equal_score_matching_and_the_graph(slice_text):
    params = SftmParams(seed=1)
    for row in json.loads(slice_text)["runs"]:
        path = next(CORPUS_DIR.glob(row["page"] + ".html"))
        source = assign_signatures(parse_html(path.read_bytes()))
        mutant, _ = mutate(source, row["ratio"], row["seed"], row["page"])
        truth = ground_truth(source, mutant)
        walk, g = match_trees_detailed(source, mutant, params)
        assert (row["source_nodes"], row["mutant_nodes"]) == (len(source), len(mutant))
        assert row["edges"] == len(g.edge_n) == len(g.edge_m)
        covered = sum(1 for n, m in truth if m in set(g.edge_m[i] for i in g.t1_adjacency[n]))
        assert row["recall"] == covered / len(truth)
        for name, matching in (("walk", walk), ("greedy", initial_matching(g, params))):
            report = score_matching(matching, truth, len(source))
            assert row[name]["rate"] == report.successful_match_rate


def test_slice_equals_the_checked_in_record(slice_text):
    checked_in = json.loads((ROOT / "QUALITY.json").read_text(encoding="utf-8"))
    runs = [r for r in checked_in["runs"] if r["page"].startswith(PAGES)]
    assert json.loads(slice_text)["runs"] == runs
    assert json.loads(slice_text)["params"] == checked_in["params"]
