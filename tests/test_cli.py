from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from treematch.cli import build_parser, main
from treematch.evaluate import load_bundle
from treematch.graph import matching_to_json
from treematch.pipeline import match_trees
from treematch.similarity import SftmParams
from treematch.tree import parse_html

PAGE = """
<html>
 <head><title>demo</title></head>
 <body>
  <nav class="top nav"><ul><li><a href="/a">A</a></li><li><a href="/b">B</a></li></ul></nav>
  <main id="content">
   <h1>Demo page</h1>
   <section class="card"><h2>one</h2><p class="txt">first words here</p></section>
   <section class="card"><h2>two</h2><p class="txt">second words there</p></section>
  </main>
  <footer id="foot"><p>fine print</p></footer>
 </body>
</html>
"""


@pytest.fixture
def page_file(tmp_path) -> Path:
    path = tmp_path / "demo.html"
    path.write_text(PAGE, encoding="utf-8")
    return path


class TestMatchCommand:
    def test_self_match_exits_zero(self, page_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["match", str(page_file), str(page_file), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "unmatched_t1=0 unmatched_t2=0" in stdout
        matching = json.loads(out.read_text())
        assert matching["unmatched_t1"] == []
        assert matching["unmatched_t2"] == []

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["match", str(tmp_path / "nope.html"), str(tmp_path / "nope.html"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_ted_algorithm(self, page_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["match", str(page_file), str(page_file),
                     "--algorithm", "ted", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["unmatched_t1"] == []

    @pytest.mark.parametrize("algorithm", ["similarity", "ted"])
    def test_only_the_graph_matcher_reports_edges(self, page_file, tmp_path, capsys, algorithm):
        # TED builds no graph, so its summary has no edge count
        code = main(["match", str(page_file), str(page_file), "--algorithm", algorithm,
                     "--out", str(tmp_path / "m.json")])
        assert code == 0
        keys = [item.split("=")[0] for item in capsys.readouterr().out.split()]
        edges = ["edges"] if algorithm == "similarity" else []
        assert keys == ["t1_nodes", "t2_nodes", *edges, "pairs", "unmatched_t1",
                        "unmatched_t2", "best_cost", "elapsed_s", "out"]

    def test_config_echoed(self, page_file, tmp_path, capsys):
        main(["match", str(page_file), str(page_file),
              "--out", str(tmp_path / "m.json"), "--alpha", "0.8"])
        err = capsys.readouterr().err
        assert "alpha=0.8" in err

    def test_ted_echoes_only_what_it_reads(self, page_file, tmp_path, capsys):
        code = main(["match", str(page_file), str(page_file), "--algorithm", "ted",
                     "--alpha", "0.9", "--out", str(tmp_path / "m.json")])
        assert code == 0
        err = capsys.readouterr().err
        assert "[treematch match] algorithm=ted no_match_cost=1.0\n" in err
        assert "alpha" not in err

    def test_empty_document_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "empty.html"
        bad.write_text("", encoding="utf-8")
        code = main(["match", str(bad), str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_one_weight_runs_depth_zero(self, page_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["match", str(page_file), str(page_file), "--weights", "1.0",
                     "--out", str(out)])
        assert code == 0
        assert "[treematch match] alpha=0.5 weights=(1.0,) beta=4.0 " in capsys.readouterr().err
        tree = parse_html(page_file.read_bytes())
        matching = match_trees(tree, tree, SftmParams(weights=(1.0,)))
        assert out.read_text() == matching_to_json(matching, tree, tree) + "\n"

    def test_no_weights_exits_one(self, page_file, tmp_path, capsys):
        code = main(["match", str(page_file), str(page_file), "--weights", "",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["1.0,,0.5", "1.0,0.5,", ",1.0"])
    def test_empty_weight_item_exits_one(self, page_file, tmp_path, capsys, weights):
        out = tmp_path / "m.json"
        code = main(["match", str(page_file), str(page_file), "--weights", weights,
                     "--out", str(out)])
        assert code == 1
        assert f"error: --weights {weights!r} has an empty item" in capsys.readouterr().err
        assert not out.exists()


class TestMutateCommand:
    def test_ratios_span_evenly(self, page_file, tmp_path):
        out_dir = tmp_path / "bundles"
        code = main(["mutate", str(page_file), "--ratio", "0.5", "--count", "10",
                     "--out-dir", str(out_dir), "--seed", "3"])
        assert code == 0
        bundles = sorted(out_dir.iterdir())
        assert len(bundles) == 10
        ratios = [load_bundle(b).log.ratio for b in bundles]
        assert ratios == pytest.approx([0.05 * k for k in range(10)])

    def test_count_one_ratio_zero_identity_bundle(self, page_file, tmp_path):
        out_dir = tmp_path / "bundles"
        main(["mutate", str(page_file), "--ratio", "0", "--count", "1",
              "--out-dir", str(out_dir)])
        bundle = load_bundle(next(out_dir.iterdir()))
        assert len(bundle.source) == len(bundle.mutant)
        assert bundle.log.ops == ()
        src = [(n.tag, n.attributes, n.text) for n in bundle.source]
        dst = [(n.tag, n.attributes, n.text) for n in bundle.mutant]
        assert src == dst

    def test_config_echoed(self, page_file, tmp_path, capsys):
        main(["mutate", str(page_file), "--ratio", "0.1", "--count", "1",
              "--out-dir", str(tmp_path / "bundles"), "--seed", "3"])
        err = capsys.readouterr().err
        assert "[treematch mutate] seed=3 ratio=0.1 count=1" in err
        assert "alpha" not in err

    def test_byte_identical_with_same_seed(self, page_file, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            main(["mutate", str(page_file), "--ratio", "0.4", "--count", "3",
                  "--out-dir", str(d), "--seed", "9"])
        for b1, b2 in zip(sorted(d1.rglob("*.json")), sorted(d2.rglob("*.json"))):
            assert b1.read_bytes() == b2.read_bytes()


    def test_too_deep_page_fails_cleanly(self, tmp_path, capsys):
        deep = tmp_path / "deep.html"
        deep.write_text("<div>" * 600 + "</div>" * 600, encoding="utf-8")
        code = main(["mutate", str(deep), "--ratio", "0.2", "--count", "1",
                     "--out-dir", str(tmp_path / "bundles")])
        assert code == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error:") for line in err.splitlines())
        assert "Traceback" not in err
        out_dir = tmp_path / "bundles"
        assert not (out_dir.exists() and any(p.is_dir() for p in out_dir.iterdir()))


class TestBenchCommand:
    def test_empty_corpus_header_only(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "r.csv"
        code = main(["bench", str(corpus), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("page,algorithm,")

    @pytest.mark.parametrize("timeout", ["inf", "-inf", "nan", "1e30"])
    def test_timeout_it_cannot_wait_for_exits_one(self, tmp_path, capsys, timeout):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "r.csv"
        code = main(["bench", str(corpus), "--out", str(out), f"--timeout={timeout}"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == err[-1:]
        assert err[-1].startswith("error: timeout ")
        assert not out.exists() and not (tmp_path / "r.csv.config.json").exists()

    def test_timeout_zero_disables_the_cap(self, page_file, tmp_path):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "1",
              "--out-dir", str(corpus)])
        out = tmp_path / "r.csv"
        code = main(["bench", str(corpus), "--out", str(out), "--iterations", "10",
                     "--timeout", "0"])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            assert [row["timeout"] for row in csv.DictReader(handle)] == ["0"]
        sidecar = json.loads((tmp_path / "r.csv.config.json").read_text())
        assert sidecar["timeout_s"] is None

    @pytest.mark.parametrize("jobs", ["0", "-4", "two"])
    def test_fewer_than_one_job_is_a_usage_error(self, tmp_path, capsys, jobs):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(corpus), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert (f"argument --jobs: expected an integer of at least 1, got {jobs!r}"
                in capsys.readouterr().err)
        assert not out.exists() and not (tmp_path / "r.csv.config.json").exists()

    def test_two_algorithms_two_rows_per_pair(self, page_file, tmp_path):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.3", "--count", "2",
              "--out-dir", str(corpus)])
        out = tmp_path / "r.csv"
        code = main(["bench", str(corpus), "--out", str(out),
                     "--algorithms", "similarity,ted", "--iterations", "15"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2
        sidecar = json.loads((tmp_path / "r.csv.config.json").read_text())
        assert sidecar["params"]["iterations"] == 15

    def test_ted_rows_leave_alpha_and_seed_empty(self, page_file, tmp_path):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.3", "--count", "2",
              "--out-dir", str(corpus)])
        out = tmp_path / "r.csv"
        main(["bench", str(corpus), "--out", str(out), "--algorithms", "similarity,ted",
              "--iterations", "15", "--alpha", "0.8", "--seed", "3"])
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert sorted(row["algorithm"] for row in rows) == ["similarity"] * 2 + ["ted"] * 2
        for row in rows:
            filled = row["algorithm"] == "similarity"
            assert (row["alpha"], row["seed"]) == (("0.8", "3") if filled else ("", ""))

    def test_sidecar_holds_the_token_switches(self, page_file, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "1",
              "--out-dir", str(corpus)])
        out = tmp_path / "r.csv"
        main(["bench", str(corpus), "--out", str(out), "--iterations", "10",
              "--flat-tokens", "--tokenize-content"])
        assert ("[treematch bench] alpha=0.5 weights=(1.0, 0.5, 0.25) beta=4.0 "
                "gamma=0.9 iterations=10 no_match_cost=1.0 seed=0 flat=True "
                "include_content=True\n") in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "r.csv.config.json").read_text())
        assert sidecar["params"]["tokens"] == {"flat": True, "include_content": True}
        assert sidecar["params"]["weights"] == [1.0, 0.5, 0.25]
        assert "p" not in sidecar["params"]
        assert "tokens" not in sidecar

    def test_corrupt_bundle_skipped_with_warning(self, page_file, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0", "--count", "1",
              "--out-dir", str(corpus)])
        bad = corpus / "corrupt"
        bad.mkdir()
        (bad / "mutations.json").write_text("{}", encoding="utf-8")
        out = tmp_path / "r.csv"
        code = main(["bench", str(corpus), "--out", str(out), "--iterations", "10"])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        assert len(out.read_text().strip().split("\n")) == 2

    def test_deterministic_quality_columns(self, page_file, tmp_path):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.4", "--count", "3",
              "--out-dir", str(corpus), "--seed", "5"])
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["bench", str(corpus), "--out", str(out), "--seed", "5",
                  "--iterations", "20"])
            rows = out.read_text().strip().split("\n")
            header = rows[0].split(",")
            drop = header.index("elapsed_s")
            outs.append([tuple(v for i, v in enumerate(r.split(",")) if i != drop)
                         for r in rows])
        assert outs[0] == outs[1]

    def test_flat_tokens_change_rows(self, page_file, tmp_path):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.4", "--count", "3",
              "--out-dir", str(corpus), "--seed", "4"])
        outs = []
        for name, flags in (("a.csv", []), ("b.csv", ["--flat-tokens"])):
            out = tmp_path / name
            main(["bench", str(corpus), "--out", str(out), "--iterations", "20", *flags])
            rows = out.read_text().strip().split("\n")
            drop = rows[0].split(",").index("elapsed_s")
            outs.append([[v for i, v in enumerate(r.split(",")) if i != drop] for r in rows])
        # same corpus and seed: only the token namespace differs, and on this
        # corpus it changes the matching of the most mutated page
        assert outs[0][:3] == outs[1][:3]
        assert outs[0][3] != outs[1][3]


class TestSweepCommand:
    def test_three_rows(self, page_file, tmp_path):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "2",
              "--out-dir", str(corpus)])
        out = tmp_path / "s.csv"
        code = main(["sweep", str(corpus), "--alphas", "0.3,0.5,0.8",
                     "--out", str(out), "--iterations", "10"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha,pairs,mean_rate,mean_elapsed_s"
        assert len(lines) == 4


class TestHelp:
    @pytest.mark.parametrize("command", ["match", "bench", "sweep"])
    def test_prop_depth_is_not_a_flag(self, command, tmp_path, capsys):
        # the count of --weights sets the depth; there is no second setting
        paths = ["a.html", "b.html"] if command == "match" else [str(tmp_path), "--out", "r.csv"]
        with pytest.raises(SystemExit) as exc:
            main([command, *paths, "--prop-depth", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --prop-depth 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["match", "bench", "sweep"])
    def test_every_param_documented(self, command, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        text = capsys.readouterr().out
        for flag in ("--alpha", "--weights", "--beta", "--gamma",
                     "--iterations", "--no-match-cost", "--seed",
                     "--flat-tokens", "--tokenize-content"):
            assert flag in text
        assert "default" in text

    def test_mutate_takes_only_the_seed(self, page_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", str(page_file), "--out-dir", str(tmp_path), "--alpha", "0.9"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mutate", "--help"])
        text = capsys.readouterr().out
        assert "--seed" in text
        assert "--alpha" not in text
