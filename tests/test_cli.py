from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from conftest import SPOILS, spoil_bundle
from treematch import cli, evaluate
from treematch.cli import build_parser, main
from treematch.evaluate import discover_bundles, load_bundle
from treematch.graph import matching_to_json
from treematch.pipeline import match_trees
from treematch.similarity import SftmParams
from treematch.tree import parse_html, serialize_tree_json

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


def only_error_line(err: str) -> str:
    """The one ``error:`` line of ``err``, which must be its last line."""
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:], err
    assert "Traceback" not in err
    return lines[-1]


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

    def test_every_node_has_its_own_xpath(self, tmp_path):
        # unescaped, the tag "a[1]" would spell the first "a"'s xpath
        page = tmp_path / "odd.html"
        page.write_text("<r><a></a><a></a><a[1]></a[1]></r>", encoding="utf-8")
        out = tmp_path / "m.json"
        assert main(["match", str(page), str(page), "--out", str(out)]) == 0
        matching = json.loads(out.read_text())
        for side in ("t1", "t2"):
            xpaths = [pair[side + "_xpath"] for pair in matching["pairs"]]
            xpaths += matching["unmatched_" + side]
            assert sorted(xpaths) == ["/r", "/r/a[1]", "/r/a[2]", "/r/a\\[1]"]

    def test_json_trees_match_as_their_html_does(self, page_file, tmp_path):
        tree = tmp_path / "demo.json"
        tree.write_text(serialize_tree_json(parse_html(PAGE)), encoding="utf-8")
        outs = tmp_path / "from_json.json", tmp_path / "from_html.json"
        assert main(["match", str(tree), str(tree), "--out", str(outs[0])]) == 0
        assert main(["match", str(page_file), str(page_file), "--out", str(outs[1])]) == 0
        assert outs[0].read_text() == outs[1].read_text()

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

    @pytest.mark.parametrize("flag", [["--weights", "1.0,nan"], ["--no-match-cost", "nan"],
                                      ["--beta", "inf"]])
    def test_non_finite_param_exits_one(self, page_file, tmp_path, capsys, flag):
        out = tmp_path / "m.json"
        code = main(["match", str(page_file), str(page_file), *flag, "--out", str(out)])
        assert code == 1
        assert "finite" in only_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_unwritable_out_exits_one(self, page_file, tmp_path, capsys):
        out = tmp_path / "missing" / "m.json"
        code = main(["match", str(page_file), str(page_file), "--out", str(out)])
        assert code == 1
        assert str(out) in only_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("algorithm", ["similarity", "ted"])
    def test_out_checked_before_any_work(self, page_file, tmp_path, capsys, monkeypatch,
                                         algorithm):
        def run(*args, **kwargs):
            pytest.fail("a tree was loaded or matched")

        for name in ("_load_tree", "ted_match", "match_trees_detailed"):
            monkeypatch.setattr(cli, name, run)
        out = tmp_path / "missing" / "m.json"
        code = main(["match", str(page_file), str(page_file), "--algorithm", algorithm,
                     "--out", str(out)])
        assert code == 1
        assert only_error_line(capsys.readouterr().err) == (
            f"error: --out {str(out)!r} is in no existing directory"
        )


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


    def test_600_level_page_gets_a_bundle(self, tmp_path):
        # nested JSON stopped just under 500 levels; the column format has no limit
        depth = 600
        deep = tmp_path / "deep.html"
        deep.write_text("<div>" * depth + "</div>" * depth, encoding="utf-8")
        out_dir = tmp_path / "bundles"
        code = main(["mutate", str(deep), "--ratio", "0.2", "--count", "1",
                     "--out-dir", str(out_dir)])
        assert code == 0
        [bundle_dir] = discover_bundles(out_dir)
        bundle = load_bundle(bundle_dir)
        assert len(bundle.source) == depth
        assert bundle.source.xpaths()[-1] == "/div" * depth

    # 0.6 puts mutants 9 and up past 0.5; a negative ratio makes mutant 0's -0.0
    @pytest.mark.parametrize("ratio, count", [("0.6", "10"), ("-0.1", "3"), ("nan", "1")])
    def test_ratio_out_of_range_writes_nothing(self, page_file, tmp_path, capsys, ratio,
                                               count):
        out_dir = tmp_path / "bundles"
        code = main(["mutate", str(page_file), "--ratio", ratio, "--count", count,
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert only_error_line(capsys.readouterr().err) == (
            f"error: --ratio {float(ratio)} with --count {count} gives a mutant "
            "a ratio outside [0, 0.5]"
        )
        assert not out_dir.exists()

    def test_out_dir_that_is_a_file_is_refused_before_loading(self, page_file, tmp_path,
                                                               capsys, monkeypatch):
        def load(*args, **kwargs):
            pytest.fail("the source was loaded")

        monkeypatch.setattr(cli, "_load_tree", load)
        out_dir = tmp_path / "taken"
        out_dir.write_text("", encoding="utf-8")
        code = main(["mutate", str(page_file), "--ratio", "0.2", "--count", "2",
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert only_error_line(capsys.readouterr().err) == (
            f"error: --out-dir {str(out_dir)!r} is not a directory"
        )
        assert out_dir.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_a_usage_error(self, page_file, tmp_path, capsys, count):
        out_dir = tmp_path / "bundles"
        with pytest.raises(SystemExit) as exc:
            main(["mutate", str(page_file), "--count", count, "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert (f"argument --count: expected an integer of at least 1, got {count!r}"
                in capsys.readouterr().err)
        assert not out_dir.exists()


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
              "--tokenize-content"])
        assert ("[treematch bench] alpha=0.5 weights=(1.0, 0.5, 0.25) beta=4.0 "
                "gamma=0.9 iterations=10 no_match_cost=1.0 seed=0 "
                "include_content=True\n") in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "r.csv.config.json").read_text())
        assert sidecar["params"]["tokens"] == {"include_content": True}
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

    def test_bundle_with_log_of_the_wrong_shape_skipped_with_warning(
        self, page_file, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "2",
              "--out-dir", str(corpus)])
        bad = sorted(p.parent for p in corpus.glob("**/mutations.json"))[0]
        (bad / "mutations.json").write_text("[]", encoding="utf-8")
        out = tmp_path / "r.csv"
        code = main(["bench", str(corpus), "--out", str(out), "--iterations", "10"])
        assert code == 0
        captured = capsys.readouterr()
        assert f"warning: bad bundle {bad}: " in captured.err
        assert "rows=1 skipped=1" in captured.out
        assert len(out.read_text().strip().split("\n")) == 2

    @pytest.mark.parametrize("removed,named", [
        ("s00001", "removed_signatures"),  # a string where a list of them belongs
        (["zzz"], "removed signature 'zzz'"),  # no node of the source tree carries it
    ], ids=["string", "unknown-signature"])
    def test_bundle_whose_log_removes_what_it_cannot_skipped_with_warning(
        self, page_file, tmp_path, capsys, removed, named
    ):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "2",
              "--out-dir", str(corpus)])
        bad = sorted(p.parent for p in corpus.glob("**/mutations.json"))[0]
        log = json.loads((bad / "mutations.json").read_text(encoding="utf-8"))
        log["removed_signatures"] = removed
        (bad / "mutations.json").write_text(json.dumps(log), encoding="utf-8")
        out = tmp_path / "r.csv"
        code = main(["bench", str(corpus), "--out", str(out), "--iterations", "10"])
        assert code == 0
        captured = capsys.readouterr()
        assert f"warning: bad bundle {bad}: " in captured.err
        assert named in captured.err
        assert "rows=1 skipped=1" in captured.out
        assert len(out.read_text().strip().split("\n")) == 2

    @pytest.mark.parametrize("how", SPOILS)
    def test_deep_log_or_repeated_signature_skipped_with_warning(
        self, page_file, tmp_path, capsys, how
    ):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "2",
              "--out-dir", str(corpus)])
        bad = sorted(p.parent for p in corpus.glob("**/mutations.json"))[0]
        named = spoil_bundle(bad, how)
        out = tmp_path / "r.csv"
        code = main(["bench", str(corpus), "--out", str(out), "--iterations", "10"])
        assert code == 0
        captured = capsys.readouterr()
        assert [line for line in captured.err.splitlines() if line.startswith("warning:")] == [
            f"warning: bad bundle {bad}: {named}"]
        assert "rows=1 skipped=1" in captured.out
        assert len(out.read_text().strip().split("\n")) == 2

    def test_corpus_of_only_malformed_bundles_exits_one(self, page_file, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "2",
              "--out-dir", str(corpus)])
        bad = sorted(p.parent for p in corpus.glob("**/mutations.json"))
        for directory in bad:
            (directory / "mutations.json").write_text("[]", encoding="utf-8")
        out = tmp_path / "r.csv"
        capsys.readouterr()
        code = main(["bench", str(corpus), "--out", str(out), "--iterations", "10"])
        assert code == 1
        captured = capsys.readouterr()
        assert "rows=0 skipped=2" in captured.out
        assert only_error_line(captured.err) == "error: every bundle in the corpus was malformed"
        assert len(out.read_text().strip().split("\n")) == 1  # the header

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

    def test_every_alpha_checked_before_any_pair_runs(self, page_file, tmp_path, capsys,
                                                        monkeypatch):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "1",
              "--out-dir", str(corpus)])
        capsys.readouterr()

        def run(*args, **kwargs):
            pytest.fail("a pair ran")

        monkeypatch.setattr(evaluate, "run_benchmark", run)
        out = tmp_path / "s.csv"
        code = main(["sweep", str(corpus), "--alphas", "0.5,1.5", "--out", str(out)])
        assert code == 1
        assert only_error_line(capsys.readouterr().err) == (
            "error: alpha must be in (0, 1], got 1.5"
        )
        assert not out.exists() and not Path(str(out) + ".config.json").exists()


class TestRepeatedItemsRefused:
    """bench and sweep refuse an item listed twice before any pair runs,
    which would otherwise run every pair twice and write duplicate rows."""

    @pytest.fixture
    def corpus(self, page_file, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "2",
              "--out-dir", str(corpus)])
        capsys.readouterr()
        return corpus

    @staticmethod
    def rejected(capsys, out, *argv) -> str:
        code = main([*argv, "--out", str(out)])
        assert code == 1
        assert not out.exists() and not Path(str(out) + ".config.json").exists()
        return only_error_line(capsys.readouterr().err)

    def test_bench_algorithm_listed_twice(self, corpus, tmp_path, capsys, monkeypatch):
        def listed(*args, **kwargs):
            pytest.fail("the corpus was read")

        monkeypatch.setattr(evaluate, "discover_bundles", listed)
        line = self.rejected(capsys, tmp_path / "r.csv",
                             "bench", str(corpus), "--algorithms", "ted,similarity,ted")
        assert line == "error: algorithm 'ted' is listed twice"

    @pytest.mark.parametrize("alphas", ["0.5,0.5", "0.5,0.8,0.50"])
    def test_sweep_alpha_listed_twice(self, corpus, tmp_path, capsys, monkeypatch, alphas):
        def run(*args, **kwargs):
            pytest.fail("a pair ran")

        monkeypatch.setattr(evaluate, "run_benchmark", run)
        line = self.rejected(capsys, tmp_path / "s.csv", "sweep", str(corpus), "--alphas", alphas)
        assert line == "error: alpha 0.5 is listed twice"


class TestCsvInputsCheckedFirst:
    """bench and sweep reject their inputs with one error line before any pair runs."""

    LIST_FLAG = {"bench": "--algorithms", "sweep": "--alphas"}

    @pytest.fixture(autouse=True)
    def no_pair_runs(self, monkeypatch):
        def run(*args, **kwargs):
            pytest.fail("a pair ran")

        monkeypatch.setattr(cli, "run_benchmark", run)
        monkeypatch.setattr(cli, "sensitivity_sweep", run)

    def rejected(self, command, corpus, out, capsys, *flags) -> str:
        code = main([command, str(corpus), "--out", str(out), *flags])
        assert code == 1
        assert not out.exists() and not Path(str(out) + ".config.json").exists()
        return only_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    @pytest.mark.parametrize("listed", ["", ","])
    def test_empty_list(self, tmp_path, capsys, command, listed):
        flag = self.LIST_FLAG[command]
        line = self.rejected(command, tmp_path, tmp_path / "r.csv", capsys, f"{flag}={listed}")
        assert line == f"error: {flag} {listed!r} lists nothing"

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_corpus_not_a_directory(self, page_file, tmp_path, capsys, command, kind):
        corpus = page_file if kind == "file" else tmp_path / "missing"
        line = self.rejected(command, corpus, tmp_path / "r.csv", capsys)
        assert line == f"error: corpus {str(corpus)!r} is not a directory"

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_out_in_missing_directory(self, page_file, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "1",
              "--out-dir", str(corpus)])
        out = tmp_path / "missing" / "r.csv"
        line = self.rejected(command, corpus, out, capsys)
        assert line == f"error: --out {str(out)!r} is in no existing directory"

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_out_is_a_directory(self, page_file, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        main(["mutate", str(page_file), "--ratio", "0.2", "--count", "1",
              "--out-dir", str(corpus)])
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        code = main([command, str(corpus), "--out", str(out)])
        assert code == 1
        assert only_error_line(capsys.readouterr().err) == (
            f"error: --out {str(out)!r} is a directory"
        )
        assert list(out.iterdir()) == []
        assert not Path(str(out) + ".config.json").exists()


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
    def test_flat_tokens_is_not_a_flag(self, command, tmp_path, capsys):
        # every token keeps its kind prefix; there is no flat namespace
        paths = ["a.html", "b.html"] if command == "match" else [str(tmp_path), "--out", "r.csv"]
        with pytest.raises(SystemExit) as exc:
            main([command, *paths, "--flat-tokens"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --flat-tokens" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["match", "bench", "sweep"])
    def test_every_param_documented(self, command, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        text = capsys.readouterr().out
        for flag in ("--alpha", "--weights", "--beta", "--gamma",
                     "--iterations", "--no-match-cost", "--seed", "--tokenize-content"):
            assert flag in text
        assert "--flat-tokens" not in text
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
