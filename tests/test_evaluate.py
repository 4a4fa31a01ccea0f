from __future__ import annotations

import math
import signal
import time
from dataclasses import replace
from pathlib import Path

import pytest

from treematch.evaluate import (
    BenchRow,
    CorpusError,
    Degenerate,
    MutantBundle,
    _run_with_timeout,
    discover_bundles,
    evaluate_pair,
    load_bundle,
    optimal_rate,
    run_benchmark,
    scaling_fit,
    score_matching,
    sensitivity_sweep,
    write_bench_csv,
    write_bundle,
)
from treematch.graph import Matching
from treematch.mutate import MutationLog, assign_signatures, ground_truth, mutate
from treematch.similarity import SftmParams
from treematch.tree import DraftNode, freeze

PARAMS = SftmParams(iterations=20)


def page(width: int = 3):
    sections = [
        DraftNode(
            tag="section",
            attrs=[("id", f"s{k}"), ("class", "card main")],
            children=[
                DraftNode(tag="h2", text=f"head {k}"),
                DraftNode(tag="p", attrs=[("class", "txt")], text="lorem ipsum dolor"),
            ],
        )
        for k in range(width)
    ]
    return assign_signatures(
        freeze(DraftNode(tag="html", children=[DraftNode(tag="body", children=sections)]))
    )


def matching_of(pairs, t1_size, t2_size):
    return Matching(tuple(pairs), tuple(0.5 for _ in pairs), t1_size, t2_size)


def empty_log(ratio=0.0, removed=(), page_name="p"):
    return MutationLog(
        source_page=page_name, seed=0, ratio=ratio, ops=(),
        removed_signatures=frozenset(removed),
    )


class TestScoreMatching:
    def test_perfect(self):
        truth = {(0, 0), (1, 1), (2, 2)}
        report = score_matching(matching_of([(0, 0), (1, 1), (2, 2)], 3, 3), truth, 3)
        assert report.successful == 3
        assert report.mismatch == 0
        assert report.no_match == 0
        assert report.successful_match_rate == 1.0

    def test_empty_matching(self):
        truth = {(0, 0), (1, 1)}
        report = score_matching(matching_of([], 2, 2), truth, 2)
        assert report.no_match == 2
        assert report.successful_match_rate == 0.0

    def test_one_wrong_pair(self):
        truth = {(0, 0), (1, 1), (2, 2)}
        report = score_matching(matching_of([(0, 0), (1, 2), (2, 1)], 3, 3), truth, 3)
        assert report.successful == 1
        assert report.mismatch == 2

    def test_partition_always_holds(self):
        truth = {(0, 1)}
        for pairs in ([], [(0, 0)], [(0, 1), (1, 0)], [(1, 2)]):
            report = score_matching(matching_of(pairs, 3, 3), truth, 3)
            assert report.successful + report.mismatch + report.no_match == 3


class TestOptimalRate:
    def test_no_removals(self):
        assert optimal_rate(100, empty_log()) == 1.0

    def test_ten_percent_removed(self):
        log = empty_log(removed=[f"s{k}" for k in range(10)])
        assert optimal_rate(100, log) == pytest.approx(0.9)

    def test_all_removed(self):
        log = empty_log(removed=[f"s{k}" for k in range(5)])
        assert optimal_rate(5, log) == 0.0


class TestBundles:
    def test_write_load_round_trip(self, tmp_path):
        source = page()
        mutant, log = mutate(source, 0.25, seed=3, source_page="pg")
        write_bundle(tmp_path / "b0", source, mutant, log)
        bundle = load_bundle(tmp_path / "b0")
        assert bundle.log == log
        assert len(bundle.source) == len(source)
        assert len(bundle.mutant) == len(mutant)
        assert ground_truth(bundle.source, bundle.mutant) == ground_truth(source, mutant)

    def test_missing_file_raises(self, tmp_path):
        (tmp_path / "broken").mkdir()
        (tmp_path / "broken" / "mutations.json").write_text("{}")
        with pytest.raises(CorpusError):
            load_bundle(tmp_path / "broken")

    def test_discover_sorted(self, tmp_path):
        source = page()
        for name in ("z9", "a1", "m5"):
            mutant, log = mutate(source, 0.1, seed=1, source_page=name)
            write_bundle(tmp_path / name, source, mutant, log)
        found = discover_bundles(tmp_path)
        assert [p.name for p in found] == ["a1", "m5", "z9"]


def make_corpus(tmp_path: Path, pages: int = 2, mutants: int = 2) -> Path:
    corpus = tmp_path / "corpus"
    for p in range(pages):
        source = page(width=3 + p)
        for k in range(mutants):
            ratio = 0.4 * k / mutants
            mutant, log = mutate(source, ratio, seed=p * 100 + k,
                                 source_page=f"page{p}")
            write_bundle(corpus / f"page{p}__m{k}", source, mutant, log)
    return corpus


class TestRunBenchmark:
    def test_rows_per_pair_and_algorithm(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        rows = run_benchmark(corpus, PARAMS, algorithms=("similarity", "ted"),
                             timeout_s=None)
        assert len(rows) == 2
        assert {r.algorithm for r in rows} == {"similarity", "ted"}
        for row in rows:
            assert row.timeout is False
            read = row.algorithm == "similarity"
            assert (row.alpha, row.seed) == ((PARAMS.alpha, PARAMS.seed) if read else (None, None))
            assert row.successful + row.mismatch + row.no_match == row.n_nodes

    def test_identity_bundle_scores_one(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)  # ratio 0 mutant
        rows = run_benchmark(corpus, PARAMS, timeout_s=None)
        assert rows[0].rate == 1.0
        assert rows[0].optimal_rate == 1.0

    def test_quality_columns_reproducible(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=2, mutants=2)
        rows_a = run_benchmark(corpus, PARAMS, timeout_s=None)
        rows_b = run_benchmark(corpus, PARAMS, timeout_s=None)
        strip = lambda rows: [
            (r.page, r.algorithm, r.n_nodes, r.mutation_ratio, r.mismatch,
             r.no_match, r.successful, r.rate, r.optimal_rate, r.alpha,
             r.seed, r.timeout)
            for r in rows
        ]
        assert strip(rows_a) == strip(rows_b)

    def test_timeout_row_has_no_quality_fields(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        bundle = load_bundle(discover_bundles(corpus)[0])
        row = evaluate_pair(bundle, "similarity",
                            SftmParams(iterations=2000), timeout_s=1e-4)
        assert row.timeout is True
        assert row.rate is None and row.mismatch is None and row.successful is None

    def test_lost_alarm_still_counts_as_timeout(self):
        # stands in for an alarm whose exception Python dropped (raised
        # inside a gc callback): fn returns normally, but past the cap
        def swallow_alarm():
            signal.signal(signal.SIGALRM, lambda signum, frame: None)
            time.sleep(0.05)
            return "done"

        before = signal.getsignal(signal.SIGALRM)
        result, elapsed, timed_out = _run_with_timeout(swallow_alarm, 0.01)
        assert timed_out is True and result is None and elapsed >= 0.01
        assert signal.getsignal(signal.SIGALRM) is before
        assert _run_with_timeout(lambda: "quick", 10.0)[::2] == ("quick", False)

    def test_malformed_bundle_strict_vs_skip(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        bad = corpus / "bad"
        bad.mkdir()
        (bad / "mutations.json").write_text("{}", encoding="utf-8")
        with pytest.raises(CorpusError):
            run_benchmark(corpus, PARAMS, timeout_s=None)
        warnings: list[str] = []
        rows = run_benchmark(corpus, PARAMS, timeout_s=None,
                             skip_malformed=True, warn=warnings.append)
        assert len(rows) == 1
        assert len(warnings) == 1

    def test_unknown_algorithm_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        with pytest.raises(ValueError):
            run_benchmark(corpus, PARAMS, algorithms=("apted",))

    def test_parallel_matches_sequential(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=2, mutants=2)
        seq = run_benchmark(corpus, PARAMS, timeout_s=None)
        par = run_benchmark(corpus, PARAMS, timeout_s=None, jobs=2)
        strip = lambda rows: [(r.page, r.algorithm, r.rate, r.successful) for r in rows]
        assert strip(seq) == strip(par)


class TestSweep:
    def test_one_row_per_alpha(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=2)
        rows = sensitivity_sweep(corpus, [0.5], PARAMS)
        assert len(rows) == 1
        assert rows[0].alpha == 0.5
        assert rows[0].pairs == 2

    def test_empty_corpus_empty_table(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert sensitivity_sweep(empty, [0.3, 0.5], PARAMS) == []

    def test_three_alphas(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        rows = sensitivity_sweep(corpus, [0.3, 0.5, 0.8], PARAMS)
        assert [r.alpha for r in rows] == [0.3, 0.5, 0.8]

    def test_means_are_the_bench_means(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=2, mutants=2)
        for alpha in (0.3, 0.8):
            [swept] = sensitivity_sweep(corpus, [alpha], PARAMS)
            rows = run_benchmark(corpus, replace(PARAMS, alpha=alpha), timeout_s=None)
            assert swept.pairs == len(rows) == 4
            assert swept.mean_rate == sum(r.rate for r in rows) / len(rows)

    def test_malformed_bundle_raises(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        bad = corpus / "bad"
        bad.mkdir()
        (bad / "mutations.json").write_text("{}", encoding="utf-8")
        with pytest.raises(CorpusError):
            sensitivity_sweep(corpus, [0.5], PARAMS)


class TestScalingFit:
    def row(self, n, elapsed):
        return BenchRow(
            page="p", algorithm="similarity", n_nodes=n, mutation_ratio=0.0,
            elapsed_s=elapsed, mismatch=0, no_match=0, successful=n, rate=1.0,
            optimal_rate=1.0, alpha=0.5, seed=0, timeout=False,
        )

    def test_exact_linear_data(self):
        rows = [self.row(n, 2e-6 * n * math.log(n) + 0.01) for n in
                (100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200)]
        slope, intercept, r2 = scaling_fit(rows)
        assert r2 == pytest.approx(1.0)
        assert slope == pytest.approx(2e-6, rel=1e-9)
        assert intercept == pytest.approx(0.01, rel=1e-6)

    def test_constant_times(self):
        rows = [self.row(n, 0.5) for n in (100, 1000, 10000)]
        slope, _, _ = scaling_fit(rows)
        assert slope == pytest.approx(0.0, abs=1e-15)

    def test_degenerate(self):
        rows = [self.row(500, 0.1), self.row(500, 0.2)]
        with pytest.raises(Degenerate):
            scaling_fit(rows)
        with pytest.raises(Degenerate):
            scaling_fit([])


class TestCsv:
    def test_header_and_empty_cells(self, tmp_path):
        rows = [
            BenchRow(page="p", algorithm="similarity", n_nodes=5, mutation_ratio=0.1,
                     elapsed_s=0.5, mismatch=None, no_match=None, successful=None,
                     rate=None, optimal_rate=None, alpha=0.5, seed=0, timeout=True),
            BenchRow(page="q", algorithm="ted", n_nodes=7, mutation_ratio=0.2,
                     elapsed_s=1.25, mismatch=1, no_match=2, successful=4,
                     rate=4 / 7, optimal_rate=6 / 7, alpha=0.5, seed=3, timeout=False),
        ]
        out = tmp_path / "r.csv"
        write_bench_csv(rows, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("page,algorithm,n_nodes,mutation_ratio,elapsed_s,"
                            "mismatch,no_match,successful,rate,optimal_rate,"
                            "alpha,seed,timeout")
        assert lines[1] == "p,similarity,5,0.1,0.5,,,,,,0.5,0,1"
        assert lines[2] == "q,ted,7,0.2,1.25,1,2,4,0.5714285714285714,0.8571428571428571,0.5,3,0"

    def test_write_is_deterministic(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=2)
        rows = run_benchmark(corpus, PARAMS, timeout_s=None)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_bench_csv(rows, a)
        write_bench_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()
