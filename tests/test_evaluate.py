from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import SPOILS, spoil_bundle
from oracles import reference_serialize_tree_json
from strategies import tree_columns
from treematch import evaluate
from treematch.evaluate import (
    MUTANT_FILE,
    SOURCE_FILE,
    BenchRow,
    CorpusError,
    SweepRow,
    discover_bundles,
    evaluate_pair,
    load_bundle,
    optimal_rate,
    run_benchmark,
    score_matching,
    sensitivity_sweep,
    timeout_cap,
    write_bundle,
    write_csv,
)
from treematch.graph import Matching
from treematch.mutate import MutationLog, assign_signatures, ground_truth, mutate
from treematch.pipeline import match_trees
from treematch.similarity import SftmParams
from treematch.tree import DraftNode, freeze, parse_html

PARAMS = SftmParams(iterations=20)
# about 25 s of walking on the small test pages: far past every cap used here
LONG_WALK = SftmParams(iterations=10**6)
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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

    def test_format_1_bundles_still_load(self, tmp_path, corpus_pages):
        # bundles written before format 2 hold nested format-1 trees
        for path in corpus_pages[:9]:  # p00-p08
            source = assign_signatures(parse_html(path.read_bytes()))
            mutant, log = mutate(source, 0.2, seed=1, source_page=path.stem)
            new, old = tmp_path / f"{path.stem}-v2", tmp_path / f"{path.stem}-v1"
            for directory in (new, old):
                write_bundle(directory, source, mutant, log)
            for name, tree in ((SOURCE_FILE, source), (MUTANT_FILE, mutant)):
                (old / name).write_text(reference_serialize_tree_json(tree), encoding="utf-8")
            assert (old / SOURCE_FILE).read_bytes() != (new / SOURCE_FILE).read_bytes()
            got, want = load_bundle(old), load_bundle(new)
            assert tree_columns(got.source) == tree_columns(want.source) == tree_columns(source)
            assert tree_columns(got.mutant) == tree_columns(want.mutant) == tree_columns(mutant)
            assert got.log == want.log == log

    def test_10000_level_chain_end_to_end(self, tmp_path):
        # parse, mutate, write, load and match a chain far past the ~500
        # levels that nested JSON can hold; seed 2's duplicates grow the
        # mutant to about 2.5 times the source
        depth = 10_000
        source = assign_signatures(parse_html("<div>" * depth + "</div>" * depth))
        mutant, log = mutate(source, 0.02, seed=2, source_page="chain")
        write_bundle(tmp_path / "chain", source, mutant, log)
        bundle = load_bundle(tmp_path / "chain")
        assert tree_columns(bundle.source) == tree_columns(source)
        assert tree_columns(bundle.mutant) == tree_columns(mutant)
        matching = match_trees(bundle.source, bundle.mutant, SftmParams())
        assert matching.pairs
        assert score_matching(matching, ground_truth(source, mutant), depth).successful > 0

    def test_missing_file_raises(self, tmp_path):
        (tmp_path / "broken").mkdir()
        (tmp_path / "broken" / "mutations.json").write_text("{}")
        with pytest.raises(CorpusError):
            load_bundle(tmp_path / "broken")

    @pytest.mark.parametrize("log", [
        "[]",
        "null",
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "ops": [], "removed_signatures": 7}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "ops": ["swap"], "removed_signatures": []}',
        # each field of the wrong type or out of range
        '{"source_page": 7, "seed": 3, "ratio": 0.25, "ops": [], "removed_signatures": []}',
        '{"source_page": "pg", "seed": true, "ratio": 0.25, "ops": [], "removed_signatures": []}',
        '{"source_page": "pg", "seed": 3.0, "ratio": 0.25, "ops": [], "removed_signatures": []}',
        '{"source_page": "pg", "seed": 3, "ratio": "fifth", "ops": [], "removed_signatures": []}',
        '{"source_page": "pg", "seed": 3, "ratio": NaN, "ops": [], "removed_signatures": []}',
        '{"source_page": "pg", "seed": 3, "ratio": Infinity, "ops": [], "removed_signatures": []}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.6, "ops": [], "removed_signatures": []}',
        '{"source_page": "pg", "seed": 3, "ratio": true, "ops": [], "removed_signatures": []}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "ops": {}, "removed_signatures": []}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "removed_signatures": [], '
        '"ops": [{"kind": "zzz", "target": "s00001", "detail": {}}]}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "removed_signatures": [], '
        '"ops": [{"kind": "swap", "target": 1, "detail": {}}]}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "removed_signatures": [], '
        '"ops": [{"kind": "swap", "target": "s00001", "detail": []}]}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "ops": [], "removed_signatures": "s00001"}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "ops": [], "removed_signatures": [1]}',
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "ops": [], '
        '"removed_signatures": {"s00001": 1}}',
        # a removed signature that no node of the source tree carries
        '{"source_page": "pg", "seed": 3, "ratio": 0.25, "ops": [], "removed_signatures": ["zzz"]}',
    ])
    def test_log_of_the_wrong_shape_raises(self, tmp_path, log):
        source = page()
        mutant, good = mutate(source, 0.25, seed=3, source_page="pg")
        write_bundle(tmp_path / "b0", source, mutant, good)
        (tmp_path / "b0" / "mutations.json").write_text(log)
        with pytest.raises(CorpusError, match="bad bundle"):
            load_bundle(tmp_path / "b0")

    @pytest.mark.parametrize("how", SPOILS)
    def test_deep_log_or_repeated_signature_raises(self, tmp_path, how):
        source = page()
        mutant, log = mutate(source, 0.25, seed=3, source_page="pg")
        write_bundle(tmp_path / "b0", source, mutant, log)
        named = spoil_bundle(tmp_path / "b0", how)
        with pytest.raises(CorpusError) as err:
            load_bundle(tmp_path / "b0")
        assert str(err.value) == f"bad bundle {tmp_path / 'b0'}: {named}"

    @pytest.mark.parametrize("reader", ["parse_tree_json", "mutation_log_from_json"])
    def test_reader_fault_is_not_a_bad_bundle(self, tmp_path, monkeypatch, reader):
        # the readers raise ValueError for bad input; anything else is their bug
        source = page()
        mutant, log = mutate(source, 0.25, seed=3, source_page="pg")
        write_bundle(tmp_path / "b0", source, mutant, log)

        def broken(text):
            raise TypeError("a reader bug")

        monkeypatch.setattr(evaluate, reader, broken)
        with pytest.raises(TypeError, match="a reader bug"):
            load_bundle(tmp_path / "b0")

    @pytest.mark.parametrize("name", ["source.html.json", "mutant.html.json", "mutations.json"])
    def test_fifo_in_place_of_a_file_raises(self, tmp_path, name):
        source = page()
        mutant, log = mutate(source, 0.25, seed=3, source_page="pg")
        write_bundle(tmp_path / "b0", source, mutant, log)
        (tmp_path / "b0" / name).unlink()
        os.mkfifo(tmp_path / "b0" / name)
        # in a child with a cap: a read of the FIFO would block forever
        load = ("import sys\nfrom treematch.evaluate import CorpusError, load_bundle\n"
                "try:\n    load_bundle(sys.argv[1])\n"
                "except CorpusError as exc:\n    print(exc)\n")
        done = run_python(["-c", load, str(tmp_path / "b0")], timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"bad bundle {tmp_path / 'b0'}: {name} is not a regular file\n"

    def test_discover_sorted(self, tmp_path):
        source = page()
        for name in ("z9", "a1", "m5"):
            mutant, log = mutate(source, 0.1, seed=1, source_page=name)
            write_bundle(tmp_path / name, source, mutant, log)
        found = discover_bundles(tmp_path)
        assert [p.name for p in found] == ["a1", "m5", "z9"]

    def test_empty_corpus_has_no_bundles(self, tmp_path):
        assert discover_bundles(tmp_path) == []

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_corpus_not_a_directory_raises(self, tmp_path, kind):
        corpus = tmp_path / "corpus"
        if kind == "file":
            corpus.write_text("not a corpus")
        message = f"corpus {str(corpus)!r} is not a directory"
        with pytest.raises(NotADirectoryError) as err:
            discover_bundles(corpus)
        assert str(err.value) == message
        with pytest.raises(NotADirectoryError):
            run_benchmark(corpus, PARAMS, timeout_s=None)
        with pytest.raises(NotADirectoryError):
            sensitivity_sweep(corpus, [0.5], PARAMS)


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
        row = evaluate_pair(discover_bundles(corpus)[0], "similarity",
                            SftmParams(iterations=2000), timeout_s=1e-4)
        assert row.timeout is True
        assert row.rate is None and row.mismatch is None and row.successful is None

    def test_own_alarm_handler_still_times_out(self, tmp_path):
        # the cap is no SIGALRM: an alarm the caller arms and swallows changes nothing
        [directory] = discover_bundles(make_corpus(tmp_path, pages=1, mutants=1))
        alarms = []
        handler = lambda signum, frame: alarms.append(signum)
        before = signal.signal(signal.SIGALRM, handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.01)
            row = evaluate_pair(directory, "similarity", LONG_WALK, timeout_s=0.05)
            assert row.timeout is True and row.elapsed_s >= 0.05
            assert signal.getsignal(signal.SIGALRM) is handler
            assert alarms == [signal.SIGALRM]
            quick = evaluate_pair(directory, "similarity", PARAMS, timeout_s=10.0)
            assert quick.timeout is False and quick.rate is not None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, before)

    def test_cap_holds_off_the_main_thread(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        rows = []
        worker = threading.Thread(target=lambda: rows.append(evaluate_pair(
            discover_bundles(corpus)[0], "similarity", LONG_WALK, timeout_s=1e-4)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [row.timeout for row in rows] == [True]

    def test_timed_out_child_is_killed_and_reaped(self, tmp_path):
        [directory] = discover_bundles(make_corpus(tmp_path, pages=1, mutants=1))
        start = time.perf_counter()
        row = evaluate_pair(directory, "similarity", LONG_WALK, timeout_s=0.05)
        assert row.timeout is True and 0.05 <= row.elapsed_s < 5
        assert time.perf_counter() - start < 5
        assert multiprocessing.active_children() == []

    def test_child_exception_reaches_the_caller(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "mutations.json").write_text("{}", encoding="utf-8")
        with pytest.raises(CorpusError, match="bad bundle"):
            evaluate_pair(bad, "similarity", PARAMS, timeout_s=None)
        assert multiprocessing.active_children() == []

    def test_child_dying_without_a_result_names_its_exit_code(self, tmp_path):
        [directory] = discover_bundles(make_corpus(tmp_path, pages=1, mutants=1))

        def kill_the_child():
            deadline = time.monotonic() + 30
            while not multiprocessing.active_children() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # let it load the bundle and start walking
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_the_child)
        killer.start()
        try:
            with pytest.raises(RuntimeError, match="exited with code -9 and no result"):
                evaluate_pair(directory, "similarity", LONG_WALK, timeout_s=None)
        finally:
            killer.join(timeout=60)
        assert not killer.is_alive()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("timeout_s", [float("inf"), float("-inf"), float("nan"), 1e30])
    def test_timeout_it_cannot_wait_for_rejected(self, tmp_path, timeout_s):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        with pytest.raises(ValueError, match="not finite or above"):
            evaluate_pair(discover_bundles(corpus)[0], "similarity", PARAMS, timeout_s=timeout_s)
        with pytest.raises(ValueError, match="not finite or above"):
            run_benchmark(corpus, PARAMS, timeout_s=timeout_s)

    @pytest.mark.parametrize("timeout_s", [0, 0.0, -1.0, -1e30])
    def test_non_positive_timeout_means_no_cap(self, tmp_path, timeout_s):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        assert timeout_cap(timeout_s) is None
        row = evaluate_pair(discover_bundles(corpus)[0], "similarity", PARAMS, timeout_s=timeout_s)
        assert row.timeout is False and row.rate is not None
        rows = run_benchmark(corpus, PARAMS, timeout_s=timeout_s)
        assert [r.timeout for r in rows] == [False]

    def test_timeout_cap_values(self):
        assert timeout_cap(None) is None
        assert timeout_cap(2.5) == 2.5
        assert timeout_cap(2_147_483.0) == 2_147_483.0
        with pytest.raises(ValueError, match="not finite or above"):
            timeout_cap(2_147_484.0)

    def test_fewer_than_one_job_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        with pytest.raises(ValueError, match="at least 1"):
            run_benchmark(corpus, PARAMS, jobs=0)

    def test_malformed_bundle_strict_vs_skip(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=1)
        bad = corpus / "bad"
        bad.mkdir()
        (bad / "mutations.json").write_text("{}", encoding="utf-8")
        with pytest.raises(CorpusError):
            run_benchmark(corpus, PARAMS, timeout_s=None)
        warnings: list[str] = []
        rows = run_benchmark(corpus, PARAMS, algorithms=("similarity", "ted"),
                             timeout_s=None, on_malformed=warnings.append)
        assert len(rows) == 2
        assert len(warnings) == 1 and warnings[0].startswith(f"bad bundle {bad}")

    @pytest.mark.parametrize("how", SPOILS)
    def test_deep_log_or_repeated_signature_skipped(self, tmp_path, how):
        corpus = make_corpus(tmp_path, pages=1, mutants=2)
        bad = discover_bundles(corpus)[0]
        named = spoil_bundle(bad, how)
        warnings: list[str] = []
        rows = run_benchmark(corpus, PARAMS, timeout_s=None, on_malformed=warnings.append)
        assert warnings == [f"bad bundle {bad}: {named}"]
        assert [row.page for row in rows] == ["page0"]

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


# Each start method runs in a fresh interpreter, since an interpreter sets it once.
START_METHOD_RUN = textwrap.dedent("""
    import multiprocessing, sys
    from dataclasses import replace
    from treematch.evaluate import run_benchmark
    from treematch.similarity import SftmParams
    multiprocessing.set_start_method(sys.argv[1])
    corpus = sys.argv[2]
    runs = [run_benchmark(corpus, SftmParams(iterations=20), ("similarity", "ted"),
                          timeout_s=None, jobs=jobs) for jobs in (1, 2)]
    one, two = ([replace(row, elapsed_s=0.0) for row in rows] for rows in runs)
    assert one == two and len(one) == 4, (one, two)
    assert not any(row.timeout for row in one), one
    capped = run_benchmark(corpus, SftmParams(iterations=10**6), timeout_s=0.05, jobs=2)
    assert [row.timeout for row in capped] == [True, True], capped
    assert all(row.rate is None and 0.05 <= row.elapsed_s < 5 for row in capped), capped
    print("ok", multiprocessing.get_start_method())
""")

# The child of a spawn or forkserver start imports the main module again;
# here that import exits at once, before the child can send anything.
DIES_AT_START_UP = textwrap.dedent("""
    import multiprocessing, os, sys, time
    if __name__ != "__main__":
        os._exit(3)
    from treematch.evaluate import evaluate_pair
    from treematch.similarity import SftmParams
    multiprocessing.set_start_method(sys.argv[1])
    start = time.perf_counter()
    try:
        evaluate_pair(sys.argv[2], "similarity", SftmParams(), timeout_s=3)
    except RuntimeError as exc:
        print(exc, f"after {time.perf_counter() - start:.2f} s")
""")


def run_python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)


def test_import_leaves_process_machinery_unloaded():
    # only bench starts processes; a fresh interpreter, since this one has
    # imported multiprocessing already
    script = textwrap.dedent("""
        import sys
        import treematch, treematch.cli
        loaded = sorted(name for name in ("multiprocessing", "concurrent.futures")
                        if name in sys.modules)
        print(loaded)
    """)
    done = run_python(["-c", script], timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestStartMethods:
    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_rows_and_cap_hold(self, tmp_path, method):
        corpus = make_corpus(tmp_path, pages=2, mutants=1)
        done = run_python(["-c", START_METHOD_RUN, method, str(corpus)], timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"ok {method}\n"

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_child_dying_at_start_up_names_its_exit_code(self, tmp_path, method):
        [directory] = discover_bundles(make_corpus(tmp_path, pages=1, mutants=1))
        script = tmp_path / "main.py"
        script.write_text(DIES_AT_START_UP, encoding="utf-8")
        done = run_python([str(script), method, str(directory)], timeout=60)
        assert done.returncode == 0, done.stderr
        message, _, waited = done.stdout.partition(" after ")
        assert message == "child exited with code 3 and no result"
        assert float(waited.split()[0]) < 10


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
        write_csv(rows, out, BenchRow)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("page,algorithm,n_nodes,mutation_ratio,elapsed_s,"
                            "mismatch,no_match,successful,rate,optimal_rate,"
                            "alpha,seed,timeout")
        assert lines[1] == "p,similarity,5,0.1,0.5,,,,,,0.5,0,1"
        assert lines[2] == "q,ted,7,0.2,1.25,1,2,4,0.5714285714285714,0.8571428571428571,0.5,3,0"

    def test_sweep_header_and_cells(self, tmp_path):
        rows = [SweepRow(alpha=0.3, pairs=4, mean_rate=2 / 3, mean_elapsed_s=0.125),
                SweepRow(alpha=1.0, pairs=12, mean_rate=1.0, mean_elapsed_s=1e-05)]
        out = tmp_path / "s.csv"
        write_csv(rows, out, SweepRow)
        assert out.read_bytes() == (b"alpha,pairs,mean_rate,mean_elapsed_s\r\n"
                                    b"0.3,4,0.6666666666666666,0.125\r\n"
                                    b"1.0,12,1.0,1e-05\r\n")
        write_csv([], out, SweepRow)
        assert out.read_bytes() == b"alpha,pairs,mean_rate,mean_elapsed_s\r\n"

    def test_write_is_deterministic(self, tmp_path):
        corpus = make_corpus(tmp_path, pages=1, mutants=2)
        rows = run_benchmark(corpus, PARAMS, timeout_s=None)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, a, BenchRow)
        write_csv(rows, b, BenchRow)
        assert a.read_bytes() == b.read_bytes()
