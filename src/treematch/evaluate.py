"""Scoring against ground truth plus the benchmark and the alpha sweep.

On-disk corpus layout: one directory per mutant bundle containing
``source.html.json``, ``mutant.html.json`` (JSON tree schema, signatures
included) and ``mutations.json`` (the mutation log). Benchmarks time the
matching pipeline only (index, similarity, graph, search); parsing and
scoring are excluded. Each pair is matched in a child process, which is
killed when the per-pair cap runs out.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from .baselines import ted_match
from .graph import Matching
from .mutate import MutationLog, ground_truth, mutation_log_from_json, mutation_log_to_json
from .pipeline import match_trees
from .similarity import SftmParams
from .tree import FormatError, LabeledTree, parse_tree_json, serialize_tree_json

SOURCE_FILE = "source.html.json"
MUTANT_FILE = "mutant.html.json"
LOG_FILE = "mutations.json"

ALGORITHMS = ("similarity", "ted")

DEFAULT_TIMEOUT_S = 450.0
_MAX_TIMEOUT_S = 2_147_483.0  # poll() waits at most INT_MAX milliseconds


class CorpusError(ValueError):
    """A mutant bundle is missing files or does not parse."""


@dataclass
class QualityReport:
    """Per-pair matching quality relative to the signature ground truth."""

    mismatch: int = 0
    no_match: int = 0
    successful: int = 0
    successful_match_rate: float = 0.0


def score_matching(
    matching: Matching, truth: Iterable[tuple[int, int]], d_size: int
) -> QualityReport:
    """Count, per source node: right partner, wrong partner, or no partner."""
    expected = dict(truth)
    actual = dict(matching.pairs)
    successful = 0
    mismatch = 0
    for n, m in actual.items():
        if expected.get(n) == m:
            successful += 1
        else:
            mismatch += 1
    no_match = d_size - successful - mismatch
    return QualityReport(
        mismatch=mismatch,
        no_match=no_match,
        successful=successful,
        successful_match_rate=successful / d_size if d_size else 0.0,
    )


def optimal_rate(d_size: int, log: MutationLog) -> float:
    """Best achievable rate given how many source nodes were removed."""
    return (d_size - len(log.removed_signatures)) / d_size if d_size else 0.0


# ---------------------------------------------------------------------------
# Mutant bundles on disk

@dataclass
class MutantBundle:
    name: str
    source: LabeledTree
    mutant: LabeledTree
    log: MutationLog


def write_bundle(
    directory: Path, source: LabeledTree, mutant: LabeledTree, log: MutationLog
) -> None:
    # serialise first, so a tree too deep to write leaves no directory behind
    texts = (
        (SOURCE_FILE, serialize_tree_json(source)),
        (MUTANT_FILE, serialize_tree_json(mutant)),
        (LOG_FILE, mutation_log_to_json(log)),
    )
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in texts:
        (directory / name).write_text(text, encoding="utf-8")


def load_bundle(directory: Path) -> MutantBundle:
    directory = Path(directory)
    try:
        source = parse_tree_json((directory / SOURCE_FILE).read_text(encoding="utf-8"))
        mutant = parse_tree_json((directory / MUTANT_FILE).read_text(encoding="utf-8"))
        log = mutation_log_from_json((directory / LOG_FILE).read_text(encoding="utf-8"))
    except (OSError, FormatError, KeyError, ValueError) as exc:
        raise CorpusError(f"bad bundle {directory}: {exc}") from exc
    return MutantBundle(name=directory.name, source=source, mutant=mutant, log=log)


def discover_bundles(corpus_dir: Path) -> list[Path]:
    corpus_dir = Path(corpus_dir)
    return sorted(p.parent for p in corpus_dir.glob(f"**/{LOG_FILE}"))


# ---------------------------------------------------------------------------
# Benchmark rows

@dataclass
class BenchRow:
    """One CSV row; quality fields are None for timeout rows, and ``alpha``
    and ``seed`` are None on TED rows, which read neither."""

    page: str
    algorithm: str
    n_nodes: int
    mutation_ratio: float
    elapsed_s: float
    mismatch: int | None
    no_match: int | None
    successful: int | None
    rate: float | None
    optimal_rate: float | None
    alpha: float | None
    seed: int | None
    timeout: bool


CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))


def _check_timeout(timeout_s: float | None) -> None:
    if timeout_s is not None and not (math.isfinite(timeout_s) and timeout_s <= _MAX_TIMEOUT_S):
        raise ValueError(f"timeout {timeout_s!r} s is not finite or above {_MAX_TIMEOUT_S:.0f} s")


def _child_main(conn, fn, args) -> None:
    """Time ``fn(*args)`` and send back ``(result, elapsed)``, or the exception."""
    start = time.perf_counter()
    try:
        conn.send((fn(*args), time.perf_counter() - start))
    except Exception as exc:
        conn.send(exc)


def _run_in_child(fn, args: tuple, timeout_s: float | None):
    """Run module-level ``fn(*args)`` in a child process killed at the cap; return
    (result, elapsed, timed_out). ``elapsed`` is the child's time for the call, or
    the wait when the cap ran out. The child's exception is raised here."""
    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(target=_child_main, args=(sender, fn, args))
    child.start()
    sender.close()
    start = time.perf_counter()
    try:
        if not receiver.poll(timeout_s):
            return None, time.perf_counter() - start, True
        outcome = receiver.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"child exited with code {child.exitcode} and no result") from None
    finally:
        child.kill()
        child.join()
        receiver.close()
    if isinstance(outcome, Exception):
        raise outcome
    return (*outcome, False)


def evaluate_pair(
    bundle: MutantBundle,
    algorithm: str,
    params: SftmParams,
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
) -> BenchRow:
    """Match one (source, mutant) pair in a child process, killed after ``timeout_s``
    (None: no cap), and score it; timing covers matching only."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; use one of {ALGORITHMS}")
    _check_timeout(timeout_s)
    d_size = len(bundle.source)
    ted = algorithm == "ted"
    args = (bundle.source, bundle.mutant) if ted else (bundle.source, bundle.mutant, params)
    matching, elapsed, timed_out = _run_in_child(ted_match if ted else match_trees, args, timeout_s)
    row = BenchRow(
        page=bundle.log.source_page or bundle.name,
        algorithm=algorithm,
        n_nodes=d_size,
        mutation_ratio=bundle.log.ratio,
        elapsed_s=elapsed,
        mismatch=None,
        no_match=None,
        successful=None,
        rate=None,
        optimal_rate=None,
        alpha=None if ted else params.alpha,
        seed=None if ted else params.seed,
        timeout=timed_out,
    )
    if timed_out:
        return row
    report = score_matching(matching, ground_truth(bundle.source, bundle.mutant), d_size)
    return replace(
        row,
        mismatch=report.mismatch,
        no_match=report.no_match,
        successful=report.successful,
        rate=report.successful_match_rate,
        optimal_rate=optimal_rate(d_size, bundle.log),
    )


def _bench_task(
    args: tuple[str, Sequence[str], SftmParams, float | None],
) -> list[BenchRow] | CorpusError:
    """Every algorithm on one bundle; a malformed bundle comes back as its error."""
    directory, algorithms, params, timeout_s = args
    try:
        bundle = load_bundle(Path(directory))
    except CorpusError as exc:
        return exc
    return [evaluate_pair(bundle, a, params, timeout_s) for a in algorithms]


def run_benchmark(
    corpus_dir: Path,
    params: SftmParams,
    algorithms: Sequence[str] = ("similarity",),
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
    jobs: int = 1,
    skip_malformed: bool = False,
    warn=None,
) -> list[BenchRow]:
    """Evaluate every bundle under ``corpus_dir`` with every algorithm.

    Each bundle is loaded once. Malformed bundles raise :class:`CorpusError`
    unless ``skip_malformed``, in which case they are reported through
    ``warn`` and skipped; either happens in directory order.
    """
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; use one of {ALGORITHMS}")
    _check_timeout(timeout_s)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [
        (str(directory), tuple(algorithms), params, timeout_s)
        for directory in discover_bundles(corpus_dir)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_bench_task, tasks, chunksize=1))
    else:
        results = map(_bench_task, tasks)
    rows: list[BenchRow] = []
    for result in results:
        if isinstance(result, CorpusError):
            if not skip_malformed:
                raise result
            if warn is not None:
                warn(str(result))
            continue
        rows.extend(result)
    return rows


# ---------------------------------------------------------------------------
# Alpha sensitivity sweep

@dataclass
class SweepRow:
    alpha: float
    pairs: int
    mean_rate: float
    mean_elapsed_s: float


def sensitivity_sweep(
    corpus_dir: Path, alphas: Sequence[float], params: SftmParams
) -> list[SweepRow]:
    """Mean match rate and mean elapsed time per threshold exponent.

    Each alpha is one :func:`run_benchmark` of the similarity matcher with
    no timeout, so every bundle counts; an empty corpus gives no rows.
    """
    out: list[SweepRow] = []
    for alpha in alphas:
        rows = run_benchmark(corpus_dir, replace(params, alpha=alpha), timeout_s=None)
        if not rows:
            return []
        count = len(rows)
        mean_rate = sum(r.rate for r in rows) / count
        mean_elapsed_s = sum(r.elapsed_s for r in rows) / count
        out.append(SweepRow(alpha, count, mean_rate, mean_elapsed_s))
    return out


# ---------------------------------------------------------------------------
# CSV output

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_bench_csv(rows: Sequence[BenchRow], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_cell(getattr(row, name)) for name in CSV_COLUMNS])


def write_sweep_csv(rows: Sequence[SweepRow], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha", "pairs", "mean_rate", "mean_elapsed_s"])
        for row in rows:
            writer.writerow(
                [_cell(row.alpha), row.pairs, _cell(row.mean_rate), _cell(row.mean_elapsed_s)]
            )
