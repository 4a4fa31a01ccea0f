"""Scoring against ground truth plus the benchmark and the alpha sweep.

On-disk corpus layout: one directory per mutant bundle containing
``source.html.json``, ``mutant.html.json`` (JSON tree format 2, signatures
included; format-1 trees still load) and ``mutations.json`` (the mutation
log). Each (bundle, algorithm) pair runs in a child process that loads the
bundle, then matches and scores it; no tree crosses the process boundary.
The per-pair cap starts once the child has loaded its bundle and covers the
match and its scoring. ``elapsed_s`` is the match alone (index, similarity,
graph, search). Loading is linear in the bundle and has no cap.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .baselines import ted_match
from .graph import Matching
from .mutate import (
    DuplicateSignature,
    MutationLog,
    ground_truth,
    mutation_log_from_json,
    mutation_log_to_json,
    signature_ids,
)
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
    texts = (
        (SOURCE_FILE, serialize_tree_json(source)),
        (MUTANT_FILE, serialize_tree_json(mutant)),
        (LOG_FILE, mutation_log_to_json(log)),
    )
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in texts:
        (directory / name).write_text(text, encoding="utf-8")


def load_bundle(directory: Path) -> MutantBundle:
    """Read a bundle; raises :class:`CorpusError` if one of its three files is
    missing, is not a regular file (so no FIFO can block the read), does not
    parse, or is valid JSON of the wrong shape, when one of its trees carries
    a signature twice, or when its log removes a signature that the source
    tree does not carry."""
    directory = Path(directory)
    for name in (SOURCE_FILE, MUTANT_FILE, LOG_FILE):
        if not (directory / name).is_file():
            raise CorpusError(f"bad bundle {directory}: {name} is not a regular file")
    try:
        source = parse_tree_json((directory / SOURCE_FILE).read_text(encoding="utf-8"))
        mutant = parse_tree_json((directory / MUTANT_FILE).read_text(encoding="utf-8"))
        log = mutation_log_from_json((directory / LOG_FILE).read_text(encoding="utf-8"))
    except (OSError, FormatError, KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"bad bundle {directory}: {exc}") from exc
    for name, tree in ((SOURCE_FILE, source), (MUTANT_FILE, mutant)):
        try:
            signature_ids(tree)
        except DuplicateSignature as exc:
            raise CorpusError(f"bad bundle {directory}: {name} carries signature "
                              f"{str(exc)!r} on more than one node") from None
    unknown = log.removed_signatures.difference(source.signatures)
    if unknown:
        raise CorpusError(f"bad bundle {directory}: removed signature {min(unknown)!r} "
                          "is not in the source tree")
    return MutantBundle(name=directory.name, source=source, mutant=mutant, log=log)


def discover_bundles(corpus_dir: Path) -> list[Path]:
    """Every bundle directory under ``corpus_dir``, sorted; raises
    :class:`NotADirectoryError` when ``corpus_dir`` is not a directory."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise NotADirectoryError(f"corpus {str(corpus_dir)!r} is not a directory")
    return sorted(p.parent for p in corpus_dir.glob(f"**/{LOG_FILE}"))


# ---------------------------------------------------------------------------
# Benchmark rows

@dataclass
class BenchRow:
    """One CSV row; quality fields are None for timeout rows, and ``alpha``
    and ``seed`` are None on TED rows, which read neither. The defaults are
    the row of a pair that has not been scored: a timeout."""

    page: str
    algorithm: str
    n_nodes: int
    mutation_ratio: float
    elapsed_s: float = 0.0
    mismatch: int | None = None
    no_match: int | None = None
    successful: int | None = None
    rate: float | None = None
    optimal_rate: float | None = None
    alpha: float | None = None
    seed: int | None = None
    timeout: bool = True


def timeout_cap(timeout_s: float | None) -> float | None:
    """Read a per-pair cap in seconds: None or a finite value <= 0 gives None (no
    cap); a value that is not finite or is above what poll() can wait for raises
    ValueError."""
    if timeout_s is None:
        return None
    if not (math.isfinite(timeout_s) and timeout_s <= _MAX_TIMEOUT_S):
        raise ValueError(f"timeout {timeout_s!r} s is not finite or above {_MAX_TIMEOUT_S:.0f} s")
    return timeout_s if timeout_s > 0 else None


def _pair_main(conn, directory: Path, algorithm: str, params: SftmParams) -> None:
    """Child side of one pair: load the bundle, send the unscored row, time the
    match alone, then score it and send the scored row. An exception is sent in
    place of either row."""
    try:
        bundle = load_bundle(directory)
        source, mutant, d_size = bundle.source, bundle.mutant, len(bundle.source)
        ted = algorithm == "ted"
        row = BenchRow(
            page=bundle.log.source_page or bundle.name,
            algorithm=algorithm,
            n_nodes=d_size,
            mutation_ratio=bundle.log.ratio,
            alpha=None if ted else params.alpha,
            seed=None if ted else params.seed,
        )
        conn.send(row)
        start = time.perf_counter()
        matching = ted_match(source, mutant) if ted else match_trees(source, mutant, params)
        elapsed = time.perf_counter() - start
        report = score_matching(matching, ground_truth(source, mutant), d_size)
        conn.send(replace(
            row, elapsed_s=elapsed, timeout=False, mismatch=report.mismatch,
            no_match=report.no_match, successful=report.successful,
            rate=report.successful_match_rate, optimal_rate=optimal_rate(d_size, bundle.log),
        ))
    except Exception as exc:
        conn.send(exc)


def evaluate_pair(
    directory: Path,
    algorithm: str,
    params: SftmParams,
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
) -> BenchRow:
    """Load, match and score one bundle in a child process killed at the cap (see
    :func:`timeout_cap`), which starts once the bundle is loaded. A timed-out
    row has ``elapsed_s`` set to the wait. The child's exception is raised here;
    a child that dies with no row raises ``RuntimeError`` naming its exit code."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; use one of {ALGORITHMS}")
    timeout_s = timeout_cap(timeout_s)
    import multiprocessing  # only bench needs it, so importing treematch does not load it

    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(target=_pair_main, args=(sender, directory, algorithm, params))
    child.start()
    sender.close()
    try:
        outcome = receiver.recv()
        if not isinstance(outcome, Exception):
            start = time.perf_counter()
            if receiver.poll(timeout_s):
                outcome = receiver.recv()
            else:
                outcome = replace(outcome, elapsed_s=time.perf_counter() - start)
    except EOFError:
        child.join()
        raise RuntimeError(f"child exited with code {child.exitcode} and no result") from None
    finally:
        child.kill()
        child.join()
        receiver.close()
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _bench_task(
    args: tuple[str, Sequence[str], SftmParams, float | None],
) -> list[BenchRow] | CorpusError:
    """Every algorithm on one bundle; a malformed bundle comes back as its error."""
    directory, algorithms, params, timeout_s = args
    try:
        return [evaluate_pair(directory, a, params, timeout_s) for a in algorithms]
    except CorpusError as exc:
        return exc


def run_benchmark(
    corpus_dir: Path,
    params: SftmParams,
    algorithms: Sequence[str] = ("similarity",),
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
    jobs: int = 1,
    on_malformed: Callable[[str], object] | None = None,
) -> list[BenchRow]:
    """Evaluate every bundle under ``corpus_dir`` with every algorithm, each
    pair through :func:`evaluate_pair` in a pool of ``jobs`` workers.

    Malformed bundles are handled in directory order: with ``on_malformed``
    None the first one raises :class:`CorpusError`; otherwise its message is
    passed to ``on_malformed`` and the bundle is skipped.
    """
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; use one of {ALGORITHMS}")
    timeout_s = timeout_cap(timeout_s)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [
        (str(directory), tuple(algorithms), params, timeout_s)
        for directory in discover_bundles(corpus_dir)
    ]
    from concurrent.futures import ProcessPoolExecutor  # as multiprocessing in evaluate_pair

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_bench_task, tasks, chunksize=1))
    rows: list[BenchRow] = []
    for result in results:
        if isinstance(result, CorpusError):
            if on_malformed is None:
                raise result
            on_malformed(str(result))
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
    no timeout, so every bundle counts; an empty corpus gives no rows. Every
    alpha is checked before any pair runs: an alpha outside ``(0, 1]``
    raises ``ValueError`` first.
    """
    runs = [replace(params, alpha=alpha) for alpha in alphas]
    out: list[SweepRow] = []
    for run in runs:
        rows = run_benchmark(corpus_dir, run, timeout_s=None)
        if not rows:
            return []
        count = len(rows)
        mean_rate = sum(r.rate for r in rows) / count
        mean_elapsed_s = sum(r.elapsed_s for r in rows) / count
        out.append(SweepRow(run.alpha, count, mean_rate, mean_elapsed_s))
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


def write_csv(rows: Sequence[BenchRow | SweepRow], path: Path, row_type: type) -> None:
    """One header of ``row_type``'s field names, then one line per row."""
    columns = [f.name for f in fields(row_type)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(getattr(row, name)) for name in columns])
