"""The benchmark's workloads: set-up from corpus pages and a seed, the timed
op of each, the output checks, and the traced run behind the per-layer metrics.

Every workload is a closed loop with one client in one process: an op starts
when the previous one has returned. Ops run in whole cycles over the
workload's pairs; the loop stops at the first cycle boundary after
``seconds`` once ``min_cycles`` cycles are done, and each pair's op time is
the median of its repeats. Times are in reference-scaled seconds; see
``Stopwatch``. Layers are called directly, composed the way
``pipeline.match_trees_detailed`` and ``cli._cmd_mutate`` compose them; see
NOTES.md for why the ``evaluate`` harness is not used.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import traceback
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from treematch.baselines import ted_match  # noqa: E402
from treematch.evaluate import optimal_rate, score_matching  # noqa: E402
from treematch.graph import build_graph, matching_cost  # noqa: E402
from treematch.mutate import (  # noqa: E402
    MUTATION_KINDS,
    MutationLog,
    assign_signatures,
    ground_truth,
    mutate,
    mutation_log_to_json,
)
from treematch.optimize import initial_matching, metropolis  # noqa: E402
from treematch.pipeline import match_trees_detailed  # noqa: E402
from treematch.similarity import (  # noqa: E402
    SftmParams,
    apply_threshold,
    build_token_index,
    initial_similarity,
    propagate,
)
from treematch.tokens import tokenize_node  # noqa: E402
from treematch.tree import (  # noqa: E402
    LabeledTree,
    parse_html,
    parse_tree_json,
    serialize_tree_json,
)

from tracer import Tracer, no_span  # noqa: E402

# Same set as treematch.mutate's private _STRUCTURAL_KINDS: ops that move or
# drop whole subtrees, so they can cost matches below their target.
STRUCTURAL_KINDS = frozenset({"remove_node", "duplicate", "wrap", "unwrap", "swap"})

# A run that is still measuring this long after its process started counts
# the ops it has not finished as failed, so it exits well inside 180 s.
WALL_CAP_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "match", "mutate" or "ted"
    page: str  # corpus page prefix such as "p08"
    ratio: float
    mutants: int  # pairs, each mutant with its own mutation seed
    min_cycles: int
    iterations: int = SftmParams().iterations

    @property
    def params(self) -> SftmParams:
        return SftmParams(iterations=self.iterations)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk_mid", "match", "p06", 0.2, 20, 3),
        Workload("greedy_large", "match", "p13", 0.02, 16, 3, iterations=1),
        Workload("mutate_mid", "mutate", "p08", 0.2, 16, 3),
        Workload("ted_small", "ted", "p01", 0.2, 16, 3),
    )
}

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "nodes_per_s": "nodes/s",
    "match_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tree.parse_json_s": "s",
    "tree.nodes": "nodes",
    "tree.parse_html_s": "s",
    "tree.serialize_s": "s",
    "tokens.tokenize_s": "s",
    "tokens.per_node": "tokens/node",
    "similarity.index_s": "s",
    "similarity.tokens_indexed": "count",
    "similarity.tokens_dropped": "count",
    "similarity.tokens_zero_idf": "count",
    "similarity.initial_s": "s",
    "similarity.pairs_scored": "count",
    "similarity.propagate_s": "s",
    "graph.build_s": "s",
    "graph.edges": "count",
    "graph.degree_mean": "edges/node",
    "graph.degree_max": "edges/node",
    "optimize.greedy_s": "s",
    "optimize.walk_s": "s",
    "optimize.proposals": "count",
    "optimize.proposal_ms": "ms",
    "optimize.improvements": "count",
    "optimize.improved_frac": "ratio",
    "optimize.greedy_cost": "cost",
    "optimize.best_cost": "cost",
    "optimize.walk_gain": "ratio",
    "mutate.sign_s": "s",
    "mutate.mutate_s": "s",
    "mutate.ops": "count",
    "mutate.ms_per_op": "ms",
    "baselines.ted_s": "s",
    "baselines.ted_cells": "cells",
    "baselines.ted_peak_mb": "MB",
    "evaluate.truth_s": "s",
    "evaluate.score_s": "s",
    "evaluate.rate_gap": "ratio",
    **{f"evaluate.miss.{kind}": "count" for kind in (*MUTATION_KINDS, "untouched")},
    "trace.overhead": "ratio",
}

# per-layer seconds: metric name -> span name whose mean self time it reports
SPAN_METRICS = {
    "tree.parse_json_s": "tree.parse_json",
    "tree.parse_html_s": "tree.parse_html",
    "tree.serialize_s": "tree.serialize",
    "tokens.tokenize_s": "tokens.tokenize",
    "similarity.index_s": "similarity.index",
    "similarity.initial_s": "similarity.initial",
    "similarity.propagate_s": "similarity.propagate",
    "graph.build_s": "graph.build",
    "optimize.greedy_s": "optimize.greedy",
    "mutate.sign_s": "mutate.sign",
    "mutate.mutate_s": "mutate.mutate",
    "baselines.ted_s": "baselines.ted_match",
    "evaluate.truth_s": "evaluate.truth",
    "evaluate.score_s": "evaluate.score",
}


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


@dataclass
class Pair:
    """One op input: a page, a mutation ratio and what set-up built from them."""

    page: str
    ratio: float
    mutation_seed: int
    html: bytes = b""  # mutate workload only; the op parses it
    source_json: str = ""
    mutant_json: str = ""
    log: MutationLog | None = None
    source_nodes: int = 0
    mutant_nodes: int = 0
    error: str | None = None


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    record: dict
    lines: list[str] = field(default_factory=list)


def page_file(prefix: str) -> Path:
    found = sorted(CORPUS.glob(f"{prefix}_*.html"))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one corpus page {prefix}_*.html, found {len(found)}")
    return found[0]


def mutation_seed(seed: int, k: int) -> int:
    # the CLI's mutate command derives per-mutant seeds the same way
    return seed * 100003 + k


def check_mutant(source: LabeledTree, mutant_json: str, log: MutationLog, span=no_span) -> None:
    """The mutant round-trips through the JSON format and its ground truth is
    exactly the source signatures that the log does not remove."""
    with span("tree.parse_json"):
        back = parse_tree_json(mutant_json)
    if serialize_tree_json(back) != mutant_json:
        raise CheckFailed("mutant does not round-trip through the JSON tree format")
    with span("evaluate.truth"):
        truth = ground_truth(source, back)
    matched = {source.node(n).signature for n, _ in truth}
    expected = {node.signature for node in source} - log.removed_signatures
    if matched != expected:
        raise CheckFailed(
            f"ground truth covers {len(matched)} source signatures, expected {len(expected)}"
        )


def check_matching(matching, params: SftmParams) -> None:
    """Full-matching check; matchings built by the library carry ``_checked``,
    which would let ``matching_cost`` skip ``validate_full``."""
    matching_cost(replace(matching, _checked=False), params)


def check_pairs_are_edges(matching, g) -> None:
    costs = {(e.n, e.m): e.cost for e in g.edges}
    for pair, cost in zip(matching.pairs, matching.pair_costs):
        if costs.get(pair) != cost:
            raise CheckFailed(f"matched pair {pair} is not a graph edge of that cost")


def set_up(w: Workload, seed: int, span=no_span) -> list[Pair]:
    """Read, parse and sign the page, make the mutants and serialise the inputs."""
    path = page_file(w.page)
    html = path.read_bytes()
    seeds = [mutation_seed(seed, k) for k in range(w.mutants)]
    with span("tree.parse_html"):
        tree = parse_html(html)
    if w.kind == "mutate":
        # the op parses the page again; set-up parses it once for the record
        return [Pair(path.stem, w.ratio, mseed, html=html, source_nodes=len(tree))
                for mseed in seeds]
    with span("mutate.sign"):
        source = assign_signatures(tree)
    with span("tree.serialize"):
        source_json = serialize_tree_json(source)
    pairs: list[Pair] = []
    for mseed in seeds:
        with span("mutate.mutate"):
            mutant, log = mutate(source, w.ratio, mseed, source_page=path.stem)
        with span("tree.serialize"):
            mutant_json = serialize_tree_json(mutant)
        pair = Pair(path.stem, w.ratio, mseed, source_json=source_json, mutant_json=mutant_json,
                    log=log, source_nodes=len(source), mutant_nodes=len(mutant))
        try:
            check_mutant(source, mutant_json, log)
        except CheckFailed as exc:
            pair.error = str(exc)
        pairs.append(pair)
    return pairs


def attribute_misses(source: LabeledTree, truth: dict[int, int], matching,
                     log: MutationLog) -> Counter:
    """Misses per mutation kind; one miss can count under several kinds.

    A miss is a source node with a ground-truth partner that it was not
    paired with. It counts under every kind whose logged op targets the node
    (as target, swap partner or member of ``subtree_signatures``); structural
    kinds also count when they target one of the node's source ancestors.
    A miss no op touched counts as ``untouched``.
    """
    direct: dict[str, set[str]] = {}
    structural: dict[str, set[str]] = {}
    for op in log.ops:
        targets = {op.target, op.detail.get("partner"), *op.detail.get("subtree_signatures", ())}
        targets.discard(None)
        for sig in targets:
            direct.setdefault(sig, set()).add(op.kind)
            if op.kind in STRUCTURAL_KINDS:
                structural.setdefault(sig, set()).add(op.kind)
    actual = dict(matching.pairs)
    misses: Counter = Counter()
    for n, m in truth.items():
        if actual.get(n) == m:
            continue
        node = source.node(n)
        kinds = set(direct.get(node.signature, ()))
        parent = node.parent
        while parent is not None:
            up = source.node(parent)
            kinds.update(structural.get(up.signature, ()))
            parent = up.parent
        misses.update(kinds or ("untouched",))
    return misses


class _Walk:
    """Progress hook: the best cost after every Metropolis step."""

    def __init__(self) -> None:
        self.best: list[float] = []

    def __call__(self, iteration: int, current: float, best: float) -> None:
        self.best.append(best)

    def improvements(self, greedy_cost: float) -> int:
        prev = greedy_cost
        count = 0
        for b in self.best:
            if b < prev:
                count += 1
            prev = b
        return count


# Seconds that reference_work() takes at full speed: about its fastest time
# (3.9 ms) on the 2-vCPU virtual machine the benchmark was tuned on. Scaled
# times read as seconds on a host of that speed.
REFERENCE_S = 0.004


def reference_work() -> int:
    """Fixed pure-Python work that uses no treematch code: it allocates
    tuples, lists and strings and walks them, as the layers do. Of several
    candidate loops (dict and sort, dynamic programming, set algebra, JSON),
    this one tracked the ops' slowdown under outside load most closely."""
    rows = []
    for i in range(10000):
        rows.append((i, [i, i + 1], "n%d" % (i % 50)))
    return sum(len(r[1]) for r in rows if r[2] != "n3")


def reference_seconds() -> float:
    """One reference_work() call, timed with the collector off: a collection
    inside it would scan every object the program holds, and the time would
    then depend on the heap instead of on the host."""
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


class Stopwatch:
    """Times a block in reference-scaled seconds.

    On the shared virtual machine the benchmark was tuned on, load from
    outside the process slowed every CPU-bound loop by up to 2x, in phases
    of seconds to minutes, and a whole run could fall in a slow phase. The
    reference loop runs just before and just after the block, so both see
    the same host speed. ``speed`` is REFERENCE_S over their mean, and
    ``seconds`` is the block's time times ``speed``. NOTES.md gives the
    measurements behind this. Garbage left by earlier blocks is collected
    first, so that no block pays for the cycles of the one before it.
    """

    def __enter__(self) -> "Stopwatch":
        gc.collect()
        self.before = reference_seconds()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        raw = perf_counter() - self.start
        self.speed = 2 * REFERENCE_S / (self.before + reference_seconds())
        self.seconds = raw * self.speed


def per_pair(times: dict[int, list[float]]) -> dict[int, float]:
    """Each pair's median op time over its repeats; the op is deterministic
    and its pair repeats once per cycle, spread over the run."""
    return {k: statistics.median(xs) for k, xs in times.items()}


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with at least ten samples beyond it,
    and that percentile; the maximum when there are ten samples or fewer."""
    xs = sorted(times)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


class Bench:
    """One workload run: set-up, the measured loop, checks and metrics."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool,
                 started: float | None = None):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.params = w.params
        self.deadline = (started if started is not None else perf_counter()) + WALL_CAP_S
        self.tracer = Tracer() if trace else None
        self.times: dict[int, list[float]] = {}  # pair index -> untraced op seconds
        self.traced_times: dict[int, list[float]] = {}
        self.speeds: list[float] = []  # Stopwatch.speed of every untraced op
        self.nodes: dict[int, int] = {}  # pair index -> nodes one op handles
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}  # pair index -> output of its first op
        self.quality: dict[int, dict] = {}  # pair index -> rate, optimal, sizes
        self.counts: dict[str, list[float]] = {}
        self.misses: Counter = Counter()
        self.lines: list[str] = []

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> float:
        """Build the inputs and return the set-up seconds.

        Untraced, set-up repeats and the median counts: at least three
        times, and until 0.5 s of wall time have passed, so that a set-up of
        milliseconds is still timed steadily.
        """
        if self.trace:
            with self.tracer.span("setup"):
                self.pairs = set_up(self.w, self.seed, self.tracer.span)
            for pair in self.pairs:
                if pair.log is not None:
                    self._count("mutate.ops", len(pair.log.ops))
            return self.tracer.root_seconds("setup")[0]
        times = []
        reference = None
        start = perf_counter()
        while len(times) < 3 or perf_counter() - start < 0.5:
            with Stopwatch() as sw:
                pairs = set_up(self.w, self.seed)
            times.append(sw.seconds)
            fingerprint = [(p.mutant_json, p.html) for p in pairs]
            if reference is not None and fingerprint != reference:
                raise CheckFailed("set-up is not deterministic for a fixed seed")
            reference = fingerprint
            self.pairs = pairs
        return statistics.median(times)

    # -- the loop ----------------------------------------------------------

    def loop(self) -> int:
        # two cycles give the overhead a median of two per pair; more would
        # only lengthen a run that does each op twice
        min_cycles = 2 if self.trace else self.w.min_cycles
        step = {"match": self.step_match, "mutate": self.step_mutate,
                "ted": self.step_ted}[self.w.kind]
        start = perf_counter()
        cycles = 0
        while cycles < min_cycles or perf_counter() - start < self.seconds:
            for k, pair in enumerate(self.pairs):
                self.attempted += 1
                if perf_counter() > self.deadline:
                    self.failed += 1  # unfinished when the wall-clock cap hit
                    continue
                if pair.error is not None:
                    self.failed += 1
                    continue
                try:
                    step(k, pair)
                except Exception as exc:  # the loop must go on and report the failure
                    self.failed += 1
                    print(f"op failed: workload {self.w.name} pair {k} ({pair.page} "
                          f"ratio {pair.ratio}): {exc!r}", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            cycles += 1
            if perf_counter() > self.deadline:
                break
        return cycles

    def _same_as_first(self, k: int, output) -> bool:
        """Record the first output of a pair; later ones must equal it."""
        if k not in self.first:
            self.first[k] = output
            return True
        if self.first[k] != output:
            raise CheckFailed("op output differs from the first run of the same input")
        return False

    @contextmanager
    def _root(self, name: str):
        """A root span around a check or probe when tracing; yields the span
        function for the layer calls inside it."""
        if self.tracer is None:
            yield no_span
        else:
            with self.tracer.span(name):
                yield self.tracer.span

    def _timed(self, store: dict[int, list[float]], k: int, sw: Stopwatch) -> None:
        store.setdefault(k, []).append(sw.seconds)
        if store is self.times:
            self.speeds.append(sw.speed)

    def _count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    # -- match workloads ---------------------------------------------------

    def step_match(self, k: int, pair: Pair) -> None:
        params = self.params
        with Stopwatch() as sw:
            t1 = parse_tree_json(pair.source_json)
            t2 = parse_tree_json(pair.mutant_json)
            matching, g = match_trees_detailed(t1, t2, params)
        self._timed(self.times, k, sw)
        self.nodes[k] = len(t1) + len(t2)
        check_matching(matching, params)
        first = self._same_as_first(k, (matching.pairs, matching.pair_costs))
        if first:
            truth = ground_truth(t1, t2)
            self.quality[k] = {
                "rate": score_matching(matching, truth, len(t1)).successful_match_rate,
                "optimal": optimal_rate(len(t1), pair.log),
                "edges": len(g.edges),
            }
        if not self.trace:
            return
        del t1, t2, g  # the traced op should not run with a second graph alive

        span = self.tracer.span
        walk = _Walk()
        with Stopwatch() as sw, span("op"):
            with span("tree.parse_json"):
                t1 = parse_tree_json(pair.source_json)
            with span("tree.parse_json"):
                t2 = parse_tree_json(pair.mutant_json)
            with span("similarity.initial"):
                s0 = initial_similarity(t1, t2, params)
            with span("similarity.propagate"):
                sp = propagate(s0, t1, t2, params)
            with span("graph.build"):
                g = build_graph(sp, t1, t2)
            with span("optimize.metropolis"):
                traced = metropolis(g, params, walk)
        self._timed(self.traced_times, k, sw)
        if traced != matching:
            raise CheckFailed("staged composition differs from match_trees_detailed")
        check_pairs_are_edges(traced, g)
        if first:
            self.probe_match(pair, t1, t2, s0, g, traced, walk)

    def probe_match(self, pair, t1, t2, s0, g, matching, walk: _Walk) -> None:
        """Per-pair layer counts; runs outside the timed op, once per pair."""
        span = self.tracer.span
        params = self.params
        with span("probe"):
            with span("tokens.tokenize"):
                tokens = sum(len(tokenize_node(t, n)) for t in (t1, t2) for n in range(len(t)))
            with span("similarity.index"):
                raw = build_token_index(t1)
                index = apply_threshold(raw, params.alpha)
            with span("optimize.greedy"):
                greedy = initial_matching(g, params)
            self.probe_quality(pair, t1, t2, matching)
        nodes = len(t1) + len(t2)
        self._count("tree.nodes", nodes)
        self._count("tokens.per_node", tokens / nodes)
        self._count("similarity.tokens_indexed", len(index.entries))
        self._count("similarity.tokens_dropped", len(raw.entries) - len(index.entries))
        self._count("similarity.tokens_zero_idf",
                    sum(1 for b in index.entries.values() if len(b) == index.t1_size))
        self._count("similarity.pairs_scored", len(s0))
        self._count("graph.edges", len(g.edges))
        self._count("graph.degree_mean", 2 * len(g.edges) / nodes)
        self._count("graph.degree_max",
                    max(len(a) for a in (*g.t1_adjacency, *g.t2_adjacency)))
        greedy_cost = matching_cost(greedy, params)
        best_cost = matching_cost(matching, params)
        improvements = walk.improvements(greedy_cost)
        self._count("optimize.proposals", len(walk.best))
        self._count("optimize.improvements", improvements)
        self._count("optimize.greedy_cost", greedy_cost)
        self._count("optimize.best_cost", best_cost)
        self._count("optimize.walk_gain", 1.0 - best_cost / greedy_cost)

    def probe_quality(self, pair: Pair, t1, t2, matching) -> None:
        span = self.tracer.span
        with span("evaluate.truth"):
            truth = ground_truth(t1, t2)
        with span("evaluate.score"):
            report = score_matching(matching, truth, len(t1))
        self._count("evaluate.rate_gap",
                    optimal_rate(len(t1), pair.log) - report.successful_match_rate)
        self.misses.update(attribute_misses(t1, dict(truth), matching, pair.log))

    # -- TED workload ------------------------------------------------------

    def ted_op(self, pair: Pair, span=no_span):
        with span("tree.parse_json"):
            t1 = parse_tree_json(pair.source_json)
        with span("tree.parse_json"):
            t2 = parse_tree_json(pair.mutant_json)
        with span("baselines.ted_match"):
            matching = ted_match(t1, t2)
        return t1, t2, matching

    def smallest_pair(self) -> int:
        return min(range(len(self.pairs)),
                   key=lambda k: self.pairs[k].source_nodes * self.pairs[k].mutant_nodes)

    def step_ted(self, k: int, pair: Pair) -> None:
        with Stopwatch() as sw:
            t1, t2, matching = self.ted_op(pair)
        self._timed(self.times, k, sw)
        self.nodes[k] = len(t1) + len(t2)
        check_matching(matching, self.params)
        first = self._same_as_first(k, (matching.pairs, matching.pair_costs))
        if first:
            truth = ground_truth(t1, t2)
            self.quality[k] = {
                "rate": score_matching(matching, truth, len(t1)).successful_match_rate,
                "optimal": optimal_rate(len(t1), pair.log),
                "cells": len(t1) * len(t2),
            }
        if not self.trace:
            return
        with Stopwatch() as sw, self.tracer.span("op"):
            t1, t2, traced = self.ted_op(pair, self.tracer.span)
        self._timed(self.traced_times, k, sw)
        if traced != matching:
            raise CheckFailed("traced TED matching differs from the untraced one")
        if first:
            self._count("tree.nodes", len(t1) + len(t2))
            self._count("baselines.ted_cells", len(t1) * len(t2))
            if k == self.smallest_pair():
                # tracemalloc slows TED about fifty times over, so only the
                # smallest pair runs under it, outside every span
                tracemalloc.start()
                try:
                    ted_match(t1, t2)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                self._count("baselines.ted_peak_mb", peak / 2**20)
            with self.tracer.span("probe"):
                self.probe_quality(pair, t1, t2, traced)

    # -- mutate workload ---------------------------------------------------

    def mutate_op(self, pair: Pair, span=no_span):
        """``cli._cmd_mutate`` for one mutant, writing to strings instead of disk."""
        with span("tree.parse_html"):
            tree = parse_html(pair.html)
        with span("mutate.sign"):
            source = assign_signatures(tree)
        with span("mutate.mutate"):
            mutant, log = mutate(source, pair.ratio, pair.mutation_seed, source_page=pair.page)
        with span("tree.serialize"):
            source_json = serialize_tree_json(source)
        with span("tree.serialize"):
            mutant_json = serialize_tree_json(mutant)
        with span("mutate.log_json"):
            log_json = mutation_log_to_json(log)
        return source, mutant, log, (source_json, mutant_json, log_json)

    def step_mutate(self, k: int, pair: Pair) -> None:
        with Stopwatch() as sw:
            source, mutant, log, out = self.mutate_op(pair)
        self._timed(self.times, k, sw)
        self.nodes[k] = len(source)
        if self._same_as_first(k, out):
            with self._root("check") as span:
                check_mutant(source, out[1], log, span)
            self.quality[k] = {
                "rate": optimal_rate(len(source), log),
                "mutant_nodes": len(mutant),
                "ops": len(log.ops),
            }
        if not self.trace:
            return
        with Stopwatch() as sw, self.tracer.span("op"):
            source, mutant, log, traced = self.mutate_op(pair, self.tracer.span)
        self._timed(self.traced_times, k, sw)
        if traced != out:
            raise CheckFailed("traced mutant bundle differs from the untraced one")
        self._count("tree.nodes", len(source))
        self._count("mutate.ops", len(log.ops))

    # -- results -----------------------------------------------------------

    def run(self) -> Result:
        setup_s = self.set_up()
        cycles = self.loop()
        q = [self.quality[k] for k in sorted(self.quality)]
        correct = self.failed == 0 and len(q) == len(self.pairs) and bool(self.times)
        record = {
            "workload": self.w.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "iterations": self.params.iterations if self.w.kind == "match" else None,
            "cycles": cycles,
            "samples": len(self.times),
            "speed": statistics.median(self.speeds) if self.speeds else None,
            "pairs": [
                {"page": p.page, "ratio": p.ratio, "mutation_seed": p.mutation_seed,
                 "source_nodes": p.source_nodes,
                 "mutant_nodes": p.mutant_nodes or self.quality.get(k, {}).get("mutant_nodes"),
                 "op_s": statistics.median(self.times[k]) if k in self.times else None,
                 **{key: v for key, v in self.quality.get(k, {}).items()
                    if key in ("edges", "cells", "ops", "rate", "optimal")}}
                for k, p in enumerate(self.pairs)
            ],
        }
        record["failed_frac"] = self.failed / max(self.attempted, 1)
        if not self.times:
            return Result(False, max(self.attempted, 1), max(self.failed, 1), {}, {}, record)
        if self.trace:
            metrics = self.per_layer()
            units = PER_LAYER
        else:
            best = per_pair(self.times)
            record["op_s_tail"], record["tail_percentile"] = tail(list(best.values()))
            metrics = {
                "setup_s": setup_s,
                "op_s_p50": statistics.median(best.values()),
                "nodes_per_s": sum(self.nodes[k] for k in best) / sum(best.values()),
                "match_rate": statistics.fmean(x["rate"] for x in q) if q else 0.0,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END
        return Result(correct, self.attempted, self.failed, metrics, units, record, self.lines)

    def per_layer(self) -> dict[str, float]:
        selfs = self.tracer.self_times()
        # span times scaled like the ops, by the run's median speed
        speed = statistics.median(self.speeds)
        mean_self = {name: speed * statistics.fmean(xs) for name, xs in selfs.items()}
        metrics = {name: 0.0 for name in PER_LAYER}  # 0: the workload never calls it
        for metric, span_name in SPAN_METRICS.items():
            metrics[metric] = mean_self.get(span_name, 0.0)
        for name, values in self.counts.items():
            metrics[name] = statistics.fmean(values)
        if "graph.degree_max" in self.counts:
            metrics["graph.degree_max"] = float(max(self.counts["graph.degree_max"]))
        if "optimize.metropolis" in mean_self:
            walk_s = max(mean_self["optimize.metropolis"] - metrics["optimize.greedy_s"], 0.0)
            proposals = metrics["optimize.proposals"]
            metrics["optimize.walk_s"] = walk_s
            metrics["optimize.proposal_ms"] = 1000.0 * walk_s / proposals
            metrics["optimize.improved_frac"] = metrics["optimize.improvements"] / proposals
        if metrics["mutate.ops"]:
            metrics["mutate.ms_per_op"] = (
                1000.0 * metrics["mutate.mutate_s"] / metrics["mutate.ops"])
        for kind, count in self.misses.items():
            metrics[f"evaluate.miss.{kind}"] = float(count)
        metrics["trace.overhead"] = (
            statistics.median(per_pair(self.traced_times).values())
            / statistics.median(per_pair(self.times).values())
            - 1.0
        )
        self.lines.extend(self.self_time_table(selfs, speed))
        return metrics

    def self_time_table(self, selfs: dict[str, list[float]], speed: float) -> list[str]:
        op_total = sum(self.tracer.root_seconds("op"))
        in_op = self.tracer.self_times("op")
        lines = ["self times in the traced op (scaled mean per span; share of traced op time):"]
        for name, xs in sorted(in_op.items(), key=lambda kv: -sum(kv[1])):
            mean = speed * statistics.fmean(xs)
            lines.append(f"  {name:24s} calls {len(xs):5d}  mean {mean:.6f} s"
                         f"  op share {100 * sum(xs) / op_total:5.1f}%")
        lines.append("self times outside the op (set-up, checks, probes; scaled mean per span):")
        for name, xs in sorted(selfs.items(), key=lambda kv: -sum(kv[1])):
            outside = len(xs) - len(in_op.get(name, ()))
            if outside:
                mean = speed * (sum(xs) - sum(in_op.get(name, ()))) / outside
                lines.append(f"  {name:24s} calls {outside:5d}  mean {mean:.6f} s")
        if self.misses:
            lines.append("misses: one miss counts under every mutation kind that touched it, "
                         "so the per-kind counts can sum to more than the misses")
        return lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
