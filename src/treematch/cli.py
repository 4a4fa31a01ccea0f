"""Command line front end: match two documents, generate mutant corpora,
run the benchmark, and sweep the threshold exponent.

Every command echoes its effective configuration on startup, and CSV
commands drop a ``<out>.config.json`` sidecar next to their output so every
result file is self-describing. TED reads only ``no_match_cost`` (in
``best_cost``): ``match --algorithm ted`` echoes ``algorithm=ted`` and that
value but no ``edges=`` (TED builds no graph), and ``bench`` leaves TED rows'
``alpha`` and ``seed`` cells empty. ``bench`` runs each pair in a child process
that loads its own bundle; the ``--timeout`` cap starts once it is loaded
(loading is linear in the bundle and has no cap) and covers the match and its
scoring, while ``elapsed_s`` is the match alone. All commands are
deterministic given the same inputs and seed, timing aside.

Usage errors (an unknown flag or choice, ``--jobs`` or ``--count`` below 1)
exit 2. ``main`` turns an ``OSError``, a ``ValueError`` (which covers
``FormatError``, ``IngestError`` and ``CorpusError``) or
``ExhaustedTargets`` into one ``error:`` line and exit 1. Each command
checks what it will write before any work: ``match`` its ``--out`` path
before it loads a tree, ``mutate`` every mutant's ratio and its
``--out-dir`` before it loads one, and ``bench`` and ``sweep`` their lists,
corpus and ``--out`` path before any pair runs. ``evaluate_pair``'s
``RuntimeError`` for a child that died with no row is not caught and keeps
its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .baselines import ted_match
from .evaluate import (
    DEFAULT_TIMEOUT_S,
    BenchRow,
    SweepRow,
    run_benchmark,
    sensitivity_sweep,
    timeout_cap,
    write_bundle,
    write_csv,
)
from .graph import edge_count, matching_cost, matching_to_json
from .mutate import MAX_RATIO, ExhaustedTargets, assign_signatures, mutate
from .pipeline import match_trees_detailed
from .similarity import SftmParams
from .tokens import TokenOptions
from .tree import LabeledTree, parse_html, parse_tree_json

_DEFAULTS = SftmParams()


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("matching parameters")
    group.add_argument(
        "--alpha", type=float, default=_DEFAULTS.alpha,
        help="token threshold exponent; tokens in more than ceil(N**alpha) "
        f"first-tree nodes are ignored (default {_DEFAULTS.alpha})",
    )
    group.add_argument(
        "--weights", type=str, default=",".join(str(w) for w in _DEFAULTS.weights),
        help="comma-separated level weights w0..wP; the count sets the depth: "
        "P+1 weights blend P ancestor levels into each pair score "
        f"(default {','.join(str(w) for w in _DEFAULTS.weights)})",
    )
    group.add_argument(
        "--beta", type=float, default=_DEFAULTS.beta,
        help=f"objective sharpness exp(-beta*cost/size) (default {_DEFAULTS.beta})",
    )
    group.add_argument(
        "--gamma", type=float, default=_DEFAULTS.gamma,
        help="per-edge stop probability of the suggestion scan; low explores, "
        f"high exploits (default {_DEFAULTS.gamma})",
    )
    group.add_argument(
        "--iterations", type=int, default=_DEFAULTS.iterations,
        help=f"Metropolis steps (default {_DEFAULTS.iterations})",
    )
    group.add_argument(
        "--no-match-cost", type=float, default=_DEFAULTS.no_match_cost,
        help=f"penalty per unmatched node (default {_DEFAULTS.no_match_cost})",
    )
    group.add_argument(
        "--seed", type=int, default=_DEFAULTS.seed,
        help=f"random seed driving all stochastic steps (default {_DEFAULTS.seed})",
    )
    group.add_argument(
        "--tokenize-content", action="store_true",
        help="also derive tokens from each node's text content",
    )


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _params_from(args: argparse.Namespace) -> SftmParams:
    items = args.weights.split(",")
    if "" in items:  # a stray comma would silently change the depth
        raise ValueError(f"--weights {args.weights!r} has an empty item")
    weights = tuple(map(float, items))
    return SftmParams(
        alpha=args.alpha,
        weights=weights,
        beta=args.beta,
        gamma=args.gamma,
        iterations=args.iterations,
        no_match_cost=args.no_match_cost,
        seed=args.seed,
        tokens=TokenOptions(include_content=args.tokenize_content),
    )


def _echo_config(command: str, params: SftmParams, algorithm: str = "similarity") -> None:
    if algorithm == "ted":
        cfg = {"algorithm": "ted", "no_match_cost": params.no_match_cost}
    else:
        cfg = dataclasses.asdict(params)
        cfg.update(cfg.pop("tokens"))  # switches print last and unnested
    rendered = " ".join(f"{k}={v}" for k, v in cfg.items())
    print(f"[treematch {command}] {rendered}", file=sys.stderr)


def _write_sidecar(out_path: Path, command: str, params: SftmParams, extra: dict) -> None:
    payload = {"command": command, "params": dataclasses.asdict(params), **extra}
    sidecar = Path(str(out_path) + ".config.json")
    sidecar.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _out_path(out: str) -> Path:
    """``--out`` as a path, refused unless its directory exists and it is no directory."""
    path = Path(out)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"--out {out!r} is in no existing directory")
    if path.is_dir():
        raise IsADirectoryError(f"--out {out!r} is a directory")
    return path


def _csv_inputs(args: argparse.Namespace, listed: str, flag: str) -> tuple[list[str], Path, Path]:
    """The ``flag`` list, corpus and CSV path of bench or sweep, checked before any pair runs."""
    items = [item for item in listed.split(",") if item]
    if not items:
        raise ValueError(f"{flag} {listed!r} lists nothing")
    if not Path(args.corpus).is_dir():
        raise NotADirectoryError(f"corpus {args.corpus!r} is not a directory")
    return items, Path(args.corpus), _out_path(args.out)


def _load_tree(path: Path, fmt: str) -> LabeledTree:
    if fmt == "auto":
        fmt = "json" if path.suffix.lower() == ".json" else "html"
    data = path.read_bytes()
    if fmt == "json":
        return parse_tree_json(data)
    return parse_html(data)


# ---------------------------------------------------------------------------
# Commands

def _cmd_match(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _echo_config("match", params, args.algorithm)
    out = _out_path(args.out)
    t1 = _load_tree(Path(args.src), args.format)
    t2 = _load_tree(Path(args.dst), args.format)

    start = time.perf_counter()
    if args.algorithm == "ted":
        matching = ted_match(t1, t2)
        edges = ""
    else:
        matching, graph = match_trees_detailed(t1, t2, params)
        edges = f"edges={edge_count(graph)} "
    elapsed = time.perf_counter() - start

    out.write_text(matching_to_json(matching, t1, t2) + "\n", encoding="utf-8")
    cost = matching_cost(matching, params)
    print(
        f"t1_nodes={len(t1)} t2_nodes={len(t2)} {edges}"
        f"pairs={len(matching.pairs)} unmatched_t1={len(matching.unmatched_t1)} "
        f"unmatched_t2={len(matching.unmatched_t2)} best_cost={cost:.6f} "
        f"elapsed_s={elapsed:.3f} out={out}"
    )
    return 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    print(f"[treematch mutate] seed={args.seed} ratio={args.ratio} count={args.count}",
          file=sys.stderr)
    count = args.count
    ratios = [args.ratio * k / count for k in range(count)]
    # -0.0, mutant 0's ratio from a negative --ratio, would pass the range check
    if args.ratio < 0 or not all(0.0 <= ratio <= MAX_RATIO for ratio in ratios):
        raise ValueError(f"--ratio {args.ratio} with --count {count} gives a mutant "
                         f"a ratio outside [0, {MAX_RATIO}]")
    out_dir = Path(args.out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(f"--out-dir {args.out_dir!r} is not a directory")
    src = Path(args.src)
    tree = assign_signatures(_load_tree(src, args.format))

    page = src.stem
    for k, ratio in enumerate(ratios):
        seed = args.seed * 100003 + k
        mutant, log = mutate(tree, ratio, seed, source_page=page)
        bundle_dir = out_dir / f"{page}__m{k:02d}"
        write_bundle(bundle_dir, tree, mutant, log)
        print(f"wrote {bundle_dir} ratio={ratio:.4f} ops={len(log.ops)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _echo_config("bench", params)
    algorithms, corpus, out = _csv_inputs(args, args.algorithms, "--algorithms")
    timeout = timeout_cap(args.timeout)
    failures = []
    rows = run_benchmark(
        corpus,
        params,
        algorithms=algorithms,
        timeout_s=timeout,
        jobs=args.jobs,
        on_malformed=lambda msg: (failures.append(msg), print(f"warning: {msg}", file=sys.stderr)),
    )
    write_csv(rows, out, BenchRow)
    _write_sidecar(out, "bench", params,
                   {"algorithms": algorithms, "timeout_s": timeout, "jobs": args.jobs})
    print(f"wrote {out} rows={len(rows)} skipped={len(failures)}")
    if failures and not rows:
        print("error: every bundle in the corpus was malformed", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _echo_config("sweep", params)
    listed, corpus, out = _csv_inputs(args, args.alphas, "--alphas")
    alphas = [float(a) for a in listed]
    rows = sensitivity_sweep(corpus, alphas, params)
    write_csv(rows, out, SweepRow)
    _write_sidecar(out, "sweep", params, {"alphas": alphas})
    print(f"wrote {out} rows={len(rows)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treematch",
        description="Match labeled trees (HTML DOMs) and evaluate matching quality "
        "on mutation-generated ground truth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="match two documents and write the matching")
    p_match.add_argument("src", help="first document (HTML or JSON tree)")
    p_match.add_argument("dst", help="second document (HTML or JSON tree)")
    p_match.add_argument("--algorithm", choices=["similarity", "ted"], default="similarity")
    p_match.add_argument("--out", default="matching.json", help="matching output path")
    p_match.add_argument("--format", choices=["auto", "html", "json"], default="auto",
                         help="input format; auto sniffs by extension")
    _add_param_flags(p_match)
    p_match.set_defaults(func=_cmd_match)

    p_mutate = sub.add_parser("mutate", help="write mutant bundles for one document")
    p_mutate.add_argument("src", help="source document (HTML or JSON tree)")
    p_mutate.add_argument("--ratio", type=float, default=0.5,
                          help="top of the mutation-ratio range (default 0.5)")
    p_mutate.add_argument("--count", type=_positive_int, default=10,
                          help="number of mutants, at least 1; ratios evenly span [0, ratio) "
                          "(default 10)")
    p_mutate.add_argument("--out-dir", required=True, help="directory for bundles")
    p_mutate.add_argument("--format", choices=["auto", "html", "json"], default="auto")
    p_mutate.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                          help="mutation seed; mutant k is drawn with seed*100003+k "
                          f"(default {_DEFAULTS.seed})")
    p_mutate.set_defaults(func=_cmd_mutate)

    p_bench = sub.add_parser("bench", help="evaluate algorithms over a bundle corpus")
    p_bench.add_argument("corpus", help="directory containing mutant bundles")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument("--algorithms", default="similarity",
                         help="comma-separated: similarity,ted (default similarity)")
    p_bench.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                         help="per-pair cap in seconds, started once the pair's child process "
                         "has loaded its bundle (loading is linear in the bundle and has no "
                         "cap); it covers the match and its scoring, while elapsed_s is the "
                         f"match alone; <=0 disables (default {DEFAULT_TIMEOUT_S})")
    p_bench.add_argument("--jobs", type=_positive_int, default=1,
                         help="parallel workers, at least 1 (default 1)")
    _add_param_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser("sweep", help="sweep the threshold exponent alpha")
    p_sweep.add_argument("corpus", help="directory containing mutant bundles")
    p_sweep.add_argument("--alphas", default="0.3,0.5,0.8,1.0",
                         help="comma-separated exponents (default 0.3,0.5,0.8,1.0)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    _add_param_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ExhaustedTargets) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
