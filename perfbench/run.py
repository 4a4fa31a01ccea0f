"""Benchmark for treematch: four workloads, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

One workload in this process:

    python3 perfbench/run.py --workload walk_mid --seed 1 --seconds 15 --trace 0

Every workload, each untraced and then traced, each in a fresh interpreter:

    python3 perfbench/run.py --seed 1 --seconds 15

Run from the repository root. The last line of a one-workload run is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the inputs (seed, Python version, nproc, pages, node and
edge counts). A failed output check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("walk_mid", "greedy_large", "mutate_mid", "ted_small")
CHILD_TIMEOUT_S = 180.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload here; omit to run all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure at least this long (whole cycles over the pairs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def layout_error() -> str | None:
    for needed in (ROOT / "src" / "treematch" / "__init__.py", ROOT / "corpus"):
        if not needed.exists():
            return f"{needed.relative_to(ROOT)} is missing; run from a full checkout"
    return None


def format_value(value: float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def report_lines(result) -> list[str]:
    r = result.record
    lines = [
        f"workload {r['workload']} seed {r['seed']} trace {r['trace']} python {r['python']} "
        f"nproc {r['nproc']} iterations {r['iterations']} cycles {r['cycles']} "
        f"samples {r['samples']} speed {r['speed']!r}"
    ]
    for p in r["pairs"]:
        extra = " ".join(f"{k} {p[k]}" for k in ("op_s", "edges", "cells", "ops", "rate", "optimal")
                         if k in p)
        lines.append(f"  pair {p['page']} ratio {p['ratio']} mutation_seed {p['mutation_seed']} "
                     f"nodes {p['source_nodes']}/{p['mutant_nodes']} {extra}")
    for name, value in result.metrics.items():
        lines.append(f"{name} {format_value(value)} {result.units[name]}")
    if "tail_percentile" in r:
        lines.append(f"op_s_tail {r['op_s_tail']!r} s (p{r['tail_percentile']:.1f} of "
                     f"{r['samples']} samples; reported here only)")
    lines.append(f"failed_frac {r['failed_frac']!r} ratio ({result.failed} of {result.attempted})")
    return lines + result.lines


def run_one(args: argparse.Namespace) -> int:
    sys.dont_write_bytecode = True
    from workloads import WORKLOADS, Bench

    result = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                   started=STARTED).run()
    lines = report_lines(result)
    print("\n".join(lines))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "record": result.record,
        "metrics": {k: {"value": v, "unit": result.units[k]} for k, v in result.metrics.items()},
        "report": lines,
    }, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": result.units[k]} for k, v in result.metrics.items()},
    }))
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload untraced, then traced, each in its own interpreter."""
    summary: list[str] = []
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                ok = False
                summary.append(f"{name} trace {trace}: no result within {CHILD_TIMEOUT_S:.0f} s")
                continue
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                summary.append(f"{name} trace {trace}: FAILED (exit {proc.returncode})")
                if result is None:
                    continue
            summary.append(f"{name} trace {trace}: failed_frac "
                           f"{result['failed'] / result['attempted']!r} ratio")
            shown = result["metrics"] if trace == 0 else {
                k: v for k, v in result["metrics"].items() if k == "trace.overhead"}
            for metric, m in shown.items():
                summary.append(f"{name} {metric} {format_value(m['value'])} {m['unit']}")
    print("\n== summary ==")
    print("\n".join(summary))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    problem = layout_error()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
