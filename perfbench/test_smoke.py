"""Smoke self-test of the benchmark: every workload at a tiny size emits every
metric BENCHMARK.json names, with its unit, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(w: workloads.Workload) -> workloads.Workload:
    return replace(w, page="p00", ratio=0.05, mutants=1, min_cycles=1,
                   iterations=min(w.iterations, 3))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(name, trace, section):
    result = workloads.Bench(tiny(workloads.WORKLOADS[name]), seed=1, seconds=0.0,
                             trace=trace).run()
    assert result.correct and result.failed == 0 and result.attempted >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: result.units[k] for k in result.metrics} == expected
    assert all(isinstance(v, float) for v in result.metrics.values())


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(30)]
    assert workloads.tail(times) == (19.0, pytest.approx(100 * 20 / 30))
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ted_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
