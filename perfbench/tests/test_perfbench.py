"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q

Tiny-scale runs use :data:`perfbench.recipe.TINY`, so the whole file
takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import tracing, workloads
from perfbench.recipe import TINY

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_carry_units_and_match_the_spec():
    spec = _spec()
    for group, table in (
        ("end_to_end", workloads.END_TO_END),
        ("per_layer", workloads.PER_LAYER),
    ):
        listed = {metric["name"]: metric["unit"] for metric in spec[group]}
        assert listed == table
        for name, unit in listed.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(workload, tmp_path):
    result = workloads.run_workload(
        workload, seed=3, seconds=0.4, trace=False, workdir=tmp_path,
        recipe=TINY,
    )
    assert result.failures == []
    printed = result.as_json()
    assert printed["correct"] is True and printed["attempted"] >= 1
    assert set(printed["metrics"]) == set(workloads.END_TO_END)
    assert tracing.installed() == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_layers_and_leaves_no_wrapper(workload, tmp_path):
    result = workloads.run_workload(
        workload, seed=3, seconds=0.4, trace=True, workdir=tmp_path,
        recipe=TINY, trace_path=tmp_path / "trace.jsonl",
    )
    assert result.failures == []
    assert set(result.as_json()["metrics"]) == set(workloads.PER_LAYER)
    assert result.metrics["models.train_step_ms"] > 0
    assert (tmp_path / "trace.jsonl").stat().st_size > 0
    assert tracing.installed() == []


def test_untraced_run_refuses_leftover_wrappers(tmp_path):
    with tracing.Instrumentation(tracing.Tracer()):
        assert "nn.attention" in tracing.installed()
        with pytest.raises(RuntimeError, match="wrappers"):
            workloads.run_workload(
                "extract", seed=3, seconds=0.1, trace=False,
                workdir=tmp_path, recipe=TINY,
            )
    assert tracing.installed() == []


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    own = tracer.self_times([(0.0, float("inf"))])
    (__, __, start, end, __, __), = [s for s in tracer.spans if s[0] == "outer"]
    assert own["outer"] + own["inner"] == pytest.approx(end - start)


def test_command_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deploy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
