"""The traced benchmark stays whole.

A `--trace 1` run replaces functions of the package by name and reads
the shapes of their results, so a renamed function or a changed result
shows up here instead of as a benchmark run that prints no result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = sorted(m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"])


def _strict(constant):
    raise ValueError(f"{constant} is not a JSON number")


@pytest.mark.parametrize("workload", ["check-corpus", "check-mutants", "run-trace"])
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    # a copy of the harness beside a link to src/, so its spans land in tmp_path
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # strict JSON: NaN and Infinity are refused
    result = json.loads(lines[-1], parse_constant=_strict)
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == PER_LAYER
    # counted only while calls reach the wrappers installed on the rules
    for name in ("rules.step.calls", "engine.apply_instance.calls", "engine.enabled_rules.calls"):
        assert result["metrics"][name]["value"] > 0, name
    assert [l for l in lines if l.startswith("absent (wrapped name gone)")] == []
