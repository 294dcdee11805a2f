"""Smoke test of the benchmark: every metric named in BENCHMARK.json is
emitted, with its unit and direction, on every workload.

Run from the repository root (takes about a minute)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFINITIONS = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
_ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+\((lower|higher) is better\)$")


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    rows = {}
    for line in lines[:-1]:
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = (match.group(3), match.group(4))
    return json.loads(lines[-1]), rows


def test_definitions_match_benchmark_json():
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in BENCHMARK[section]]
        assert names == list(DEFINITIONS[section]), section
        for metric in BENCHMARK[section]:
            spec = DEFINITIONS[section][metric["name"]]
            assert (metric["unit"], metric["better"]) == (spec["unit"], spec["better"])
    assert WORKLOADS == list(DEFINITIONS["workloads"])
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == DEFINITIONS["workloads"][workload["name"]]["why"]
    for name, spec in DEFINITIONS["end_to_end"].items():
        assert set(spec["per_workload"]) == set(WORKLOADS), name
        assert set(spec["fed_by"]) <= set(DEFINITIONS["per_layer"]), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit_and_direction(workload, trace):
    result, rows = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for metric in BENCHMARK[section]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        assert rows[metric["name"]] == (metric["unit"], metric["better"])
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_fails_without_library_sources(tmp_path):
    """Outside a checkout (no src/) the benchmark exits non-zero, no result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
