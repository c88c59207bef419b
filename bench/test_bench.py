"""Tests of the benchmark itself; run with ``python3 -m pytest bench/test_bench.py``.

They start the benchmark as a user would and take about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def _run(*args: str, run: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run), *args], capture_output=True,
                          text=True, timeout=170, cwd=run.parent.parent)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_mode_checks_a_few_ops_of_every_workload():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 12


def test_traced_counts_repeat_and_self_times_add_up():
    runs = [_last_json(_run("--workload", "apply_wide", "--seed", "7", "--seconds", "0",
                            "--trace", "1")) for _ in range(2)]
    first, second = (r["metrics"] for r in runs)
    for name, metric in first.items():
        if metric["unit"] == "count/op":
            assert metric["value"] == second[name]["value"], name
    layers = sum(m["value"] for name, m in first.items()
                 if name.endswith(".self_s") and name.count(".") == 1
                 and not name.startswith("import."))
    assert abs(layers - first["op.traced_s"]["value"]) <= 1e-9


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "apply_wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                run=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
