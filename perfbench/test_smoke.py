"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Short runs of every workload: with ``--seconds 0`` a timed run stops
after one pass over the corpus and a traced run after one op, so both
always run the same ops. The same seed must give the same corpus and
count digests, the printed metric names must be the ones BENCHMARK.json
declares, and no op may fail. The repository's test suite does not
collect this file; it takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_and_digests(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digests = re.search(r"corpus digest (\w+), count digest (\w+)", proc.stdout).groups()
    return result, digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digests_and_declared_metrics(workload):
    runs = [bench("--workload", workload, "--seed", 7, "--seconds", 0, "--trace", 0) for _ in range(2)]
    (first, digests), (second, again) = map(result_and_digests, runs)
    assert digests == again
    assert first["attempted"] == second["attempted"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload, calls_lp", [("sweep3", False), ("glue4", True)])
def test_default_seed_traced_run_prints_per_layer_metrics(workload, calls_lp):
    result, _ = result_and_digests(
        bench("--workload", workload, "--seed", 1, "--seconds", 0, "--trace", 1)
    )
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"] and result["failed"] == 0
    assert (result["metrics"]["feasibility.feasible_calls"]["value"] > 0) == calls_lp


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{") and '"correct"' not in proc.stdout
