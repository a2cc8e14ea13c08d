"""The command-line contract: the last stdout line, the metric names in
BENCHMARK.json, and refusal to run without the program's sources."""
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.per_layer_names()
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_every_metric(trace, key):
    proc = bench("--workload", "cli_suite", "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 12
    assert set(res["metrics"]) == {m["name"] for m in SPEC[key]}
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks")
    proc = bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
