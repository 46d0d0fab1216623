"""Self-test of the benchmark, on short runs with a fixed seed.

    python3 -m pytest bench/test_bench.py -q -s

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that no operation fails at this commit (each workload's
failed_frac is printed), that every per-layer count of the traced run
repeats exactly for a fixed seed, and that the benchmark refuses to run
where the package sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 1

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_runner():
    sys.path.insert(0, HERE)
    import run as runner
    import tracer
    import workloads

    assert units("end_to_end") == runner.END_TO_END
    assert units("per_layer") == tracer.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    ctx, res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    print(f"\n{workload}: failed_frac {ctx['failed_frac']} of {res['attempted']}"
          f" {ctx['failures']}")
    assert res["failed"] == 0 and res["correct"], ctx["failures"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    _, first = result(workload, 1)
    _, second = result(workload, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units("per_layer")
    counts = [k for k, unit in units("per_layer").items() if unit != "ms"]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts}
    assert first["failed"] == 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
