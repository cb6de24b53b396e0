"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at tiny size (a few images per batch, one CLI
epoch), untraced and traced, and asserts that each run prints every
metric BENCHMARK.json names, with its unit and a finite value; that the
traced table covers every row of the workload's cost report and traces
no layer the report lacks; and that the benchmark fails, without a
result line, in a copy that holds only BENCHMARK.json and perfbench/.
Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from msar.costs import report  # noqa: E402

from worker import network_spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, declared, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["correct"], bool), label
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], label
    metrics = result["metrics"]
    assert set(metrics) == set(declared), \
        f"{label}: missing {set(declared) - set(metrics)}, extra {set(metrics) - set(declared)}"
    for name, m in metrics.items():
        assert m["unit"] == declared[name], f"{label}: {name} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{label}: {name} = {m['value']}"


def check_join(proc, workload):
    """Every cost-report row appears in the traced table, and nothing else is unknown."""
    spec = network_spec(WORKLOADS[workload])
    rows = {r.name for r in report(spec).rows}
    lines = proc.stdout.splitlines()
    assert not any(line.startswith("cost rows with no trace") for line in lines), workload
    layers = {line.split()[0] for line in lines[1:] if line.strip()}
    assert rows <= layers, f"{workload}: rows not in table: {sorted(rows - layers)}"


def check_fails_without_sources():
    bare = os.path.join(HERE, ".work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(next(iter(WORKLOADS)), 0, cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without msar sources"
        assert not proc.stdout.strip(), f"printed output without sources: {proc.stdout!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench["paths"]) == {"perfbench"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        check_result(run(workload, 0), end_to_end, f"{workload} untraced")
        traced = run(workload, 1)
        check_result(traced, per_layer, f"{workload} traced")
        check_join(traced, workload)
        print(f"ok  {workload}")
    check_fails_without_sources()
    print("ok  fails without msar sources")


if __name__ == "__main__":
    main()
