"""Alternating parent/change benchmark pairs, summarized into BENCH_<label>.json.

Usage:

    python3 scripts/bench_pairs.py --parent REV --label NAME [--pairs 10] [--seed 5000]

Both sides are built the same way: the parent revision REV and HEAD of
the repository holding this script are each `git archive`d into
parent/ and change/ under one fresh temporary directory, so both run
from committed files at paths of equal length (uncommitted edits are
not measured).  For every workload W in BENCHMARK.json, pair i runs
`python3 perfbench/run.py --workload W --seed SEED+i --seconds T
--trace 0` once in each tree, one run at a time, the parent first in
even pairs and the change first in odd ones; T is BENCHMARK.json's
run_seconds.  BENCH_<label>.json then holds both sides' commit hashes
and, per workload and end-to-end metric, both sides' medians and
quartiles, the pairs the change won and lost (ties count for neither),
a verdict against the metric's bound (see verdict),
failed and attempted checks with each failure's side, seed and message,
and the machine line of the runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CHECK_FAILED = "check failed: "


def build_trees(repo, parent, root):
    """`git archive` revision parent and HEAD of repo into root/parent and
    root/change: {side: (tree, commit hash)}."""
    trees = {}
    for side, rev in zip(SIDES, (parent, "HEAD")):
        commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=repo,
                                capture_output=True, text=True, check=True).stdout.strip()
        archive = subprocess.run(["git", "archive", commit], cwd=repo,
                                 capture_output=True, check=True).stdout
        tree = os.path.join(root, side)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        trees[side] = (tree, commit)
    return trees


def run_once(tree, workload, seed, seconds):
    """One benchmark run: (result dict, machine dict); failures count as a failed check.

    The result also holds the run's seed and what failed: run.py's
    `check failed:` lines, or the last line a run that stopped early
    wrote to standard error.
    """
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    errors = proc.stderr.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failed": 1, "attempted": 1, "metrics": {}, "seed": seed,
                "failures": errors[-1:] or [f"exit code {proc.returncode}"]}, None
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["failures"] = [line[len(CHECK_FAILED):] for line in errors
                          if line.startswith(CHECK_FAILED)]
    return result, machine


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent, change, higher, bound):
    """One metric's verdict on its runs, against its bound: worse, unresolved or ok.

    Worse: the change's median is worse than the parent's by more than
    bound x the parent's median.  Unresolved: either side's quartile gap
    exceeds bound x its own median, unless every change run beats every
    parent run.
    """
    p, c = spread(parent), spread(change)
    lag = p["median"] - c["median"] if higher else c["median"] - p["median"]
    if lag > bound * p["median"]:
        return "worse"
    beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
    wide = any(s["q3"] - s["q1"] > bound * s["median"] for s in (p, c))
    return "unresolved" if wide and not beats_all else "ok"


def summarize(pairs, metric_specs):
    """pairs: [(parent result, change result)] of one workload."""
    out = {f"{key}_{side}": sum(r[key] for r in results)
           for key in ("failed", "attempted")
           for side, results in zip(SIDES, zip(*pairs))}
    out["failures"] = [{"side": side, "seed": r.get("seed"), "what": what}
                       for side, results in zip(SIDES, zip(*pairs))
                       for r in results for what in r.get("failures", [])]
    metrics = {}
    for spec in metric_specs:
        name, higher = spec["name"], spec["better"] == "higher"
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        wins = sum((c > p) if higher else (c < p) for p, c in both)
        losses = sum((c < p) if higher else (c > p) for p, c in both)
        parent, change = zip(*both)
        metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                         "parent": spread(parent), "change": spread(change),
                         "pairs": len(both), "wins": wins, "losses": losses}
        if "bound" in spec:
            metrics[name]["verdict"] = verdict(parent, change, higher, spec["bound"])
    out["metrics"] = metrics
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--label", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=5000)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    report = {"label": args.label, "pairs": args.pairs, "seed": args.seed,
              "seconds": bench["run_seconds"], "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as root:
        trees = build_trees(ROOT, args.parent, root)
        report["commits"] = {side: commit for side, (_, commit) in trees.items()}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(args.pairs):
                pair = {}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    pair[side], machine = run_once(trees[side][0], workload, args.seed + i,
                                                   bench["run_seconds"])
                    report["machine"] = machine or report["machine"]
                pairs.append((pair["parent"], pair["change"]))
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            report["workloads"][workload] = summarize(pairs, bench["end_to_end"])
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
