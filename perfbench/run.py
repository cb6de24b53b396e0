"""msar benchmark: closed-loop training steps, evaluation and the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and why each was chosen are in perfbench/workloads.py and
BENCHMARK.json.  Load comes from one worker process at a time in a
closed loop, with BLAS threads set to the machine's core count.

--trace 0 starts SETUPS workers one after another.  Each measures its
own set-up (interpreter start, imports, data generation and load,
build_network and a warm-up step), times training steps for S/SETUPS
seconds and then `evaluate` passes; the last one also runs
`msar train` + `msar eval` on the smoke config.  The end-to-end metrics
are medians over the workers' samples.  On a shared 2-core VM the
speed drifts by about 10% over minutes, so samples spread over
separate workers average better than more samples in one.

--trace 1 starts one worker that times untraced steps for S/2 seconds
and traced steps for S/2 seconds, and prints the per-layer table keyed
by the cost report's layer names before the per-layer metrics.

Every run checks its outputs: finite losses, the first step's loss
against a float64 reference computed from the seed, and the smoke CLI
run's exit codes, artifacts, training target and eval reproduction.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records
the machine (nproc, Python, numpy, BLAS build and BLAS threads).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 2                # worker processes, so set-ups, per untraced run
DEADLINE_S = 170.0        # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="msar benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-check sizes: a few images per batch, one CLI epoch")
    return p.parse_args(argv)


def worker_env(nproc):
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc)
    return env


def machine(nproc):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": nproc}


def run_workers(args, work, nproc):
    """Start the workers one after another; return their result dicts."""
    count = 1 if args.trace else SETUPS
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for i in range(count):
        out = os.path.join(work, f"worker{i}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / count), "--trace", str(args.trace),
               "--last", str(int(i == count - 1)), "--tiny", str(int(args.tiny)),
               "--work", os.path.join(work, f"w{i}"), "--out", out]
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawn", repr(spawn)], env=worker_env(nproc),
                                stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"worker {i} exceeded the {DEADLINE_S:.0f} s run deadline")
        if code != 0:
            sys.exit(f"worker {i} exited with code {code}")
        with open(out, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def reference_failures(results, precision):
    """Compare each worker's first loss with the seed's float64 reference loss.

    For a float32 workload the last worker computed the reference; the
    tolerance is 1000 float32 epsilons, relative.  For a float64 workload the
    reference is the warm-up step's own forward, so every later worker's
    first loss must equal the first worker's exactly.  Returns the number
    of comparisons and the failures.
    """
    if precision == 64:
        ref, rtol, checked = results[0]["warm_loss"], 0.0, results[1:]
    else:
        ref, rtol, checked = results[-1]["ref_loss"], 1000 * 2.0 ** -23, results
    return len(checked), [f"first-step loss {r['warm_loss']!r} vs reference {ref!r}"
                          for r in checked if not abs(r["warm_loss"] - ref) <= rtol * abs(ref)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results):
    steps = [s for r in results for s in r["step_s"]]
    images = sum(r["batch"] * len(r["step_s"]) for r in results)
    cli = results[-1]["cli"]
    print(f"steps timed: {len(steps)} over {len(results)} workers; "
          f"step_s p50 {statistics.median(steps):.4f} max {max(steps):.4f}; "
          f"smoke CLI epochs: {len(cli['epoch_seconds'])}")
    return {
        "train_img_per_s": metric(images / sum(steps), "img/s"),
        "step_s_p50": metric(statistics.median(steps), "s"),
        "eval_img_per_s": metric(statistics.median(
            r["eval_images"] / s for r in results for s in r["eval_s"]), "img/s"),
        "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in results), "MB"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in results), "s"),
        "train_run_s": metric(cli["train_run_s"], "s"),
        "epoch_s_p50": metric(statistics.median(cli["epoch_seconds"]), "s"),
        "time_to_target_s": metric(cli["time_to_target_s"], "s"),
    }


def print_table(trace):
    print(f"{'layer':<28} {'MACs/image':>12} {'fwd ms':>10} {'bwd ms':>10}")
    for row in trace["table"]:
        macs = "" if row["macs_per_image"] is None else row["macs_per_image"]
        print(f"{row['layer']:<28} {macs:>12} {row['fwd_ms']:>10.3f} {row['bwd_ms']:>10.3f}")
    if trace["unmeasured_rows"] or trace["unknown_layers"]:
        print(f"cost rows with no trace: {trace['unmeasured_rows']}; "
              f"traced layers with no cost row: {trace['unknown_layers']}")


def per_layer(result):
    t = result["trace"]
    untraced_ms = 1000.0 * statistics.median(result["step_s"])
    traced_ms = t["traced_step_ms"]
    out = {}
    for group, fields in (("tensor.conv2d", ("fwd_ms", "bwd_ms", "calls")),
                          ("pooling.coordinate_avg_pool", ("fwd_ms", "bwd_ms", "calls")),
                          ("pooling.broadcast_weights", ("fwd_ms", "bwd_ms")),
                          ("tensor.sigmoid", ("fwd_ms", "bwd_ms")),
                          ("tensor.batch_norm", ("fwd_ms", "bwd_ms", "calls")),
                          ("tensor.linear", ("fwd_ms", "bwd_ms", "calls")),
                          ("tensor.elementwise", ("fwd_ms", "bwd_ms", "calls")),
                          ("tensor.concat_channels", ("fwd_ms", "bwd_ms", "calls")),
                          ("tensor.pool", ("fwd_ms", "bwd_ms", "calls"))):
        for field in fields:
            out[f"{group}.{field}"] = metric(t["ops"][group][field],
                                             "count" if field == "calls" else "ms")
    out["tensor.conv2d.gmac_per_s"] = metric(t["conv_gmac_per_s"], "GMAC/s")
    out["tape.retained_mb"] = metric(t["retained_mb"], "MB")
    out["tape.upcast_entries"] = metric(t["upcast_entries"], "count")
    out["tape.entries"] = metric(t["entries"], "count")
    out["tape.backward_ms"] = metric(1000.0 * statistics.median(result["backward_s"]), "ms")
    recal = t["recal"]
    out["recalibrate.sites.fwd_ms"] = metric(recal["fwd_ms"], "ms")
    out["recalibrate.sites.bwd_ms"] = metric(recal["bwd_ms"], "ms")
    out["recalibrate.sites.share"] = metric(
        (recal["fwd_ms"] + recal["bwd_ms"]) / traced_ms, "ratio")
    for group in ("stem", "stage0", "stage1", "stage2", "head", "transition"):
        for field in ("fwd_ms", "bwd_ms"):
            out[f"blocks.{group}.{field}"] = metric(t["groups"][group][field], "ms")
    out["training.optimizer_ms"] = metric(t["optimizer_ms"], "ms")
    calls = result["cli"]["calls_ms"]
    for name in ("training.evaluate_ms", "data.augment_ms", "data.load_ms",
                 "weights.save_ms", "weights.load_ms"):
        out[name] = metric(calls.get(name, 0.0), "ms")
    out["trace.coverage"] = metric(t["sum_ms"] / untraced_ms, "ratio")
    out["trace.overhead_pct"] = metric(100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "msar", "__init__.py")):
        sys.exit(f"no msar sources under {os.path.join(ROOT, 'src')}; "
                 "run from a full checkout")
    nproc = len(os.sched_getaffinity(0))
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        results = run_workers(args, work, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload]
    compared, failed = reference_failures(results, wl.precision)
    failed += [f for r in results for f in r["failed"]]
    attempted = sum(r["attempted"] for r in results) + compared
    for f in failed:
        print(f"check failed: {f}", file=sys.stderr)
    if args.trace:
        print_table(results[0]["trace"])
        metrics = per_layer(results[0])
    else:
        metrics = end_to_end(results)
    print("machine " + json.dumps(machine(nproc)))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
