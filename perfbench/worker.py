"""One benchmark worker process.

run.py starts this script once per set-up it measures.  The worker
imports msar from the checkout's src/, generates its inputs with
msar.data.write_synthetic from the seed, builds the workload's network,
runs one warm-up step, and then timed training steps in a closed loop
(each step starts when the previous one has finished) for its share of
the run's seconds, and then `evaluate` passes on a generated split.  The
last worker of a run also computes the float64 reference loss (for a
float32 workload) and runs
`msar train` + `msar eval` on the smoke config.  With --trace 1 it additionally runs traced steps
and times the CLI's data, augment, evaluate and weight calls.

The result is written as JSON to --out; run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_CONFIG = os.path.join(ROOT, "configs", "toy_smoke_msar.cfg")
TRAIN_BATCHES = 4    # distinct batches the closed loop cycles through
LR = 0.1
EVAL_SECONDS = 1.0   # evaluate passes repeat for at least this long


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="closed-loop step budget of this worker")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--last", type=int, choices=(0, 1), default=0,
                   help="also run the reference and CLI phases")
    p.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn", type=float, required=True,
                   help="time.monotonic() at which the parent started this process")
    p.add_argument("--work", required=True, help="scratch directory for generated files")
    p.add_argument("--out", required=True, help="result JSON path")
    return p.parse_args(argv)


class Checks:
    """Correctness checks, counted as failed out of attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def network_spec(wl):
    from msar.blocks import MsarSettings, densenet_cifar, resnet_cifar
    from msar.config import parse_config, to_network_spec
    if wl.net == "smoke":
        with open(SMOKE_CONFIG, encoding="utf-8") as fh:
            return to_network_spec(parse_config(fh.read()))
    settings = MsarSettings(scales=(1, 2, 4), strategy=wl.strategy)
    if wl.net == "resnet20":
        return resnet_cifar(20, wl.classes, settings)
    return densenet_cifar(40, 12, wl.classes, settings)


def synthetic_split(path, images, classes, seed):
    from msar.data import load_records, write_synthetic
    per_class = -(-images // classes)
    write_synthetic(path, per_class=per_class, classes=tuple(range(classes)), seed=seed)
    x, y = load_records(path, "cifar10")
    return x[:images], y[:images]


def run_cli_phase(args, checks, timer, target_err, epochs, train_pc, test_pc):
    """`msar train` then `msar eval` on the smoke config; returns metrics."""
    import msar.cli
    import msar.training
    from msar.config import parse_config, serialize_config
    from msar.data import write_synthetic

    data = os.path.join(args.work, "toy")
    os.makedirs(data, exist_ok=True)
    train_bin, test_bin = os.path.join(data, "train.bin"), os.path.join(data, "test.bin")
    write_synthetic(train_bin, per_class=train_pc, classes=(0, 1), seed=2 * args.seed)
    write_synthetic(test_bin, per_class=test_pc, classes=(0, 1), seed=2 * args.seed + 1)
    with open(SMOKE_CONFIG, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    cfg.run_epochs = epochs
    cfg.run_log_timing = True
    cfg.data_train_path, cfg.data_test_path = train_bin, test_bin
    if args.tiny:
        cfg.run_batch_size = 10
    cfg_path = os.path.join(args.work, "smoke.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
    out = os.path.join(args.work, "smoke-run")

    targets = []
    if timer is not None:
        targets = [(msar.cli, "load_records", "data.load_ms"),
                   (msar.training, "augment", "data.augment_ms"),
                   (msar.training, "evaluate", "training.evaluate_ms"),
                   (msar.cli, "evaluate", "training.evaluate_ms"),
                   (msar.cli, "save_weights", "weights.save_ms"),
                   (msar.cli, "load_weights", "weights.load_ms")]
    patch = timer.patched(targets) if timer is not None else contextlib.nullcontext()
    with patch:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = msar.cli.main(["train", cfg_path, "--out", out])
        train_run_s = time.perf_counter() - start
        curve_path = os.path.join(out, "curve.csv")
        weights_path = os.path.join(out, "weights.bin")
        checks.check(code == 0, f"msar train exited {code}")
        have_files = os.path.exists(curve_path) and os.path.exists(weights_path)
        checks.check(have_files, "msar train left no curve.csv or weights.bin")
        if not have_files:
            # a failed run: the failed checks mark the result incorrect
            return {"train_run_s": train_run_s, "epoch_seconds": [train_run_s],
                    "time_to_target_s": train_run_s}
        with open(curve_path, encoding="utf-8") as fh:
            header, *lines = fh.read().split()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        seconds = [float(r["seconds"]) for r in rows]
        reached = [i for i, r in enumerate(rows) if float(r["train_err"]) <= target_err]
        checks.check(float(rows[-1]["train_err"]) <= target_err,
                     f"final train_err {rows[-1]['train_err']} above {target_err}")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = msar.cli.main(["eval", cfg_path, weights_path])
    checks.check(code == 0, f"msar eval exited {code}")
    printed = stdout.getvalue().rsplit("test_err=", 1)[-1].strip()
    checks.check(printed == rows[-1]["test_err"],
                 f"msar eval test_err {printed} != curve {rows[-1]['test_err']}")
    return {"train_run_s": train_run_s,
            "epoch_seconds": seconds,
            # an unreached target is a failed check above; report the whole run then
            "time_to_target_s": sum(seconds[:reached[0] + 1] if reached else seconds)}


def main(argv=None):
    args = parse_args(argv)
    from workloads import (CLI_EPOCHS, CLI_TEST_PER_CLASS, CLI_TRAIN_PER_CLASS,
                           TARGET_TRAIN_ERR, TINY_BATCH, TINY_CLI, TINY_EVAL_IMAGES,
                           WORKLOADS)
    wl = WORKLOADS[args.workload]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import msar
    if not os.path.abspath(msar.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"msar imported from {msar.__file__}, not from this checkout's src/")
    from msar.blocks import build_network
    from msar.costs import report
    from msar.data import channel_stats, normalize
    from msar.tensor import Tape, Tensor, backward, cross_entropy
    from msar.training import NesterovSGD, evaluate

    dtype = np.float64 if wl.precision == 64 else np.float32
    batch = TINY_BATCH if args.tiny else wl.batch
    eval_images = TINY_EVAL_IMAGES if args.tiny else wl.eval_images
    checks = Checks()
    os.makedirs(args.work, exist_ok=True)

    # -- set-up: inputs, network, warm-up step ---------------------------------
    raw_x, train_y = synthetic_split(os.path.join(args.work, "train.bin"),
                                     batch * TRAIN_BATCHES, wl.classes, args.seed)
    mean, std = channel_stats(raw_x)
    train_x = normalize(raw_x, mean, std, dtype)
    spec = network_spec(wl)
    net = build_network(spec, seed=args.seed, dtype=dtype)
    opt = NesterovSGD(net.parameters())
    batches = [(train_x[i * batch:(i + 1) * batch], train_y[i * batch:(i + 1) * batch])
               for i in range(TRAIN_BATCHES)]

    def step(i, loss_fn=cross_entropy, tracer=None):
        """One forward/backward/optimizer step; returns (loss, step s, backward s)."""
        xb, yb = batches[i % TRAIN_BATCHES]
        start = time.perf_counter()
        opt.zero_grad()
        with Tape() as tape:
            loss = loss_fn(net.forward(Tensor(xb, dtype=dtype), training=True), yb)
            if tracer is not None:
                tracer.after_forward(tape, dtype)
            mid = time.perf_counter()
            backward(tape, loss)
        opt_start = time.perf_counter()
        opt.step(LR)
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_step(tape, end - opt_start, end - start)
        return loss.item(), end - start, opt_start - mid

    warm_loss, _, _ = step(0)
    setup_s = time.monotonic() - args.spawn

    # -- closed-loop timed steps -------------------------------------------------
    budget = args.seconds / 2 if args.trace else args.seconds
    step_s, backward_s = [], []
    began = time.perf_counter()
    while not step_s or time.perf_counter() - began < budget:
        loss, s, b = step(len(step_s) + 1)
        checks.check(math.isfinite(loss), f"non-finite loss {loss} at step {len(step_s) + 1}")
        step_s.append(s)
        backward_s.append(b)

    result = {"setup_s": setup_s, "batch": batch, "warm_loss": warm_loss,
              "step_s": step_s, "backward_s": backward_s}

    if args.trace:
        from layertrace import StepTracer
        tracer = StepTracer()
        with tracer.patched():
            loss_fn = tracer.timed(cross_entropy)
            began = time.perf_counter()
            while not tracer.steps or time.perf_counter() - began < budget:
                loss, _, _ = step(len(step_s) + tracer.steps + 1, loss_fn, tracer)
                checks.check(math.isfinite(loss), f"non-finite traced loss {loss}")
        result["trace"] = tracer.summary(report(spec).rows, batch)

    # -- evaluate on a fixed generated split ------------------------------------
    raw_ex, eval_y = synthetic_split(os.path.join(args.work, "eval.bin"), eval_images,
                                     wl.classes, args.seed + 1)
    eval_x = normalize(raw_ex, mean, std, dtype)
    result["eval_s"] = []
    began = time.perf_counter()
    while not result["eval_s"] or time.perf_counter() - began < EVAL_SECONDS:
        start = time.perf_counter()
        eval_loss, eval_err = evaluate(net, eval_x, eval_y, batch_size=batch)
        result["eval_s"].append(time.perf_counter() - start)
        checks.check(math.isfinite(eval_loss) and 0.0 <= eval_err <= 1.0,
                     f"evaluate gave loss {eval_loss}, error {eval_err}")
    result["eval_images"] = len(eval_y)

    if args.last:
        # -- the seed's reference loss: the first batch through the initial
        #    network in float64, with no tape.  For a float64 workload that
        #    is the warm-up step's own forward, so run.py compares workers. --
        if dtype != np.float64:
            ref_net = build_network(spec, seed=args.seed, dtype=np.float64)
            ref_x = normalize(raw_x[:batch], mean, std, np.float64)
            logits = ref_net.forward(Tensor(ref_x, dtype=np.float64), training=True)
            result["ref_loss"] = cross_entropy(logits, train_y[:batch]).item()
            del ref_net, logits

        # -- msar train + msar eval on the smoke config -----------------------------
        timer = None
        if args.trace:
            from layertrace import CallTimer
            timer = CallTimer()
        epochs, train_pc, test_pc = (TINY_CLI if args.tiny else
                                     (CLI_EPOCHS, CLI_TRAIN_PER_CLASS, CLI_TEST_PER_CLASS))
        result["cli"] = run_cli_phase(args, checks, timer, TARGET_TRAIN_ERR,
                                      epochs, train_pc, test_pc)
        if timer is not None:
            result["cli"]["calls_ms"] = {k: 1000.0 * v for k, v in timer.seconds.items()}

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = checks.attempted
    result["failed"] = checks.failed
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
