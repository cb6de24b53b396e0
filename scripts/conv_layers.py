"""conv2d forward and backward time per layer shape, parent against change.

Usage: python3 scripts/conv_layers.py --parent DIR [--reps 5]

Loads msar.tensor from this checkout and from DIR into one process and
takes each workload's conv shapes from its layer plan (blocks.plan) at
its batch and precision.  After a warm-up, each repetition times the
forward and the backward closure on both sides, alternating which goes
first; each line holds one shape's medians in ms, parent -> change.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from msar.blocks import plan  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from worker import network_spec  # noqa: E402


def load_tensor(tree, name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(tree, "src", "msar", "tensor.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def conv_shapes(wl):
    """{(c_in, c_out, input side, k, stride): [layer names]} of one workload."""
    shapes = {}
    for cls, name, geometry in plan(network_spec(wl)):
        for layer in cls.layers(name, *geometry, None):
            if layer.op in ("conv", "compress"):
                key = (layer.c_in, layer.c_out, layer.size * layer.stride, layer.k, layer.stride)
                shapes.setdefault(key, []).append(layer.name)
    return shapes


def time_once(tensor, x, k, og, stride, pad):
    xt, kt = tensor.Tensor(x), tensor.Tensor(k)
    start = time.perf_counter()
    with tensor.Tape() as tape:
        tensor.conv2d(xt, kt, stride=stride, pad=pad)
    middle = time.perf_counter()
    (_name, _out, bwd), = tape._entries
    bwd(og.copy())
    return 1e3 * (middle - start), 1e3 * (time.perf_counter() - middle)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--reps", type=int, default=5)
    args = p.parse_args(argv)
    sides = {"parent": load_tensor(args.parent, "parent_tensor"),
             "change": load_tensor(ROOT, "change_tensor")}
    rng = np.random.default_rng(0)
    print("workload  layer (count)  c_in->c_out side kxk/stride  fwd ms  bwd ms  (parent -> change)")
    for wl in WORKLOADS.values():
        dtype = np.float64 if wl.precision == 64 else np.float32
        for (c, f, side, ks, stride), names in conv_shapes(wl).items():
            out_side = (side + 2 * (ks // 2) - ks) // stride + 1
            x, k, og = (rng.standard_normal(shape).astype(dtype) for shape in
                        ((wl.batch, c, side, side), (f, c, ks, ks), (wl.batch, f, out_side, out_side)))
            times = {name: [] for name in sides}
            for rep in range(args.reps + 1):
                for name in sides if rep % 2 == 0 else list(sides)[::-1]:
                    ms = time_once(sides[name], x, k, og, stride, ks // 2)
                    if rep:
                        times[name].append(ms)
            (pf, pb), (cf, cb) = ([statistics.median(t) for t in zip(*times[s])] for s in sides)
            print(f"{wl.name}  {names[0]} ({len(names)})  {c}->{f} {side}² {ks}x{ks}/{stride}"
                  f"  {pf:.1f} -> {cf:.1f}  {pb:.1f} -> {cb:.1f}", flush=True)


if __name__ == "__main__":
    main()
