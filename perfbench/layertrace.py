"""Per-layer tracing of training steps, done entirely from outside msar.

While a StepTracer is active it replaces, in the namespaces of
msar.blocks and msar.recalibrate, every op those modules import from
msar.tensor / msar.pooling with a wrapper that times the op's forward
call, and every module class's forward with a wrapper that records
which tape entries the module produced (tape length before and after).
After the forward pass it wraps each recorded backward closure with a
timer, so backward() times every entry too.  Each tape entry is owned
by the innermost module that produced it; leaf owners are named like
the rows of costs.report (`stage0.block0.conv1`, ...).
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict

import numpy as np

import msar.blocks
import msar.recalibrate
from msar.tensor import Tensor, active_tape

# tape op name -> per-layer metric prefix
OP_GROUPS = {
    "conv2d": "tensor.conv2d",
    "batch_norm": "tensor.batch_norm",
    "linear": "tensor.linear",
    "relu": "tensor.elementwise", "add": "tensor.elementwise",
    "mul": "tensor.elementwise", "scale": "tensor.elementwise",
    "reshape": "tensor.elementwise",
    "sigmoid": "tensor.sigmoid",
    "concat_channels": "tensor.concat_channels",
    "global_avg_pool": "tensor.pool", "avg_pool2d": "tensor.pool",
    "max_pool2d": "tensor.pool",
    "coordinate_avg_pool": "pooling.coordinate_avg_pool",
    "broadcast_weights": "pooling.broadcast_weights",
    "cross_entropy": "tensor.cross_entropy",
}
STAGE_GROUPS = ("stem", "stage0", "stage1", "stage2", "head")
LEAF_MODULES = (msar.blocks.Conv, msar.blocks.BatchNorm, msar.blocks.Linear,
                msar.recalibrate.MultiScaleRecalibration)
BLOCK_MODULES = (msar.blocks.ResidualBlock, msar.blocks.DenseStep,
                 msar.blocks.PlainBlock, msar.blocks.Transition)
PATCHED_NAMESPACES = (msar.blocks, msar.recalibrate)


def retained_bytes(entries) -> int:
    """Bytes of every array a list of tape entries keeps alive.

    Counts each entry's output and every array or tensor its backward
    closure holds, once per underlying buffer (views count their base).
    """
    owners = {}

    def note(arr):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owners[id(arr)] = arr.nbytes

    for _name, out, fn in entries:
        note(out.data)
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                note(value)
            elif isinstance(value, Tensor):
                note(value.data)
    return sum(owners.values())


class StepTracer:
    """Accumulates per-entry forward/backward seconds over traced steps."""

    def __init__(self):
        self.steps = 0
        self.op_fwd = defaultdict(float)      # metric prefix -> seconds
        self.op_bwd = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.row_fwd = defaultdict(float)     # owner name -> seconds
        self.row_bwd = defaultdict(float)
        self.leaf_owners = set()
        self.entries = self.upcast = self.retained = 0
        self.optimizer_s = self.step_s = 0.0
        self._reset_step()

    def _reset_step(self):
        self._fwd = {}        # entry index -> forward seconds
        self._bwd = {}
        self._spans = []      # (depth, name, start, end, is_leaf)
        self._depth = 0

    # -- patching -----------------------------------------------------------

    def timed(self, fn):
        """Wrap an op so its forward time lands on the tape entry it records."""
        def op(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            tape = active_tape()
            if tape is not None:
                self._fwd[len(tape) - 1] = elapsed
            return out
        return op

    def _spanned_forward(self, fn, is_leaf):
        def forward(module, *args, **kwargs):
            tape = active_tape()
            start = len(tape) if tape is not None else 0
            self._depth += 1
            try:
                out = fn(module, *args, **kwargs)
            finally:
                self._depth -= 1
            if tape is not None:
                self._spans.append((self._depth, module.name, start, len(tape), is_leaf))
            return out
        return forward

    @contextlib.contextmanager
    def patched(self):
        """Install the op and module wrappers; restore the originals on exit."""
        saved = []
        for ns in PATCHED_NAMESPACES:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj.__module__ in ("msar.tensor", "msar.pooling"):
                    saved.append((ns, name, obj))
                    setattr(ns, name, self.timed(obj))
        for cls in LEAF_MODULES + BLOCK_MODULES:
            saved.append((cls, "forward", cls.forward))
            cls.forward = self._spanned_forward(cls.forward, cls in LEAF_MODULES)
        try:
            yield self
        finally:
            for target, name, obj in reversed(saved):
                setattr(target, name, obj)

    # -- one step -------------------------------------------------------------

    def after_forward(self, tape, dtype):
        """Measure what the tape holds, then time every backward closure."""
        entries = tape._entries
        self.entries += len(entries)
        self.upcast += sum(1 for _, out, _ in entries if out.dtype != dtype)
        self.retained += retained_bytes(entries)
        for i, (name, out, fn) in enumerate(entries):
            entries[i] = (name, out, self._timed_backward(i, fn))

    def _timed_backward(self, index, fn):
        def bwd(og):
            start = time.perf_counter()
            fn(og)
            self._bwd[index] = time.perf_counter() - start
        return bwd

    def end_step(self, tape, optimizer_s, step_s):
        names = [name for name, _, _ in tape._entries]
        owner = [None] * len(names)
        for _depth, name, start, end, is_leaf in sorted(self._spans, key=lambda s: s[0]):
            owner[start:end] = [name] * (end - start)
            if is_leaf:
                self.leaf_owners.add(name)
        first_stage = next((i for i, o in enumerate(owner)
                            if o is not None and o.startswith("stage")), len(owner))
        for i, op in enumerate(names):
            fwd, bwd = self._fwd.get(i, 0.0), self._bwd.get(i, 0.0)
            who = owner[i] or ("stem" if i < first_stage else "head")
            group = OP_GROUPS.get(op, f"tensor.{op}")
            self.op_fwd[group] += fwd
            self.op_bwd[group] += bwd
            self.op_calls[group] += 1
            self.row_fwd[who] += fwd
            self.row_bwd[who] += bwd
        self.optimizer_s += optimizer_s
        self.step_s += step_s
        self.steps += 1
        self._reset_step()

    # -- results --------------------------------------------------------------

    def _rows_ms(self, keep) -> dict:
        """Per-step forward and backward ms summed over the owners keep() selects."""
        return {"fwd_ms": 1000.0 * sum(v for k, v in self.row_fwd.items() if keep(k)) / self.steps,
                "bwd_ms": 1000.0 * sum(v for k, v in self.row_bwd.items() if keep(k)) / self.steps}

    def summary(self, cost_rows, batch: int) -> dict:
        """Everything run.py needs, as plain JSON-able values."""
        def ms(seconds):
            return 1000.0 * seconds / self.steps

        def top(owner):
            first = owner.split(".")[0]
            return "transition" if first.startswith("transition") else first

        ops_s = sum(self.op_fwd.values()) + sum(self.op_bwd.values())
        out = {"steps": self.steps,
               "ops": {g: {"fwd_ms": ms(self.op_fwd[g]), "bwd_ms": ms(self.op_bwd[g]),
                           "calls": self.op_calls[g] / self.steps}
                       for g in set(OP_GROUPS.values())},
               "groups": {g: self._rows_ms(lambda k, g=g: top(k) == g)
                          for g in STAGE_GROUPS + ("transition",)},
               "recal": self._rows_ms(lambda k: k.endswith(".recal")),
               "entries": self.entries / self.steps,
               "upcast_entries": self.upcast / self.steps,
               "retained_mb": self.retained / self.steps / 2 ** 20,
               "optimizer_ms": ms(self.optimizer_s),
               "traced_step_ms": ms(self.step_s),
               # every op's forward and backward time, plus the optimizer
               "sum_ms": ms(ops_s + self.optimizer_s)}
        row_names = [r.name for r in cost_rows]
        conv_macs = conv_s = 0.0
        table = []
        for r in cost_rows:
            fwd, bwd = ms(self.row_fwd.get(r.name, 0.0)), ms(self.row_bwd.get(r.name, 0.0))
            table.append({"layer": r.name, "macs_per_image": r.flops,
                          "fwd_ms": fwd, "bwd_ms": bwd})
            if r.name.rsplit(".", 1)[-1].startswith(("conv", "project")) and r.flops:
                conv_macs += r.flops
                conv_s += (fwd + bwd) / 1000.0
        for name in sorted(set(self.row_fwd) - set(row_names)):
            table.append({"layer": name, "macs_per_image": None,
                          "fwd_ms": ms(self.row_fwd[name]), "bwd_ms": ms(self.row_bwd[name])})
        out["table"] = table
        # forward plus the two backward products of every convolution
        out["conv_gmac_per_s"] = 3 * conv_macs * batch / conv_s / 1e9 if conv_s else 0.0
        out["unmeasured_rows"] = sorted(set(row_names) - self.leaf_owners)
        out["unknown_layers"] = sorted(self.leaf_owners - set(row_names))
        return out


class CallTimer:
    """Total seconds spent in named functions, patched by attribute."""

    def __init__(self):
        self.seconds = defaultdict(float)

    @contextlib.contextmanager
    def patched(self, targets):
        """targets: (namespace, attribute, metric name) triples."""
        saved = []
        for ns, attr, metric in targets:
            fn = getattr(ns, attr)
            saved.append((ns, attr, fn))
            setattr(ns, attr, self._timed(fn, metric))
        try:
            yield self
        finally:
            for ns, attr, fn in reversed(saved):
                setattr(ns, attr, fn)

    def _timed(self, fn, metric):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[metric] += time.perf_counter() - start
        return call
