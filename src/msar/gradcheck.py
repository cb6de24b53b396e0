"""Central finite-difference verification of taped gradients.

The test suite and the `gradcheck` CLI command both check every row of
operator_rows, the table of differentiable operators.  A check runs a
forward function under a tape, backpropagates a random linear probe of
the output, and compares each analytic gradient against
(f(x+h) - f(x-h)) / 2h at a sample of coordinates, all in float64.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .pooling import CoordinateSetSpec, excite, gate, project_pool, regional_pool
from .recalibrate import MultiScaleConfig, MultiScaleRecalibration
from .tensor import (BNState, Tape, Tensor, add, avg_pool2d, backward, batch_norm,
                     conv2d, cross_entropy, extend_channels, global_avg_pool, linear,
                     max_pool2d, mul, sum_all)

STEP = 1e-5
TOLERANCE = 1e-4


def relative_error(analytic: float, numeric: float) -> float:
    """|a - n| scaled by the larger magnitude, floored to dodge FD noise."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)


def check_gradients(fn, tensors, rng, samples_per_tensor=24):
    """Max relative error of d(probe . fn(tensors))/d(tensor) over samples.

    fn must return a single Tensor and be deterministic; tensors is the
    list of leaves to differentiate.  Returns the worst relative error
    found across every checked coordinate.
    """
    probe = Tensor(rng.uniform(-1.0, 1.0, size=fn().shape))
    for t in tensors:
        t.zero_grad()  # backward accumulates, stale grads would leak in
    with Tape() as tape:
        out = fn()
        loss = sum_all(mul(out, probe))
    backward(tape, loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    worst = 0.0
    for t, grad in zip(tensors, analytic):
        n = t.size
        idx = np.arange(n) if n <= samples_per_tensor else rng.choice(
            n, size=samples_per_tensor, replace=False)
        for i in idx:
            # index the array itself: reshape(-1) copies a non-C-contiguous one
            at = np.unravel_index(i, t.shape)
            keep = t.data[at]
            t.data[at] = keep + STEP
            hi = float((fn().data * probe.data).sum())
            t.data[at] = keep - STEP
            lo = float((fn().data * probe.data).sum())
            t.data[at] = keep
            numeric = (hi - lo) / (2.0 * STEP)
            err = relative_error(float(grad[at]), numeric)
            worst = max(worst, err)
    return worst


def operator_rows(cfg, rng):
    """(name, closure, leaf tensors) for every differentiable operator.

    Leaves are drawn from rng in row order, so one seed fixes them all;
    the ExperimentConfig cfg sets the recalibration row's scales and strategy.
    """
    rows = []

    def row(name, op, *shapes):
        """Record op on one leaf per shape: a fresh draw, or a Tensor as it is."""
        leaves = [s if isinstance(s, Tensor) else Tensor(rng.uniform(-1.0, 1.0, size=s))
                  for s in shapes]
        rows.append((name, lambda: op(*leaves), leaves))

    row("add", add, (2, 3, 4, 4), (2, 3, 4, 4))
    row("mul", mul, (2, 3, 4, 4), (2, 3, 4, 4))
    row("linear", linear, (5, 6), (4, 6), (4,))

    # a stage 7 wide: the first step starts its buffer and the second
    # extends it; a second step on the same input starts a new buffer
    def stage(x, y, z, u):
        s = extend_channels(x, y, 7)
        return add(extend_channels(s, z, 7), extend_channels(s, u, 7))
    row("extend_channels", stage, (2, 3, 4, 4), (2, 2, 4, 4), (2, 2, 4, 4), (2, 2, 4, 4))
    row("conv2d", partial(conv2d, stride=1, pad=1), (2, 3, 6, 6), (4, 3, 3, 3))
    row("conv2d[stride2]", partial(conv2d, stride=2, pad=1), (2, 4, 8, 8), (6, 4, 3, 3))
    row("batch_norm", partial(batch_norm, state=BNState(4), training=True),
        (3, 4, 5, 5), (4,), (4,))
    row("avg_pool2d", lambda x: avg_pool2d(x, 2), (2, 3, 8, 8))
    row("max_pool2d", lambda x: max_pool2d(x, 3, 2, 1), (2, 3, 8, 8))
    row("global_avg_pool", global_avg_pool, (2, 3, 6, 6))
    # the labels are drawn after the logits
    row("cross_entropy", lambda x: cross_entropy(x, labels), (4, 7))
    labels = rng.integers(0, 7, size=4)
    row("sum_all", sum_all, (2, 3, 4, 4))

    # the module draws its parameters before x is drawn
    module = MultiScaleRecalibration("recal", MultiScaleConfig(cfg.msar_scales, cfg.msar_strategy),
                                     d_in=6, d_out=6, width=8, height=8, reduced=4, rng=rng)
    row("multi_scale_recalibration", lambda x, *_: module.forward(x, training=True),
        (2, 6, 8, 8), *[tensor for _, tensor, _ in module.parameters()])

    # cell edges of K=2 and K=3 on a 7x5 lattice do not nest
    gs = [CoordinateSetSpec("regional", k, 7, 5) for k in (2, 3)]
    gate_rows = [(2 * s.vector_count, 3) for s in gs]
    row("gate", lambda x, *vs: gate(x, vs, gs), (2, 3, 5, 7), *gate_rows)

    # the projection shortcut's shape: reads one of the four stride phases
    row("conv2d[1x1,stride2]", partial(conv2d, stride=2, pad=0), (2, 4, 7, 7), (6, 4, 1, 1))
    sl = CoordinateSetSpec("sliding", 2, 8, 8)
    row("project_pool[sliding]", lambda x, w: project_pool(x, w, sl), (2, 3, 8, 8), (2, 3))
    row("excite", partial(excite, state=BNState(3), training=True),
        (2 * 64, 2), (3, 2), (3,), (3,))

    # one pass for K = 1, 2, 3 on a 7x5 lattice, read back through the gate (r = D)
    gs16 = [CoordinateSetSpec("regional", k, 7, 5) for k in (1, 2, 3)]
    row("regional_pool", lambda x, g, *ws: gate(g, regional_pool(x, gs16, ws), gs16),
        (2, 3, 5, 7), (2, 3, 5, 7), *[(3, 3) for _ in gs16])

    # the fused relu tails the nets run: norm -> relu, skip add, gated skip add
    row("batch_norm[relu]", partial(batch_norm, state=BNState(4), training=True, relu=True),
        (3, 4, 5, 5), (4,), (4,))
    row("add[relu]", partial(add, relu=True), (2, 3, 4, 4), (2, 3, 4, 4))
    row("gate[skip]", lambda x, s, *vs: gate(x, vs, gs, skip=s),
        (2, 3, 5, 7), (2, 3, 5, 7), *gate_rows)
    return rows
