"""Central finite-difference verification of taped gradients.

Used by the test suite and the `gradcheck` CLI command.  A check runs a
forward function under a tape, backpropagates a random linear probe of
the output, and compares each analytic gradient against
(f(x+h) - f(x-h)) / 2h at a sample of coordinates, all in float64.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tape, Tensor, backward, mul, sum_all

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
