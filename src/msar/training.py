"""Desk-scale supervised training: optimizer, schedule, loop, evaluation.

The optimizer is stochastic gradient descent with Nesterov momentum:

    v <- mu * v - lr * (g + lambda * w)
    w <- w + mu * v - lr * (g + lambda * w)

with weight decay applied to convolution and fully-connected weights
only, never to normalization affines or biases.  The learning rate
follows a step schedule divided by ten at each drop epoch (inclusive).

Evaluation is augmentation-free, runs in eval-mode normalization, and
sums per-sample losses with exact float summation, so its result does
not depend on record order.  The training loop keeps its curve rows in
memory; callers persist them only after the loop finishes, so a failed
run leaves no partial log behind.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import augment
from .tensor import Tape, Tensor, backward, cross_entropy


class TrainingDiverged(RuntimeError):
    """Raised when a gradient goes non-finite; names the parameter."""


@dataclass
class TrainSettings:
    epochs: int = 30
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    drops: tuple[int, ...] = (80, 120)
    seed: int = 1
    log_timing: bool = True
    augment: bool = True


def lr_at(base_lr: float, drops, epoch: int) -> float:
    """Step schedule: base divided by ten at each drop epoch, inclusive."""
    return base_lr / 10 ** sum(1 for d in drops if epoch >= d)


class NesterovSGD:
    """Momentum SGD over a (name, tensor, kind) parameter registry."""

    def __init__(self, params, momentum: float = 0.9, weight_decay: float = 1e-4):
        self.params = list(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(t.data) for _, t, _ in self.params]

    def step(self, lr: float) -> None:
        mu = self.momentum
        for (name, t, kind), v in zip(self.params, self.velocity):
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            if not np.all(np.isfinite(g)):
                raise TrainingDiverged(f"non-finite gradient in parameter {name}")
            upd = g + self.weight_decay * t.data if kind == "weight" else g
            v *= mu
            v -= lr * upd
            t.data += mu * v - lr * upd

    def zero_grad(self) -> None:
        for _, t, _ in self.params:
            t.zero_grad()


def _log_probs(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def evaluate(network, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 250):
    """(mean loss, error rate) on un-augmented data in eval mode."""
    n = len(labels)
    if n == 0:
        raise ValueError("evaluate: empty dataset")
    losses = []
    wrong = 0
    for start in range(0, n, batch_size):
        xb = images[start:start + batch_size]
        yb = labels[start:start + batch_size]
        logits = network.forward(Tensor(xb, dtype=network.dtype), training=False).data
        logp = _log_probs(logits)
        losses.extend(float(v) for v in -logp[np.arange(len(yb)), yb])
        wrong += int((logits.argmax(axis=1) != yb).sum())
    return math.fsum(losses) / n, wrong / n


def _batch_bounds(n: int, batch_size: int):
    """(lo, hi) of each training batch over n shuffled records.

    A one-sample tail joins the batch before it: training-mode batch
    norm over a single pooled vector makes a K=1 gate constant, which
    gives its weights exactly zero gradient.
    """
    starts = list(range(0, n, batch_size))
    if batch_size > 1 and len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def train(network, train_images, train_labels, test_images, test_labels,
          settings: TrainSettings):
    """Run the training loop; returns one curve row per epoch.

    Each epoch visits the records in a fresh random order, in batches of
    settings.batch_size; when one record would be left over, it joins
    the last full batch instead (n=9 at batch 4 trains on 4 and 5).
    Each epoch's evaluations run in the same batches, as `msar eval`
    does, so they hold no larger maps than a step.  Rows are dicts keyed
    epoch, train_loss, train_err, test_loss, test_err, lr, seconds.  With
    log_timing off the seconds column is written as 0.0 so identical runs
    produce identical rows.
    """
    rng = np.random.default_rng(settings.seed)
    opt = NesterovSGD(network.parameters(), settings.momentum, settings.weight_decay)
    n = len(train_labels)
    rows = []
    for epoch in range(1, settings.epochs + 1):
        lr = lr_at(settings.lr, settings.drops, epoch)
        start = time.monotonic() if settings.log_timing else 0.0
        perm = rng.permutation(n)
        for lo, hi in _batch_bounds(n, settings.batch_size):
            idx = perm[lo:hi]
            if settings.augment:
                xb = np.stack([augment(train_images[i], rng) for i in idx])
            else:
                xb = train_images[idx]
            yb = train_labels[idx]
            opt.zero_grad()
            with Tape() as tape:
                logits = network.forward(Tensor(xb, dtype=network.dtype), training=True)
                loss = cross_entropy(logits, yb)
                backward(tape, loss)
            opt.step(lr)
        train_loss, train_err = evaluate(network, train_images, train_labels, settings.batch_size)
        test_loss, test_err = evaluate(network, test_images, test_labels, settings.batch_size)
        seconds = time.monotonic() - start if settings.log_timing else 0.0
        rows.append({"epoch": epoch, "train_loss": train_loss, "train_err": train_err,
                     "test_loss": test_loss, "test_err": test_err, "lr": lr,
                     "seconds": seconds})
    return rows


CURVE_HEADER = "epoch,train_loss,train_err,test_loss,test_err,lr,seconds"


def render_curve(rows) -> str:
    lines = [CURVE_HEADER]
    for r in rows:
        lines.append(",".join([str(r["epoch"]), repr(r["train_loss"]),
                               repr(r["train_err"]), repr(r["test_loss"]),
                               repr(r["test_err"]), repr(r["lr"]),
                               repr(r["seconds"])]))
    return "\n".join(lines) + "\n"


def write_curve(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_curve(rows))
