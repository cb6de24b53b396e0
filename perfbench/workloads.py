"""The benchmark's workloads, and the sizes each one runs at.

Every workload has three phases: closed-loop training steps at its own
size, `evaluate` on a fixed generated split, and a `msar train` +
`msar eval` run on the smoke config.  The smoke CLI run is the same in
every workload, because every run reports every end-to-end metric; it
is the whole point only of `smoke-cli`.

Why each workload was chosen:

* resnet20-msar-regional-f64-b128: the shipped configs' batch size and
  default precision.  Convolution (im2col) dominates the step and the
  tape holds ~3 GiB at the end of forward; regional pooling is a small
  share, so pooling work should leave it flat.
* resnet20-msar-sliding-f32-b32: sliding pooling takes about as long as
  convolution, and silently upcasts most of the float32 net to float64.
* densenet40-msar-f32-b32: the only workload that runs DenseStep,
  Transition, concat_channels, avg_pool2d and multi stage-mode pooling.
* smoke-cli: small maps (8/16 channels), so per-op Python and tape
  overhead matter; data load, augment, weight save/load and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    net: str            # "resnet20", "densenet40" or "smoke" (the smoke config's net)
    strategy: str       # recalibration pooling strategy
    precision: int      # 32 or 64
    batch: int          # training-step batch size
    eval_images: int    # size of the generated evaluation split
    classes: int


WORKLOADS = {w.name: w for w in (
    Workload("resnet20-msar-regional-f64-b128", "resnet20", "regional", 64, 128, 128, 10),
    Workload("resnet20-msar-sliding-f32-b32", "resnet20", "sliding", 32, 32, 64, 10),
    Workload("densenet40-msar-f32-b32", "densenet40", "regional", 32, 32, 64, 10),
    Workload("smoke-cli", "smoke", "regional", 64, 50, 1000, 2),
)}

# Tiny sizes for the harness self-check: same networks, few images.
TINY_BATCH = 4
TINY_EVAL_IMAGES = 8

# The smoke CLI phase: records per class in the train and test splits
# (the README's toy split), and the epoch count.  The criterion-7 target
# (train_err <= 0.05) fell at epoch 2 on 28 of 29 seeds tried and at
# epoch 3 on one; with 500 train records per class it fell at epoch 1 or
# 2 about as often as not, which makes time_to_target_s bimodal.
CLI_TRAIN_PER_CLASS, CLI_TEST_PER_CLASS, CLI_EPOCHS = 250, 50, 3
TINY_CLI = (10, 5, 1)
TARGET_TRAIN_ERR = 0.05
