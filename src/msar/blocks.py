"""Network building blocks and the architecture zoo.

Networks are described declaratively by NetworkSpec and built into
executable module trees by build_network.  Four families are covered:
plain convolutional stacks, residual networks (small-image and
large-image variants), densely connected networks with bottleneck steps
and compressing transitions, and grouped-convolution residual networks.
The grouped family is described for cost analysis only; its specs are
rejected at build time.

plan(spec) walks a spec once and yields its blocks in forward order
(stem, stage blocks or dense steps and transitions, head).  Each block
class lists its leaf modules as Layer records through a static
layers(); build_network creates one leaf per record, and costs.report
prices the same records, so the cost table and the built network share
one list of layer names.

Every module exposes parameters() as (name, tensor, kind) triples, with
kind one of "weight", "bias", "norm", plus norm_states() for running
normalization statistics.  Names are hierarchical and stable, and a
plain network's names are a subset of its recalibrated twin's names, so
weights transfer between the two by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import IMAGE_SHAPE
from .recalibrate import MultiScaleConfig, MultiScaleRecalibration
from .tensor import (BNState, Tensor, add, avg_pool2d, batch_norm, conv2d,
                     extend_channels, global_avg_pool, linear, max_pool2d)

FAMILIES = ("plain", "residual", "dense", "grouped")
STAGE_MODES = ("multi", "single")
# DenseNet-BC (Huang et al. 2017): 1x1 bottlenecks four growths wide, transitions keep half
BOTTLENECK_FACTOR = 4
COMPRESSION = 0.5


@dataclass(frozen=True)
class MsarSettings(MultiScaleConfig):
    """Recalibration settings applied at every block or step: each site's
    scales and strategy, plus where dense steps pool from.

    stage_mode selects the pooled context in dense steps: "multi" pools
    the accumulated input map, "single" pools the freshly produced
    features.  Residual blocks always pool the tensor they gate.
    """

    stage_mode: str = "multi"

    def __post_init__(self):
        super().__post_init__()
        if self.stage_mode not in STAGE_MODES:
            raise ValueError(f"stage_mode must be one of {STAGE_MODES}, got {self.stage_mode!r}")


@dataclass(frozen=True)
class StageSpec:
    """One stage: `blocks` repeated units of the given output width.

    For the dense family, width is the per-step growth and stride is
    ignored (transitions between stages do the downsampling).
    """

    width: int
    blocks: int
    stride: int = 1

    def __post_init__(self):
        if self.width < 1 or self.blocks < 1:
            raise ValueError(f"invalid stage: width={self.width} blocks={self.blocks}")
        if self.stride not in (1, 2):
            raise ValueError(f"stage stride must be 1 or 2, got {self.stride}")


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of a whole classifier."""

    name: str
    family: str
    input_size: int
    classes: int
    stem_width: int
    stages: tuple[StageSpec, ...]
    msar: MsarSettings | None = None
    stem_kernel: int = 3
    stem_stride: int = 1
    stem_pool: bool = False
    growth: int = 0                 # dense family
    groups: int = 1                 # grouped residual family

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "dense" and self.growth < 1:
            raise ValueError("dense family needs a positive growth rate")
        if self.family == "plain" and self.msar is not None:
            raise ValueError("plain stacks do not take recalibration settings")
        if self.input_size < 1 or self.classes < 2 or self.stem_width < 1:
            raise ValueError("invalid spec dimensions")


def residual_reduced(width: int, num_scales: int) -> int:
    """Bottleneck width of a recalibration site on a residual block."""
    return max(1, width // (4 * num_scales))


def dense_reduced(growth: int) -> int:
    """Bottleneck width of a recalibration site on a dense step."""
    return max(1, growth // 2)


# ---------------------------------------------------------------------------
# leaf modules
# ---------------------------------------------------------------------------

class Conv:
    def __init__(self, name, c_in, c_out, k, stride, pad, rng, dtype):
        self.name = name
        self.stride = stride
        self.pad = pad
        fan_in = k * k * c_in
        self.w = Tensor(rng.standard_normal((c_out, c_in, k, k)) * np.sqrt(2.0 / fan_in),
                        dtype=dtype)

    def forward(self, x):
        return conv2d(x, self.w, stride=self.stride, pad=self.pad)

    def parameters(self):
        return [(f"{self.name}.weight", self.w, "weight")]

    def norm_states(self):
        return []


class BatchNorm:
    def __init__(self, name, features, dtype):
        self.name = name
        self.gamma = Tensor(np.ones(features), dtype=dtype)
        self.beta = Tensor(np.zeros(features), dtype=dtype)
        self.state = BNState(features, dtype=dtype)

    def forward(self, x, training, relu=False):
        return batch_norm(x, self.gamma, self.beta, self.state, training, relu)

    def parameters(self):
        return [(f"{self.name}.gamma", self.gamma, "norm"),
                (f"{self.name}.beta", self.beta, "norm")]

    def norm_states(self):
        return [(self.name, self.state)]


class Linear:
    def __init__(self, name, d_in, d_out, rng, dtype):
        self.name = name
        self.w = Tensor(rng.standard_normal((d_out, d_in)) * np.sqrt(1.0 / d_in),
                        dtype=dtype)
        self.b = Tensor(np.zeros(d_out), dtype=dtype)

    def forward(self, x):
        return linear(x, self.w, self.b)

    def parameters(self):
        return [(f"{self.name}.weight", self.w, "weight"),
                (f"{self.name}.bias", self.b, "bias")]

    def norm_states(self):
        return []


# ---------------------------------------------------------------------------
# the layer plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Layer:
    """One leaf module of a network, as built and as priced.

    op is "conv", "compress" (a dense transition's 1x1 convolution,
    priced for parameters only), "norm", "linear" or "recal".  size is
    the side of the layer's output map; for "recal", c_in is the width
    of the pooled context, c_out the width of the gated map and reduced
    the bottleneck width.  A convolution pads by k // 2.
    """

    name: str
    op: str
    c_in: int
    c_out: int
    size: int
    k: int = 1
    stride: int = 1
    groups: int = 1
    reduced: int = 0


def _leaf(layer: Layer, msar: MsarSettings | None, rng, dtype):
    if layer.op in ("conv", "compress"):
        return Conv(layer.name, layer.c_in, layer.c_out, layer.k, layer.stride,
                    layer.k // 2, rng, dtype)
    if layer.op == "norm":
        return BatchNorm(layer.name, layer.c_out, dtype)
    if layer.op == "linear":
        return Linear(layer.name, layer.c_in, layer.c_out, rng, dtype)
    return MultiScaleRecalibration(layer.name, msar, layer.c_in, layer.c_out,
                                   layer.size, layer.size, layer.reduced, rng, dtype)


def _norm(name: str, features: int, size: int) -> Layer:
    return Layer(name, "norm", features, features, size)


def _shortcut_and_recal(name, c_in, c_out, stride, size, msar) -> list[Layer]:
    """A residual block's projection (when the shape changes) and gate."""
    layers = []
    if stride != 1 or c_in != c_out:
        layers.append(Layer(f"{name}.project", "conv", c_in, c_out, size, 1, stride))
    if msar is not None:
        layers.append(Layer(f"{name}.recal", "recal", c_out, c_out, size,
                            reduced=residual_reduced(c_out, len(msar.scales))))
    return layers


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

class Block:
    """A module made of the leaves its class's layers() lists.

    Constructed as cls(name, *geometry, msar, rng, dtype), where msar is
    the recalibration settings or None.  Leaves are created in layer
    order, which is also the order random weights are drawn in, and each
    is an attribute named by the last part of its layer name (conv1,
    norm1, project, recal, ...).  Optional leaves a block lacks read as
    None.
    """

    norm = project = recal = None

    def __init__(self, name, *args):
        *geometry, msar, rng, dtype = args
        self.name = name
        self.msar = msar
        self.leaves = []
        for layer in self.layers(name, *geometry, msar):
            leaf = _leaf(layer, msar, rng, dtype)
            setattr(self, layer.name.rsplit(".", 1)[1], leaf)
            self.leaves.append(leaf)

    def parameters(self):
        return [p for leaf in self.leaves for p in leaf.parameters()]

    def norm_states(self):
        return [s for leaf in self.leaves for s in leaf.norm_states()]


class Stem(Block):
    """Input convolution; stage-wise families follow it with norm and relu,
    and optionally a 3x3 stride-2 max pool."""

    def __init__(self, name, c_in, c_out, k, stride, size, normed, pool, msar, rng, dtype):
        super().__init__(name, c_in, c_out, k, stride, size, normed, pool, msar, rng, dtype)
        self.pool = pool

    @staticmethod
    def layers(name, c_in, c_out, k, stride, size, normed, pool, msar):
        conv = Layer(f"{name}.conv", "conv", c_in, c_out, size, k, stride)
        return [conv, _norm(f"{name}.norm", c_out, size)] if normed else [conv]

    def forward(self, x, training, recalibrate=True):
        y = self.conv.forward(x)
        if self.norm is not None:
            # rebinding y lets an untaped forward free the conv output once
            # normalized; the relu runs in the norm's buffer
            y = self.norm.forward(y, training, relu=True)
        return max_pool2d(y, 3, 2, 1) if self.pool else y


class ResidualBlock(Block):
    """conv-norm-relu-conv-norm, optional recalibration, skip add, relu.

    The skip path is the identity, or a bare 1x1 strided convolution when
    the shape changes.  Recalibration gates the second normalization's
    output before the addition, pooling from that same tensor.  The tail
    is one op that keeps only its output: the site's gate takes the skip,
    and an ungated block adds with relu=True.
    """

    @staticmethod
    def layers(name, c_in, c_out, stride, size, msar):
        return [Layer(f"{name}.conv1", "conv", c_in, c_out, size, 3, stride),
                _norm(f"{name}.norm1", c_out, size),
                Layer(f"{name}.conv2", "conv", c_out, c_out, size, 3),
                _norm(f"{name}.norm2", c_out, size),
                *_shortcut_and_recal(name, c_in, c_out, stride, size, msar)]

    def forward(self, x, training, recalibrate=True):
        y = self.norm1.forward(self.conv1.forward(x), training, relu=True)
        y = self.norm2.forward(self.conv2.forward(y), training)
        skip = self.project.forward(x) if self.project is not None else x
        if self.recal is not None and recalibrate:
            return self.recal.forward(y, training, skip=skip)
        return add(y, skip, relu=True)


class GroupedBlock:
    """Bottleneck with a grouped 3x3 convolution, half the output width
    inside.  Cost model only: the engine has no grouped convolution."""

    @staticmethod
    def layers(name, c_in, c_out, stride, size, groups, msar):
        inner = c_out // 2
        return [Layer(f"{name}.conv1", "conv", c_in, inner, size),
                _norm(f"{name}.norm1", inner, size),
                Layer(f"{name}.conv2", "conv", inner, inner, size, 3, stride, groups),
                _norm(f"{name}.norm2", inner, size),
                Layer(f"{name}.conv3", "conv", inner, c_out, size),
                _norm(f"{name}.norm3", c_out, size),
                *_shortcut_and_recal(name, c_in, c_out, stride, size, msar)]


class DenseStep(Block):
    """Pre-activation bottleneck step: norm-relu-1x1, norm-relu-3x3, concat.

    Recalibration gates the freshly produced features before they are
    concatenated onto the running map; the pooled context comes from the
    step's accumulated input map (multi stage-mode) or from the new
    features themselves (single stage-mode).  width is the stage's final
    width: the stage's first step copies its input into one channel-major
    buffer that wide, and every step writes only its growth channels
    after its input's (extend_channels), so a stage makes no per-step
    copy of its accumulated map.
    """

    def __init__(self, name, c_in, growth, size, width, msar, rng, dtype):
        super().__init__(name, c_in, growth, size, width, msar, rng, dtype)
        self.width = width

    @staticmethod
    def layers(name, c_in, growth, size, width, msar):
        inner = BOTTLENECK_FACTOR * growth
        layers = [_norm(f"{name}.norm1", c_in, size),
                  Layer(f"{name}.conv1", "conv", c_in, inner, size),
                  _norm(f"{name}.norm2", inner, size),
                  Layer(f"{name}.conv2", "conv", inner, growth, size, 3)]
        if msar is not None:
            d_in = c_in if msar.stage_mode == "multi" else growth
            layers.append(Layer(f"{name}.recal", "recal", d_in, growth, size,
                                reduced=dense_reduced(growth)))
        return layers

    def forward(self, x, training, recalibrate=True):
        y = self.conv1.forward(self.norm1.forward(x, training, relu=True))
        y = self.conv2.forward(self.norm2.forward(y, training, relu=True))
        if self.recal is not None and recalibrate:
            src = x if self.msar.stage_mode == "multi" else y
            y = self.recal.forward(y, training, pool_src=src)
        return extend_channels(x, y, self.width)


class PlainBlock(Block):
    """conv-norm-relu unit for unshortcut stacks."""

    @staticmethod
    def layers(name, c_in, c_out, stride, size, msar):
        return [Layer(f"{name}.conv", "conv", c_in, c_out, size, 3, stride),
                _norm(f"{name}.norm", c_out, size)]

    def forward(self, x, training, recalibrate=True):
        return self.norm.forward(self.conv.forward(x), training, relu=True)


class Transition(Block):
    """norm-relu-1x1 compression followed by 2x2 average pooling."""

    @staticmethod
    def layers(name, c_in, c_out, size, msar):
        return [_norm(f"{name}.norm", c_in, size),
                Layer(f"{name}.conv", "compress", c_in, c_out, size)]

    def forward(self, x, training, recalibrate=True):
        return avg_pool2d(self.conv.forward(self.norm.forward(x, training, relu=True)), 2)


class Head(Block):
    """Global average pooling and the classifier; the dense family puts a
    norm-relu in front."""

    @staticmethod
    def layers(name, c_in, classes, size, normed, msar):
        fc = Layer(f"{name}.fc", "linear", c_in, classes, 1)
        return [_norm(f"{name}.norm", c_in, size), fc] if normed else [fc]

    def forward(self, x, training, recalibrate=True):
        if self.norm is not None:
            x = self.norm.forward(x, training, relu=True)
        return self.fc.forward(global_avg_pool(x))


def plan(spec: NetworkSpec):
    """Yield (block class, name, geometry) for every block in forward order.

    cls(name, *geometry, spec.msar, rng, dtype) builds a block and
    cls.layers(name, *geometry, spec.msar) lists its leaves.  The dense
    family's stem keeps full resolution and has no norm or pool.
    """
    dense = spec.family == "dense"
    stride = 1 if dense else spec.stem_stride
    pool = spec.stem_pool and not dense
    size = spec.input_size // stride
    yield Stem, "stem", (IMAGE_SHAPE[0], spec.stem_width, spec.stem_kernel,
                         stride, size, not dense, pool)
    if pool:
        size = (size + 2 - 3) // 2 + 1
    width = spec.stem_width
    for i, stage in enumerate(spec.stages):
        final = width + stage.blocks * spec.growth
        for j in range(stage.blocks):
            if dense:
                yield DenseStep, f"stage{i}.step{j}", (width, spec.growth, size, final)
                width += spec.growth
                continue
            stride = stage.stride if j == 0 else 1
            size //= stride
            geometry = (width, stage.width, stride, size)
            if spec.family == "grouped":
                yield GroupedBlock, f"stage{i}.block{j}", geometry + (spec.groups,)
            else:
                cls = ResidualBlock if spec.family == "residual" else PlainBlock
                yield cls, f"stage{i}.block{j}", geometry
            width = stage.width
        if dense and i < len(spec.stages) - 1:
            out = int(width * COMPRESSION)
            yield Transition, f"transition{i}", (width, out, size)
            width, size = out, size // 2
    yield Head, "head", (width, spec.classes, size, dense)


# ---------------------------------------------------------------------------
# whole networks
# ---------------------------------------------------------------------------

class Network:
    """Executable classifier built from a NetworkSpec."""

    def __init__(self, spec: NetworkSpec, rng: np.random.Generator, dtype=np.float64):
        if spec.family == "grouped":
            raise ValueError(
                "grouped-convolution networks are supported by the cost model only; "
                "they cannot be built for execution")
        self.spec = spec
        self.dtype = dtype
        self.blocks = [cls(name, *geometry, spec.msar, rng, dtype)
                       for cls, name, geometry in plan(spec)]

    def forward(self, x, training=False, recalibrate=True):
        y = x if isinstance(x, Tensor) else Tensor(x, dtype=self.dtype)
        for block in self.blocks:
            y = block.forward(y, training, recalibrate)
        return y

    def parameters(self):
        return [p for block in self.blocks for p in block.parameters()]

    def norm_states(self):
        return [s for block in self.blocks for s in block.norm_states()]

    def parameter_count(self) -> int:
        """Trainable entries plus running normalization statistics."""
        trainable = sum(t.size for _, t, _ in self.parameters())
        running = sum(s.mean.size + s.var.size for _, s in self.norm_states())
        return trainable + running


def build_network(spec: NetworkSpec, seed: int = 0, dtype=np.float64) -> Network:
    """Materialize a spec with deterministic, seed-reproducible weights."""
    return Network(spec, np.random.default_rng(seed), dtype)


# ---------------------------------------------------------------------------
# architecture zoo
# ---------------------------------------------------------------------------

def _tagged(base: str, msar: MsarSettings | None) -> str:
    return f"{base}-msar" if msar is not None else base


def resnet_cifar(depth: int, classes: int = 10,
                 msar: MsarSettings | None = None) -> NetworkSpec:
    """Small-image residual network of depth 6n+2 (20, 32, 44, 56, ...)."""
    if depth < 8 or (depth - 2) % 6:
        raise ValueError(f"depth must be 6n+2 with n >= 1, got {depth}")
    n = (depth - 2) // 6
    return NetworkSpec(
        name=_tagged(f"resnet{depth}", msar), family="residual",
        input_size=32, classes=classes, stem_width=16,
        stages=(StageSpec(16, n, 1), StageSpec(32, n, 2), StageSpec(64, n, 2)),
        msar=msar)


def resnet_ilsvrc(depth: int, classes: int = 1000,
                  msar: MsarSettings | None = None) -> NetworkSpec:
    """Large-image residual network with a 7x7 stem (depths 18 and 34)."""
    plans = {18: (2, 2, 2, 2), 34: (3, 4, 6, 3)}
    if depth not in plans:
        raise ValueError(f"supported large-image depths are {sorted(plans)}, got {depth}")
    b = plans[depth]
    return NetworkSpec(
        name=_tagged(f"resnet{depth}", msar), family="residual",
        input_size=224, classes=classes, stem_width=64,
        stem_kernel=7, stem_stride=2, stem_pool=True,
        stages=(StageSpec(64, b[0], 1), StageSpec(128, b[1], 2),
                StageSpec(256, b[2], 2), StageSpec(512, b[3], 2)),
        msar=msar)


def densenet_cifar(depth: int = 100, growth: int = 12, classes: int = 10,
                   msar: MsarSettings | None = None) -> NetworkSpec:
    """Small-image dense network of depth 6n+4 with bottleneck steps."""
    if depth < 10 or (depth - 4) % 6:
        raise ValueError(f"depth must be 6n+4 with n >= 1, got {depth}")
    steps = (depth - 4) // 6
    return NetworkSpec(
        name=_tagged(f"densenet{depth}", msar), family="dense",
        input_size=32, classes=classes, stem_width=2 * growth,
        stages=(StageSpec(growth, steps), StageSpec(growth, steps),
                StageSpec(growth, steps)),
        growth=growth, msar=msar)


def resnext50_ilsvrc(classes: int = 1000,
                     msar: MsarSettings | None = None) -> NetworkSpec:
    """Grouped-convolution residual network, cost analysis only."""
    return NetworkSpec(
        name=_tagged("resnext50", msar), family="grouped",
        input_size=224, classes=classes, stem_width=64,
        stem_kernel=7, stem_stride=2, stem_pool=True, groups=32,
        stages=(StageSpec(256, 3, 1), StageSpec(512, 4, 2),
                StageSpec(1024, 6, 2), StageSpec(2048, 3, 2)),
        msar=msar)
