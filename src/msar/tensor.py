"""Dense tensors with taped reverse-mode differentiation.

A Tensor wraps a numpy array (float32 or float64) and owns a lazily
allocated gradient slot of the same shape.  Operations executed while a
Tape is active append a backward closure to that tape; backward() walks
the tape in reverse and accumulates gradients into every input that
contributed to the loss.  The tape is an execution record, so it is
topologically ordered by construction and every operation is visited
exactly once in each direction.  Gradient slots of tensors the tape
produced (everything but the loss) are released as soon as their
closure has consumed them, so after backward() only the loss and the
leaves (parameters, inputs) hold a .grad.

Feature maps are laid out (N, D, H, W): batch, channels, height, width.
Vector and matrix shapes appear at the pooling / fully-connected
boundaries.  Convolution and max pooling read their windows through a
strided view of the (padded) input and contract it with tensordot, so
nothing kh*kw times the size of the input outlives the op.  All
reductions use numpy's fixed evaluation order, so a forward pass is
bitwise deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float64


class Tensor:
    """Array plus gradient slot.  Data is treated as immutable by ops;
    only the optimizer mutates parameter data in place."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def ensure_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__


class Tape:
    """Ordered record of executed operations for reverse traversal."""

    def __init__(self):
        self._entries = []          # (op name, output tensor, backward fn)
        self._produced = set()      # ids of tensors this tape created

    def __len__(self):
        return len(self._entries)

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False

    def record(self, name, out, backward_fn):
        self._entries.append((name, out, backward_fn))
        self._produced.add(id(out))

    def produced(self, tensor):
        return id(tensor) in self._produced


_ACTIVE: list[Tape] = []


def active_tape():
    return _ACTIVE[-1] if _ACTIVE else None


def _emit(name, out, backward_fn):
    tape = active_tape()
    if tape is not None:
        tape.record(name, out, backward_fn)
    return out


def backward(tape, loss):
    """Accumulate d(loss)/d(input) into .grad of every tensor on the tape.

    loss must be a scalar tensor produced by this tape; calling backward
    on a tensor the tape never saw is the backward-before-forward error.

    Every other tensor the tape produced has its .grad released (set to
    None) as soon as its closure has consumed it, so only the loss and
    tensors from outside the tape (parameters, inputs) end with a
    gradient.  That frees each intermediate gradient as early as
    possible, and a second backward() over the same tape adds exactly
    one more d(loss)/d(input) instead of replaying stale slots.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not tape.produced(loss):
        raise ValueError("backward before forward: loss was not produced under this tape")
    loss.grad = np.ones_like(loss.data)
    for _name, out, fn in reversed(tape._entries):
        if out.grad is not None:
            fn(out.grad)
            if out is not loss:
                out.grad = None


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def bwd(og):
        a.ensure_grad()
        a.grad += og
        b.ensure_grad()
        b.grad += og

    return _emit("add", out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def bwd(og):
        a.ensure_grad()
        a.grad += og * b.data
        b.ensure_grad()
        b.grad += og * a.data

    return _emit("mul", out, bwd)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def bwd(og):
        x.ensure_grad()
        x.grad += og * c

    return _emit("scale", out, bwd)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(og):
        x.ensure_grad()
        x.grad += og.reshape(x.shape)

    return _emit("reshape", out, bwd)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (axis 1)."""
    if a.ndim != b.ndim or a.ndim < 2:
        raise ValueError(f"concat_channels: rank mismatch {a.shape} vs {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"concat_channels: incompatible shapes {a.shape} vs {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    split = a.shape[1]

    def bwd(og):
        a.ensure_grad()
        a.grad += og[:, :split]
        b.ensure_grad()
        b.grad += og[:, split:]

    return _emit("concat_channels", out, bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()))

    def bwd(og):
        x.ensure_grad()
        x.grad += og  # og is scalar, broadcasts

    return _emit("sum_all", out, bwd)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    """max(x, 0); subgradient at 0 is taken as 0."""
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))

    def bwd(og):
        x.ensure_grad()
        x.grad += og * mask

    return _emit("relu", out, bwd)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, numerically stable for both signs."""
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)

    def bwd(og):
        x.ensure_grad()
        x.grad += og * s * (1.0 - s)

    return _emit("sigmoid", out, bwd)


# ---------------------------------------------------------------------------
# linear / fully connected
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x (M, D_in) times w (D_out, D_in) transposed, plus optional bias."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ValueError(f"linear: shape mismatch x{x.shape} w{w.shape}")
    y = x.data @ w.data.T
    if b is not None:
        y = y + b.data
    out = Tensor(y)

    def bwd(og):
        x.ensure_grad()
        x.grad += og @ w.data
        w.ensure_grad()
        w.grad += og.T @ x.data
        if b is not None:
            b.ensure_grad()
            b.grad += og.sum(axis=0)

    return _emit("linear", out, bwd)


# ---------------------------------------------------------------------------
# convolution (strided window views) and pooling
# ---------------------------------------------------------------------------

def _pad_hw(a, pad, value=0.0):
    """Pad the two spatial axes by pad on each side; a negative pad crops."""
    if pad < 0:
        return a[:, :, -pad:a.shape[2] + pad, -pad:a.shape[3] + pad]
    if pad == 0:
        return a
    return np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=value)


def _windows(img, kh, kw, stride):
    """(N, C, oh, ow, kh, kw) view of img's kh x kw windows at the given
    stride.  The view copies nothing; ops that need a contiguous layout
    (tensordot, reshape) copy it transiently, and no closure keeps it."""
    view = np.lib.stride_tricks.sliding_window_view(img, (kh, kw), axis=(2, 3))
    return view[:, :, ::stride, ::stride] if stride > 1 else view


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), kernel (F, C, kh, kw), odd kh=kw.

    Each product contracts the kernel (or the output gradient) against a
    window view.  The backward closure keeps only x and k and pads x
    again when it runs, so the tape holds no per-layer copy of the input.
    """
    if x.ndim != 4 or k.ndim != 4:
        raise ValueError(f"conv2d: need 4-D input and kernel, got {x.shape}, {k.shape}")
    n, c, h, w = x.shape
    f, kc, kh, kw = k.shape
    if kc != c:
        raise ValueError(f"conv2d: input has {c} channels but kernel expects {kc}")
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"conv2d: kernel must be square with odd side, got {kh}x{kw}")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ValueError(f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")
    # contracting the kernel first makes tensordot copy the windows in
    # (C, kh, kw, N, oh, ow) order, so its innermost loop runs along rows
    # of the input; the other operand order copies far more slowly
    win = _windows(_pad_hw(x.data, pad), kh, kw, stride)
    out = Tensor(np.tensordot(k.data, win, axes=([1, 2, 3], [1, 4, 5])).transpose(1, 0, 2, 3))

    def bwd(og):
        img = _pad_hw(x.data, pad)
        k.ensure_grad()
        k.grad += np.tensordot(_windows(img, kh, kw, stride), og,
                               axes=([0, 2, 3], [0, 2, 3])).transpose(3, 0, 1, 2)
        x.ensure_grad()
        if stride == 1:
            # dx is og, padded to full size, correlated with the flipped
            # kernel; padding by kh - 1 - pad lands directly on x's extent
            ogp = _pad_hw(og, kh - 1 - pad)
            x.grad += np.tensordot(k.data[:, :, ::-1, ::-1], _windows(ogp, kh, kw, 1),
                                   axes=([0, 2, 3], [1, 4, 5])).transpose(1, 0, 2, 3)
            return
        oh, ow = og.shape[2:]
        dimg = np.zeros(img.shape, dtype=np.result_type(og, k.data))
        for i in range(kh):
            for j in range(kw):
                dimg[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                    np.tensordot(k.data[:, :, i, j], og, axes=([0], [1])).transpose(1, 0, 2, 3)
        x.grad += _pad_hw(dimg, -pad)

    return _emit("conv2d", out, bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, D, H, W) -> (N, D) spatial mean."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool: need 4-D input, got {x.shape}")
    n, d, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)))

    def bwd(og):
        x.ensure_grad()
        x.grad += og[:, :, None, None] / (h * w)

    return _emit("global_avg_pool", out, bwd)


def avg_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping size x size average pooling; H, W must divide."""
    n, d, h, w = x.shape
    if h % size or w % size:
        raise ValueError(f"avg_pool2d: {h}x{w} not divisible by {size}")
    oh, ow = h // size, w // size
    blocks = x.data.reshape(n, d, oh, size, ow, size)
    out = Tensor(blocks.mean(axis=(3, 5)))

    def bwd(og):
        x.ensure_grad()
        g = np.broadcast_to(og[:, :, :, None, :, None],
                            (n, d, oh, size, ow, size)) / (size * size)
        x.grad += g.reshape(n, d, h, w)

    return _emit("avg_pool2d", out, bwd)


def max_pool2d(x: Tensor, size: int, stride: int, pad: int = 0) -> Tensor:
    """Max pooling with -inf padding; used by the 7x7-stem networks."""
    n, d, h, w = x.shape
    oh = (h + 2 * pad - size) // stride + 1
    ow = (w + 2 * pad - size) // stride + 1
    padded = (n, d, h + 2 * pad, w + 2 * pad)
    wins = _windows(_pad_hw(x.data, pad, -np.inf), size, size, stride)
    wins = wins.reshape(n, d, oh, ow, size * size)
    arg = wins.argmax(axis=4)
    out = Tensor(np.take_along_axis(wins, arg[..., None], axis=4)[..., 0])

    def bwd(og):
        x.ensure_grad()
        gimg = np.zeros(padded, dtype=x.dtype)
        ii, jj = np.divmod(arg, size)
        on, od, oy, ox = np.indices((n, d, oh, ow))
        np.add.at(gimg, (on, od, oy * stride + ii, ox * stride + jj), og)
        x.grad += gimg[:, :, pad:pad + h, pad:pad + w]

    return _emit("max_pool2d", out, bwd)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BNState:
    """Running statistics for one normalization layer (not differentiated)."""

    def __init__(self, features, dtype=DEFAULT_DTYPE, momentum=0.1, eps=1e-5):
        self.mean = np.zeros(features, dtype=dtype)
        self.var = np.ones(features, dtype=dtype)
        self.momentum = momentum
        self.eps = eps


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
               training: bool) -> Tensor:
    """Per-feature normalization over every axis except axis 1.

    Training mode normalizes with the batch moments (biased variance) and
    folds them into the running estimates; eval mode uses the running
    estimates, so each sample's output is independent of the rest of the
    batch.
    """
    if x.ndim < 2:
        raise ValueError(f"batch_norm: need at least 2-D input, got {x.shape}")
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    g = gamma.data.reshape(shape)
    b = beta.data.reshape(shape)
    eps = state.eps

    if training:
        m = x.data.mean(axis=axes)
        v = x.data.var(axis=axes)
        state.mean += state.momentum * (m - state.mean)
        state.var += state.momentum * (v - state.var)
        inv = 1.0 / np.sqrt(v + eps)
        xhat = (x.data - m.reshape(shape)) * inv.reshape(shape)
        out = Tensor(g * xhat + b)
        count = x.size // x.shape[1]

        def bwd(og):
            dgam = (og * xhat).sum(axis=axes)
            dbet = og.sum(axis=axes)
            gamma.ensure_grad()
            gamma.grad += dgam
            beta.ensure_grad()
            beta.grad += dbet
            x.ensure_grad()
            x.grad += (g * inv.reshape(shape) / count) * (
                count * og - dbet.reshape(shape) - xhat * dgam.reshape(shape))

        return _emit("batch_norm", out, bwd)

    inv = 1.0 / np.sqrt(state.var + eps)
    xhat = (x.data - state.mean.reshape(shape)) * inv.reshape(shape)
    out = Tensor(g * xhat + b)

    def bwd(og):
        gamma.ensure_grad()
        gamma.grad += (og * xhat).sum(axis=axes)
        beta.ensure_grad()
        beta.grad += og.sum(axis=axes)
        x.ensure_grad()
        x.grad += og * g * inv.reshape(shape)

    return _emit("batch_norm", out, bwd)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of logits (N, C) against integer labels."""
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy: need (N, C) logits, got {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"cross_entropy: {n} rows but {labels.shape} labels")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"cross_entropy: label outside [0, {c})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n), labels] - np.log(ez.sum(axis=1)))
    out = Tensor(np.asarray(nll.mean()))

    def bwd(og):
        logits.ensure_grad()
        g = probs.copy()
        g[np.arange(n), labels] -= 1.0
        logits.grad += og * g / n

    return _emit("cross_entropy", out, bwd)
