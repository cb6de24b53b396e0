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
leaves (parameters, inputs) hold a .grad.  An empty slot is not
zero-filled to add one array into: _accumulate hands the closure's
fresh gradient (or og itself, or a view of it) over as the slot, so
each slot is an array no other slot shares.  A relu runs inside the op
it follows (batch_norm and add take relu=True, pooling.gate a skip), in
the op's own output buffer, and its backward reads the mask from that
output, so the tape keeps no mask and no map that only a relu reads.

Feature maps are indexed (N, D, H, W): batch, channels, height, width.
Vector and matrix shapes appear at the pooling / fully-connected
boundaries.  Convolution copies its input once into zero-padded,
channel-major stride phases and stacks the thinner side's shifted tap
reads one cache-sized tile at a time, so no array kh*kw times the input
is ever built; its output is an (N, F, H, W) view of channel-major
(F, N, H, W) memory, and elementwise ops keep that layout.  Batch
normalization writes channel-major too, and a dense stage's steps
extend one channel-major (C_final, N, H, W) buffer (extend_channels),
each step's result a channel-prefix view of it, so batch_norm's
per-channel reductions run over (C, N*H*W) rows of its input without a
copy.  Max pooling reads its windows through a strided view of the
padded input.  All reductions use numpy's fixed evaluation order, so a
forward pass is bitwise deterministic for identical inputs.
"""

from __future__ import annotations

from functools import reduce

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


class Tape:
    """Ordered record of executed operations for reverse traversal."""

    def __init__(self):
        self._entries = []          # (op name, output tensor, backward fn)

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
    if not any(out is loss for _, out, _ in tape._entries):
        raise ValueError("backward before forward: loss was not produced under this tape")
    loss.grad = np.ones_like(loss.data)
    for _name, out, fn in reversed(tape._entries):
        if out is loss:
            # the loss keeps its ones; the closure gets its own, which it
            # may hand on as a slot or consume in place
            fn(np.ones_like(loss.data))
        elif out.grad is not None:
            fn(out.grad)
            out.grad = None


def _accumulate(t: Tensor, g) -> None:
    """Add the gradient g into t's slot.

    An empty slot takes g itself when g is an array of t's shape and
    dtype.  g must then be an array nothing else holds: the closure's own
    result, or og or a view of it, which backward() drops when the
    closure returns.  Otherwise the slot is zero-filled and g added, the
    same values (0 + g == g; only a zero's sign can differ).
    """
    if t.grad is None and isinstance(g, np.ndarray) and g.shape == t.shape \
            and g.dtype == t.dtype:
        t.grad = g
    else:
        t.ensure_grad()
        t.grad += g


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """a + b, or with relu=True max(a + b, 0) taken in the sum's buffer, so
    the tape keeps only that one map; backward then masks og in place by
    out > 0 first."""
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    if relu:
        np.maximum(out.data, 0, out=out.data)

    def bwd(og):
        if relu:
            og *= out.data > 0
        _accumulate(a, og)
        # og may be a's slot now
        _accumulate(b, og.copy())

    return _emit("add", out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def bwd(og):
        _accumulate(a, og * b.data)
        _accumulate(b, og * a.data)

    return _emit("mul", out, bwd)


class _Channels:
    """Channel-major (width, N, ...) storage and how many of its leading
    channels have been written."""

    __slots__ = ("buf", "fill")

    def __init__(self, buf, fill):
        self.buf, self.fill = buf, fill


class _ChannelPrefix(Tensor):
    """A Tensor whose data is the first channels of a _Channels storage."""

    __slots__ = ("storage",)


def extend_channels(a: Tensor, b: Tensor, width: int) -> Tensor:
    """a's channels followed by b's (axis 1), in storage `width` channels wide.

    The result is an (N, C_a + C_b, ...) channel-prefix view of
    channel-major (width, N, ...) memory, the layout a concatenation
    writes, so a following batch_norm or projection reads its channel
    rows as is.  A dense stage passes its final width, and each step
    extends the previous step's result: when a is an earlier result whose
    storage is filled exactly up to it, b is written after it and a is
    not copied.  Any other a (a stage's input, or a prefix some call has
    extended already) is copied once into new storage.  Only channels no
    Tensor exposes yet are written, so earlier results never change.
    Recorded on the tape as concat_channels.
    """
    if a.ndim != b.ndim or a.ndim < 2:
        raise ValueError(f"extend_channels: rank mismatch {a.shape} vs {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"extend_channels: incompatible shapes {a.shape} vs {b.shape}")
    split, end = a.shape[1], a.shape[1] + b.shape[1]
    if width < end:
        raise ValueError(f"extend_channels: {end} channels do not fit in width {width}")
    dt = np.result_type(a.data, b.data)
    st = getattr(a, "storage", None)
    if st is None or st.fill != split or len(st.buf) < end or st.buf.dtype != dt:
        st = _Channels(np.empty((width, a.shape[0]) + a.shape[2:], dt), split)
        st.buf[:split] = np.moveaxis(a.data, 1, 0)
    st.buf[split:end] = np.moveaxis(b.data, 1, 0)
    st.fill = end
    out = _ChannelPrefix(np.moveaxis(st.buf[:end], 0, 1))
    out.storage = st

    def bwd(og):
        _accumulate(a, og[:, :split])
        _accumulate(b, og[:, split:])

    return _emit("concat_channels", out, bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()))

    def bwd(og):
        _accumulate(x, og)  # og is scalar, broadcasts

    return _emit("sum_all", out, bwd)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def _logistic(d, out=None):
    """exp(min(d, 0)) / (1 + exp(-|d|)), stable for both signs, into out (which may be d).

    A new result is allocated after the temporary: allocated before it, glibc
    held 15 MB more RSS through a regional float64 b128 step.
    """
    e = np.exp(-np.abs(d))
    e += 1.0
    out = np.exp(np.minimum(d, 0, out=out), out=out)
    return np.divide(out, e, out=out)


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
        _accumulate(x, og @ w.data)
        _accumulate(w, og.T @ x.data)
        if b is not None:
            _accumulate(b, og.sum(axis=0))

    return _emit("linear", out, bwd)


# ---------------------------------------------------------------------------
# convolution (tiles of stacked taps on padded channel-major phases) and pooling
# ---------------------------------------------------------------------------

def _pad_hw(a, pad, value=0.0):
    """Pad the two spatial axes by pad on each side."""
    if pad == 0:
        return a
    return np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=value)


def _windows(img, kh, kw, stride):
    """(N, C, oh, ow, kh, kw) view of img's kh x kw windows at the given
    stride.  The view copies nothing."""
    view = np.lib.stride_tricks.sliding_window_view(img, (kh, kw), axis=(2, 3))
    return view[:, :, ::stride, ::stride] if stride > 1 else view


_TILE, _TILE_ROWS = 4096, 144


def _phase_axis(u, size, grid, stride, pad):
    """Where phase u of one padded axis meets the input, as (grid slice,
    input slice): grid index a holds padded position stride * a + u,
    which is input position stride * a + u - pad."""
    a0 = max(0, -((u - pad) // stride))
    first = stride * a0 + u - pad
    m = max(0, min(grid - a0, (size - 1 - first) // stride + 1))
    return slice(a0, a0 + m), slice(first, first + stride * m, stride)


def _scratch(rows, span, dtype):
    """(rows, T) tile buffer: T <= span, _TILE, and _TILE * _TILE_ROWS / rows."""
    return np.empty((rows, max(1, min(_TILE, span, _TILE * _TILE_ROWS // rows))), dtype)


def _tiles(width, reads, scratch):
    """Yield (tile, the reads' columns offset + tile) over [0, width) in tiles
    as wide as scratch, or one for a lone read; stacked in scratch if as tall."""
    step = scratch.shape[1] if len(reads) > 1 else width
    for t0 in range(0, width, step):
        t1 = min(t0 + step, width)
        parts = [src[:, off + t0:off + t1] for src, off in reads]
        if len(parts) * len(parts[0]) == len(scratch):
            parts = parts[0] if len(parts) == 1 else np.concatenate(parts, out=scratch[:, :t1 - t0])
        yield slice(t0, t1), parts


def _correlate(mats, reads, width, out, scratch, grad=None):
    """out[:, :width] = sum of mats[r] @ read r per tile: one GEMM on reads
    stacked in scratch (adding them times out's old tile into grad first,
    if given), else one product at a time into the tile while it is cached."""
    flat = np.concatenate(mats, axis=1)
    for tile, a in _tiles(width, reads, scratch):
        if not isinstance(a, list):
            if grad is not None:
                grad += a @ out[:, tile].T
            np.matmul(flat, a, out=out[:, tile])
            continue
        part = scratch[:, :tile.stop - tile.start]
        np.matmul(mats[0], a[0], out=out[:, tile])
        for m, r in zip(mats[1:], a[1:]):
            out[:, tile] += np.matmul(m, r, out=part)


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), kernel (F, C, kh, kw), odd kh=kw.

    The input is copied once into zero-padded, channel-major stride
    phases, each (C, N * hq * wq) on the output grid, widened until reads
    past the map land on zeros; at stride 1 there is one phase, and only
    phases a tap reads are built (one subsample for a 1x1 stride-2 kernel).
    Tap (i, j) is then the contiguous column range at offset
    (i // stride) * wq + j // stride of phase (i % stride, j % stride).
    Each direction walks the grid in tiles, stacking the thinner side's
    reads (_correlate): the forward sums K_ij @ (tap's read) and crops to
    (oh, ow); backward places og on the same grid and fills each phase
    with the adjoint, its taps' K_ij^T @ og read at minus their offsets.
    og's stacked reads meet the phase's old tile for the kernel gradient,
    or, with C < F, the input's stacked reads meet og.  No array kh * kw
    times the input is built; the closure keeps only x and k, splitting
    x again.  The output is an (N, F, oh, ow) view of (F, N, oh, ow) memory.
    """
    if x.ndim != 4 or k.ndim != 4:
        raise ValueError(f"conv2d: need 4-D input and kernel, got {x.shape}, {k.shape}")
    n, c, h, w = x.shape
    f, kc, kh, kw = k.shape
    if kc != c:
        raise ValueError(f"conv2d: input has {c} channels but kernel expects {kc}")
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"conv2d: kernel must be square with odd side, got {kh}x{kw}")
    if stride < 1 or pad < 0:
        raise ValueError(f"conv2d: need stride >= 1 and pad >= 0, got stride {stride}, pad {pad}")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ValueError(f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")
    s = stride
    oh, ow = (h + 2 * pad - kh) // s + 1, (w + 2 * pad - kw) // s + 1
    rh, rw = oh + (kh - 1) // s, ow + (kw - 1) // s     # grid rows, columns taps read
    phases = {(i % s, j % s): (_phase_axis(i % s, h, rh, s, pad), _phase_axis(j % s, w, rw, s, pad))
              for i in range(kh) for j in range(kw)}
    # an image's grid ends where reads past it land on the next image's
    # leading zeros, so neighbouring rows and images share their padding
    hq = max([oh] + [max(ga.stop, rh - ga.start) for (ga, _ia), _b in phases.values()])
    wq = max([ow] + [max(gb.stop, rw - gb.start) for _a, (gb, _ib) in phases.values()])
    span = n * hq * wq
    # grid columns up to the last output position; the buffers hold every
    # tap's read of them, zero past the grid, and the crop drops the rest
    reach = (kh - 1) // s * wq + (kw - 1) // s
    cols = span - (hq - oh) * wq - (wq - ow)
    taps = [(i, j, (i % s, j % s), i // s * wq + j // s) for i in range(kh) for j in range(kw)]
    # the phases read disjoint input positions; whole if they read them all
    whole = sum(len(range(h)[ia]) * len(range(w)[ib])
                for (_ga, ia), (_gb, ib) in phases.values()) == h * w
    dt = np.result_type(x.data, k.data)

    def split():
        xc = x.data.transpose(1, 0, 2, 3)
        bufs = {}
        for p, ((ga, ia), (gb, ib)) in phases.items():
            bufs[p] = np.zeros((c, cols + reach), dt)
            bufs[p][:, :span].reshape(c, n, hq, wq)[:, :, ga, gb] = xc[:, :, ia, ib]
        return bufs

    def taps_of(kernel):
        return np.ascontiguousarray(kernel.transpose(2, 3, 0, 1), dtype=dt)

    bufs, kt = split(), taps_of(k.data)
    y, scratch = np.empty((f, span), dt), _scratch(len(taps) * c if c <= f else f, span, dt)
    _correlate(list(kt.reshape(-1, f, c)), [(bufs[p], off) for _i, _j, p, off in taps], cols, y, scratch)
    # out is allocated while the temporaries live: freed at the heap's top they get trimmed
    out = Tensor(np.ascontiguousarray(y.reshape(f, n, hq, wq)[:, :, :oh, :ow]).transpose(1, 0, 2, 3))

    def bwd(og):
        # og on the output grid, behind a margin of `reach` zero columns so
        # that every tap's shifted read of it stays inside the buffer
        gm = np.zeros((f, reach + span), dt)
        gm[:, reach:].reshape(f, n, hq, wq)[:, :, :oh, :ow] = og.transpose(1, 0, 2, 3)
        bufs, kt, scratch = split(), taps_of(k.data), _scratch(len(taps) * min(c, f), span, dt)
        dk = np.zeros((f, len(taps), c), dt)
        if c < f:
            # the input is the thinner side: dk from its stacked reads
            for tile, a in _tiles(cols, [(bufs[p], off) for _i, _j, p, off in taps], scratch):
                dk.reshape(f, -1)[...] += gm[:, reach + tile.start:reach + tile.stop] @ a.T
        # phase column q takes tap t's K^T @ og from grid column q - off_t
        for p, buf in bufs.items():
            mine = [t for t, tap in enumerate(taps) if tap[2] == p]
            acc = np.zeros((len(mine) * f, c), dt)
            _correlate([kt[taps[t][0], taps[t][1]].T for t in mine],
                       [(gm, reach - taps[t][3]) for t in mine], span, buf,
                       scratch[:c if c < f else len(mine) * f], acc)
            if c >= f:
                dk[:, mine] = acc.reshape(len(mine), f, c).transpose(1, 0, 2)
        _accumulate(k, dk.reshape(f, kh, kw, c).transpose(0, 3, 1, 2))
        if x.grad is None:
            # written once, not zero-filled and added to; over zeros only
            # where some input position is read by no tap
            xg = (np.empty if whole else np.zeros)((c, n, h, w), x.dtype)
            for p, ((ga, ia), (gb, ib)) in phases.items():
                xg[:, :, ia, ib] = bufs[p][:, :span].reshape(c, n, hq, wq)[:, :, ga, gb]
            _accumulate(x, xg.transpose(1, 0, 2, 3))
        else:
            xg = x.grad.transpose(1, 0, 2, 3)
            for p, ((ga, ia), (gb, ib)) in phases.items():
                xg[:, :, ia, ib] += bufs[p][:, :span].reshape(c, n, hq, wq)[:, :, ga, gb]

    return _emit("conv2d", out, bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, D, H, W) -> (N, D) spatial mean.

    Backward writes og / (H*W) over each map once, into a fresh
    channel-major array that becomes x's gradient slot.
    """
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool: need 4-D input, got {x.shape}")
    n, d, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)))

    def bwd(og):
        g = np.empty((d, n, h, w), dtype=og.dtype)
        g[...] = (og.T / (h * w))[:, :, None, None]
        _accumulate(x, g.transpose(1, 0, 2, 3))

    return _emit("global_avg_pool", out, bwd)


def avg_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping size x size average pooling; H, W must divide.

    The window sum adds strided slices of x, each window row's columns
    and then the rows, left to right ((a00 + a01) + (a10 + a11) at size
    2), and is divided by size * size.  Backward spreads og / size**2
    over each window into channel-major memory, like a conv2d output.
    """
    n, d, h, w = x.shape
    if h % size or w % size:
        raise ValueError(f"avg_pool2d: {h}x{w} not divisible by {size}")
    oh, ow = h // size, w // size
    rows = [reduce(np.add, (x.data[:, :, i::size, j::size] for j in range(size)))
            for i in range(size)]
    out = Tensor(reduce(np.add, rows) / (size * size))

    def bwd(og):
        g = np.broadcast_to(og.transpose(1, 0, 2, 3)[:, :, :, None, :, None],
                            (d, n, oh, size, ow, size)) / (size * size)
        _accumulate(x, g.reshape(d, n, h, w).transpose(1, 0, 2, 3))

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
        gimg = np.zeros(padded, dtype=x.dtype)
        ii, jj = np.divmod(arg, size)
        on, od, oy, ox = np.indices((n, d, oh, ow))
        np.add.at(gimg, (on, od, oy * stride + ii, ox * stride + jj), og)
        _accumulate(x, gimg[:, :, pad:pad + h, pad:pad + w])

    return _emit("max_pool2d", out, bwd)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BNState:
    """Running statistics for one normalization layer (not differentiated)."""

    momentum = 0.1
    eps = 1e-5

    def __init__(self, features, dtype=DEFAULT_DTYPE):
        self.mean = np.zeros(features, dtype=dtype)
        self.var = np.ones(features, dtype=dtype)


def _channel_rows(a):
    """(C, M) view of a's channel axis (axis 1) against all the others.

    Free for channel-major memory (conv2d and extend_channels outputs)
    and for a (rows, C) matrix, whose rows come back as a transposed view;
    only a batch-major map of rank 3 or more is copied by the reshape.
    """
    return np.moveaxis(a, 1, 0).reshape(a.shape[1], -1)


def _from_rows(rows, shape):
    """Inverse of _channel_rows: the (C, M) array as `shape`, a view."""
    return np.moveaxis(rows.reshape((shape[1], shape[0]) + shape[2:]), 0, 1)


def _row_dots(a, b):
    """Per-row dots of (C, M) rows: float32 by BLAS dots, closer than einsum's
    running sum; float64 by einsum, as its dots thread and can stall."""
    if a.dtype == np.float32:
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    return np.einsum("ij,ij->i", a, b)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
               training: bool, relu: bool = False) -> Tensor:
    """Per-feature normalization over every axis except axis 1.

    Training mode normalizes with the batch moments (biased variance) and
    folds them into the running estimates; eval mode uses the running
    estimates, so each sample's output is independent of the rest of the
    batch.  Both work on x's (C, M) channel rows.  Training takes the
    mean, one centred sum of squares, and scales and shifts the centred
    rows in place into the output; its closure keeps only the per-channel
    mean and inverse std, and backward recomputes the normalized input
    from x.  Eval mode is one per-channel affine, x * a + c.  A map comes
    out channel-major, and a (rows, C) matrix as (rows, C).

    relu=True takes max(., 0) in place in the output buffer, so the tape
    keeps no normalized map that only a relu reads.  Backward masks og in
    place by out > 0 (equal to the norm's output > 0) and then runs the
    same passes; the arithmetic and its order are relu(batch_norm(.))'s.
    """
    if x.ndim < 2:
        raise ValueError(f"batch_norm: need at least 2-D input, got {x.shape}")
    eps = state.eps
    rows = _channel_rows(x.data)
    count = rows.shape[1]

    if training:
        m = rows.mean(axis=1)
        y = rows - m[:, None]
        v = _row_dots(y, y) / count
        state.mean += state.momentum * (m - state.mean)
        state.var += state.momentum * (v - state.var)
        inv = 1.0 / np.sqrt(v + eps)
        a = gamma.data * inv
        y *= a[:, None]
        y += beta.data[:, None]
    else:
        m = state.mean.copy()
        inv = 1.0 / np.sqrt(state.var + eps)
        a = gamma.data * inv
        y = rows * a[:, None]
        y += (beta.data - m * a)[:, None]
    if relu:
        np.maximum(y, 0, out=y)
    out = Tensor(_from_rows(y, x.shape))

    def bwd(og):
        if relu:
            og *= out.data > 0
        ogr = _channel_rows(og)
        d = _channel_rows(x.data) - m[:, None]
        dbet = ogr.sum(axis=1)
        dgam = _row_dots(ogr, d) * inv
        _accumulate(gamma, dgam)
        _accumulate(beta, dbet)
        if training:
            # dx = a * (og - (dbet + xhat * dgam) / count) with xhat = d * inv,
            # formed in d's buffer
            d *= (dgam * inv / count)[:, None]
            d += (dbet / count)[:, None]
            np.subtract(ogr, d, out=d)
            d *= a[:, None]
        else:
            np.multiply(ogr, a[:, None], out=d)
        _accumulate(x, _from_rows(d, x.shape))

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
        g = probs.copy()
        g[np.arange(n), labels] -= 1.0
        _accumulate(logits, og * g / n)

    return _emit("cross_entropy", out, bwd)
