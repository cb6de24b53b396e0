"""Tensor engine checks against naive oracles and finite differences."""

import sys
import tracemalloc

import numpy as np
import pytest

import msar.pooling
import msar.tensor
import oracles
from msar.blocks import MsarSettings, build_network, densenet_cifar, resnet_cifar
from msar.gradcheck import TOLERANCE, check_gradients
from msar.pooling import CoordinateSetSpec, project_pool
from msar.tensor import (BNState, Tape, Tensor, _emit, add, avg_pool2d,
                         backward, batch_norm, conv2d, cross_entropy,
                         extend_channels, global_avg_pool, linear, max_pool2d,
                         mul, sum_all)
from oracles import concat_channels, relu, sigmoid


def naive_conv2d(x, k, stride, pad):
    """Six-loop reference convolution, same cross-correlation convention."""
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    img = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for b in range(n):
        for o in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = img[b, :, i * stride:i * stride + kh,
                                j * stride:j * stride + kw]
                    out[b, o, i, j] = (patch * k[o]).sum()
    return out


def test_conv2d_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(8):
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        kside = int(rng.choice([1, 3]))
        h = int(rng.integers(kside, 8))
        x = rng.standard_normal((2, 3, h, h))
        k = rng.standard_normal((4, 3, kside, kside))
        got = conv2d(Tensor(x), Tensor(k), stride=stride, pad=pad)
        want = naive_conv2d(x, k, stride, pad)
        assert np.allclose(got.data, want, atol=1e-12)


def _im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    img = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            cols[:, :, i, j] = img[:, :, i:i_max:stride, j:j_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1), oh, ow


def _col2im(dcols, xshape, kh, kw, stride, pad, oh, ow):
    n, c, h, w = xshape
    dcols = dcols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    dimg = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            dimg[:, :, i:i_max:stride, j:j_max:stride] += dcols[:, :, i, j]
    return dimg[:, :, pad:pad + h, pad:pad + w] if pad else dimg


def im2col_conv2d(x, k, stride, pad, og):
    """The im2col/col2im lowering conv2d used before window views, kept as
    the oracle: returns (output, d input, d kernel) for output gradient og."""
    f, _, kh, kw = k.shape
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    kflat = k.reshape(f, -1)
    out = (cols @ kflat.T).reshape(x.shape[0], oh, ow, f).transpose(0, 3, 1, 2)
    g2 = og.transpose(0, 2, 3, 1).reshape(-1, f)
    dk = (g2.T @ cols).reshape(k.shape)
    dx = _col2im(g2 @ kflat, x.shape, kh, kw, stride, pad, oh, ow)
    return out, dx, dk


def _taped_conv2d(x, k, stride, pad, og):
    xt, kt = Tensor(x), Tensor(k)
    with Tape() as tape:
        out = conv2d(xt, kt, stride=stride, pad=pad)
        loss = sum_all(mul(out, Tensor(og)))
    backward(tape, loss)
    return out.data, xt.grad, kt.grad


# (n, c, f, h, w, kernel, stride, pad): stride 1 and 2, pad 0-3 including
# pad > kernel - 1, kernels 1/3/5, N=1, C=1, F=1, and odd sizes where the
# last stride-2 window leaves trailing rows or columns uncovered
CONV_CASES = [
    (2, 3, 4, 7, 7, 3, 1, 1),
    (2, 2, 3, 5, 6, 3, 1, 0),
    (2, 3, 2, 5, 5, 3, 1, 3),
    (2, 3, 4, 6, 6, 1, 1, 2),
    (1, 1, 1, 4, 4, 5, 1, 3),
    (2, 3, 4, 7, 7, 3, 2, 1),
    (1, 2, 3, 8, 8, 3, 2, 0),
    (2, 1, 4, 9, 9, 5, 2, 2),
    (3, 4, 1, 6, 6, 1, 2, 0),
    (2, 3, 2, 7, 5, 3, 2, 3),
    (1, 2, 2, 6, 7, 5, 2, 1),
]
CONV_IDS = ["n{}c{}f{}-{}x{}-k{}s{}p{}".format(*c) for c in CONV_CASES]


def _conv_case(case):
    n, c, f, h, w, ks, stride, pad = case
    rng = np.random.default_rng(sum(case))
    oh = (h + 2 * pad - ks) // stride + 1
    ow = (w + 2 * pad - ks) // stride + 1
    return (rng.standard_normal((n, c, h, w)), rng.standard_normal((f, c, ks, ks)),
            rng.standard_normal((n, f, oh, ow)))


@pytest.mark.parametrize("case", CONV_CASES, ids=CONV_IDS)
def test_conv2d_matches_im2col_oracle(case):
    stride, pad = case[-2:]
    x, k, og = _conv_case(case)
    for got, ref in zip(_taped_conv2d(x, k, stride, pad, og),
                        im2col_conv2d(x, k, stride, pad, og)):
        assert got.shape == ref.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", CONV_CASES, ids=CONV_IDS)
def test_conv2d_float32_matches_im2col_oracle(case):
    stride, pad = case[-2:]
    x, k, og = _conv_case(case)
    got = _taped_conv2d(x.astype(np.float32), k.astype(np.float32), stride, pad,
                        og.astype(np.float32))
    for g, ref in zip(got, im2col_conv2d(x, k, stride, pad, og)):
        assert g.dtype == np.float32
        assert np.abs(g - ref).max() <= 1e-5 * np.abs(ref).max()


def _windows(img, kh, kw, stride):
    view = np.lib.stride_tricks.sliding_window_view(img, (kh, kw), axis=(2, 3))
    return view[:, :, ::stride, ::stride]


def _pad(a, pad):
    """Pad both spatial axes by pad; a negative pad crops."""
    if pad < 0:
        return a[:, :, -pad:a.shape[2] + pad, -pad:a.shape[3] + pad]
    return np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def window_conv2d(x, k, stride, pad, og):
    """The window-view convolution conv2d used before per-tap GEMMs, kept as
    the oracle: returns (output, d input, d kernel) for output gradient og.
    It contracts strided window views with tensordot; the stride-1 input
    gradient correlates the padded output gradient with the flipped
    kernel, and stride > 1 scatter-adds one tap at a time."""
    f, _, kh, kw = k.shape
    img = _pad(x, pad)
    out = np.tensordot(k, _windows(img, kh, kw, stride),
                       axes=([1, 2, 3], [1, 4, 5])).transpose(1, 0, 2, 3)
    dk = np.tensordot(_windows(img, kh, kw, stride), og,
                      axes=([0, 2, 3], [0, 2, 3])).transpose(3, 0, 1, 2)
    if stride == 1:
        dx = np.tensordot(k[:, :, ::-1, ::-1], _windows(_pad(og, kh - 1 - pad), kh, kw, 1),
                          axes=([0, 2, 3], [1, 4, 5])).transpose(1, 0, 2, 3)
        return out, dx, dk
    oh, ow = og.shape[2:]
    dimg = np.zeros(img.shape, dtype=np.result_type(og, k))
    for i in range(kh):
        for j in range(kw):
            dimg[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                np.tensordot(k[:, :, i, j], og, axes=([0], [1])).transpose(1, 0, 2, 3)
    return out, _pad(dimg, -pad), dk


# the benchmark networks' convolution shapes at batch 2:
# (n, c, f, h, w, kernel, stride, pad)
LAYER_CASES = {
    "stem-3to16-k3s1": (2, 3, 16, 32, 32, 3, 1, 1),
    "stage0-16to16-k3s1": (2, 16, 16, 32, 32, 3, 1, 1),
    "down-16to32-k3s2": (2, 16, 32, 32, 32, 3, 2, 1),
    "project-16to32-k1s2": (2, 16, 32, 32, 32, 1, 2, 0),
    "stage2-64to64-k3s1": (2, 64, 64, 8, 8, 3, 1, 1),
    "dense-48to12-k3s1": (2, 48, 12, 32, 32, 3, 1, 1),
    "dense-160to48-k1s1": (2, 160, 48, 16, 16, 1, 1, 0),
    "stem7-3to16-k7s2p3": (2, 3, 16, 32, 32, 7, 2, 3),
}


def _channel_major(a):
    """a with the same values, stored (C, N, H, W) like a conv2d output."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def _check_against_window_oracle(case, layout):
    """conv2d's output, input and kernel gradients on one case against
    window_conv2d: float64 within 1e-12, float32 within 1e-5 of the largest."""
    stride, pad = case[-2:]
    x, k, og = _conv_case(case)
    if layout == "channel-major":
        x, og = _channel_major(x), _channel_major(og)
    want = window_conv2d(x, k, stride, pad, og)
    for got, ref in zip(_taped_conv2d(x, k, stride, pad, og), want):
        assert got.shape == ref.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    got32 = _taped_conv2d(x.astype(np.float32), k.astype(np.float32), stride, pad,
                          og.astype(np.float32))
    for g, ref in zip(got32, want):
        assert g.dtype == np.float32
        assert np.abs(g - ref).max() <= 1e-5 * np.abs(ref).max()


@pytest.mark.parametrize("layout", ["nchw", "channel-major"])
@pytest.mark.parametrize("case", list(LAYER_CASES.values()), ids=list(LAYER_CASES))
def test_conv2d_matches_window_oracle_on_layer_shapes(case, layout):
    _check_against_window_oracle(case, layout)


# every layer shape, plus a batch of one, a map whose whole grid (one
# 4x4 phase per stride-2 tap class, 16 columns) is shorter than a tile, and
# the small geometries above, whose images share pad rows and columns
TILE_CASES = dict(LAYER_CASES, **{"n1-16to16-k3s1": (1, 16, 16, 32, 32, 3, 1, 1),
                                  "tiny-4to6-k3s2": (1, 4, 6, 5, 5, 3, 2, 1)},
                  **dict(zip(CONV_IDS, CONV_CASES)))


@pytest.mark.parametrize("tile", [7, 33, 1000])
@pytest.mark.parametrize("layout", ["nchw", "channel-major"])
@pytest.mark.parametrize("case", list(TILE_CASES.values()), ids=list(TILE_CASES))
def test_conv2d_tile_boundaries_match_window_oracle(case, layout, tile, monkeypatch):
    # odd tile widths put tile edges everywhere: inside an image row, on
    # the column cap cols = span - reach, and a last tile of a few columns
    # in the forward, the kernel gradient and the input gradient
    monkeypatch.setattr(msar.tensor, "_TILE", tile)
    _check_against_window_oracle(case, layout)


def test_conv2d_rejects_bad_stride_or_pad():
    # pad=-1 used to crop silently (a 2x2 output here); stride 0 and -1
    # used to run as stride 1
    x = Tensor(np.zeros((1, 2, 6, 6)))
    k = Tensor(np.zeros((3, 2, 3, 3)))
    for stride, pad in [(1, -1), (0, 1), (-1, 1)]:
        with pytest.raises(ValueError, match="stride"):
            conv2d(x, k, stride=stride, pad=pad)


def _conv_transient_peaks(x, k, og, stride, pad):
    """Peak bytes traced during conv2d's forward, and during its backward
    above what was held before it."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            conv2d(x, k, stride=stride, pad=pad)
        forward_peak = tracemalloc.get_traced_memory()[1]
        (_name, _out, bwd), = tape._entries
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        bwd(og)
        backward_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return forward_peak, backward_peak


def test_conv2d_transient_memory():
    # window copies made the forward peak 11x and the backward 13x the
    # input; the tile walk needs a few padded input-sized buffers and one
    # tile-sized scratch matrix
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((32, 16, 32, 32)))
    k = Tensor(rng.standard_normal((16, 16, 3, 3)))
    og = rng.standard_normal((32, 16, 32, 32))
    forward_peak, backward_peak = _conv_transient_peaks(x, k, og, 1, 1)
    assert forward_peak <= 5 * x.data.nbytes
    assert backward_peak <= 8 * x.data.nbytes


def test_conv2d_wide_input_transient_memory():
    # a dense step's 3x3 conv, 160 -> 12 channels: stacking its input's
    # 9 * 160 rows over the whole map would take 10x the input, so the
    # forward must run tap by tap, and only the 12-row output gradient's
    # taps may be stacked, one tile at a time
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((32, 160, 32, 32)).astype(np.float32))
    k = Tensor(rng.standard_normal((12, 160, 3, 3)).astype(np.float32))
    og = rng.standard_normal((32, 12, 32, 32)).astype(np.float32)
    forward_peak, backward_peak = _conv_transient_peaks(x, k, og, 1, 1)
    assert forward_peak <= 5 * x.data.nbytes
    assert backward_peak <= 8 * x.data.nbytes


def test_conv2d_tape_holds_no_input_copies():
    # im2col kept a kh*kw-times-the-input matrix per layer (10x the input
    # here); the tape may hold the output plus at most the padded input
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal((32, 16, 32, 32)))
    k = Tensor(rng.standard_normal((16, 16, 3, 3)))
    padded_bytes = x.data.nbytes * (34 * 34) // (32 * 32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            conv2d(x, k, stride=1, pad=1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2.5 * x.data.nbytes
    (_name, _out, bwd), = tape._entries
    for cell in bwd.__closure__:
        value = cell.cell_contents
        arr = value.data if isinstance(value, Tensor) else value
        if isinstance(arr, np.ndarray):
            assert arr.nbytes <= padded_bytes


def test_conv2d_rejects_even_or_rectangular_kernels():
    x = Tensor(np.zeros((1, 2, 6, 6)))
    with pytest.raises(ValueError):
        conv2d(x, Tensor(np.zeros((3, 2, 2, 2))))
    with pytest.raises(ValueError):
        conv2d(x, Tensor(np.zeros((3, 2, 1, 3))))


def test_linear_matches_double_loop():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 7))
    w = rng.standard_normal((4, 7))
    b = rng.standard_normal(4)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    want = np.zeros((5, 4))
    for i in range(5):
        for j in range(4):
            want[i, j] = sum(x[i, d] * w[j, d] for d in range(7)) + b[j]
    assert np.allclose(out.data, want, atol=1e-12)


def test_batch_norm_training_moments():
    # training output must be exactly (x - batch mean) / sqrt(var + eps) * g + b
    rng = np.random.default_rng(13)
    x = rng.standard_normal((6, 3, 4, 4)) * 10.0 + 100.0
    g = rng.standard_normal(3)
    b = rng.standard_normal(3)
    st = BNState(3)
    out = batch_norm(Tensor(x), Tensor(g), Tensor(b), st, training=True)
    m = x.mean(axis=(0, 2, 3))
    v = x.var(axis=(0, 2, 3))
    want = (x - m[:, None, None]) / np.sqrt(v[:, None, None] + st.eps)
    want = want * g[:, None, None] + b[:, None, None]
    assert np.allclose(out.data, want, atol=1e-9)
    # running stats folded with momentum 0.1 from the zero/one init
    assert np.allclose(st.mean, 0.1 * m, atol=1e-12)
    assert np.allclose(st.var, 0.9 * 1.0 + 0.1 * v, atol=1e-12)


def test_batch_norm_eval_uses_running_stats():
    rng = np.random.default_rng(14)
    st = BNState(2)
    st.mean[:] = [1.0, -2.0]
    st.var[:] = [4.0, 9.0]
    x = rng.standard_normal((3, 2, 2, 2))
    out = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                     st, training=False)
    want = (x - st.mean[:, None, None]) / np.sqrt(st.var[:, None, None] + st.eps)
    assert np.allclose(out.data, want, atol=1e-12)
    # eval mode must not move the running estimates
    assert st.mean[0] == 1.0 and st.var[1] == 9.0


def oracle_batch_norm(x, gamma, beta, state, training):
    """The ten-pass batch_norm on x's own layout, keeping xhat for backward."""
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


def _run_batch_norm(op, x, training, seed, prior_grad=False, dtype=None):
    """Output, x/gamma/beta grads and running statistics of one op call."""
    dtype = dtype or x.dtype
    rng = np.random.default_rng(seed)
    c = x.shape[1]
    xt = Tensor(x.astype(dtype))
    gamma = Tensor(rng.uniform(0.5, 1.5, c), dtype=dtype)
    beta = Tensor(rng.standard_normal(c), dtype=dtype)
    state = BNState(c, dtype=dtype)
    state.mean[:] = rng.standard_normal(c)
    state.var[:] = rng.uniform(0.5, 2.0, c)
    probe = Tensor(rng.standard_normal(x.shape), dtype=dtype)
    if prior_grad:
        xt.grad = rng.standard_normal(x.shape).astype(dtype)
    with Tape() as tape:
        out = op(xt, gamma, beta, state, training)
        loss = sum_all(mul(out, probe))
    backward(tape, loss)
    return out.data, xt.grad, gamma.grad, beta.grad, state.mean, state.var


def _layout(x, layout):
    """x's values in channel-major memory, or as they come."""
    if layout == "channel-major":
        return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    return x


BN_CASES = [((6, 5, 7, 7), "channel-major"), ((6, 5, 7, 7), "batch-major"),
            ((40, 9), "2-D")]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape, layout", BN_CASES)
def test_batch_norm_matches_oracle(shape, layout, training, dtype, tol):
    # the three-pass path against the ten-pass one it replaced: output, the
    # three gradients and both running statistics, on every input layout,
    # into a fresh gradient slot and into one that already holds a value
    x = _layout(np.random.default_rng(40).standard_normal(shape) * 2.0 + 0.5, layout)
    for prior_grad in (False, True):
        got = _run_batch_norm(batch_norm, x.astype(dtype), training, 41, prior_grad)
        want = _run_batch_norm(oracle_batch_norm, x.astype(dtype), training, 41, prior_grad)
        for a, b in zip(got, want):
            assert a.dtype == dtype
            assert np.abs(a - b).max() <= tol * np.abs(b).max()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape, layout", BN_CASES)
def test_batch_norm_relu_is_bitwise_relu_of_batch_norm(shape, layout, training, dtype):
    # the fused relu runs in the norm's buffer and masks og before the same
    # passes: output, the three gradients and the running statistics are
    # the composed pair's bits, into an empty slot and into a filled one
    x = _layout(np.random.default_rng(47).standard_normal(shape) * 2.0 + 0.5, layout)
    for prior_grad in (False, True):
        got = _run_batch_norm(lambda *a: batch_norm(*a, relu=True), x.astype(dtype),
                              training, 48, prior_grad)
        want = _run_batch_norm(lambda *a: relu(batch_norm(*a)), x.astype(dtype),
                               training, 48, prior_grad)
        assert (got[0] == 0).any() and (got[0] > 0).any()
        for a, b in zip(got, want):
            assert a.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("same", [False, True], ids=["a+b", "x+x"])
def test_add_relu_is_bitwise_relu_of_add(same, dtype):
    rng = np.random.default_rng(49)
    a = _channel_major(rng.standard_normal((3, 4, 5, 5))).astype(dtype)
    b = a if same else rng.standard_normal(a.shape).astype(dtype)
    probe = Tensor(rng.standard_normal(a.shape), dtype=dtype)
    results = []
    for op in (lambda s, t: add(s, t, relu=True), lambda s, t: relu(add(s, t))):
        ta = Tensor(a)
        tb = ta if same else Tensor(b)
        with Tape() as tape:
            out = op(ta, tb)
            loss = sum_all(mul(out, probe))
        backward(tape, loss)
        results.append([out.data, ta.grad] + ([] if same else [tb.grad]))
    for got, want in zip(*results):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert (results[0][0] == 0).any() and (results[0][0] > 0).any()


def test_batch_norm_float32_large_offset_keeps_precision():
    # mean 1e3, std 0.1: a one-pass E[x^2] - E[x]^2 would lose every digit
    # of the variance in float32.  The centred sums keep the running variance
    # and the beta gradient at float32 accuracy.  The rest carry the float32
    # batch mean's own rounding, up to eps * mean / std (6e-4) of the float64
    # result on the same values; the eval affine's x * a rounds at that scale too
    rng = np.random.default_rng(42)
    x = _layout(1e3 + 0.1 * rng.standard_normal((32, 8, 16, 16)), "channel-major")
    x = x.astype(np.float32)
    resolution = np.finfo(np.float32).eps * 1e3 / 0.1
    for training in (True, False):
        got = _run_batch_norm(batch_norm, x, training, 43)
        want = _run_batch_norm(oracle_batch_norm, x, training, 43, dtype=np.float64)
        tols = (resolution, resolution, resolution, 1e-5, 1e-5, 1e-5)
        for a, b, tol in zip(got, want, tols):
            assert np.abs(a - b).max() <= tol * np.abs(b).max()


def test_batch_norm_float32_long_rows_match_float64():
    # 524k values per channel: a single running float32 sum of squares
    # drifts to ~3e-5 of the float64 variance; the blocked BLAS dots stay
    # within 1e-6, for the variance and for the gamma gradient
    rng = np.random.default_rng(46)
    x = _layout(rng.standard_normal((128, 2, 64, 64)) * 2.0 + 0.5, "channel-major")
    results = []
    for dtype in (np.float32, np.float64):
        xt = Tensor(x.astype(np.float32).astype(dtype))
        gamma, beta, state = Tensor(np.ones(2, dtype)), Tensor(np.zeros(2, dtype)), BNState(2, dtype)
        state.var[:] = 0.0  # so the running variance is 0.1 * the batch's
        with Tape() as tape:
            loss = sum_all(mul(batch_norm(xt, gamma, beta, state, training=True), xt))
        backward(tape, loss)
        results.append((state.var, gamma.grad))
    for got, want in zip(*results):
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("layout", ["channel-major", "batch-major"])
def test_batch_norm_tape_keeps_no_input_copy(layout):
    # the closure keeps the per-channel mean and inverse std, not xhat: the
    # tape holds the output plus O(C), and no kept array is input-sized
    rng = np.random.default_rng(44)
    x = Tensor(_layout(rng.standard_normal((16, 8, 16, 16)), layout))
    gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = batch_norm(x, gamma, beta, BNState(8), training=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= out.data.nbytes + 64 * 1024
    (_name, _out, bwd), = tape._entries
    for cell in bwd.__closure__:
        if isinstance(cell.cell_contents, np.ndarray):
            assert cell.cell_contents.nbytes < x.data.nbytes


def test_concat_output_is_read_as_channel_rows_without_copy(monkeypatch):
    # dense steps normalize, and may sliding-pool, extend_channels outputs,
    # channel prefixes of a wider stage buffer: both ops must take their
    # (D, N*H*W) rows as a view of that output
    rng = np.random.default_rng(45)
    a = Tensor(rng.standard_normal((2, 3, 6, 6)))
    b = Tensor(rng.standard_normal((2, 4, 6, 6)))
    cat = extend_channels(a, b, 9)
    assert np.array_equal(cat.data, np.concatenate([a.data, b.data], axis=1))
    assert cat.data.strides == concat_channels(a, b).data.strides
    rows = msar.tensor._channel_rows
    views = []

    def spy(arr):
        out = rows(arr)
        views.append(np.shares_memory(out, arr))
        return out

    monkeypatch.setattr(msar.tensor, "_channel_rows", spy)
    monkeypatch.setattr(msar.pooling, "_channel_rows", spy)
    w = Tensor(rng.standard_normal((2, 7)))
    with Tape() as tape:
        y = batch_norm(cat, Tensor(np.ones(7)), Tensor(np.zeros(7)), BNState(7), True)
        z = project_pool(cat, w, CoordinateSetSpec("sliding", 1, 6, 6))
        loss = add(sum_all(mul(y, y)), sum_all(mul(z, z)))
    backward(tape, loss)
    assert len(views) == 5 and all(views)


def test_extend_channels_writes_only_channels_no_tensor_exposes():
    # a step extends the stage buffer only when its input is the filled
    # prefix; a second step on the same input, or a wider dtype, starts
    # new storage, so no earlier result changes
    rng = np.random.default_rng(46)
    x, y, z = (Tensor(rng.standard_normal((2, c, 4, 4)), dtype=np.float32) for c in (3, 2, 2))
    s = extend_channels(x, y, 7)
    first = extend_channels(s, z, 7)
    assert np.shares_memory(first.data, s.data)
    kept, prefix = first.data.copy(), s.data.copy()
    second = extend_channels(s, y, 7)
    assert not np.shares_memory(second.data, first.data)
    assert np.array_equal(first.data, kept) and np.array_equal(s.data, prefix)
    assert np.array_equal(second.data, concat_channels(s, y).data)
    wide = extend_channels(first, Tensor(np.ones((2, 1, 4, 4))), 8)
    assert wide.dtype == np.float64 and not np.shares_memory(wide.data, first.data)
    assert np.array_equal(first.data, kept)
    with pytest.raises(ValueError, match="do not fit"):
        extend_channels(x, y, 4)
    with pytest.raises(ValueError, match="incompatible"):
        extend_channels(x, Tensor(np.ones((2, 2, 4, 5))), 9)


def test_sigmoid_known_value():
    out = sigmoid(Tensor(np.array([10.0])))
    assert out.data[0] == pytest.approx(0.9999546021312976, abs=1e-15)


def three_exp_sigmoid(d):
    """The logistic as first written, one exp per use: the bitwise oracle."""
    return np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                    np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_bitwise_matches_three_exp_oracle(dtype):
    info = np.finfo(dtype)
    edges = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 88.7, -88.7, 1e-300,
             info.tiny, -info.tiny, info.tiny / 4, -info.tiny / 4, info.max, -info.max,
             np.inf, -np.inf]
    rng = np.random.default_rng(16)
    d = np.concatenate([np.array(edges), rng.standard_normal(1_000_000) * 20,
                        rng.uniform(-800, 800, 1_000_000)]).astype(dtype)
    with np.errstate(over="ignore", under="ignore"):
        want = three_exp_sigmoid(d)
        got = sigmoid(Tensor(d)).data
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_relu_and_sigmoid_ranges():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(100)
    r = relu(Tensor(x))
    s = sigmoid(Tensor(x))
    assert (r.data >= 0).all()
    assert np.allclose(r.data, np.maximum(x, 0))
    assert ((s.data > 0) & (s.data < 1)).all()


def test_cross_entropy_uniform_logits():
    # all-equal logits give loss ln(C) regardless of labels
    logits = Tensor(np.zeros((8, 10)))
    labels = np.arange(8) % 10
    loss = cross_entropy(logits, labels)
    assert loss.data == pytest.approx(np.log(10.0), abs=1e-12)


def test_cross_entropy_extreme_logits_stable():
    logits = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
    loss = cross_entropy(logits, np.array([0, 0]))
    assert np.isfinite(loss.data)
    assert loss.data == pytest.approx(500.0, rel=1e-9)


def test_max_pool_matches_loop():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 8, 8))
    out = max_pool2d(Tensor(x), 3, 2, 1)
    img = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    want = np.zeros((2, 3, 4, 4))
    for i in range(4):
        for j in range(4):
            want[:, :, i, j] = img[:, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3].max(axis=(2, 3))
    assert np.allclose(out.data, want)


def gather_max_pool2d(x, size, stride, pad):
    """The hand-written window gather max_pool2d used before window views:
    returns the pooled map and each window's row-major argmax."""
    n, d, h, w = x.shape
    oh = (h + 2 * pad - size) // stride + 1
    ow = (w + 2 * pad - size) // stride + 1
    img = np.full((n, d, h + 2 * pad, w + 2 * pad), -np.inf, dtype=x.dtype)
    img[:, :, pad:pad + h, pad:pad + w] = x
    wins = np.empty((n, d, oh, ow, size * size), dtype=x.dtype)
    for i in range(size):
        for j in range(size):
            wins[:, :, :, :, i * size + j] = img[:, :, i:i + stride * oh:stride,
                                                 j:j + stride * ow:stride]
    arg = wins.argmax(axis=4)
    return np.take_along_axis(wins, arg[..., None], axis=4)[..., 0], arg


@pytest.mark.parametrize("size,stride,pad", [(3, 2, 1), (2, 2, 0), (3, 1, 1), (3, 2, 0)])
def test_max_pool_bitwise_with_gather_oracle(size, stride, pad):
    # quantized values make ties common, so the gradient's routing checks
    # that the first maximum in row-major window order still wins
    rng = np.random.default_rng(21)
    x = np.round(rng.standard_normal((2, 3, 9, 9)))
    x[0, 0] = 0.0
    x[1, 1, :4, :4] = -0.0
    want, arg = gather_max_pool2d(x, size, stride, pad)
    xt = Tensor(x)
    with Tape() as tape:
        out = max_pool2d(xt, size, stride, pad)
        loss = sum_all(out)
    backward(tape, loss)
    assert out.data.tobytes() == want.tobytes()
    n, d, oh, ow = want.shape
    gimg = np.zeros((n, d, 9 + 2 * pad, 9 + 2 * pad))
    ii, jj = np.divmod(arg, size)
    on, od, oy, ox = np.indices((n, d, oh, ow))
    np.add.at(gimg, (on, od, oy * stride + ii, ox * stride + jj), 1.0)
    assert xt.grad.tobytes() == gimg[:, :, pad:pad + 9, pad:pad + 9].tobytes()


def test_avg_and_global_pool_values():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = avg_pool2d(Tensor(x), 2)
    assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])
    g = global_avg_pool(Tensor(x))
    assert g.data[0, 0] == pytest.approx(7.5)


def test_gradients_all_core_ops():
    rng = np.random.default_rng(18)

    x, y = Tensor(rng.standard_normal((2, 3, 4, 4))), Tensor(rng.standard_normal((2, 3, 4, 4)))
    assert check_gradients(lambda: add(x, y), [x, y], rng) < TOLERANCE
    assert check_gradients(lambda: mul(x, y), [x, y], rng) < TOLERANCE
    assert check_gradients(lambda: oracles.scale(x, -2.5), [x], rng) < TOLERANCE
    assert check_gradients(lambda: relu(x), [x], rng) < TOLERANCE
    assert check_gradients(lambda: sigmoid(x), [x], rng) < TOLERANCE
    assert check_gradients(lambda: concat_channels(x, y), [x, y], rng) < TOLERANCE
    assert check_gradients(lambda: extend_channels(extend_channels(x, y, 9), x, 9),
                           [x, y], rng) < TOLERANCE
    assert check_gradients(lambda: sum_all(mul(x, x)), [x], rng) < TOLERANCE

    xa, wa, ba = Tensor(rng.standard_normal((5, 6))), Tensor(rng.standard_normal((4, 6))), Tensor(rng.standard_normal(4))
    assert check_gradients(lambda: linear(xa, wa, ba), [xa, wa, ba], rng) < TOLERANCE

    xc = Tensor(rng.standard_normal((2, 3, 6, 6)))
    kc = Tensor(rng.standard_normal((4, 3, 3, 3)))
    assert check_gradients(lambda: conv2d(xc, kc, 1, 1), [xc, kc], rng) < TOLERANCE
    assert check_gradients(lambda: conv2d(xc, kc, 2, 1), [xc, kc], rng) < TOLERANCE

    xb = Tensor(rng.standard_normal((3, 4, 5, 5)))
    gb, bb = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4))
    stb = BNState(4)
    assert check_gradients(lambda: batch_norm(xb, gb, bb, stb, True),
                           [xb, gb, bb], rng) < TOLERANCE

    xp = Tensor(rng.standard_normal((2, 3, 8, 8)))
    assert check_gradients(lambda: avg_pool2d(xp, 2), [xp], rng) < TOLERANCE
    assert check_gradients(lambda: max_pool2d(xp, 3, 2, 1), [xp], rng) < TOLERANCE
    assert check_gradients(lambda: global_avg_pool(xp), [xp], rng) < TOLERANCE

    xe = Tensor(rng.standard_normal((4, 7)))
    ye = rng.integers(0, 7, size=4)
    assert check_gradients(lambda: cross_entropy(xe, ye), [xe], rng) < TOLERANCE


def test_ops_are_deterministic():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 4, 6, 6))
    k = rng.standard_normal((5, 4, 3, 3))
    a = conv2d(Tensor(x.copy()), Tensor(k.copy()), 1, 1).data
    b = conv2d(Tensor(x.copy()), Tensor(k.copy()), 1, 1).data
    assert (a == b).all()


def test_backward_requires_scalar_from_tape():
    x = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ValueError):
        backward(tape, y)  # not a scalar
    loose = Tensor(np.asarray(1.0))
    with pytest.raises(ValueError):
        backward(tape, loose)  # scalar, but produced outside the tape


def test_ops_outside_tape_do_not_accumulate():
    x = Tensor(np.ones((3, 3)))
    y = mul(x, x)
    assert y.shape == (3, 3)
    assert x.grad is None

    with Tape() as tape:
        loss = sum_all(mul(x, x))
    backward(tape, loss)
    assert np.allclose(x.grad, 2.0)


def test_grad_accumulates_across_reuse():
    # the same leaf used twice must collect both contributions
    x = Tensor(np.full((2,), 3.0))
    with Tape() as tape:
        loss = sum_all(add(mul(x, x), x))
    backward(tape, loss)
    assert np.allclose(x.grad, 2 * 3.0 + 1.0)


def test_second_backward_adds_one_more_gradient():
    # stale intermediate slots used to be replayed: 6 + 18 = 24, not 12
    x = Tensor(np.array(3.0))
    with Tape() as tape:
        loss = sum_all(relu(mul(x, x)))
    backward(tape, loss)
    assert x.grad == 6.0
    backward(tape, loss)
    assert x.grad == 12.0


def test_backward_releases_intermediate_grads():
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((2, 3, 5, 5)))
    k = Tensor(rng.standard_normal((4, 3, 3, 3)))
    with Tape() as tape:
        y = conv2d(x, k, 1, 1)
        z = relu(y)
        loss = sum_all(mul(z, z))
    backward(tape, loss)
    assert x.grad is not None and k.grad is not None
    assert y.grad is None and z.grad is None
    for _name, out, _fn in tape._entries:
        assert (out.grad is None) == (out is not loss)


# ---------------------------------------------------------------------------
# gradient slots: handed over, never zero-filled and added into
# ---------------------------------------------------------------------------

def zero_fill_then_add(t, g):
    """How every closure accumulated before empty slots were handed over."""
    t.ensure_grad()
    t.grad += g


def _slot_cases():
    """(name, leaves, fn) for every taped op; fn maps the leaves to one output."""
    rng = np.random.default_rng(40)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape))

    def cm(*shape):
        return Tensor(_channel_major(rng.standard_normal(shape)))

    x, y = leaf(2, 3, 6, 6), leaf(2, 3, 6, 6)
    m, w, b = leaf(5, 6), leaf(4, 6), leaf(4)
    gam, bet = Tensor(rng.uniform(0.5, 1.5, 3)), leaf(3)
    st = BNState(3)
    reg = [CoordinateSetSpec("regional", k, 6, 6) for k in (1, 2, 3)]
    sld = [CoordinateSetSpec("sliding", k, 6, 6) for k in (2, 4)]
    vr = [Tensor(rng.uniform(0.1, 0.9, (2 * s.vector_count, 3))) for s in reg]
    vs = [Tensor(rng.uniform(0.1, 0.9, (2 * s.vector_count, 3))) for s in sld]
    # a sliding scale's gate rows as excite writes them: (D, N*H*W) memory
    maps = [Tensor(rng.uniform(0.1, 0.9, (3, 2 * 36)).T) for _ in sld]
    pw = leaf(2, 3)
    u, ew, egam, ebet = leaf(72, 2), leaf(3, 2), Tensor(rng.uniform(0.5, 1.5, 3)), leaf(3)
    ur = leaf(2 * 4, 2)
    est = BNState(3)
    est.mean[...], est.var[...] = rng.standard_normal(3), rng.uniform(0.5, 1.5, 3)
    rw = [leaf(3, 3) for _ in reg]          # D-wide rows, as the gate reads them
    labels = np.array([0, 3, 1, 5, 2])
    cases = [
        ("add", [x, y], lambda: add(x, y)),
        ("add-self", [x], lambda: add(x, x)),
        ("mul", [x, y], lambda: mul(x, y)),
        ("mul-self", [x], lambda: mul(x, x)),
        ("scale", [x], lambda: oracles.scale(x, -1.5)),
        ("concat", [x, y], lambda: extend_channels(x, y, 6)),
        ("concat-self", [x], lambda: extend_channels(x, x, 6)),
        ("concat-extend", [x, y], lambda: extend_channels(extend_channels(x, y, 9), x, 9)),
        ("sum_all", [x], lambda: sum_all(x)),
        ("relu", [x], lambda: relu(x)),
        ("sigmoid", [x], lambda: sigmoid(x)),
        ("linear", [m, w, b], lambda: linear(m, w, b)),
        ("global_avg_pool", [x], lambda: global_avg_pool(x)),
        ("avg_pool2d", [x], lambda: avg_pool2d(x, 2)),
        ("avg_pool2d-3", [x], lambda: avg_pool2d(x, 3)),
        ("max_pool2d", [x], lambda: max_pool2d(x, 3, 2, 1)),
        ("batch_norm-train", [x, gam, bet], lambda: batch_norm(x, gam, bet, st, True)),
        ("batch_norm-eval", [x, gam, bet], lambda: batch_norm(x, gam, bet, st, False)),
        ("batch_norm-relu-train", [x, gam, bet],
         lambda: batch_norm(x, gam, bet, st, True, relu=True)),
        ("batch_norm-relu-eval", [x, gam, bet],
         lambda: batch_norm(x, gam, bet, st, False, relu=True)),
        ("add-relu", [x, y], lambda: add(x, y, relu=True)),
        ("add-relu-self", [x], lambda: add(x, x, relu=True)),
        ("cross_entropy", [m], lambda: cross_entropy(m, labels)),
        ("regional-pool", [x], lambda: oracles.coordinate_avg_pool(x, reg[1])),
        ("sliding-pool", [x], lambda: oracles.coordinate_avg_pool(x, sld[0])),
        ("project_pool", [x, pw], lambda: project_pool(x, pw, sld[1])),
        ("broadcast-regional", [vr[1]], lambda: oracles.broadcast_weights(vr[1], reg[1])),
        ("broadcast-sliding", [vs[0]], lambda: oracles.broadcast_weights(vs[0], sld[0])),
        ("gate-regional", [x] + vr, lambda: msar.pooling.gate(x, vr, reg)),
        ("gate-sliding", [x] + maps, lambda: msar.pooling.gate(x, maps, sld)),
        ("gate-skip", [x, y, vr[1], maps[0]],
         lambda: msar.pooling.gate(x, [vr[1], maps[0]], [reg[1], sld[0]], skip=y)),
        # excite on a sliding scale's rows, which the gate views as its map
        ("excite_map-train", [u, ew, egam, ebet],
         lambda: msar.pooling.excite(u, ew, egam, ebet, est, True)),
        ("excite_map-eval", [u, ew, egam, ebet],
         lambda: msar.pooling.excite(u, ew, egam, ebet, est, False)),
        ("excite_map-gate", [x, u],
         lambda: msar.pooling.gate(x, [msar.pooling.excite(u, ew, egam, ebet, est, True)
                                       for _ in sld], sld)),
        ("excite-regional-gate", [x, ur],
         lambda: msar.pooling.gate(x, [msar.pooling.excite(ur, ew, egam, ebet, est, True)], reg[1:2])),
        ("regional_pool", [x, y] + rw,
         lambda: msar.pooling.gate(y, msar.pooling.regional_pool(x, reg, rw), reg)),
        ("regional_pool-self", [x] + rw,
         lambda: msar.pooling.gate(x, msar.pooling.regional_pool(x, reg, rw), reg)),
    ]
    for name, case in LAYER_CASES.items():
        n, c, f, h, wd, k, stride, pad = case
        xc, kc = cm(n, c, h, wd), leaf(f, c, k, k)
        cases.append((f"conv2d-{name}", [xc, kc],
                      lambda xc=xc, kc=kc, stride=stride, pad=pad: conv2d(xc, kc, stride, pad)))
    return cases


SLOT_CASES = _slot_cases()


def _slot_grads(leaves, fn, prior, seed=41):
    """Leaf gradients after one backward of probe . fn(); prior fills the slots first."""
    rng = np.random.default_rng(seed)
    for t in leaves:
        t.grad = rng.standard_normal(t.shape) if prior else None
    probe = Tensor(rng.standard_normal(fn().shape))
    with Tape() as tape:
        loss = sum_all(mul(fn(), probe))
    backward(tape, loss)
    return [t.grad for t in leaves]


@pytest.mark.parametrize("prior", [False, True], ids=["empty", "filled"])
@pytest.mark.parametrize("name, leaves, fn", SLOT_CASES, ids=[c[0] for c in SLOT_CASES])
def test_backward_matches_zero_fill_then_add(name, leaves, fn, prior, monkeypatch):
    # equal values; a handed-over zero keeps its sign where 0 + g gives +0
    got = _slot_grads(leaves, fn, prior)
    monkeypatch.setattr(msar.tensor, "_accumulate", zero_fill_then_add)
    monkeypatch.setattr(msar.pooling, "_accumulate", zero_fill_then_add)
    monkeypatch.setattr(oracles, "_accumulate", zero_fill_then_add)
    want = _slot_grads(leaves, fn, prior)
    for g, wg in zip(got, want):
        assert g.shape == wg.shape and g.dtype == wg.dtype
        assert np.array_equal(g, wg)


def _assert_slots_apart(loss, leaves):
    assert loss.grad.tobytes() == np.ones_like(loss.data).tobytes()
    slots = [loss.grad] + [t.grad for t in leaves if t.grad is not None]
    for i, a in enumerate(slots):
        for b in slots[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("name", ["add-self", "add", "add-relu", "add-relu-self", "concat",
                                  "concat-self", "concat-extend", "gate-regional", "gate-sliding",
                                  "gate-skip", "regional_pool",
                                  "excite_map-train", "excite_map-eval", "excite_map-gate",
                                  "excite-regional-gate"])
def test_handed_over_slots_share_no_memory(name):
    _name, leaves, fn = next(c for c in SLOT_CASES if c[0] == name)
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        loss = sum_all(fn())
    backward(tape, loss)
    _assert_slots_apart(loss, leaves)


def test_loss_grad_stays_ones_when_its_closure_consumes_og():
    # relu masks its og in place; the loss's closure must get its own ones
    x = Tensor(-np.ones(3))
    with Tape() as tape:
        loss = relu(sum_all(x))
    backward(tape, loss)
    assert loss.grad == 1.0 and list(x.grad) == [0.0, 0.0, 0.0]


def _small_net_step(strategy, dense=False, batch=2):
    """One training step of a seed-7 msar net: (loss, parameter tensors)."""
    settings = MsarSettings(scales=(1, 2, 4), strategy=strategy)
    spec = densenet_cifar(40, 12, 10, settings) if dense else resnet_cifar(20, 10, settings)
    net = build_network(spec, seed=7)
    rng = np.random.default_rng(7)
    with Tape() as tape:
        logits = net.forward(Tensor(rng.standard_normal((batch, 3, 32, 32))), training=True)
        loss = cross_entropy(logits, rng.integers(0, 10, batch))
    backward(tape, loss)
    return loss, [t for _, t, _ in net.parameters()]


@pytest.mark.parametrize("strategy", ["regional", "sliding"])
def test_msar_step_slots_share_no_memory(strategy):
    loss, params = _small_net_step(strategy)
    _assert_slots_apart(loss, params)


def test_msar_steps_zero_fill_no_slot(monkeypatch):
    # zero-fill-then-add filled every slot (74 of 1 MiB or more, 594 MB, on
    # a regional resnet20 step at batch 128); global_avg_pool, the last op
    # to hand over an (N, D, 1, 1) broadcast, now writes its map once
    filled = []
    plain = Tensor.ensure_grad

    def spy(self):
        if self.grad is None:
            # name the backward closure that asked, whatever it is called
            frame = sys._getframe(1)
            while frame.f_back and ".<locals>." not in frame.f_code.co_qualname:
                frame = frame.f_back
            filled.append((frame.f_code.co_qualname, self.ndim))
        return plain(self)

    monkeypatch.setattr(Tensor, "ensure_grad", spy)
    for strategy, dense in (("regional", False), ("sliding", False), ("regional", True)):
        filled.clear()
        _small_net_step(strategy, dense)
        assert filled == []


def test_relu_matches_where_oracle_and_propagates_nan():
    rng = np.random.default_rng(42)
    for dtype in (np.float64, np.float32):
        x = np.concatenate([rng.standard_normal(1000), [0.0, -0.0, 1e-310, -1e-310,
                                                        np.finfo(dtype).max]]).astype(dtype)
        got = relu(Tensor(x)).data
        assert got.dtype == dtype
        assert np.array_equal(got, np.where(x > 0, x, 0.0))
    xt = Tensor(np.array([np.nan, -1.0, 2.0]))
    with Tape() as tape:
        out = relu(xt)
        loss = sum_all(mul(out, Tensor(np.array([3.0, 4.0, 5.0]))))
    backward(tape, loss)
    assert np.isnan(out.data[0]) and list(out.data[1:]) == [0.0, 2.0]
    assert list(xt.grad) == [0.0, 0.0, 5.0]


@pytest.mark.parametrize("layout", ["nchw", "channel-major"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_avg_pool2d_matches_mean_oracle(dtype, layout):
    # the 6-D mean it replaced: bitwise at size 2, summation order aside otherwise
    rng = np.random.default_rng(43)
    for shape, size in (((2, 5, 8, 8), 2), ((3, 168, 32, 32), 2), ((2, 4, 12, 12), 3),
                        ((2, 4, 12, 12), 4), ((2, 3, 6, 6), 1)):
        x = rng.standard_normal(shape).astype(dtype)
        if layout == "channel-major":
            x = _channel_major(x)
        n, d, h, w = shape
        want = x.reshape(n, d, h // size, size, w // size, size).mean(axis=(3, 5))
        got = avg_pool2d(Tensor(x), size).data
        assert got.dtype == dtype
        if size == 2:
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        elif dtype == np.float64:
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_check_gradients_perturbs_non_contiguous_leaves():
    # reshape(-1) of a channel-major leaf is a copy: perturbing it moved
    # nothing, every numeric derivative read 0 and the error read 1.0
    rng = np.random.default_rng(44)
    x = Tensor(_channel_major(rng.standard_normal((2, 3, 4, 4))))
    assert not x.data.flags.c_contiguous
    assert check_gradients(lambda: relu(x), [x], rng) < TOLERANCE
    k = Tensor(rng.standard_normal((3, 4, 3, 3)).transpose(1, 0, 2, 3))
    assert check_gradients(lambda: conv2d(x, k, 1, 1), [x, k], rng) < TOLERANCE
