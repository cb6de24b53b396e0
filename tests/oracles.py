"""The paths the nets' ops replaced, kept as their oracles.

A dense step used to concatenate its input and its new features into
fresh storage (concat_channels); the nets now extend one buffer per
stage with tensor.extend_channels, which must give the same values,
layout and gradients.  A relu used to be an op of its own (relu); the
nets now take it inside the op it follows (batch_norm and add with
relu=True, pooling.gate with a skip), which must give relu's bits.

The rest is the per-scale recalibration path.

A net pools each site's regional scales with one pooling.regional_pool
and its sliding scales with pooling.project_pool, runs every scale's
bottleneck to one pooling.excite, then gates them with one pooling.gate.
The ops here are the path those replaced: one taped pool per scale
(coordinate_avg_pool), each regional cell summed by a slice sum of its
own (cell_sums) and filled by a slice of its own (cell_fill), sliding
window means and their adjoint as two functions with two layouts
(_sliding_box_means, _sliding_box_adjoint), a taped broadcast of pooled
vectors over their cells (broadcast_weights), a taped constant multiple
(scale), the expand
half of the bottleneck as linear, batch_norm and a taped logistic
(sigmoid, expand_chain, bottleneck_chain), and one scale's pool and
bottleneck run on their own (scale_forward).  Pooled vectors and gates
travel as the production ops pass them, (N*M, D) rows with row n*M + m
for cell (or pixel) m of image n.  Tests compare the production ops
against these, and check these against brute force and finite
differences.
"""

from __future__ import annotations

import numpy as np

from msar.pooling import (CoordinateSetSpec, _band, _band_sums, _cell_sizes, _grid,
                          coordinate_set, project_pool, regional_pool)
from msar.recalibrate import _bottleneck
from msar.tensor import Tensor, _accumulate, _emit, _logistic, batch_norm, linear


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (axis 1) into fresh storage.

    The result is a view of channel-major (C_a + C_b, N, ...) memory, so
    a following batch_norm or projection reads its channel rows as is.
    """
    if a.ndim != b.ndim or a.ndim < 2:
        raise ValueError(f"concat_channels: rank mismatch {a.shape} vs {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"concat_channels: incompatible shapes {a.shape} vs {b.shape}")
    split = a.shape[1]
    buf = np.empty((split + b.shape[1], a.shape[0]) + a.shape[2:],
                   np.result_type(a.data, b.data))
    buf[:split] = np.moveaxis(a.data, 1, 0)
    buf[split:] = np.moveaxis(b.data, 1, 0)
    out = Tensor(np.moveaxis(buf, 0, 1))

    def bwd(og):
        _accumulate(a, og[:, :split])
        _accumulate(b, og[:, split:])

    return _emit("concat_channels", out, bwd)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def bwd(og):
        _accumulate(x, og * c)

    return _emit("scale", out, bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0) as an op of its own; subgradient at 0 is taken as 0, and
    NaN propagates.

    Backward masks og in place with out > 0, which equals x > 0, so the
    tape keeps no mask.
    """
    out = Tensor(np.maximum(x.data, 0))

    def bwd(og):
        og *= out.data > 0
        _accumulate(x, og)

    return _emit("relu", out, bwd)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, numerically stable for both signs."""
    s = _logistic(x.data)
    out = Tensor(s)

    def bwd(og):
        _accumulate(x, og * s * (1.0 - s))

    return _emit("sigmoid", out, bwd)


def expand_chain(u: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, state,
                 training: bool) -> Tensor:
    """pooling.excite as three taped ops: linear, batch_norm, sigmoid."""
    return sigmoid(batch_norm(linear(u, w), gamma, beta, state, training))


def bottleneck_chain(rows: Tensor, p, training: bool, reduced: bool = False) -> Tensor:
    """A scale's whole bottleneck with the expand half as expand_chain; rows
    that come reduced (project_pool's) skip the reduce."""
    z = rows if reduced else linear(rows, p.w1)
    u = batch_norm(z, p.g1, p.b1, p.n1, training, relu=True)
    return expand_chain(u, p.w2, p.g2, p.b2, p.n2, training)


def _cell_slices(spec: CoordinateSetSpec):
    """(rows, columns) slices of a regional spec's cells, row-major."""
    he, we = _grid(spec)
    return [(slice(h1, h2), slice(w1, w2))
            for h1, h2 in zip(he, he[1:]) for w1, w2 in zip(we, we[1:])]


def cell_fill(v: np.ndarray, spec: CoordinateSetSpec) -> np.ndarray:
    """Broadcast over spec's cells: (N*M, D) rows -> (N, D, H, W), a new map
    written channel-major, (D, N, H, W) in memory.

    A regional cell is filled by a slice of its own; sliding rows, one
    per position, are reshaped.
    """
    d = v.shape[1]
    rows = v.reshape(-1, spec.vector_count, d).transpose(2, 0, 1)      # (D, N, M)
    if spec.strategy == "sliding":
        out = rows.reshape(d, -1, spec.height, spec.width).copy()
    else:
        out = np.empty(rows.shape[:2] + (spec.height, spec.width), v.dtype)
        for m, (hs, ws) in enumerate(_cell_slices(spec)):
            out[:, :, hs, ws] = rows[:, :, m, None, None]
    return out.transpose(1, 0, 2, 3)


def cell_sums(g: np.ndarray, spec: CoordinateSetSpec) -> np.ndarray:
    """Adjoint of broadcasting over spec's cells: (N, D, H, W) -> (N*M, D) rows.

    The result is a new array, never a view of g, so that it can become a
    gradient slot of its own.  A regional cell is summed by one slice sum
    of its own.
    """
    d = g.shape[1]
    if spec.strategy == "sliding":
        return g.transpose(0, 2, 3, 1).reshape(-1, d).copy()
    return np.stack([g[:, :, hs, ws].sum(axis=(2, 3)) for hs, ws in _cell_slices(spec)],
                    axis=1).reshape(-1, d)


def cell_means(x: np.ndarray, spec: CoordinateSetSpec):
    """(N, D, H, W) -> (N*K*K, D) cell means, and each row's cell size in x's dtype."""
    sizes = np.tile(_cell_sizes(spec, x.dtype), (x.shape[0], 1))
    return cell_sums(x, spec) / sizes, sizes


def _sliding_box_means(x: np.ndarray, spec: CoordinateSetSpec):
    """(N, D, H, W) -> (N*H*W, D) clipped-window means, and the (H, W) window sizes.

    The window sums run over one (D, N, H, W) copy of x centred on each
    map's own mean (taken on the copy, so x's layout does not matter),
    which is added back.  That keeps the sums near zero, so a float32
    map loses little to cancellation.  Sizes come back in x's dtype.
    """
    n, d, height, width = x.shape
    r = int(spec.threshold)
    mh, mw = _band(height, r, x.dtype), _band(width, r, x.dtype)
    centred = x.transpose(1, 0, 2, 3).copy()
    mu = centred.mean(axis=(2, 3), keepdims=True)
    centred -= mu
    sizes = np.outer(mh.sum(axis=1), mw.sum(axis=1))
    means = np.empty((n, height, width, d), dtype=x.dtype)
    np.divide(_band_sums(centred, mh, mw).transpose(1, 3, 2, 0), sizes[..., None], out=means)
    means += mu.transpose(1, 2, 3, 0)
    return means.reshape(-1, d), sizes


def _sliding_box_adjoint(og: np.ndarray, sizes: np.ndarray, spec: CoordinateSetSpec):
    """Adjoint of _sliding_box_means: (N*H*W, D) -> C-contiguous (D, N, H, W).

    The window band is symmetric, so the adjoint is the same band sums
    over u = og/|S|, copied (D, N, W, H) so that they come back
    (D, N, H, W), and centred like the forward map; u's mean comes back
    as mu*|S|.
    """
    height, width = sizes.shape
    r = int(spec.threshold)
    og = og.reshape(-1, height, width, og.shape[1]).transpose(3, 0, 2, 1)
    u = np.empty(og.shape, dtype=og.dtype)
    np.divide(og, sizes.T, out=u)
    mu = u.mean(axis=(2, 3), keepdims=True)
    u -= mu
    out = _band_sums(u, _band(width, r, og.dtype), _band(height, r, og.dtype))
    out += mu * sizes
    return out


def coordinate_avg_pool(x: Tensor, spec: CoordinateSetSpec) -> Tensor:
    """(N, D, H, W) -> (N*M, D) coordinate-set averages, M = spec.vector_count."""
    height, width = x.shape[2:]
    if height != spec.height or width != spec.width:
        raise ValueError(f"coordinate_avg_pool: map {height}x{width} does not match "
                         f"spec lattice {spec.height}x{spec.width}")
    regional = spec.strategy == "regional"
    y, sizes = (cell_means if regional else _sliding_box_means)(x.data, spec)
    out = Tensor(y)

    def bwd(og):
        if regional:
            _accumulate(x, cell_fill(og / sizes, spec))
        else:
            _accumulate(x, _sliding_box_adjoint(og, sizes, spec).transpose(1, 0, 2, 3))

    return _emit("coordinate_avg_pool", out, bwd)


def broadcast_weights(z: Tensor, spec: CoordinateSetSpec) -> Tensor:
    """(N*M, D) pooled-position rows -> (N, D, H, W) map by duplication."""
    if z.ndim != 2 or z.shape[0] % spec.vector_count:
        raise ValueError(f"broadcast_weights: {z.shape} rows but spec has "
                         f"{spec.vector_count} vectors per image")
    out = Tensor(cell_fill(z.data, spec))

    def bwd(og):
        _accumulate(z, cell_sums(og, spec))

    return _emit("broadcast_weights", out, bwd)


def scale_forward(s, pool_src: Tensor, training: bool) -> Tensor:
    """(N*M, d_out) gates of one ScaleRecalibration alone, in (0, 1), from an
    (N, d_in, H, W) source, row n*M + m for cell (or pixel) m of image n, as
    gate() takes them: the scale's own pool op, then its bottleneck."""
    if s.spec.strategy == "sliding":
        z = project_pool(pool_src, s.params.w1, s.spec)
    else:
        z, = regional_pool(pool_src, [s.spec], [s.params.w1])
    return _bottleneck(z, s.params, training)


# -- a whole site in long double ---------------------------------------------

LD = np.longdouble


def _ld_bands(spec: CoordinateSetSpec):
    """(M_h, H) and (M_w, W) averaging matrices of spec's coordinate sets.

    Every set is a rectangle, so its mean is separable: a band of rows
    times a band of columns, each over its own size.  The bands are read
    off coordinate_set: a regional scale's cells, a sliding scale's
    clipped windows, one per row and one per column.
    """
    rows = [coordinate_set(spec, 0, h)[0][:2] for h in range(spec.height)]
    cols = [coordinate_set(spec, w, 0)[0][2:] for w in range(spec.width)]
    if spec.strategy == "regional":
        rows, cols = sorted(set(rows)), sorted(set(cols))

    def average(bands, n):
        m = np.zeros((len(bands), n), LD)
        for i, (lo, hi) in enumerate(bands):
            m[i, lo:hi + 1] = 1 / LD(hi - lo + 1)
        return m

    return average(rows, spec.height), average(cols, spec.width)


def _ld_rows(a):
    """(N, D, M_h, M_w) -> (N*M_h*M_w, D) rows, row n*M + m."""
    return a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1])


def _ld_map(rows, n, mh, mw):
    """Inverse of _ld_rows."""
    return rows.reshape(n, mh, mw, -1).transpose(0, 3, 1, 2)


def _ld_norm(a, gamma, beta, state, training):
    """Batch norm of (rows, C) a: (xhat, inv std, output, new running mean and var)."""
    mean, var = state.mean.astype(LD), state.var.astype(LD)
    if training:
        mu, v = a.mean(axis=0), a.var(axis=0)
        new = (mean + LD(state.momentum) * (mu - mean), var + LD(state.momentum) * (v - var))
    else:
        mu, v, new = mean, var, (mean, var)
    inv = 1 / np.sqrt(v + LD(state.eps))
    xhat = (a - mu) * inv
    return xhat, inv, xhat * gamma + beta, new


def _ld_norm_bwd(gy, xhat, inv, gamma, training):
    """(input grad, gamma grad, beta grad) of _ld_norm from its output's grad."""
    g = gy * gamma
    if training:
        n = g.shape[0]
        g = inv / n * (n * g - g.sum(axis=0) - xhat * (g * xhat).sum(axis=0))
    else:
        g = g * inv
    return g, (gy * xhat).sum(axis=0), gy.sum(axis=0)


def long_double_bottleneck(pooled, p, training):
    """A scale's bottleneck on (rows, d_in) pooled rows in long double:
    linear, norm, relu, linear, norm, logistic.

    Returns the (rows, d_out) gates, the four running statistics after
    the step, and backward(gv) -> (pooled grad, [w1, g1, b1, w2, g2, b2]
    grads).
    """
    w1, g1, b1, w2, g2, b2 = (t.data.astype(LD) for t in (p.w1, p.g1, p.b1, p.w2, p.g2, p.b2))
    ahat, inv1, y1, stats1 = _ld_norm(pooled @ w1.T, g1, b1, p.n1, training)
    u = np.maximum(y1, 0)
    zhat, inv2, y2, stats2 = _ld_norm(u @ w2.T, g2, b2, p.n2, training)
    v = 1 / (1 + np.exp(-y2))

    def backward(gv):
        gz, dg2, db2 = _ld_norm_bwd(gv * v * (1 - v), zhat, inv2, g2, training)
        ga, dg1, db1 = _ld_norm_bwd((gz @ w2) * (y1 > 0), ahat, inv1, g1, training)
        return ga @ w1, [ga.T @ pooled, dg1, db1, gz.T @ u, dg2, db2]

    return v, stats1 + stats2, backward


def long_double_site(module, x, og, training, src=None, skip=None):
    """A MultiScaleRecalibration's forward and backward in long double.

    Each scale averages its pool source (x unless src is given) over its
    coordinate sets, regional cell means or sliding window means, by the
    separable bands of _ld_bands, and runs long_double_bottleneck on the
    means: a sliding scale pools first and maps after, which equals
    project_pool in exact arithmetic.  The gates are broadcast over their
    cells (a sliding scale's are its map), averaged over scales and
    multiplied with x; a skip is added and the relu taken.  og is the
    output's gradient.  The module's running statistics are read, not
    updated.

    Returns (name, array) pairs in long double, named as the tests name
    a site's arrays: out, x.grad, src.grad (given src), skip.grad (given
    skip), each parameter's grad under its registry name, and each
    running statistic after the step.
    """
    x, og = x.astype(LD), og.astype(LD)
    source = x if src is None else src.astype(LD)
    n = x.shape[0]
    count = len(module.scales)
    total = np.zeros_like(x)
    scales = []
    for s in module.scales:
        ah, aw = _ld_bands(s.spec)
        pooled = _ld_rows(ah @ source @ aw.T)
        v, stats, backward = long_double_bottleneck(pooled, s.params, training)
        if s.spec.strategy == "regional":           # each cell's gates over its positions
            eh, ew = (ah > 0).T.astype(LD), (aw > 0).T.astype(LD)
        else:
            eh, ew = np.eye(s.spec.height, dtype=LD), np.eye(s.spec.width, dtype=LD)
        total += eh @ _ld_map(v, n, ah.shape[0], aw.shape[0]) @ ew.T
        scales.append((s, ah, aw, eh, ew, stats, backward))
    mean = total / count
    out = x * mean
    if skip is not None:
        out = np.maximum(out + skip.astype(LD), 0)
        og = og * (out > 0)
    gx = og * mean
    gsrc = np.zeros_like(source)
    grads, states = [], []
    for s, ah, aw, eh, ew, stats, backward in scales:
        gpooled, pgrads = backward(_ld_rows(eh.T @ (og * x / count) @ ew))
        gsrc += ah.T @ _ld_map(gpooled, n, ah.shape[0], aw.shape[0]) @ aw
        grads += [(name, g) for (name, _, _), g in zip(s.parameters(), pgrads)]
        states += zip([f"{name}.{k}" for name, _ in s.norm_states() for k in ("mean", "var")],
                      stats)
    named = [("out", out)]
    if src is None:
        named.append(("x.grad", gx + gsrc))
    else:
        named += [("x.grad", gx), ("src.grad", gsrc)]
    if skip is not None:
        named.append(("skip.grad", og))
    return named + grads + states


def is_gradient(name: str) -> bool:
    """Whether a site array named as long_double_site names them is a gradient."""
    return name != "out" and not name.endswith(("mean", "var"))


def long_double_errors(got, want):
    """{name: (own, site)} for matching (name, array) lists: each array's largest
    error against the long-double want, over that array's largest entry and
    over the site's largest gradient entry."""
    assert [name for name, _ in got] == [name for name, _ in want]
    site = max(float(np.abs(b).max()) for name, b in want if is_gradient(name))
    errs = {}
    for (name, a), (_, b) in zip(got, want):
        err = float(np.abs(a.astype(LD) - b).max())
        own = float(np.abs(b).max())
        errs[name] = (err / own if own else err, err / site)
    return errs
