"""Pooling over coordinate sets, and the gating op.

Coordinate sets come in two flavors: the sliding strategy assigns each
position the square window of half-width floor(sqrt(W*H)/K) around it
(clipped at the borders), and the regional strategy partitions the
lattice into a KxK grid of cells whose positions all share one pooled
vector.  A summed-area table (build_sat) gives the sum of any such
rectangle in four lookups (rect_sum); the two, with coordinate_set, are
the reference the pools are checked against.  region_avg_pool pools one
slice through the same kernels as the sites, for that check.

Each strategy has one production path, and the per-scale path it
replaced (one taped pool and one broadcast per scale, each regional cell
summed by a slice sum of its own) is kept in tests/oracles.py as the
oracle these ops are checked against.  A regional mean is its cell sum
divided by the cell size in the input's dtype.

A site's pooled sums are mh @ map @ mw.T over a C-contiguous (D, N, H, W)
copy of the map (_band_sums, two GEMMs), with mh and mw the 0/1
membership of rows and columns in bands (_band): a regional cell's
edges, or a sliding window's |i - j| <= r.  A band's size is its row sum.

A recalibration site pools all its regional scales with one
regional_pool, which reads the map once: the coarse cells of every
scale are unions of the cells of the scales' common refinement, so the
map is summed over those (_refined_sums) and each scale's cell sums are
taken from that small array by a product with the scale's 0/1
membership of refinement cells.  Each scale's cell means are then
mapped by its bottleneck's first map w (r x D, no bias), so every pool
op a site runs ends in that map and hands the bottleneck r-wide rows.
Backward gathers every scale's gradient onto the refinement cells and
expands the total into the map's gradient once (_expand).  When the
refinement is one cell (a lone K=1 scale) the sum is the direct global
one, so a K=1 mean is bitwise a plain global average.  _expand writes
refinement-cell values back over the map channel-major, (D, N, H, W)
in memory, like the conv2d and batch_norm outputs it is multiplied
with or added to.

Sliding window sums run through one function, _window_sums, on a
(C, N, H, W) array: a copy written (C, N, W, H) and centred on each
map's own mean, so float32 sums keep their precision, goes through one
_band_sums call that returns (C, N, H, W), and mean x window size is
added back.  The window band is symmetric, so the sums are their own
adjoint: project_pool's backward runs _window_sums over og / window
size.

project_pool is the op a sliding recalibration scale runs first: it
applies the bottleneck's first map w to the map and then takes the
sliding means, which equals pooling first and mapping after in exact
arithmetic but runs the window sums over r channels instead of D.
excite, every scale's bottleneck second half, runs the last map, norm
and logistic on r-wide reduced rows, taking the norm's moments from
theirs.

Pooled vectors and gates pass between ops as (N*M, C) rows, row
n*M + m for cell (or pixel) m of image n, the (rows, channels) layout
of the bottleneck's batch_norm and excite.  project_pool and excite
write their rows channel-major, so a sliding scale's gates are its
(N, D, H, W) gate map.

gate() multiplies a feature map by the mean over scales of per-scale
gates: a regional scale's rows broadcast over its cells, a sliding
scale's viewed as its map.  It is one taped op on a pair of functions
that serve every mix of strategies: _mean_map builds the mean map from
the rows, and its adjoint _row_grads gives each scale its rows'
gradient from og * x (a regional scale its cell sums, one _scale_sums
pass for all of them; a sliding scale the map's rows), each times 1/S.
The closure keeps the input and the rows, and rebuilds the full-size
mean map in backward instead of keeping it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import BNState, Tensor, _accumulate, _channel_rows, _emit, _from_rows, _logistic

STRATEGIES = ("sliding", "regional")


@dataclass(frozen=True)
class CoordinateSetSpec:
    """Pooling geometry for one scale on a W x H lattice."""

    strategy: str
    k: int
    width: int
    height: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.k < 1:
            raise ValueError(f"scale factor must be >= 1, got {self.k}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"empty lattice {self.width}x{self.height}")
        if self.strategy == "regional" and self.k > min(self.width, self.height):
            raise ValueError(
                f"regional K={self.k} exceeds min lattice side "
                f"{min(self.width, self.height)}; cells would be empty")

    @property
    def threshold(self) -> float:
        """Sliding window threshold sqrt(W*H)/K."""
        return (self.width * self.height) ** 0.5 / self.k

    @property
    def radius(self) -> int:
        """Sliding window half-width, floor(threshold)."""
        return int(self.threshold)

    @property
    def vector_count(self) -> int:
        """Distinct pooled vectors per image."""
        if self.strategy == "regional":
            return self.k * self.k
        return self.width * self.height


def _edges(n: int, k: int) -> list[int]:
    # equal partition boundaries: round(i*n/k), i = 0..k
    return [round(i * n / k) for i in range(k + 1)]


def _unwrap(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def build_sat(x) -> np.ndarray:
    """Float64 prefix-sum table of a D x H x W slice: T[d,h,w] = sum x[d,:h+1,:w+1]."""
    x = _unwrap(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("build_sat: input contains non-finite entries")
    return np.cumsum(np.cumsum(x, axis=-2, dtype=np.float64), axis=-1)


def rect_sum(sat: np.ndarray, d: int, h1: int, h2: int, w1: int, w2: int) -> float:
    """Sum of channel d over rows h1..h2 and columns w1..w2 (inclusive)."""
    height, width = sat.shape[-2], sat.shape[-1]
    if h1 > h2 or w1 > w2:
        raise ValueError(f"rect_sum: inverted bounds rows {h1}..{h2}, cols {w1}..{w2}")
    if h1 < 0 or w1 < 0 or h2 >= height or w2 >= width:
        raise ValueError(f"rect_sum: rectangle rows {h1}..{h2} cols {w1}..{w2} "
                         f"outside {height}x{width} lattice")
    t = sat[d]
    total = t[h2, w2]
    if h1 > 0:
        total = total - t[h1 - 1, w2]
    if w1 > 0:
        total = total - t[h2, w1 - 1]
    if h1 > 0 and w1 > 0:
        total = total + t[h1 - 1, w1 - 1]
    return float(total)


def coordinate_set(spec: CoordinateSetSpec, w: int, h: int):
    """Rectangle (h1, h2, w1, w2) of the coordinate set at (w, h), plus its size."""
    if not (0 <= w < spec.width and 0 <= h < spec.height):
        raise ValueError(f"position ({w},{h}) outside {spec.width}x{spec.height} lattice")
    if spec.strategy == "sliding":
        r = spec.radius
        h1, h2 = max(0, h - r), min(spec.height - 1, h + r)
        w1, w2 = max(0, w - r), min(spec.width - 1, w + r)
    else:
        he = _edges(spec.height, spec.k)
        we = _edges(spec.width, spec.k)
        ci = next(i for i in range(spec.k) if he[i] <= h < he[i + 1])
        cj = next(j for j in range(spec.k) if we[j] <= w < we[j + 1])
        h1, h2 = he[ci], he[ci + 1] - 1
        w1, w2 = we[cj], we[cj + 1] - 1
    return (h1, h2, w1, w2), (h2 - h1 + 1) * (w2 - w1 + 1)


def _grid(spec: CoordinateSetSpec):
    """Row and column edges of a regional spec's cells."""
    return _edges(spec.height, spec.k), _edges(spec.width, spec.k)


def _band(n: int, bands, dtype) -> np.ndarray:
    """(J, n) 0/1 membership of n positions in J bands, in dtype.

    bands is either the edges of consecutive bands [e_j, e_j+1), or the
    half-width r of the n clipped windows |i - j| <= r, whose matrix is
    symmetric.  A band's size is its row sum.
    """
    pos = np.arange(n)
    if isinstance(bands, int):
        member = np.abs(pos[:, None] - pos) <= bands
    else:
        edges = np.asarray(bands)[:, None]
        member = (edges[:-1] <= pos) & (pos < edges[1:])
    return member.astype(dtype)


def _band_sums(a: np.ndarray, mh: np.ndarray, mw: np.ndarray) -> np.ndarray:
    """mh @ a @ mw.T over the last two axes of a C-contiguous (D, N, H, W) a.

    Two GEMMs: a's rows times mw.T, then, with that intermediate swapped
    to (D, N, J_w, H), its rows times mh.T.  The sums come back stored
    transposed, (D, N, J_w, J_h), so a map stored (D, N, W, H) and
    summed with the bands swapped comes back (D, N, H, W).
    """
    d, n, height, width = a.shape
    t = (a.reshape(-1, width) @ mw.T).reshape(d * n, height, -1)
    t = np.ascontiguousarray(t.transpose(0, 2, 1))
    return (t.reshape(-1, height) @ mh.T).reshape(d, n, len(mw), len(mh))


def _window_sums(a: np.ndarray, spec: CoordinateSetSpec):
    """(C, N, H, W) -> its clipped-window sums, a new C-contiguous (C, N, H, W)
    array, and the (H, W) window sizes in a's dtype.

    The sums run over a copy of a written (C, N, W, H), so that one
    _band_sums call returns them (C, N, H, W).  The copy is centred on
    each map's own mean (taken on the copy, so a's layout does not
    matter), and mean x size is added back; that keeps the sums near
    zero, so a float32 map loses little to cancellation.  The copy is
    always a new array, so a is never written.
    """
    height, width = a.shape[2:]
    mh, mw = _band(height, spec.radius, a.dtype), _band(width, spec.radius, a.dtype)
    centred = a.transpose(0, 1, 3, 2).copy()
    mu = centred.mean(axis=(2, 3), keepdims=True)
    centred -= mu
    sizes = np.outer(mh.sum(axis=1), mw.sum(axis=1))
    sums = _band_sums(centred, mw, mh)
    sums += mu * sizes
    return sums, sizes


def region_avg_pool(x, spec: CoordinateSetSpec) -> np.ndarray:
    """Pooled vectors of a D x H x W slice.

    Regional strategy: (K*K, D), one vector per cell, row-major cells.
    Sliding strategy: (H*W, D), one vector per position, row-major
    positions, each the mean of its clipped window.  Both run the band
    sums the recalibration sites run, so checking this against
    rect_sum checks the sites' kernel.
    """
    x = _unwrap(x)
    if x.ndim != 3 or x.shape[1] != spec.height or x.shape[2] != spec.width:
        raise ValueError(f"region_avg_pool: expected (D,{spec.height},{spec.width}), got {x.shape}")
    if spec.strategy == "sliding":
        sums, sizes = _window_sums(x[:, None], spec)
        return (sums / sizes).reshape(len(x), -1).T
    return _scale_sums(x[None], [spec])[0][0] / _cell_sizes(spec, x.dtype)


def _thin_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; over an inner dimension of 1 the outer product, which BLAS runs ~10x slower."""
    return a * b if a.shape[1] == 1 else a @ b


def project_pool(x: Tensor, w: Tensor, spec: CoordinateSetSpec) -> Tensor:
    """(N, D, H, W) map and (r, D) weight -> (N*H*W, r) sliding means of w @ x.

    Both the box mean and the bias-free map w are linear, so this equals
    the sliding means of x mapped by w in exact arithmetic, but the
    window sums run over r channels instead of D.  The projection is one
    GEMM over x's (D, N*H*W) channel-major view, which is free for the
    outputs of conv2d, batch_norm and extend_channels.  _window_sums runs
    over z = w @ x in z's own (r, N, H, W) layout, and the rows are the
    transposed view of that (r, N*H*W) memory; backward runs it over
    og / window size.  Recorded on the tape under the pool name
    regional_pool's entries carry.
    """
    n, d, height, width = x.shape
    r = w.shape[0]
    if spec.strategy != "sliding" or (height, width) != (spec.height, spec.width):
        raise ValueError(f"project_pool: {height}x{width} map does not match "
                         f"sliding spec {spec}")
    if w.shape != (r, d):
        raise ValueError(f"project_pool: weight {w.shape} does not map {d} channels")
    z = w.data @ _channel_rows(x.data)                  # (r, N*H*W)
    sums, sizes = _window_sums(z.reshape(r, n, height, width), spec)
    sums /= sizes
    out = Tensor(sums.reshape(r, -1).T)

    def bwd(og):
        gz, _ = _window_sums(og.T.reshape(r, n, height, width) / sizes, spec)
        gz = gz.reshape(r, -1)                          # (r, N*H*W)
        gx = _thin_matmul(w.data.T, gz)
        _accumulate(x, gx.reshape(d, n, height, width).transpose(1, 0, 2, 3))
        _accumulate(w, gz @ _channel_rows(x.data).T)

    return _emit("coordinate_avg_pool", out, bwd)


def _refinement(specs):
    """Row and column edges of the common refinement of specs' cell grids."""
    grids = [_grid(spec) for spec in specs]
    return (sorted(set().union(*(he for he, _ in grids))),
            sorted(set().union(*(we for _, we in grids))))


def _cell_index(spec: CoordinateSetSpec, rows, cols) -> np.ndarray:
    """(J_h, J_w) index of the spec cell that holds each refinement cell."""
    he, we = _grid(spec)
    i = np.searchsorted(he, rows[:-1], side="right") - 1
    j = np.searchsorted(we, cols[:-1], side="right") - 1
    return i[:, None] * (len(we) - 1) + j[None, :]


def _cell_sizes(spec: CoordinateSetSpec, dtype) -> np.ndarray:
    """(M, 1) pixel counts of spec's cells, in dtype."""
    he, we = _grid(spec)
    return np.outer(np.diff(he), np.diff(we)).reshape(-1, 1).astype(dtype)


def _expand(cells: np.ndarray, rows, cols) -> np.ndarray:
    """(N, J_h, J_w, D) refinement-cell values -> (N, D, H, W), each over its cell.

    The map is written channel-major, (D, N, H, W) in memory, like the
    conv2d and batch_norm outputs it is multiplied with or added to.
    """
    out = cells.transpose(3, 0, 1, 2)
    heights, widths = np.diff(rows), np.diff(cols)
    if (widths > 1).any():
        out = np.repeat(out, widths, axis=3)
    if (heights > 1).any():
        out = np.repeat(out, heights, axis=2)
    return np.ascontiguousarray(out).transpose(1, 0, 2, 3)


def _refined_sums(g: np.ndarray, rows, cols) -> np.ndarray:
    """(N, D, H, W) -> (N, J, D) sums of g over the J refinement cells.

    One pass over a (D, N, H, W) C-contiguous copy of g (a view when g
    is channel-major): the band sums of the cells' rows and columns
    (_band_sums).  A refinement of one cell is g.sum(axis=(2, 3)), so a
    lone K=1 mean is bitwise a plain global average.
    """
    n, d, height, width = g.shape
    if len(rows) == 2 and len(cols) == 2:
        return g.sum(axis=(2, 3))[:, None, :]
    a = np.ascontiguousarray(g.transpose(1, 0, 2, 3))
    sums = _band_sums(a, _band(height, rows, g.dtype), _band(width, cols, g.dtype))
    return sums.transpose(1, 3, 2, 0).reshape(n, -1, d)


def _scale_sums(g: np.ndarray, specs) -> list:
    """Each regional spec's (N, M, D) cell sums of g (N, D, H, W), new arrays.

    The specs share one _refined_sums pass over g, and each spec's
    cells, unions of the refinement cells, are summed from it by one
    product with the spec's (M, J) 0/1 membership; the product with a
    lone cell's [[1]] is exact.  Through the 0 weights a non-finite sum
    makes every cell of its image and channel NaN.
    """
    rows, cols = _refinement(specs)
    fine = _refined_sums(g, rows, cols)
    out = []
    for spec in specs:
        cells = _cell_index(spec, rows, cols).reshape(-1)
        member = np.arange(spec.vector_count)[:, None] == cells     # (M, J)
        out.append(member.astype(g.dtype) @ fine)
    return out


def regional_pool(x: Tensor, specs, ws) -> list:
    """(N, D, H, W) map and each regional spec's (r, D) weight w -> each
    spec's (N*K*K, r) rows, its cell means @ w.T, reading x once.

    x is summed once over the cells of the specs' common refinement,
    and each spec's cell sums are taken from those (_scale_sums).
    Backward takes each scale's means gradient og @ w (and w's, og.T @
    means), gathers it / cell size onto the refinement cells, sums that
    over the scales, and expands the sum into x's gradient once.  Each
    output is a pool entry on the tape, preceded by one more for the
    refinement cells, which collects their gradient and does the
    expansion.  No closure reads the refinement sums, so that entry
    holds a zero-stride stand-in of their shape.
    """
    n, d, height, width = x.shape
    if not specs or len(ws) != len(specs):
        raise ValueError(f"regional_pool: {len(ws)} weights for {len(specs)} specs")
    for spec, w in zip(specs, ws):
        if spec.strategy != "regional" or (spec.height, spec.width) != (height, width):
            raise ValueError(f"regional_pool: {height}x{width} map does not match "
                             f"regional spec {spec}")
        if w.ndim != 2 or w.shape[1] != d:
            raise ValueError(f"regional_pool: weight {w.shape} does not map {d} channels")
    rows, cols = _refinement(specs)
    cells = Tensor(np.broadcast_to(np.zeros((), x.dtype),
                                   (n, len(rows) - 1, len(cols) - 1, d)))

    def expand(og):
        _accumulate(x, _expand(og, rows, cols))

    _emit("coordinate_avg_pool", cells, expand)
    outs = []
    for spec, w, sums in zip(specs, ws, _scale_sums(x.data, specs)):
        sizes, index = _cell_sizes(spec, x.dtype), _cell_index(spec, rows, cols)
        means = (sums / sizes).reshape(-1, d)

        def gather(og, w=w, means=means, sizes=sizes, index=index):
            _accumulate(w, og.T @ means)
            _accumulate(cells, ((og @ w.data).reshape(n, -1, d) / sizes)[:, index])

        outs.append(_emit("coordinate_avg_pool", Tensor(means @ w.data.T), gather))
    return outs


def excite(u: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
           training: bool) -> Tensor:
    """(rows, r) reduced rows -> (rows, D) gates sigmoid(batch_norm(u @ w.T)).

    The norm's batch mean is w @ mean(u) and its variance |R w_i|^2 / rows,
    R the triangular factor of a QR of u's centred rows (closer than
    diag(w cov(u) w.T) for nearly degenerate rows).  The gates are one thin
    GEMM of the folded weight w * gamma / std with those rows, plus beta
    (eval mode folds the running statistics), stored (D, rows).  Backward
    works from og * s * (1 - s), its one (D, rows) array, by row sums,
    thin GEMMs and r x r terms.  Recorded on the tape as gate.
    """
    count, r = u.shape
    if w.shape[1] != r:
        raise ValueError(f"excite: rows {u.shape} do not match weight {w.shape}")
    w2 = w.data
    if training:
        mu = u.data.mean(axis=0)
        rows = u.data - mu
        rt = np.linalg.qr(rows, mode="r").T             # (r, min(rows, r))
        wr = w2 @ rt
        mean, var = w2 @ mu, np.einsum("ij,ij->i", wr, wr) / count
        cov = rt @ rt.T / count
        state.mean += state.momentum * (mean - state.mean)
        state.var += state.momentum * (var - state.var)
        base = np.zeros_like(mean)          # the pre-norm mean the centred rows carry
    else:
        mu, base, var, rows = np.zeros_like(w2[0]), state.mean.copy(), state.var, u.data
    inv = 1.0 / np.sqrt(var + state.eps)
    a = gamma.data * inv
    fold = w2 * a[:, None]
    s = _thin_matmul(fold, rows.T)                      # (D, rows)
    del rows
    s += (beta.data - a * base)[:, None]
    _logistic(s, s)
    out = Tensor(s.T)

    def bwd(og):
        dpre = 1.0 - s                                  # s's layout, whatever og's
        dpre *= s
        dpre *= og.T
        rows = u.data - mu
        dbeta = dpre.sum(axis=1)
        p = dpre @ rows                                 # (D, r)
        dgamma = (np.einsum("ij,ij->i", p, w2) - base * dbeta) * inv
        dw = p * a[:, None]
        if training:
            # the batch moments' share of dpre - (dbeta + zhat * dgamma) / count:
            # dpre is centred in place, zhat's term reaches dw and du in r x r terms
            dw -= (w2 @ cov) * (a * (dgamma * inv))[:, None]
            dpre -= (dbeta / count)[:, None]
        du = dpre.T @ fold
        if training:
            du -= _thin_matmul(rows, w2.T @ ((dgamma * inv / count)[:, None] * fold))
        for t, g in ((gamma, dgamma), (beta, dbeta), (w, dw), (u, du)):
            _accumulate(t, g)

    return _emit("gate", out, bwd)


def _mean_map(vs, specs, shape) -> np.ndarray:
    """(N, D, H, W) mean over the S scales of their (N*M_s, D) gate rows, a new array.

    The regional scales' rows are summed on the common refinement of
    their cell edges as (v_1 + v_2) + v_3 ..., scaled there by 1/S when
    every scale is regional, and expanded to the lattice once; each
    position sees the same arithmetic as a sum of full broadcast maps.
    The sliding scales' rows, viewed as maps of `shape`, are then added
    (to zeros when no scale is regional) and the total scaled by 1/S.
    """
    count = len(vs)
    regional = [(v, spec) for v, spec in zip(vs, specs) if spec.strategy == "regional"]
    maps = [_from_rows(v.T, shape) for v, spec in zip(vs, specs) if spec.strategy == "sliding"]
    if not regional:
        total = np.zeros_like(maps[0])
    else:
        rows, cols = _refinement([spec for _, spec in regional])
        cells = None
        for v, spec in regional:
            part = v.reshape(-1, spec.vector_count, v.shape[1])[:, _cell_index(spec, rows, cols)]
            cells = part if cells is None else cells + part     # (N, J_h, J_w, D)
        if not maps and count > 1:
            cells = cells * (1.0 / count)
        total = _expand(cells, rows, cols)
    for m in maps:
        total += m
    if maps and count > 1:
        total *= 1.0 / count
    return total


def _row_grads(g: np.ndarray, specs) -> list:
    """The adjoint of _mean_map: each scale's (N*M_s, D) row gradient from
    g = og * x (N, D, H, W).

    A regional scale gets its cell sums of g (one _scale_sums pass over
    all of them), a sliding scale g's rows.  With S > 1 scales each is
    multiplied by 1/S into a new array, so g is never scaled in place and
    no two scales share an array; a lone scale's are handed over as they are.
    """
    count, d = len(specs), g.shape[1]
    regional = [spec for spec in specs if spec.strategy == "regional"]
    sums = iter(_scale_sums(g, regional) if regional else ())
    out = []
    for spec in specs:
        rows = next(sums).reshape(-1, d) if spec.strategy == "regional" else _channel_rows(g).T
        out.append(rows * (1.0 / count) if count > 1 else rows)
    return out


def gate(x: Tensor, vs, specs, skip: Tensor | None = None) -> Tensor:
    """x * mean_s gate_s as one op, or relu(x * mean_s gate_s + skip) with a skip.

    Every scale's gates are (N*M_s, D) rows on x's lattice: a regional
    scale's broadcast over its cells, a sliding scale's viewed as its map,
    and _mean_map averages them.  Backward hands og * x to _mean_map's
    adjoint, _row_grads, for every scale's row gradient, then rebuilds the
    mean map and gives x og * mean, formed in the mean map's buffer.  A
    skip is added and the relu taken in the product's buffer, so the tape
    keeps that one map for a residual block's whole tail; backward masks
    og in place by out > 0 first, as relu(add(gate(...), skip)) does, and
    hands the skip og itself.
    """
    if not vs or len(vs) != len(specs):
        raise ValueError(f"gate: {len(vs)} vector sets for {len(specs)} specs")
    n, d, height, width = x.shape
    for v, spec in zip(vs, specs):
        if v.shape != (n * spec.vector_count, d) or (spec.height, spec.width) != (height, width):
            raise ValueError(f"gate: {spec} on x {x.shape} takes "
                             f"({n * spec.vector_count}, {d}) rows, got {v.shape}")
    if skip is not None and skip.shape != x.shape:
        raise ValueError(f"gate: skip {skip.shape} does not match x {x.shape}")
    mean = _mean_map([v.data for v in vs], specs, x.shape)
    mean *= x.data
    if skip is not None:
        mean += skip.data
        np.maximum(mean, 0, out=mean)
    out = Tensor(mean)

    def bwd(og):
        if skip is not None:
            og *= out.data > 0
        g = np.multiply(og, x.data, out=np.empty_like(x.data))
        for v, grad in zip(vs, _row_grads(g, specs)):
            _accumulate(v, grad)
        del g
        gx = _mean_map([v.data for v in vs], specs, x.shape)
        gx *= og
        _accumulate(x, gx)
        if skip is not None:
            _accumulate(skip, og)

    return _emit("gate", out, bwd)
