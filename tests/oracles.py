"""The per-scale recalibration path, kept as the oracle of the ops the nets run.

A net pools each site's regional scales with one pooling.regional_pool
and its sliding scales with pooling.project_pool, runs every scale's
bottleneck to one pooling.excite, then gates them with one pooling.gate.
The ops here are the path those replaced: one taped pool per scale
(coordinate_avg_pool), each regional cell summed by a slice sum of its
own (cell_sums), a taped broadcast of pooled vectors over their cells
(broadcast_weights), a taped constant multiple (scale), the expand
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

from msar.pooling import (CoordinateSetSpec, _cell_sizes, _gate_map, _grid,
                          _sliding_box_adjoint, _sliding_box_means, project_pool,
                          regional_pool)
from msar.tensor import Tensor, _accumulate, _emit, _logistic, batch_norm, linear


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def bwd(og):
        _accumulate(x, og * c)

    return _emit("scale", out, bwd)


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


def cell_sums(g: np.ndarray, spec: CoordinateSetSpec) -> np.ndarray:
    """Adjoint of broadcasting over spec's cells: (N, D, H, W) -> (N*M, D) rows.

    The result is a new array, never a view of g, so that it can become a
    gradient slot of its own.  A regional cell is summed by one slice sum
    of its own.
    """
    d = g.shape[1]
    if spec.strategy == "sliding":
        return g.transpose(0, 2, 3, 1).reshape(-1, d).copy()
    he, we = _grid(spec)
    return np.stack([g[:, :, h1:h2, w1:w2].sum(axis=(2, 3))
                     for h1, h2 in zip(he, he[1:]) for w1, w2 in zip(we, we[1:])],
                    axis=1).reshape(-1, d)


def cell_means(x: np.ndarray, spec: CoordinateSetSpec):
    """(N, D, H, W) -> (N*K*K, D) cell means, and each row's cell size in x's dtype."""
    sizes = np.tile(_cell_sizes(spec, x.dtype), (x.shape[0], 1))
    return cell_sums(x, spec) / sizes, sizes


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
            _accumulate(x, _gate_map([og / sizes], [spec], 1))
        else:
            _accumulate(x, _sliding_box_adjoint(og, sizes, spec).transpose(1, 0, 2, 3))

    return _emit("coordinate_avg_pool", out, bwd)


def broadcast_weights(z: Tensor, spec: CoordinateSetSpec) -> Tensor:
    """(N*M, D) pooled-position rows -> (N, D, H, W) map by duplication."""
    if z.ndim != 2 or z.shape[0] % spec.vector_count:
        raise ValueError(f"broadcast_weights: {z.shape} rows but spec has "
                         f"{spec.vector_count} vectors per image")
    out = Tensor(_gate_map([z.data], [spec], 1))

    def bwd(og):
        _accumulate(z, cell_sums(og, spec))

    return _emit("broadcast_weights", out, bwd)


def scale_forward(s, pool_src: Tensor, training: bool) -> Tensor:
    """(N*M, d_out) gates of one ScaleRecalibration alone, in (0, 1), from an
    (N, d_in, H, W) source, row n*M + m for cell (or pixel) m of image n, as
    gate() takes them."""
    if s.spec.strategy == "sliding":
        return s.gates(project_pool(pool_src, s.params.w1, s.spec), training)
    means, = regional_pool(pool_src, [s.spec])
    return s.gates(means, training)
