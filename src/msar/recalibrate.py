"""Spatially-asymmetric recalibration of feature maps.

Each scale pools the feature map over its coordinate sets and pushes
every pooled vector through a two-layer bottleneck (linear,
normalization, ReLU, then linear, normalization, logistic), giving one
gate vector per coordinate set.  Both are (N*M, C) rows, row n*M + m
for set m of image n, the layout every bottleneck op takes.  A single
gate op (pooling.gate) then multiplies the features by the mean over
scales of those vectors, broadcast over their coordinate sets, so each
position is recalibrated by context gathered at several spatial
ranges; a regional scale keeps no full-size map for backward, and a
sliding scale only its gate rows.  A single regional scale with one cell
collapses to the classic squeeze-and-excitation channel gate;
se_reference implements that case directly for comparison.

Every scale's pool op ends in its bottleneck's first (bias-free) map, so
the bottleneck runs normalization, ReLU and one pooling.excite on every
scale's reduced rows.  One pooling.regional_pool pools a site's regional
scales: it reads the pool source once and writes its gradient once,
however many scales there are.

A sliding scale has a pooled vector per position, and both the window
mean and the bottleneck's first map are linear, so it projects first
and pools after (pooling.project_pool): the windows then run over the
bottleneck's few reduced channels instead of the input's.  Every
scale's second half stays in the reduced space: one pooling.excite
takes the expand norm's moments from the reduced rows and writes the
gates with one thin GEMM and the logistic.
A sliding window that covers the whole lattice from every position is
the regional K=1 cell, and such a scale runs as that cell, so its
bottleneck sees one row per image instead of H*W identical ones; the
batch statistics agree because the variance is the biased one.

The path this replaced, where each scale pools, runs its bottleneck and
broadcasts its gates on its own, is kept in tests/oracles.py as the
oracle a site is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pooling import STRATEGIES, CoordinateSetSpec, excite, gate, project_pool, regional_pool
from .tensor import BNState, Tensor, _accumulate, _emit, batch_norm, global_avg_pool, linear


@dataclass(frozen=True)
class MultiScaleConfig:
    """Scale set and pooling strategy for one recalibration site."""

    scales: tuple[int, ...] = (1, 2, 4)
    strategy: str = "regional"

    def __post_init__(self):
        scales = tuple(int(k) for k in self.scales)
        object.__setattr__(self, "scales", scales)
        if not scales:
            raise ValueError("scale set must not be empty")
        if any(k < 1 for k in scales):
            raise ValueError(f"scale factors must be >= 1, got {scales}")
        if len(set(scales)) != len(scales):
            raise ValueError(f"duplicate scale factors in {scales}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")

    def specs(self, width: int, height: int) -> tuple[CoordinateSetSpec, ...]:
        return tuple(CoordinateSetSpec(self.strategy, k, width, height)
                     for k in self.scales)


class RecalibrationParams:
    """Bottleneck parameters for one scale: d_in -> reduced -> d_out."""

    def __init__(self, d_in: int, d_out: int, reduced: int, rng: np.random.Generator,
                 dtype=np.float64):
        if reduced < 1:
            raise ValueError(f"reduced width must be >= 1, got {reduced}")
        self.w1 = Tensor(rng.standard_normal((reduced, d_in)) * np.sqrt(2.0 / d_in),
                         dtype=dtype)
        self.g1 = Tensor(np.ones(reduced), dtype=dtype)
        self.b1 = Tensor(np.zeros(reduced), dtype=dtype)
        self.n1 = BNState(reduced, dtype=dtype)
        self.w2 = Tensor(rng.standard_normal((d_out, reduced)) * np.sqrt(1.0 / reduced),
                         dtype=dtype)
        self.g2 = Tensor(np.ones(d_out), dtype=dtype)
        self.b2 = Tensor(np.zeros(d_out), dtype=dtype)
        self.n2 = BNState(d_out, dtype=dtype)


def _bottleneck(z: Tensor, p: RecalibrationParams, training: bool) -> Tensor:
    """(rows, reduced) rows, already mapped by p.w1 (every pool op ends in
    that map) -> (rows, d_out) gates: normalization, ReLU, then one excite."""
    u = batch_norm(z, p.g1, p.b1, p.n1, training, relu=True)
    return excite(u, p.w2, p.g2, p.b2, p.n2, training)


def se_reference(x: Tensor, params: RecalibrationParams, training: bool) -> Tensor:
    """Squeeze-and-excitation gate: global average, bottleneck, channel scale.

    The (N, D) gate vectors scale x by a numpy broadcast of their own, a
    path apart from gate()'s cell expansion.  Recorded on the tape as mul.
    """
    v = _bottleneck(linear(global_avg_pool(x), params.w1), params, training)
    g = v.data.reshape(v.shape + (1, 1))
    out = Tensor(x.data * g)

    def bwd(og):
        _accumulate(x, og * g)
        _accumulate(v, (og * x.data).sum(axis=(2, 3)))

    return _emit("mul", out, bwd)


class ScaleRecalibration:
    """Parameters and pooling geometry for one scale at one site.

    A sliding window that covers the whole lattice from every position
    is the one regional K=1 cell, so such a spec is stored as that cell.
    """

    def __init__(self, name: str, spec: CoordinateSetSpec, d_in: int, d_out: int,
                 reduced: int, rng: np.random.Generator, dtype=np.float64):
        whole = spec.radius >= max(spec.width, spec.height) - 1
        if spec.strategy == "sliding" and whole:
            spec = CoordinateSetSpec("regional", 1, spec.width, spec.height)
        self.name = name
        self.spec = spec
        self.params = RecalibrationParams(d_in, d_out, reduced, rng, dtype)

    def parameters(self):
        p = self.params
        return [
            (f"{self.name}.reduce.weight", p.w1, "weight"),
            (f"{self.name}.reduce_norm.gamma", p.g1, "norm"),
            (f"{self.name}.reduce_norm.beta", p.b1, "norm"),
            (f"{self.name}.expand.weight", p.w2, "weight"),
            (f"{self.name}.expand_norm.gamma", p.g2, "norm"),
            (f"{self.name}.expand_norm.beta", p.b2, "norm"),
        ]

    def norm_states(self):
        return [(f"{self.name}.reduce_norm", self.params.n1),
                (f"{self.name}.expand_norm", self.params.n2)]


class MultiScaleRecalibration:
    """All scales at one recalibration site plus the gating multiply."""

    def __init__(self, name: str, config: MultiScaleConfig, d_in: int, d_out: int,
                 width: int, height: int, reduced: int, rng: np.random.Generator,
                 dtype=np.float64):
        self.name = name
        self.config = config
        self.scales = [
            ScaleRecalibration(f"{name}.scale{k}", spec, d_in, d_out, reduced, rng, dtype)
            for k, spec in zip(config.scales, config.specs(width, height))
        ]

    def forward(self, x: Tensor, training: bool, pool_src: Tensor | None = None,
                skip: Tensor | None = None) -> Tensor:
        """Multiply x by the mean of the per-scale gates.

        pool_src defaults to x itself.  One regional_pool takes every
        regional scale's reduced cell means from a single pass over it;
        each sliding scale projects and pools it (project_pool).  Each
        scale's rows go through _bottleneck, then one gate op combines
        the gates and multiplies; given a residual skip, that op also
        adds it and takes the relu.
        """
        src = x if pool_src is None else pool_src
        cells = [s for s in self.scales if s.spec.strategy == "regional"]
        means = iter(regional_pool(src, [s.spec for s in cells],
                                   [s.params.w1 for s in cells]) if cells else ())
        pooled = [next(means) if s.spec.strategy == "regional"
                  else project_pool(src, s.params.w1, s.spec) for s in self.scales]
        return gate(x, [_bottleneck(z, s.params, training) for s, z in zip(self.scales, pooled)],
                    [s.spec for s in self.scales], skip)

    def parameters(self):
        return [entry for s in self.scales for entry in s.parameters()]

    def norm_states(self):
        return [entry for s in self.scales for entry in s.norm_states()]
