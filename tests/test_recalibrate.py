"""Recalibration operator: oracle forward, gating bounds, degeneracies."""

import tracemalloc

import numpy as np
import pytest

from msar.blocks import MsarSettings, build_network, resnet_cifar
from msar.gradcheck import TOLERANCE, check_gradients
from msar.pooling import CoordinateSetSpec, broadcast_weights, coordinate_set
from msar.recalibrate import (MultiScaleConfig, MultiScaleRecalibration,
                              RecalibrationParams, ScaleRecalibration,
                              se_reference)
from msar.tensor import (Tape, Tensor, add, backward, cross_entropy, mul,
                         scale, sum_all)


def naive_recalibration(x, params, spec):
    """Straight-line numpy re-statement of one scale in training mode."""
    n, d, h, w = x.shape
    pooled = np.empty((n, spec.vector_count, d))
    for b in range(n):
        for p in range(h):
            for q in range(w):
                (h1, h2, w1, w2), _ = coordinate_set(spec, q, p)
                mean = x[b, :, h1:h2 + 1, w1:w2 + 1].mean(axis=(1, 2))
                if spec.strategy == "sliding":
                    pooled[b, p * w + q] = mean
        if spec.strategy == "regional":
            rects = []
            for p in range(h):
                for q in range(w):
                    r = coordinate_set(spec, q, p)[0]
                    if r not in rects:
                        rects.append(r)
            for m, (h1, h2, w1, w2) in enumerate(rects):
                pooled[b, m] = x[b, :, h1:h2 + 1, w1:w2 + 1].mean(axis=(1, 2))

    flat = pooled.reshape(-1, d)
    a = flat @ params.w1.data.T
    mu, var = a.mean(axis=0), a.var(axis=0)
    a = (a - mu) / np.sqrt(var + params.n1.eps)
    a = np.maximum(a * params.g1.data + params.b1.data, 0.0)
    z = a @ params.w2.data.T
    mu, var = z.mean(axis=0), z.var(axis=0)
    z = (z - mu) / np.sqrt(var + params.n2.eps)
    z = 1.0 / (1.0 + np.exp(-(z * params.g2.data + params.b2.data)))
    z = z.reshape(n, -1, d)

    up = np.empty_like(x)
    for b in range(n):
        for p in range(h):
            for q in range(w):
                if spec.strategy == "sliding":
                    up[b, :, p, q] = z[b, p * w + q]
                else:
                    r = coordinate_set(spec, q, p)[0]
                    up[b, :, p, q] = z[b, rects.index(r)]
    return up


def fresh_params(d, reduced, seed):
    return RecalibrationParams(d, d, reduced, np.random.default_rng(seed))


def fresh_scale(spec, d, reduced, seed):
    # draws the same weights as fresh_params(d, reduced, seed)
    return ScaleRecalibration("s", spec, d, d, reduced, np.random.default_rng(seed))


def scale_map(s, src, training):
    """One scale's gate vectors painted onto the lattice."""
    return broadcast_weights(s.forward(src, training), s.spec)


def composed_site(module, x, training, pool_src=None):
    """A site as separate taped ops: a broadcast map per scale, the adds,
    the 1/S scale, then the multiply (the path the gate op replaces)."""
    src = x if pool_src is None else pool_src
    maps = [scale_map(s, src, training) for s in module.scales]
    total = maps[0]
    for extra in maps[1:]:
        total = add(total, extra)
    if len(maps) > 1:
        total = scale(total, 1.0 / len(maps))
    return mul(x, total)


def test_single_scale_matches_naive_oracle():
    rng = np.random.default_rng(31)
    for strategy, k in (("regional", 2), ("regional", 3), ("sliding", 2)):
        spec = CoordinateSetSpec(strategy, k, 6, 6)
        x = rng.standard_normal((3, 4, 6, 6))
        got = scale_map(fresh_scale(spec, 4, 2, seed=k), Tensor(x), training=True)
        want = naive_recalibration(x, fresh_params(4, 2, seed=k), spec)
        assert np.allclose(got.data, want, atol=1e-10)


def test_gate_values_strictly_inside_unit_interval():
    rng = np.random.default_rng(32)
    spec = CoordinateSetSpec("regional", 2, 8, 8)
    x = rng.standard_normal((2, 6, 8, 8)) * 5
    z = fresh_scale(spec, 6, 3, seed=5).forward(Tensor(x), training=True)
    assert ((z.data > 0) & (z.data < 1)).all()


def test_regional_weights_constant_within_cells():
    rng = np.random.default_rng(33)
    spec = CoordinateSetSpec("regional", 2, 6, 6)
    x = rng.standard_normal((2, 3, 6, 6))
    z = scale_map(fresh_scale(spec, 3, 2, seed=9), Tensor(x), training=True)
    rects = {coordinate_set(spec, q, p)[0] for p in range(6) for q in range(6)}
    for h1, h2, w1, w2 in rects:
        cell = z.data[:, :, h1:h2 + 1, w1:w2 + 1]
        first = cell[:, :, :1, :1]
        assert np.allclose(cell, np.broadcast_to(first, cell.shape), atol=0)


def test_multi_scale_average_composes_single_scales():
    # the gate multiplies the plain mean of the per-scale weight maps
    rng = np.random.default_rng(34)
    config = MultiScaleConfig(scales=(1, 2), strategy="regional")
    module = MultiScaleRecalibration("m", config, 4, 4, 8, 8, reduced=2,
                                     rng=np.random.default_rng(7))
    x = rng.standard_normal((2, 4, 8, 8))
    out = module.forward(Tensor(x), training=True)
    parts = [scale_map(s, Tensor(x), True).data for s in module.scales]
    want = x * (parts[0] + parts[1]) / 2.0
    assert np.allclose(out.data, want, atol=1e-12)


def test_eval_mode_commutes_with_batch_permutation():
    rng = np.random.default_rng(35)
    spec = CoordinateSetSpec("regional", 2, 6, 6)
    module = fresh_scale(spec, 4, 2, seed=3)
    # push some running stats through first
    warm = rng.standard_normal((8, 4, 6, 6))
    module.forward(Tensor(warm), training=True)
    x = rng.standard_normal((5, 4, 6, 6))
    z = module.forward(Tensor(x), training=False)
    perm = rng.permutation(5)
    zp = module.forward(Tensor(x[perm]), training=False)
    assert np.allclose(zp.data, z.data[perm], atol=1e-12)


def test_global_single_scale_reduces_to_channel_attention():
    # one regional cell over the whole map is exactly squeeze-excitation
    rng = np.random.default_rng(36)
    x = rng.standard_normal((3, 5, 7, 7))
    for training in (True, False):
        a = fresh_params(5, 2, seed=11)
        b = fresh_params(5, 2, seed=11)
        config = MultiScaleConfig(scales=(1,), strategy="regional")
        module = MultiScaleRecalibration("m", config, 5, 5, 7, 7, reduced=2,
                                         rng=np.random.default_rng(11))
        # overwrite module params with the reference copy so both sides share weights
        for (pa, pb) in zip(_param_tensors(module.scales[0].params), _param_tensors(a)):
            pa.data[...] = pb.data
        got = module.forward(Tensor(x), training=training)
        want = se_reference(Tensor(x), b, training=training)
        assert (got.data == want.data).all()


def _param_tensors(p):
    return [p.w1, p.g1, p.b1, p.w2, p.g2, p.b2]


def test_gradients_through_full_operator():
    rng = np.random.default_rng(37)
    config = MultiScaleConfig(scales=(1, 2), strategy="regional")
    module = MultiScaleRecalibration("m", config, 3, 3, 6, 6, reduced=2,
                                     rng=np.random.default_rng(4))
    x = Tensor(rng.standard_normal((2, 3, 6, 6)))
    leaves = [x] + [t for _, t, _ in module.parameters()]
    err = check_gradients(lambda: module.forward(x, training=True), leaves, rng)
    assert err < TOLERANCE


def test_gradients_sliding_strategy():
    rng = np.random.default_rng(38)
    config = MultiScaleConfig(scales=(2,), strategy="sliding")
    module = MultiScaleRecalibration("m", config, 3, 3, 8, 8, reduced=2,
                                     rng=np.random.default_rng(6))
    x = Tensor(rng.standard_normal((2, 3, 8, 8)))
    leaves = [x] + [t for _, t, _ in module.parameters()]
    err = check_gradients(lambda: module.forward(x, training=True), leaves, rng)
    assert err < TOLERANCE


def test_separate_pool_source():
    # gating one tensor while pooling statistics from another
    rng = np.random.default_rng(39)
    config = MultiScaleConfig(scales=(2,), strategy="regional")
    module = MultiScaleRecalibration("m", config, 6, 3, 6, 6, reduced=2,
                                     rng=np.random.default_rng(8))
    gate = Tensor(rng.standard_normal((2, 3, 6, 6)))
    src = Tensor(rng.standard_normal((2, 6, 6, 6)))
    out = module.forward(gate, training=True, pool_src=src)
    weights = scale_map(module.scales[0], src, True)
    assert np.allclose(out.data, gate.data * weights.data, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        MultiScaleConfig(scales=())
    with pytest.raises(ValueError):
        MultiScaleConfig(scales=(0, 1))
    with pytest.raises(ValueError):
        MultiScaleConfig(scales=(2, 2))
    with pytest.raises(ValueError):
        MultiScaleConfig(scales=(1,), strategy="global")


def test_parameter_registry_names_and_kinds():
    config = MultiScaleConfig(scales=(1, 4), strategy="regional")
    module = MultiScaleRecalibration("stage0.block1.recal", config, 8, 8, 8, 8,
                                     reduced=2, rng=np.random.default_rng(0))
    names = [n for n, _, _ in module.parameters()]
    assert "stage0.block1.recal.scale1.reduce.weight" in names
    assert "stage0.block1.recal.scale4.expand_norm.beta" in names
    kinds = {k for _, _, k in module.parameters()}
    assert kinds == {"weight", "norm"}
    assert len(module.norm_states()) == 4


# -- the gate op against the composed site ----------------------------------

GEOMETRIES = [
    # (scales, strategy, width, height)
    ((1, 2, 4), "regional", 8, 8),
    ((2, 3), "regional", 7, 5),       # cell edges that do not nest
    ((1, 3, 5), "regional", 11, 9),
    ((1, 2), "sliding", 8, 8),
    ((1,), "regional", 6, 6),
]


def run_site(forward, geometry, training, d_in=4, d_out=4, separate=False):
    """Forward and backward of one freshly built site; every output bitwise."""
    scales, strategy, width, height = geometry
    module = MultiScaleRecalibration(
        "m", MultiScaleConfig(scales=scales, strategy=strategy), d_in, d_out,
        width, height, reduced=2, rng=np.random.default_rng(17))
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((3, d_out, height, width)))
    src = Tensor(rng.standard_normal((3, d_in, height, width))) if separate else None
    weight = Tensor(rng.standard_normal(x.shape))
    with Tape() as tape:
        out = forward(module, x, training, src)
        loss = sum_all(mul(out, weight))
    backward(tape, loss)
    arrays = [out.data, x.grad] + ([src.grad] if separate else [])
    arrays += [t.grad for _, t, _ in module.parameters()]
    arrays += [a for _, st in module.norm_states() for a in (st.mean, st.var)]
    return arrays


def fused(module, x, training, src):
    return module.forward(x, training, pool_src=src)


def composed(module, x, training, src):
    return composed_site(module, x, training, pool_src=src)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: f"{g[1]}{g[0]}-{g[2]}x{g[3]}")
def test_gate_bitwise_matches_composed_site(geometry, training):
    got = run_site(fused, geometry, training)
    want = run_site(composed, geometry, training)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("training", [True, False])
def test_gate_bitwise_with_separate_pool_source(training):
    # dense-step style: pool the wider accumulated input, gate the new features
    for geometry in GEOMETRIES[:2]:
        got = run_site(fused, geometry, training, d_in=6, d_out=3, separate=True)
        want = run_site(composed, geometry, training, d_in=6, d_out=3, separate=True)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_site_tape_holds_no_full_size_gate_maps():
    # the tape keeps the gated output and small gate vectors, nothing per scale
    module = MultiScaleRecalibration(
        "m", MultiScaleConfig(scales=(1, 2, 4), strategy="regional"), 16, 16,
        32, 32, reduced=4, rng=np.random.default_rng(19))
    x = Tensor(np.random.default_rng(20).standard_normal((32, 16, 32, 32)))
    tracemalloc.start()
    try:
        with Tape() as tape:
            module.forward(x, training=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) > 0
    assert held <= 1.5 * x.data.nbytes


def test_float32_sliding_network_stays_float32():
    # both strategies divide pooled sums by window or cell sizes, which
    # would promote a float32 map to float64 as integer arrays
    for strategy in ("sliding", "regional"):
        spec = resnet_cifar(20, msar=MsarSettings(scales=(1, 2, 4), strategy=strategy))
        net = build_network(spec, seed=21, dtype=np.float32)
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 3, 32, 32)), dtype=np.float32)
        with Tape() as tape:
            loss = cross_entropy(net.forward(x, training=True), np.array([1, 7]))
        backward(tape, loss)
        wide = [name for name, out, _ in tape._entries if out.dtype != np.float32]
        assert wide == [], strategy
        for name, t, _ in net.parameters():
            assert t.grad is not None and t.grad.dtype == np.float32, (strategy, name)
