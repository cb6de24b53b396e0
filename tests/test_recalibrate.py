"""Recalibration operator: oracle forward, gating bounds, degeneracies."""

import tracemalloc

import numpy as np
import pytest

from msar.blocks import MsarSettings, build_network, densenet_cifar, resnet_cifar
from msar.costs import report
from msar.gradcheck import TOLERANCE, check_gradients
from msar.pooling import CoordinateSetSpec, coordinate_set, excite, gate, project_pool
from msar.recalibrate import (MultiScaleConfig, MultiScaleRecalibration,
                              RecalibrationParams, ScaleRecalibration, se_reference)
from msar.tensor import BNState, Tape, Tensor, add, backward, cross_entropy, mul, sum_all
from oracles import (bottleneck_chain, broadcast_weights, coordinate_avg_pool, expand_chain,
                     is_gradient, long_double_bottleneck, long_double_errors,
                     long_double_site, scale, scale_forward, sigmoid)


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


def per_scale_vectors(s, src, training):
    """A scale's (N*M, d_out) gate rows from a pool of its own (a regional scale
    runs coordinate_avg_pool, the per-scale path that regional_pool replaces),
    formed by the whole bottleneck with its expand half as the linear,
    batch_norm and sigmoid chain (bottleneck_chain).  With broadcast_weights
    and gate this is the oracle of excite."""
    if s.spec.strategy == "sliding":
        pooled = project_pool(src, s.params.w1, s.spec)
        return bottleneck_chain(pooled, s.params, training, reduced=True)
    return bottleneck_chain(coordinate_avg_pool(src, s.spec), s.params, training)


def chain_map(s, src, training):
    """One scale's per_scale_vectors painted onto the lattice."""
    return broadcast_weights(per_scale_vectors(s, src, training), s.spec)


def composed_site(module, x, training, pool_src=None):
    """A site as separate taped ops: a chain_map per scale, the adds, the
    1/S scale, then the multiply (the path the gate op replaces)."""
    src = x if pool_src is None else pool_src
    maps = [chain_map(s, src, training) for s in module.scales]
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
        s = fresh_scale(spec, 4, 2, seed=k)
        got = broadcast_weights(scale_forward(s, Tensor(x), training=True), spec)
        want = naive_recalibration(x, fresh_params(4, 2, seed=k), spec)
        assert np.allclose(got.data, want, atol=1e-10)


def test_gate_values_strictly_inside_unit_interval():
    rng = np.random.default_rng(32)
    spec = CoordinateSetSpec("regional", 2, 8, 8)
    x = rng.standard_normal((2, 6, 8, 8)) * 5
    z = scale_forward(fresh_scale(spec, 6, 3, seed=5), Tensor(x), training=True)
    assert ((z.data > 0) & (z.data < 1)).all()


def test_regional_weights_constant_within_cells():
    rng = np.random.default_rng(33)
    spec = CoordinateSetSpec("regional", 2, 6, 6)
    x = rng.standard_normal((2, 3, 6, 6))
    z = chain_map(fresh_scale(spec, 3, 2, seed=9), Tensor(x), training=True)
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
    parts = [chain_map(s, Tensor(x), True).data for s in module.scales]
    want = x * (parts[0] + parts[1]) / 2.0
    assert np.allclose(out.data, want, atol=1e-12)


def test_eval_mode_commutes_with_batch_permutation():
    rng = np.random.default_rng(35)
    spec = CoordinateSetSpec("regional", 2, 6, 6)
    s = fresh_scale(spec, 4, 2, seed=3)
    # push some running stats through first
    warm = rng.standard_normal((8, 4, 6, 6))
    scale_forward(s, Tensor(warm), training=True)
    x = rng.standard_normal((5, 4, 6, 6))
    z = scale_forward(s, Tensor(x), training=False)
    perm = rng.permutation(5)
    zp = scale_forward(s, Tensor(x[perm]), training=False)
    cells = z.data.reshape(5, spec.vector_count, -1)
    assert np.allclose(zp.data.reshape(cells.shape), cells[perm], atol=1e-12)


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


def test_se_reference_gradients_match_single_cell_site():
    # se_reference broadcasts its vectors by itself, so its backward is a
    # second path beside the site's gate and regional_pool
    rng = np.random.default_rng(38)
    x = rng.standard_normal((3, 4, 5, 6))
    og = rng.standard_normal(x.shape)
    grads = []
    for site in (True, False):
        module = MultiScaleRecalibration("m", MultiScaleConfig((1,)), 4, 4, 6, 5,
                                         reduced=2, rng=np.random.default_rng(12))
        p, xt = module.scales[0].params, Tensor(x)
        with Tape() as tape:
            out = module.forward(xt, training=True) if site else se_reference(xt, p, True)
            loss = sum_all(mul(out, Tensor(og)))
        backward(tape, loss)
        grads.append([xt.grad] + [t.grad for t in _param_tensors(p)])
    for got, want in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
    weights = chain_map(module.scales[0], src, True)
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


def site_inputs(geometry, d_in=4, d_out=4, separate=False, batch=3, reduced=2, fill=None,
                dtype=np.float64, skip=False):
    """A freshly built site and its inputs: (module, x, pool source or None, the
    loss weight, skip or None).  A separate pool source holds the value fill
    everywhere, if one is given."""
    scales, strategy, width, height = geometry
    module = MultiScaleRecalibration(
        "m", MultiScaleConfig(scales=scales, strategy=strategy), d_in, d_out,
        width, height, reduced=reduced, rng=np.random.default_rng(17), dtype=dtype)
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((batch, d_out, height, width)), dtype=dtype)
    src = (Tensor(rng.standard_normal((batch, d_in, height, width)), dtype=dtype)
           if separate else None)
    if fill is not None:
        src.data[...] = fill
    weight = Tensor(rng.standard_normal(x.shape), dtype=dtype)
    sk = Tensor(rng.standard_normal(x.shape), dtype=dtype) if skip else None
    return module, x, src, weight, sk


def run_site(forward, geometry, training, **kw):
    """Forward and backward of one freshly built site (site_inputs): a (name,
    array) pair for the output, every gradient and every running statistic.
    With a skip, forward takes it as a fifth argument."""
    module, x, src, weight, skip = site_inputs(geometry, **kw)
    with Tape() as tape:
        out = forward(module, x, training, src, *([] if skip is None else [skip]))
        loss = sum_all(mul(out, weight))
    backward(tape, loss)
    named = [("out", out.data), ("x.grad", x.grad)]
    named += [] if src is None else [("src.grad", src.grad)]
    named += [] if skip is None else [("skip.grad", skip.grad)]
    named += [(name, t.grad) for name, t, _ in module.parameters()]
    named += [(f"{name}.{k}", getattr(st, k)) for name, st in module.norm_states()
              for k in ("mean", "var")]
    return named


def long_double_run(geometry, training, **kw):
    """long_double_site on the site and inputs run_site builds for the same arguments."""
    module, x, src, weight, skip = site_inputs(geometry, **kw)
    return long_double_site(module, x.data, weight.data, training,
                            None if src is None else src.data,
                            None if skip is None else skip.data)


def fused(module, x, training, src, skip=None):
    return module.forward(x, training, pool_src=src, skip=skip)


def composed(module, x, training, src):
    return composed_site(module, x, training, pool_src=src)


def assert_site_matches(got, want, residues=()):
    """Every scale's excite re-associates the expand norm, and a multi-scale
    regional site sums its cells from one refinement pass, so each array
    matches within 1e-12 of its largest entry.  An array whose name ends in
    one of residues is a cancellation residue, near zero in exact
    arithmetic, and is measured against the site's largest gradient entry
    instead."""
    assert [name for name, _ in got] == [name for name, _ in want]
    grads = max(np.abs(b).max() for name, b in want if is_gradient(name))
    for (name, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        ref = grads if name.endswith(residues) else np.abs(b).max()
        assert np.abs(a - b).max() <= 1e-12 * ref, name


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: f"{g[1]}{g[0]}-{g[2]}x{g[3]}")
def test_gate_bitwise_matches_composed_site(geometry, training):
    assert_site_matches(run_site(fused, geometry, training),
                        run_site(composed, geometry, training))


@pytest.mark.parametrize("training", [True, False])
def test_gate_bitwise_with_separate_pool_source(training):
    # dense-step style: pool the wider accumulated input, gate the new features
    for geometry in GEOMETRIES[:2] + GEOMETRIES[3:]:
        got = run_site(fused, geometry, training, d_in=6, d_out=3, separate=True)
        want = run_site(composed, geometry, training, d_in=6, d_out=3, separate=True)
        assert_site_matches(got, want)


def per_scale_site(module, x, training, src):
    """A regional site whose every scale pools on its own (per_scale_vectors),
    then one gate op."""
    src = x if src is None else src
    return gate(x, [per_scale_vectors(s, src, training) for s in module.scales],
                [s.spec for s in module.scales])


def tape_bytes(module, x, forward=fused):
    """Bytes still allocated after one training-mode forward of a site."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            forward(module, x, True, None)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) > 0
    return held


def test_site_tape_holds_no_full_size_gate_maps():
    # the tape keeps the gated output and small gate vectors, nothing per scale
    module = MultiScaleRecalibration(
        "m", MultiScaleConfig(scales=(1, 2, 4), strategy="regional"), 16, 16,
        32, 32, reduced=4, rng=np.random.default_rng(19))
    x = Tensor(np.random.default_rng(20).standard_normal((32, 16, 32, 32)))
    assert tape_bytes(module, x) <= 1.5 * x.data.nbytes


def test_regional_site_tape_no_larger_than_per_scale_pools():
    # one pass keeps no (N, J, D) refinement sums (64 KiB here, J = 16 cells):
    # the tape holds the same means as a pool per scale, plus bookkeeping
    module = MultiScaleRecalibration(
        "m", MultiScaleConfig(scales=(1, 2, 4), strategy="regional"), 16, 16,
        32, 32, reduced=4, rng=np.random.default_rng(19))
    x = Tensor(np.random.default_rng(20).standard_normal((32, 16, 32, 32)))
    assert tape_bytes(module, x) <= tape_bytes(module, x, per_scale_site) + 4096


def test_sliding_site_tape_holds_reduced_width_pools():
    # a sliding scale's pooled vectors are `reduced` wide, and the
    # whole-lattice K=1 scale keeps one vector per image.  Apart from the
    # gated output, the only full-size arrays are the two sliding scales'
    # gate rows (excite); pooling all 16 channels first held 16.8x the
    # input, and the full-size expand chain 7.4x
    module = MultiScaleRecalibration(
        "m", MultiScaleConfig(scales=(1, 2, 4), strategy="sliding"), 16, 16,
        32, 32, reduced=1, rng=np.random.default_rng(19))
    x = Tensor(np.random.default_rng(20).standard_normal((32, 16, 32, 32)))
    assert tape_bytes(module, x) <= 3.5 * x.data.nbytes


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


BOTTLENECK_OPS = ["batch_norm", "gate"]


@pytest.mark.parametrize("strategy", ["regional", "sliding"])
def test_site_records_pools_bottlenecks_and_one_gate(strategy):
    # a (1, 2, 4) site on 8x8: regional_pool's refinement entry and one per
    # regional scale, the sliding scales' project_pools, each pool ending in
    # the reduce map, each scale's bottleneck on its reduced rows, ending in
    # excite (a gate entry), one gate; the K=1 sliding scale runs as the
    # regional cell, and no op reshapes pooled rows or gates
    module = MultiScaleRecalibration("m", MultiScaleConfig((1, 2, 4), strategy), 4, 4, 8, 8,
                                     reduced=2, rng=np.random.default_rng(23))
    x = Tensor(np.random.default_rng(24).standard_normal((2, 4, 8, 8)))
    with Tape() as tape:
        module.forward(x, training=True)
    names = [name for name, _, _ in tape._entries]
    assert names == ["coordinate_avg_pool"] * 4 + BOTTLENECK_OPS * 3 + ["gate"]
    # pooled vectors, reduced to 2 channels, and gates are (N*M, .) rows
    pooled = [out.shape for name, out, _ in tape._entries if name == "coordinate_avg_pool"]
    gates = [out.shape for name, out, _ in tape._entries[:-1] if name == "gate"]
    if strategy == "regional":
        assert pooled[1:] == [(2, 2), (2 * 4, 2), (2 * 16, 2)]
        assert gates == [(2, 4), (2 * 4, 4), (2 * 16, 4)]
    else:
        assert pooled[1:] == [(2, 2), (2 * 64, 2), (2 * 64, 2)]
        assert gates == [(2, 4), (2 * 64, 4), (2 * 64, 4)]


STEP_NETS = {
    "resnet20-regional": lambda: resnet_cifar(20, msar=MsarSettings((1, 2, 4), "regional")),
    "resnet20-sliding": lambda: resnet_cifar(20, msar=MsarSettings((1, 2, 4), "sliding")),
    "densenet40-regional": lambda: densenet_cifar(40, 12, msar=MsarSettings((1, 2, 4))),
}


@pytest.mark.parametrize("net, entries", [("resnet20-regional", 142),
                                          ("resnet20-sliding", 142),
                                          ("densenet40-regional", 299)])
def test_msar_step_records_no_reshape(net, entries):
    # the three benchmarked nets' tape entries per training step, which
    # do not depend on the batch size
    net = build_network(STEP_NETS[net](), seed=25)
    x = Tensor(np.random.default_rng(26).standard_normal((2, 3, 32, 32)))
    with Tape() as tape:
        cross_entropy(net.forward(x, training=True), np.array([1, 7]))
    names = [name for name, _, _ in tape._entries]
    # every scale's expand half is one excite, recorded as gate, and its
    # reduce map ends its pool op: the head's classifier is the one linear
    assert "reshape" not in names and "sigmoid" not in names
    assert [i for i, name in enumerate(names) if name == "linear"] == [len(names) - 2]
    assert len(names) == entries


# -- sliding sites project, then pool -----------------------------------------

def pool_then_project(module, x, training, src):
    """A site whose every scale pools the full-width source over its own
    spec, then runs the whole bottleneck: no projection ahead of the
    pool, and no whole-lattice window run as the K=1 cell."""
    src = x if src is None else src
    specs = module.config.specs(x.shape[3], x.shape[2])
    vs = [bottleneck_chain(coordinate_avg_pool(src, spec), s.params, training)
          for s, spec in zip(module.scales, specs)]
    return gate(x, vs, specs)


SLIDING_GEOMETRIES = [
    ((1, 2, 4), "sliding", 32, 32),   # K=1 covers the lattice: one cell
    ((1, 2), "sliding", 8, 8),
    ((1, 3), "sliding", 7, 5),        # K=1 half-width 5 < 6 stays sliding
    ((2,), "sliding", 11, 9),
]


@pytest.mark.parametrize("separate", [False, True], ids=["self", "wider-source"])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("geometry", SLIDING_GEOMETRIES,
                         ids=lambda g: f"{g[0]}-{g[2]}x{g[3]}")
def test_sliding_site_matches_pool_then_project(geometry, training, separate):
    # output, x.grad, pool-source grad, parameter grads, running statistics.
    # A K=1 scale normalizes one row per image; with 3 images its training
    # reduce.weight grad is a cancellation residue, and the oracle's
    # whole-lattice window means carry enough rounding to miss 1e-12 there
    # (test_collapsed_k1_grads_track_long_double covers that case).
    kw = {"d_in": 6, "d_out": 3, "separate": True} if separate else {}
    kw["batch"] = 4
    got = run_site(fused, geometry, training, **kw)
    want = run_site(pool_then_project, geometry, training, **kw)
    assert len(got) == len(want)
    for (_, a), (_, b) in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


# BN scale invariance: beta1 = 0 at initialization, so the site's output does
# not change with gamma1's scale; at reduced width 1 each expand row's scale
# drops out of the expand norm too.  Those gradients are zero up to eps.
RESIDUES = {2: ("reduce_norm.gamma",), 1: ("reduce_norm.gamma", "expand.weight")}


@pytest.mark.parametrize("reduced", [2, 1])
@pytest.mark.parametrize("separate", [False, True], ids=["self", "wider-source"])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("geometry", SLIDING_GEOMETRIES,
                         ids=lambda g: f"{g[0]}-{g[2]}x{g[3]}")
def test_sliding_site_matches_chain_oracle(geometry, training, separate, reduced):
    # composed_site runs each sliding scale's full-size linear, batch_norm and
    # sigmoid chain and paints it with broadcast_weights, bitwise what the
    # gate op did with sliding vectors; excite folds that chain
    kw = {"d_in": 6, "d_out": 3, "separate": True} if separate else {}
    got = run_site(fused, geometry, training, reduced=reduced, **kw)
    want = run_site(composed, geometry, training, reduced=reduced, **kw)
    assert_site_matches(got, want, RESIDUES[reduced])


@pytest.mark.parametrize("separate", [False, True], ids=["self", "wider-source"])
def test_one_image_sliding_site_matches_chain_oracle(separate):
    # the batch statistics of one image: M = H*W rows, K=1 still sliding on 7x5
    kw = {"d_in": 6, "d_out": 3, "separate": True} if separate else {}
    for geometry in SLIDING_GEOMETRIES:
        got = run_site(fused, geometry, True, batch=1, **kw)
        want = run_site(composed, geometry, True, batch=1, **kw)
        assert_site_matches(got, want, RESIDUES[2])


def test_constant_map_folds_to_beta():
    # a zero pool source reduces to rows u = relu(beta1) = 0: both norms see
    # zero variance, and each sliding scale's gates are sigmoid(beta) exactly
    geometry = ((2, 4), "sliding", 8, 8)
    for training in (True, False):
        got = run_site(fused, geometry, training, separate=True, fill=0.0)
        want = run_site(composed, geometry, training, separate=True, fill=0.0)
        assert_site_matches(got, want)
    module = MultiScaleRecalibration("m", MultiScaleConfig((2, 4), "sliding"), 4, 4, 8, 8,
                                     reduced=2, rng=np.random.default_rng(17))
    for s in module.scales:
        s.params.b2.data[...] = np.linspace(-1.0, 1.0, 4)
        gates = scale_forward(s, Tensor(np.zeros((3, 4, 8, 8))), training=True).data
        assert np.array_equal(gates, np.broadcast_to(sigmoid(s.params.b2).data, gates.shape))


def test_constant_rows_fold_to_beta():
    # rows equal to a dyadic constant have an exact mean, so their centred
    # rows and R factor are exactly zero and the folded gates are
    # sigmoid(beta); the chain's batch norm sees rounding in its mean and
    # lands within 1e-12.  A sliding scale's 3 * 64 rows, or a regional one's
    rng = np.random.default_rng(42)
    w, gamma, beta = (Tensor(rng.standard_normal(shape)) for shape in ((4, 2), (4,), (4,)))
    for count in (3 * 64, 3 * 4, 3):
        u = Tensor(np.full((count, 2), 0.25))
        gates = excite(u, w, gamma, beta, BNState(4), True).data
        assert np.array_equal(gates, np.broadcast_to(sigmoid(beta).data, gates.shape))
        chain = expand_chain(u, w, gamma, beta, BNState(4), True).data
        assert np.abs(gates - chain).max() <= 1e-12


def test_float32_sliding_expand_grads_track_float64():
    # a stage-0 site at batch 32, gradients and expand_norm statistics: the
    # chain's float32 batch_norm backward cancels over 32768 full-size rows,
    # excite in r x r moments from a QR.  Measured: scale2's expand.weight is
    # off by 4.5e-6 in excite and by 5.4e-4 chained (3.2e-2 while batch_norm
    # summed its rows with einsum's single running sum), so 1e-4 parts them
    geometry = ((1, 2, 4), "sliding", 32, 32)
    kw = {"d_in": 16, "d_out": 16, "batch": 32, "reduced": 1}
    want = dict(run_site(fused, geometry, True, **kw))
    for forward, name in ((fused, "excite"), (composed, "chain")):
        got = dict(run_site(forward, geometry, True, dtype=np.float32, **kw))
        errs = {key: np.abs(got[key] - want[key]).max() / np.abs(want[key]).max()
                for key in want if ".expand" in key and ".scale1." not in key}
        if name == "excite":
            assert max(errs.values()) <= 1e-4, errs
        else:
            assert errs["m.scale2.expand.weight"] > 1e-4, errs


@pytest.mark.parametrize("width, height, collapsed",
                         [(8, 8, True), (7, 7, True), (7, 5, False)])
def test_whole_lattice_sliding_scale_is_the_k1_cell(width, height, collapsed):
    spec = CoordinateSetSpec("sliding", 1, width, height)
    s = fresh_scale(spec, 4, 2, seed=3)
    assert s.spec == (CoordinateSetSpec("regional", 1, width, height) if collapsed else spec)


def test_collapsed_scale_bitwise_matches_regional_k1():
    x = np.random.default_rng(40).standard_normal((3, 4, 8, 8))
    for training in (True, False):
        got, want = (scale_forward(fresh_scale(CoordinateSetSpec(strategy, 1, 8, 8), 4, 2,
                                               seed=3), Tensor(x), training).data
                     for strategy in ("sliding", "regional"))
        assert got.shape == (3, 4)
        assert got.tobytes() == want.tobytes()


def test_collapsed_k1_grads_track_long_double():
    # with 3 images the batch statistics of a K=1 scale are nearly
    # degenerate; run as one cell, its reduce.weight grad stays accurate
    rng = np.random.default_rng(41)
    for seed in range(3):
        s = fresh_scale(CoordinateSetSpec("sliding", 1, 32, 32), 6, 2, seed=seed)
        src = rng.standard_normal((3, 6, 32, 32))
        og = rng.standard_normal((3, 6))
        with Tape() as tape:
            v = scale_forward(s, Tensor(src), training=True)
            loss = sum_all(mul(v, Tensor(og)))
        backward(tape, loss)
        pooled = src.astype(np.longdouble).mean(axis=(2, 3))
        _, _, bottleneck_backward = long_double_bottleneck(pooled, s.params, True)
        want = bottleneck_backward(og.astype(np.longdouble))[1][0]
        got = s.params.w1.grad
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# -- the site against long double ---------------------------------------------

LONG_DOUBLE_GEOMETRIES = GEOMETRIES + [g for g in SLIDING_GEOMETRIES if g not in GEOMETRIES]
SITE_VARIANTS = {"self": {}, "wider-source": {"d_in": 6, "d_out": 3, "separate": True},
                 "skip": {"skip": True}}
geometry_id = "{0[1]}{0[0]}-{0[2]}x{0[3]}".format


@pytest.mark.parametrize("variant", sorted(SITE_VARIANTS))
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("geometry", LONG_DOUBLE_GEOMETRIES, ids=geometry_id)
def test_long_double_site_matches_float64_site(geometry, training, variant):
    # the oracle itself: at 8 images every batch statistic is well
    # conditioned, and the float64 site agrees with it within 1e-12 of each
    # array's largest entry (measured at most 4.5e-14, a sliding
    # reduce_norm.gamma)
    kw = {"batch": 8, **SITE_VARIANTS[variant]}
    errs = long_double_errors(run_site(fused, geometry, training, **kw),
                              long_double_run(geometry, training, **kw))
    assert max(own for own, _ in errs.values()) <= 1e-12, errs


@pytest.mark.parametrize("variant", sorted(SITE_VARIANTS))
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("geometry", LONG_DOUBLE_GEOMETRIES, ids=geometry_id)
def test_site_tracks_long_double(geometry, training, variant):
    # 1-4 images at reduced widths 2 and 1: every gradient within 1e-12 of
    # the site's largest gradient entry, and the output and running
    # statistics within 1e-12 of their own largest entry.  Few rows make
    # some gradients residues of eps (two rows normalize to +-1, a K=1
    # scale's over two images), so a gradient is not measured against its
    # own entries.  Measured at most 3.6e-14 (2 images) and 9.2e-15
    # (3-4 images) of the largest gradient, 1.1e-13 of a running mean
    for batch in (1, 2, 3, 4):
        for reduced in (2, 1):
            kw = {"batch": batch, "reduced": reduced, **SITE_VARIANTS[variant]}
            errs = long_double_errors(run_site(fused, geometry, training, **kw),
                                      long_double_run(geometry, training, **kw))
            for name, (own, site) in errs.items():
                assert (site if is_gradient(name) else own) <= 1e-12, (batch, reduced, name)


def test_collapse_leaves_costs_at_paper_convention():
    # the cost model charges a sliding K=1 scale per position, as the paper counts
    spec = resnet_cifar(20, 10, MsarSettings((1, 2, 4), "sliding"))
    rep = report(spec)
    assert rep.total_params == 285_178
    assert rep.total_flops == 41_857_664
    assert build_network(spec, seed=0).parameter_count() == 285_178
