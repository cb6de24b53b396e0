"""Network assembly: shapes, widths, registries, and end-to-end gradients."""

import tracemalloc

import numpy as np
import pytest

import msar.blocks
import oracles
from msar.blocks import (DenseStep, MsarSettings, NetworkSpec, ResidualBlock, StageSpec,
                         Stem, build_network, densenet_cifar, dense_reduced,
                         residual_reduced, resnet_cifar, resnet_ilsvrc, resnext50_ilsvrc)
from msar.gradcheck import TOLERANCE, check_gradients
from msar.recalibrate import MultiScaleConfig
from msar.tensor import Tape, Tensor, backward, cross_entropy

TOY = NetworkSpec(name="toy", family="residual", input_size=8, classes=3,
                  stem_width=4, stages=(StageSpec(4, 1, 1), StageSpec(8, 1, 2)))

TOY_MSAR = NetworkSpec(
    name="toy-msar", family="residual", input_size=8, classes=3,
    stem_width=4, stages=(StageSpec(4, 1, 1), StageSpec(8, 1, 2)),
    msar=MsarSettings(scales=(1, 2), strategy="regional"))


def test_msar_settings_are_a_site_config_plus_stage_mode():
    settings = MsarSettings(scales=(np.int64(2), 1), strategy="sliding")
    assert isinstance(settings, MultiScaleConfig)
    assert settings.scales == (2, 1) and all(type(k) is int for k in settings.scales)
    assert settings.stage_mode == "multi"
    for bad in ({"scales": (2, 2)}, {"strategy": "global"}, {"stage_mode": "both"}):
        with pytest.raises(ValueError):
            MsarSettings(**bad)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_untaped_stem_forward_peaks_in_its_convolution():
    # eval mode keeps no tape: the conv output is freed once normalized,
    # and the relu runs in the norm's buffer, so the stem holds two maps,
    # not three, and its peak is its convolution's
    stem = Stem("stem", 3, 16, 3, 1, 32, True, False, None,
                np.random.default_rng(0), np.float64)
    x = Tensor(np.random.default_rng(1).standard_normal((32, 3, 32, 32)))
    conv_peak = _traced_peak(stem.conv.forward, x)
    map_bytes = 32 * 16 * 32 * 32 * 8
    assert _traced_peak(stem.forward, x, False) <= conv_peak + map_bytes // 4


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _tape_buffers(tape):
    """{id: array} of the distinct buffers a tape holds: each entry's
    output and closure cells, views by their base."""
    bases = {}
    for _name, out, fn in tape._entries:
        cells = [c.cell_contents for c in fn.__closure__ or ()]
        for a in [out.data] + [c.data if isinstance(c, Tensor) else c for c in cells]:
            if isinstance(a, np.ndarray):
                a = _base(a)
                bases[id(a)] = a
    return bases


def _held_maps(block, x, min_bytes):
    """Distinct buffers of at least min_bytes that one training forward's tape holds."""
    with Tape() as tape:
        block.forward(x, training=True)
    return sum(a.nbytes >= min_bytes for a in _tape_buffers(tape).values())


@pytest.mark.parametrize("kind, msar, held", [
    ("residual", MsarSettings((1, 2, 4), "regional"), 6),
    ("residual", MsarSettings((1, 2, 4), "sliding"), 8),
    ("residual", None, 6),
    ("dense", MsarSettings((1, 2, 4), "regional"), 8)],
    ids=["regional", "sliding", "plain", "dense-step"])
def test_tape_keeps_no_map_only_a_relu_or_add_reads(kind, msar, held):
    # input, conv1, norm1 with its relu, conv2, norm2 and one tail map (plus
    # a sliding scale's gate map each); the composed norm -> relu and
    # gate -> add -> relu held 9, 11 and 8, and the dense step 10
    rng = np.random.default_rng(49)
    if kind == "residual":
        block = ResidualBlock("b", 16, 16, 1, 8, msar, rng, np.float64)
        x = Tensor(rng.standard_normal((4, 16, 8, 8)))
        map_bytes = x.data.nbytes
    else:
        block = DenseStep("s", 24, 12, 8, 36, msar, rng, np.float64)
        x = Tensor(rng.standard_normal((4, 24, 8, 8)))
        map_bytes = 4 * 12 * 8 * 8 * 8
    assert _held_maps(block, x, map_bytes) == held


def test_depth_rule_counts_weighted_layers():
    # depth 6n+2: one stem conv, 6n stage convs, one classifier
    net = build_network(resnet_cifar(20))
    convs = [n for n, _, _ in net.parameters()
             if n.endswith("conv.weight") or ".conv" in n]
    convs = [n for n in convs if "project" not in n]
    fc = [n for n, _, _ in net.parameters() if n == "head.fc.weight"]
    assert len(convs) + len(fc) == 20


def test_resnet_cifar_stage_layout():
    spec = resnet_cifar(32)
    assert [s.blocks for s in spec.stages] == [5, 5, 5]
    assert [s.width for s in spec.stages] == [16, 32, 64]
    assert [s.stride for s in spec.stages] == [1, 2, 2]
    with pytest.raises(ValueError):
        resnet_cifar(21)  # not 6n+2


def test_densenet_cifar_stage_layout():
    spec = densenet_cifar(100, growth=12)
    assert spec.family == "dense"
    assert spec.stem_width == 24
    assert [s.blocks for s in spec.stages] == [16, 16, 16]
    with pytest.raises(ValueError):
        densenet_cifar(99)


def test_logits_shapes_all_families():
    rng = np.random.default_rng(41)
    x8 = rng.standard_normal((2, 3, 8, 8))

    net = build_network(TOY)
    assert net.forward(Tensor(x8)).shape == (2, 3)

    dense_spec = NetworkSpec(name="toy-dense", family="dense", input_size=8,
                             classes=4, stem_width=8,
                             stages=(StageSpec(4, 2, 1), StageSpec(4, 2, 2)),
                             growth=4)
    dnet = build_network(dense_spec)
    assert dnet.forward(Tensor(x8)).shape == (2, 4)

    plain_spec = NetworkSpec(name="toy-plain", family="plain", input_size=8,
                             classes=5, stem_width=4,
                             stages=(StageSpec(6, 2, 2),))
    pnet = build_network(plain_spec)
    assert pnet.forward(Tensor(x8)).shape == (2, 5)


def test_zero_stage_network_is_classifier_only():
    spec = NetworkSpec(name="stemless", family="residual", input_size=8,
                       classes=2, stem_width=4, stages=())
    net = build_network(spec)
    out = net.forward(Tensor(np.random.default_rng(42).standard_normal((3, 3, 8, 8))))
    assert out.shape == (3, 2)


def test_grouped_family_costs_only():
    spec = resnext50_ilsvrc()
    with pytest.raises(ValueError, match="cost model"):
        build_network(spec)


def test_dense_widths_accumulate_by_growth():
    spec = densenet_cifar(40, growth=12)
    net = build_network(spec)
    steps = [b for b in net.blocks if hasattr(b, "conv1")]
    # step j of the first stage consumes 24 + j*12 channels
    for j in range(6):
        assert steps[j].conv1.w.shape[1] == 24 + j * 12
        assert steps[j].conv2.w.shape[0] == 12
    # every step of a stage writes into one buffer of the stage's final width
    assert [step.width for step in steps] == [96] * 6 + [120] * 6 + [132] * 6


def test_dense_recal_pool_width_follows_stage_mode():
    base = densenet_cifar(22, growth=6, msar=MsarSettings(scales=(1, 2)))
    multi = build_network(base)
    single_spec = NetworkSpec(
        name=base.name, family="dense", input_size=32, classes=10,
        stem_width=base.stem_width, stages=base.stages, growth=6,
        msar=MsarSettings(scales=(1, 2), stage_mode="single"))
    single = build_network(single_spec)

    # multi mode pools the accumulated map entering step 2: 12 + 2*6 channels
    step = [b for b in multi.blocks if hasattr(b, "conv1")][2]
    assert step.recal.scales[0].params.w1.shape[1] == 12 + 2 * 6
    # single mode pools only the new features
    step = [b for b in single.blocks if hasattr(b, "conv1")][2]
    assert step.recal.scales[0].params.w1.shape[1] == 6


def test_reduced_width_rules():
    assert residual_reduced(64, 4) == 4
    assert residual_reduced(16, 4) == 1
    assert residual_reduced(3, 1) == 1  # floors at one
    assert dense_reduced(12) == 6
    assert dense_reduced(1) == 1


def test_parameter_names_are_hierarchical():
    net = build_network(TOY_MSAR)
    names = [n for n, _, _ in net.parameters()]
    assert "stem.conv.weight" in names
    assert "stage0.block0.conv1.weight" in names
    assert "stage1.block0.project.weight" in names
    assert "stage0.block0.recal.scale1.reduce.weight" in names
    assert "head.fc.weight" in names and "head.fc.bias" in names
    assert len(names) == len(set(names))


def test_recalibration_bypass_equals_plain_twin():
    # same seed weights, recalibrate=False must equal the twin without gates
    rng = np.random.default_rng(43)
    x = rng.standard_normal((2, 3, 8, 8))
    msar_net = build_network(TOY_MSAR, seed=5)
    base_net = build_network(TOY, seed=6)
    shared = dict(base_net.parameters_by_name()) if hasattr(base_net, "parameters_by_name") else {
        n: t for n, t, _ in base_net.parameters()}
    for n, t, _ in msar_net.parameters():
        if n in shared:
            t.data[...] = shared[n].data
    got = msar_net.forward(Tensor(x), training=False, recalibrate=False)
    want = base_net.forward(Tensor(x), training=False)
    assert (got.data == want.data).all()


def test_eval_mode_batch_independence():
    rng = np.random.default_rng(44)
    net = build_network(TOY_MSAR, seed=1)
    warm = Tensor(rng.standard_normal((8, 3, 8, 8)))
    with Tape() as tape:
        loss = cross_entropy(net.forward(warm, training=True),
                             rng.integers(0, 3, size=8))
    backward(tape, loss)

    x = rng.standard_normal((4, 3, 8, 8))
    full = net.forward(Tensor(x), training=False).data
    for b in range(4):
        one = net.forward(Tensor(x[b:b + 1]), training=False).data
        assert np.allclose(one[0], full[b], atol=1e-10)


def test_end_to_end_gradients_toy_network():
    rng = np.random.default_rng(45)
    net = build_network(TOY_MSAR, seed=2)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)))
    leaves = [x] + [t for _, t, _ in net.parameters()]
    err = check_gradients(
        lambda: net.forward(x, training=True), leaves, rng, samples_per_tensor=4)
    assert err < TOLERANCE


def test_training_forward_moves_running_stats():
    net = build_network(TOY, seed=3)
    states = [s for _, s in net.norm_states()]
    before = [s.mean.copy() for s in states]
    x = Tensor(np.random.default_rng(46).standard_normal((4, 3, 8, 8)) + 2.0)
    net.forward(x, training=True)
    moved = any(not np.allclose(s.mean, b) for s, b in zip(states, before))
    assert moved
    frozen = [s.mean.copy() for s in states]
    net.forward(x, training=False)
    assert all((s.mean == f).all() for s, f in zip(states, frozen))


def test_ilsvrc_stem_downsamples():
    spec = resnet_ilsvrc(18, classes=10)
    net = build_network(spec)
    x = Tensor(np.random.default_rng(47).standard_normal((1, 3, 64, 64)))
    out = net.forward(x)
    assert out.shape == (1, 10)


def test_float32_build():
    net = build_network(TOY, seed=0, dtype=np.float32)
    x = Tensor(np.random.default_rng(48).standard_normal((2, 3, 8, 8)), dtype=np.float32)
    out = net.forward(x)
    assert out.data.dtype == np.float32


# -- dense stages in one buffer, against the concatenating path ----------------

DENSE_CASES = {
    "densenet40-msar-regional-f32": (densenet_cifar(40, 12, 10, MsarSettings((1, 2, 4))),
                                     np.float32),
    "densenet40-msar-regional-f64": (densenet_cifar(40, 12, 10, MsarSettings((1, 2, 4))),
                                     np.float64),
    "densenet22-msar-single": (densenet_cifar(22, 6, 10, MsarSettings((1, 2), stage_mode="single")),
                               np.float64),
    "densenet22-plain": (densenet_cifar(22, 6, 10), np.float32),
}


def _concat_oracle(monkeypatch):
    """Make dense steps concatenate into fresh storage, as before stage buffers."""
    monkeypatch.setattr(msar.blocks, "extend_channels",
                        lambda a, b, width: oracles.concat_channels(a, b))


def _dense_step_and_eval(spec, dtype, batch=4):
    """A seed-3 net's logits, every parameter gradient and running statistic
    after one seeded training step, then its eval logits."""
    net = build_network(spec, seed=3, dtype=dtype)
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((batch, 3, 32, 32)), dtype=dtype)
    with Tape() as tape:
        logits = net.forward(x, training=True)
        loss = cross_entropy(logits, rng.integers(0, 10, batch))
    backward(tape, loss)
    arrays = [logits.data] + [t.grad for _, t, _ in net.parameters()]
    arrays += [a for _, st in net.norm_states() for a in (st.mean, st.var)]
    return arrays + [net.forward(x).data]


@pytest.mark.parametrize("case", DENSE_CASES)
def test_dense_stage_buffer_is_bitwise_the_concat_path(case, monkeypatch):
    spec, dtype = DENSE_CASES[case]
    got = _dense_step_and_eval(spec, dtype)
    _concat_oracle(monkeypatch)
    want = _dense_step_and_eval(spec, dtype)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_dense_training_forward_keeps_one_buffer_per_stage(monkeypatch):
    # densenet40-msar f32 at batch 4 retains 0.81 of the concatenating
    # path's bytes: the 18 steps' outputs become 3 stage buffers
    spec = densenet_cifar(40, 12, 10, MsarSettings((1, 2, 4)))

    def retained():
        net = build_network(spec, seed=3, dtype=np.float32)
        x = Tensor(np.random.default_rng(5).standard_normal((4, 3, 32, 32)), dtype=np.float32)
        with Tape() as tape:
            net.forward(x, training=True)
        outputs = {id(_base(out.data)) for name, out, _ in tape._entries
                   if name == "concat_channels"}
        return len(outputs), sum(a.nbytes for a in _tape_buffers(tape).values())

    stages, held = retained()
    _concat_oracle(monkeypatch)
    steps, concat_held = retained()
    assert (stages, steps) == (3, 18)
    assert held <= 0.85 * concat_held


def _bits(t):
    return t.data.tobytes()


def test_dense_outputs_never_change_once_exposed():
    net = build_network(densenet_cifar(22, 6, 10, MsarSettings((1, 2))), seed=3)
    x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 32, 32)))
    # one step run twice on one input: its input is then no longer the
    # filled prefix of the stage buffer, so the second run (in eval mode,
    # other values) must not write over the first run's channels
    stem, step0, step1 = net.blocks[:3]
    s = step0.forward(stem.forward(x, True), True)
    first = step1.forward(s, True)
    kept = [_bits(s), _bits(first)]
    second = step1.forward(s, False)
    assert [_bits(s), _bits(first)] == kept
    assert _bits(second) != kept[1]
    assert second.data[:, :s.shape[1]].tobytes() == kept[0]
    # a training forward, then an eval and a second training forward
    with Tape() as tape:
        net.forward(x, training=True)
    kept = [_bits(out) for _name, out, _fn in tape._entries]
    net.forward(x)
    net.forward(x, training=True)
    assert [_bits(out) for _name, out, _fn in tape._entries] == kept
