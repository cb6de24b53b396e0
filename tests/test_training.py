"""Optimizer arithmetic, schedules, evaluation, and the training loop."""

import numpy as np
import pytest

import msar.training
from msar.blocks import MsarSettings, NetworkSpec, StageSpec, build_network
from msar.cli import main
from msar.data import write_synthetic
from msar.tensor import Tensor
from msar.training import (CURVE_HEADER, NesterovSGD, TrainingDiverged,
                           TrainSettings, evaluate, lr_at, render_curve, train)

TOY = NetworkSpec(name="toy", family="residual", input_size=8, classes=2,
                  stem_width=4, stages=(StageSpec(4, 1, 1),))


def test_single_step_hand_computed():
    # w=1, g=1, lr=0.1, mu=0.9, no decay: v=-0.1, w <- 1 + 0.9*(-0.1) - 0.1 = 0.81
    w = Tensor(np.array([1.0]))
    w.grad = np.array([1.0])
    opt = NesterovSGD([("w", w, "bias")], momentum=0.9, weight_decay=0.0)
    opt.step(0.1)
    assert w.data[0] == pytest.approx(0.81, abs=1e-15)


def test_weight_decay_only_touches_weight_kind():
    tensors = {kind: Tensor(np.array([2.0])) for kind in ("weight", "norm", "bias")}
    for t in tensors.values():
        t.grad = np.array([0.0])
    opt = NesterovSGD([(k, t, k) for k, t in tensors.items()],
                      momentum=0.0, weight_decay=0.1)
    opt.step(1.0)
    assert tensors["weight"].data[0] == pytest.approx(2.0 - 0.1 * 2.0)
    assert tensors["norm"].data[0] == 2.0
    assert tensors["bias"].data[0] == 2.0


def test_momentum_accumulates_over_steps():
    w = Tensor(np.array([0.0]))
    opt = NesterovSGD([("w", w, "bias")], momentum=0.5, weight_decay=0.0)
    w.grad = np.array([1.0])
    opt.step(1.0)  # v=-1, w = 0.5*(-1) - 1 = -1.5
    w.grad = np.array([1.0])
    opt.step(1.0)  # v = 0.5*(-1) - 1 = -1.5, w += 0.5*(-1.5) - 1 = -1.75
    assert w.data[0] == pytest.approx(-1.5 - 1.75)


def test_missing_grad_is_a_zero_update():
    w = Tensor(np.array([3.0]))
    opt = NesterovSGD([("w", w, "norm")], momentum=0.9, weight_decay=0.1)
    opt.step(0.5)
    assert w.data[0] == 3.0


def test_nan_gradient_aborts_with_parameter_name():
    w = Tensor(np.array([1.0]))
    w.grad = np.array([np.nan])
    opt = NesterovSGD([("stage0.block0.conv1.weight", w, "weight")])
    with pytest.raises(TrainingDiverged, match="stage0.block0.conv1.weight"):
        opt.step(0.1)


def test_quadratic_descent():
    # minimize (w - 4)^2 by hand-fed gradients; must move monotonically toward 4
    w = Tensor(np.array([0.0]))
    opt = NesterovSGD([("w", w, "bias")], momentum=0.9, weight_decay=0.0)
    last = 16.0
    for _ in range(40):
        w.grad = 2.0 * (w.data - 4.0)
        opt.step(0.05)
        opt.zero_grad()
    assert abs(w.data[0] - 4.0) < 0.2


def test_lr_schedule_inclusive_drops():
    assert lr_at(0.1, (80, 120), 1) == pytest.approx(0.1)
    assert lr_at(0.1, (80, 120), 79) == pytest.approx(0.1)
    assert lr_at(0.1, (80, 120), 80) == pytest.approx(0.01)
    assert lr_at(0.1, (80, 120), 120) == pytest.approx(0.001)
    assert lr_at(0.1, (80, 120), 300) == pytest.approx(0.001)
    # three-drop schedule
    assert lr_at(0.1, (150, 225), 225) == pytest.approx(0.001)
    assert lr_at(0.1, (), 500) == pytest.approx(0.1)


def test_evaluate_uniform_predictor():
    # fresh network with zeroed classifier emits identical logits: loss ln(2)
    net = build_network(TOY, seed=0)
    for name, t, _ in net.parameters():
        if name.startswith("head.fc"):
            t.data[...] = 0.0
    rng = np.random.default_rng(61)
    images = rng.standard_normal((12, 3, 8, 8))
    labels = rng.integers(0, 2, size=12)
    loss, err = evaluate(net, images, labels, batch_size=5)
    assert loss == pytest.approx(np.log(2.0), abs=1e-9)
    assert 0.0 <= err <= 1.0


def test_evaluate_invariant_to_batch_size():
    net = build_network(TOY, seed=1)
    rng = np.random.default_rng(62)
    images = rng.standard_normal((10, 3, 8, 8))
    labels = rng.integers(0, 2, size=10)
    l1, e1 = evaluate(net, images, labels, batch_size=10)
    l2, e2 = evaluate(net, images, labels, batch_size=3)
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert e1 == e2


def fixed_settings(**kw):
    base = dict(epochs=2, batch_size=4, lr=0.05, momentum=0.9,
                weight_decay=1e-4, drops=(), seed=7, log_timing=False,
                augment=False)
    base.update(kw)
    return TrainSettings(**base)


def make_split(n, seed):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n, 3, 8, 8))
    # make the task learnable: class = sign of the mean of channel 0
    labels = (images[:, 0].mean(axis=(1, 2)) > 0).astype(np.int64)
    images[labels == 1, 0] += 2.0
    return images, labels


def test_train_returns_curve_rows():
    xs, ys = make_split(16, 63)
    net = build_network(TOY, seed=2)
    rows = train(net, xs, ys, xs[:8], ys[:8], fixed_settings())
    assert len(rows) == 2
    assert rows[0]["epoch"] == 1 and rows[1]["epoch"] == 2
    for r in rows:
        assert set(r) == set(CURVE_HEADER.split(","))
        assert r["seconds"] == 0.0
        assert r["lr"] == pytest.approx(0.05)


def test_train_evaluates_in_training_batches(monkeypatch):
    # as `msar eval` does: an evaluation holds no larger maps than a step
    sizes = []

    def spy(network, images, labels, batch_size=250):
        sizes.append(batch_size)
        return evaluate(network, images, labels, batch_size)

    monkeypatch.setattr(msar.training, "evaluate", spy)
    xs, ys = make_split(16, 63)
    train(build_network(TOY, seed=2), xs, ys, xs[:8], ys[:8], fixed_settings())
    assert sizes == [4] * 4


def test_train_loss_decreases_on_learnable_task():
    xs, ys = make_split(24, 64)
    net = build_network(TOY, seed=3)
    rows = train(net, xs, ys, xs, ys, fixed_settings(epochs=8))
    assert rows[-1]["train_loss"] < rows[0]["train_loss"]


def test_train_is_bitwise_deterministic():
    # augmentation draws come from the seeded generator, so runs must agree
    toy32 = NetworkSpec(name="toy32", family="residual", input_size=32,
                        classes=2, stem_width=4, stages=(StageSpec(4, 1, 2),))
    rng = np.random.default_rng(65)
    xs = rng.standard_normal((8, 3, 32, 32))
    ys = rng.integers(0, 2, size=8)
    rows_a = train(build_network(toy32, seed=4), xs, ys, xs[:4], ys[:4],
                   fixed_settings(augment=True))
    rows_b = train(build_network(toy32, seed=4), xs, ys, xs[:4], ys[:4],
                   fixed_settings(augment=True))
    assert render_curve(rows_a) == render_curve(rows_b)


@pytest.mark.parametrize("n,sizes", [(9, [4, 5]), (8, [4, 4]), (10, [4, 4, 2])])
def test_one_sample_tail_joins_previous_batch(n, sizes):
    net = build_network(TOY, seed=5)
    seen = []
    forward = net.forward

    def spy(x, training=False, recalibrate=True):
        if training:
            seen.append(x.shape[0])
        return forward(x, training, recalibrate)

    net.forward = spy
    xs, ys = make_split(n, 68)
    train(net, xs, ys, xs[:4], ys[:4], fixed_settings(epochs=1))
    assert seen == sizes


@pytest.mark.parametrize("strategy", ["regional", "sliding"])
def test_two_sample_tail_trains_finite_and_repeatable(strategy):
    # only a one-sample tail joins the batch before it, so n = batch + 2
    # trains a 2-image batch: its batch statistics normalize a K=1 scale's
    # two rows to +-1, whose gradients are residues of eps.  The epoch's
    # losses stay finite and its curve repeats bit for bit
    spec = NetworkSpec(name="toy-msar", family="residual", input_size=8, classes=2,
                       stem_width=4, stages=(StageSpec(4, 1, 1),),
                       msar=MsarSettings((1, 2, 4), strategy))
    xs, ys = make_split(6, 69)
    curves, seen = [], []
    for _ in range(2):
        net = build_network(spec, seed=6)
        forward = net.forward

        def spy(x, training=False, recalibrate=True, forward=forward):
            if training:
                seen.append(x.shape[0])
            return forward(x, training, recalibrate)

        net.forward = spy
        rows = train(net, xs, ys, xs[:4], ys[:4], fixed_settings(epochs=1))
        assert all(np.isfinite(rows[0][key]) for key in ("train_loss", "test_loss"))
        assert all(np.isfinite(t.data).all() for _, t, _ in net.parameters())
        curves.append(render_curve(rows))
    assert seen == [4, 2] * 2
    assert curves[0] == curves[1]


def test_augment_rejects_non_record_shapes():
    with pytest.raises(ValueError):
        train(build_network(TOY, seed=4), *make_split(8, 66)[:2],
              *make_split(4, 67)[:2], fixed_settings(augment=True))


def test_curve_rendering_roundtrips_floats():
    rows = [dict(epoch=1, train_loss=1.0 / 3.0, train_err=0.5,
                 test_loss=2.0 / 7.0, test_err=0.25, lr=0.1, seconds=0.0)]
    text = render_curve(rows)
    header, line = text.strip().splitlines()
    assert header == CURVE_HEADER
    parts = line.split(",")
    assert float(parts[1]) == 1.0 / 3.0  # repr preserves the exact double
    assert parts[0] == "1"


@pytest.mark.parametrize("strategy", ["regional", "sliding"])
def test_float32_training_is_bitwise_deterministic(tmp_path, strategy):
    # acceptance criterion 8's run at run.precision = 32, for both strategies
    train_bin = tmp_path / "train.bin"
    test_bin = tmp_path / "test.bin"
    write_synthetic(str(train_bin), per_class=50, classes=(0, 1), seed=23)
    write_synthetic(str(test_bin), per_class=10, classes=(0, 1), seed=24)
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text("\n".join([
        "network.stages = 8:1:2,16:1:2",
        "network.stem_width = 8",
        "network.classes = 2",
        "msar.enabled = on",
        f"msar.strategy = {strategy}",
        "optimizer.drops =",
        f"data.train_path = {train_bin}",
        f"data.test_path = {test_bin}",
        "run.epochs = 3",
        "run.batch_size = 20",
        "run.precision = 32",
        "run.log_timing = off",
    ]) + "\n")
    assert main(["train", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["train", str(cfg), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "curve.csv").read_bytes()
    b = (tmp_path / "b" / "curve.csv").read_bytes()
    assert a == b
    assert len(a.splitlines()) == 4
