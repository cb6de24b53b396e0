"""Command-line behavior: outputs, exit codes, and failure hygiene."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msar.pooling
import msar.tensor
from msar.cli import _gradcheck_rows, main
from msar.config import ExperimentConfig
from msar.data import write_synthetic
from msar.tensor import Tape, Tensor
from msar.training import CURVE_HEADER

SRC = Path(__file__).resolve().parent.parent / "src"

TOY_LINES = [
    "network.stages = 4:1:2",
    "network.classes = 2",
    "msar.enabled = on",
    "msar.scales = 1,2",
    "optimizer.drops =",
    "optimizer.lr = 0.05",
    "run.epochs = 2",
    "run.batch_size = 4",
    "run.log_timing = off",
]


@pytest.fixture()
def toy_setup(tmp_path):
    train_bin = tmp_path / "train.bin"
    test_bin = tmp_path / "test.bin"
    write_synthetic(str(train_bin), per_class=8, classes=(0, 1), seed=5)
    write_synthetic(str(test_bin), per_class=4, classes=(0, 1), seed=6)
    cfg = tmp_path / "toy.cfg"
    out = tmp_path / "run"
    cfg.write_text("\n".join(TOY_LINES + [
        f"data.train_path = {train_bin}",
        f"data.test_path = {test_bin}",
        f"run.out = {out}",
    ]) + "\n")
    return cfg, out


def test_analyze_prints_reference_totals(capsys, tmp_path):
    cfg = tmp_path / "rn20.cfg"
    cfg.write_text("network.preset = resnet20\n")
    assert main(["analyze", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "273658" in out
    assert "40813184" in out
    assert out.splitlines()[0] == "network: resnet20"


def test_analyze_is_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("network.preset = densenet100\nmsar.enabled = on\n")
    assert main(["analyze", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", str(cfg)]) == 0
    assert capsys.readouterr().out == first
    assert "972862" in first


def test_analyze_csv_form(capsys, tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("network.preset = resnet32\n")
    assert main(["analyze", str(cfg), "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("layer,params,flops,recalibration\n")
    assert "total,468986,69124736," in out


def test_train_writes_curve_and_weights(toy_setup, capsys):
    cfg, out = toy_setup
    assert main(["train", str(cfg)]) == 0
    curve = (out / "curve.csv").read_text()
    lines = curve.strip().splitlines()
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 3  # header plus one row per epoch
    assert (out / "weights.bin").exists()
    assert "wrote" in capsys.readouterr().out


def test_eval_matches_final_training_row(toy_setup, capsys):
    cfg, out = toy_setup
    assert main(["train", str(cfg)]) == 0
    capsys.readouterr()
    last = (out / "curve.csv").read_text().strip().splitlines()[-1]
    _, _, _, test_loss, test_err, _, _ = last.split(",")
    assert main(["eval", str(cfg), str(out / "weights.bin")]) == 0
    msg = capsys.readouterr().out
    assert f"test_loss={test_loss}" in msg
    assert f"test_err={test_err}" in msg


def test_train_seed_override_changes_init(toy_setup, capsys):
    cfg, out = toy_setup
    assert main(["train", str(cfg), "--out", str(out / "a")]) == 0
    assert main(["train", str(cfg), "--out", str(out / "b"), "--seed", "2"]) == 0
    a = (out / "a" / "curve.csv").read_text()
    b = (out / "b" / "curve.csv").read_text()
    assert a != b


def test_float32_training_runs(toy_setup):
    cfg, out = toy_setup
    assert main(["train", str(cfg), "--precision", "32"]) == 0
    assert (out / "curve.csv").exists()


def test_missing_config_exits_nonzero(capsys):
    assert main(["train", "/nonexistent/path.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_error_names_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("network.preset = resnet20\nmsar.scales = 1,0\n")
    assert main(["analyze", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_data_leaves_no_partial_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(TOY_LINES + [
        f"data.train_path = {tmp_path / 'absent.bin'}",
        f"data.test_path = {tmp_path / 'absent.bin'}",
        f"run.out = {out}",
    ]) + "\n")
    assert main(["train", str(cfg)]) == 1
    assert "not found" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["data.train_path", "data.test_path"])
def test_missing_data_path_names_its_key(toy_setup, key, capsys):
    # the diagnostic names the config key, as the config file spells it
    cfg, out = toy_setup
    lines = [line for line in cfg.read_text().splitlines() if not line.startswith(key)]
    cfg.write_text("\n".join(lines) + "\n")
    for argv in (["train", str(cfg)], ["eval", str(cfg), str(out / "weights.bin")]):
        assert main(argv) == 1
        assert f"error: {key} is not set in the config" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_is_one_line(toy_setup, monkeypatch, capsys):
    # an oversized net (say network.stages = 100000:1:1) runs out of memory
    # in build_network; the command says so in one line and writes nothing
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 671. GiB for an array")

    monkeypatch.setattr("msar.cli.build_network", exhausted)
    cfg, out = toy_setup
    for argv in (["train", str(cfg)], ["eval", str(cfg), str(out / "weights.bin")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert not out.exists()


def test_one_blas_thread_training_repeats_bitwise(tmp_path):
    # criterion 8's config, each run in its own process with one BLAS thread
    train_bin, test_bin = tmp_path / "train.bin", tmp_path / "test.bin"
    write_synthetic(str(train_bin), per_class=50, classes=(0, 1), seed=23)
    write_synthetic(str(test_bin), per_class=10, classes=(0, 1), seed=24)
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text("\n".join([
        "network.stages = 8:1:2,16:1:2",
        "network.stem_width = 8",
        "network.classes = 2",
        "msar.enabled = on",
        "optimizer.drops =",
        f"data.train_path = {train_bin}",
        f"data.test_path = {test_bin}",
        "run.epochs = 3",
        "run.batch_size = 20",
        "run.precision = 64",
        "run.log_timing = off",
    ]) + "\n")
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "OPENBLAS_NUM_THREADS": "1"}
    for run in ("a", "b"):
        proc = subprocess.run([sys.executable, "-m", "msar.cli", "train", str(cfg),
                               "--out", str(tmp_path / run)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    for artifact in ("curve.csv", "weights.bin"):
        a = (tmp_path / "a" / artifact).read_bytes()
        assert a == (tmp_path / "b" / artifact).read_bytes(), artifact


def test_class_count_mismatch_diagnostic(tmp_path, capsys):
    train_bin = tmp_path / "t.bin"
    write_synthetic(str(train_bin), per_class=2, classes=(0, 1), seed=1)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join([
        "network.stages = 4:1:2",
        "network.classes = 5",
        "data.classes = 0,1",
        f"data.train_path = {train_bin}",
        f"data.test_path = {train_bin}",
        f"run.out = {tmp_path / 'run'}",
    ]) + "\n")
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "2 classes" in err and "5 outputs" in err


@pytest.mark.parametrize("msar", ["on", "off"])
def test_input_size_the_records_cannot_have_is_rejected(toy_setup, msar, capsys):
    # records are 32x32: a 64 network fails before building, with or
    # without recalibration sites, and writes nothing
    cfg, out = toy_setup
    lines = cfg.read_text().replace("msar.enabled = on", f"msar.enabled = {msar}")
    cfg.write_text(lines + "network.input_size = 64\n")
    for argv in (["train", str(cfg)], ["eval", str(cfg), str(out / "weights.bin")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "network.input_size" in err and "64" in err and "32x32" in err
    assert not out.exists()


def test_analyze_only_presets_analyze_but_do_not_train(tmp_path, capsys):
    # a 224 preset prices its maps, but no record file holds 224x224 images
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "resnet18_ilsvrc.cfg")
    assert main(["analyze", cfg]) == 0
    assert capsys.readouterr().out.startswith("network: resnet18\n")
    assert main(["train", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "224" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_data_classes_without_records_diagnostic(tmp_path, capsys):
    train_bin = tmp_path / "t.bin"
    write_synthetic(str(train_bin), per_class=2, classes=(0, 1), seed=1)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join([
        "network.stages = 4:1:2",
        "network.classes = 2",
        "data.classes = 5,6",
        f"data.train_path = {train_bin}",
        f"data.test_path = {train_bin}",
        f"run.out = {tmp_path / 'run'}",
    ]) + "\n")
    assert main(["train", str(cfg)]) == 1
    assert f"{train_bin}: no records of class 5" in capsys.readouterr().err


def test_data_root_env_var(tmp_path, toy_setup, monkeypatch, capsys):
    train_bin = tmp_path / "root" / "train.bin"
    os.makedirs(train_bin.parent, exist_ok=True)
    write_synthetic(str(train_bin), per_class=3, classes=(0, 1), seed=2)
    cfg = tmp_path / "env.cfg"
    cfg.write_text("\n".join([
        "network.stages = 4:1:2",
        "network.classes = 2",
        "data.train_path = train.bin",
        "data.test_path = train.bin",
        "run.epochs = 1",
        "run.batch_size = 3",
        "run.log_timing = off",
        f"run.out = {tmp_path / 'envrun'}",
    ]) + "\n")
    monkeypatch.setenv("MSAR_DATA_ROOT", str(train_bin.parent))
    assert main(["train", str(cfg)]) == 0
    monkeypatch.delenv("MSAR_DATA_ROOT")
    assert main(["eval", str(cfg), str(tmp_path / "envrun" / "weights.bin")]) == 1
    assert "train.bin" in capsys.readouterr().err


def test_gradcheck_all_rows_ok(capsys):
    assert main(["gradcheck", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("operator")
    body = lines[1:]
    assert len(body) == 21
    assert all(line.endswith("ok") for line in body)
    assert any("conv2d" in line for line in body)
    assert any("multi_scale_recalibration" in line for line in body)


def test_gradcheck_has_a_row_for_every_taped_op():
    # every public op in msar.tensor and msar.pooling that records a tape
    # entry is finite-differenced by `msar gradcheck` (criterion 5)
    rows = {name.split("[")[0] for name, _, _ in
            _gradcheck_rows(ExperimentConfig(), np.random.default_rng(0))}
    taped = {name for module in (msar.tensor, msar.pooling)
             for name, fn in inspect.getmembers(module, inspect.isfunction)
             if fn.__module__ == module.__name__ and not name.startswith("_")
             and "_emit(" in inspect.getsource(fn)}
    assert {"conv2d", "gate", "regional_pool"} <= taped
    assert taped - rows == set()


def _held_tensors(obj, found, seen):
    """Collect into found every Tensor obj holds through closure cells and
    default arguments, recursing into nested functions, lists and tuples."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        found[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _held_tensors(item, found, seen)
    elif inspect.isfunction(obj):
        held = list(obj.__defaults__ or ()) + list((obj.__kwdefaults__ or {}).values())
        for cell in obj.__closure__ or ():
            try:
                held.append(cell.cell_contents)
            except ValueError:  # a cell not yet assigned
                pass
        for item in held:
            _held_tensors(item, found, seen)


def test_gradcheck_rows_list_exactly_what_their_ops_differentiate():
    # a tensor an op reads but its row does not list is never perturbed,
    # and a listed leaf no backward closure holds gets no gradient
    for name, fn, leaves in _gradcheck_rows(ExperimentConfig(), np.random.default_rng(0)):
        with Tape() as tape:
            fn()
        outputs = {id(out) for _, out, _ in tape._entries}
        found, seen = {}, set()
        for _, _, backward_fn in tape._entries:
            _held_tensors(backward_fn, found, seen)
        held = {i for i in found if i not in outputs}
        listed = {id(t) for t in leaves}
        assert held == listed, (f"{name}: {len(held - listed)} held but not listed, "
                                f"{len(listed - held)} listed but not held")


def test_gradcheck_honors_config_scales(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("msar.scales = 1\nmsar.strategy = sliding\n")
    assert main(["gradcheck", str(cfg)]) == 0
    assert "multi_scale_recalibration" in capsys.readouterr().out
