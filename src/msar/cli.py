"""Command-line entry point: train, eval, analyze, and gradcheck.

Every command takes a config file in the flat `section.key = value`
format.  Failures print a one-line reason to stderr and exit nonzero
without leaving partial CSV logs behind.  Relative data paths resolve
against the MSAR_DATA_ROOT environment variable when it is set.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .blocks import build_network
from .config import (PRECISIONS, ExperimentConfig, parse_config, to_network_spec,
                     train_settings)
from .costs import report
from .data import IMAGE_SHAPE, channel_stats, load_records, normalize
# criterion 5 and the CLI tests read the operator table under this name
from .gradcheck import TOLERANCE, check_gradients, operator_rows as _gradcheck_rows
from .training import TrainingDiverged, evaluate, train, write_curve
from .weights import load_weights, save_weights

DATA_ROOT_VAR = "MSAR_DATA_ROOT"


def _read_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    if args.seed is not None:
        cfg.run_seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.run_out = args.out
    if getattr(args, "precision", None) is not None:
        cfg.run_precision = args.precision


def _dtype(cfg: ExperimentConfig):
    return np.float64 if cfg.run_precision == 64 else np.float32


def _resolve_path(path: str, key: str) -> str:
    if not path:
        raise ValueError(f"{key} is not set in the config")
    if os.path.isabs(path) or os.path.exists(path):
        return path
    root = os.environ.get(DATA_ROOT_VAR, "")
    if root:
        return os.path.join(root, path)
    return path


def _load_split(cfg: ExperimentConfig, key: str):
    path = _resolve_path(getattr(cfg, key), key.replace("_", ".", 1))
    classes = cfg.data_classes if cfg.data_classes else None
    images, labels = load_records(path, cfg.data_format, classes=classes,
                                  limit=cfg.data_limit)
    return images, labels


def _check_labels(cfg: ExperimentConfig, labels: np.ndarray) -> None:
    if cfg.data_classes and len(cfg.data_classes) != cfg.network_classes:
        raise ValueError(
            f"data.classes selects {len(cfg.data_classes)} classes but the "
            f"network has {cfg.network_classes} outputs")
    top = int(labels.max(initial=0))
    if top >= cfg.network_classes:
        raise ValueError(
            f"label {top} is outside the {cfg.network_classes}-class network")


def _check_input_size(spec) -> None:
    if spec.input_size != IMAGE_SHAPE[-1]:
        raise ValueError(f"network.input_size (or its preset) is {spec.input_size}, but "
                         f"the records hold {IMAGE_SHAPE[-1]}x{IMAGE_SHAPE[-1]} images")


def cmd_train(args) -> int:
    cfg = _read_config(args.config)
    _apply_overrides(cfg, args)
    spec = to_network_spec(cfg)
    _check_input_size(spec)
    settings = train_settings(cfg)
    dtype = _dtype(cfg)

    train_images, train_labels = _load_split(cfg, "data_train_path")
    test_images, test_labels = _load_split(cfg, "data_test_path")
    _check_labels(cfg, train_labels)
    _check_labels(cfg, test_labels)

    mean, std = channel_stats(train_images)
    train_x = normalize(train_images, mean, std, dtype)
    test_x = normalize(test_images, mean, std, dtype)

    network = build_network(spec, seed=cfg.run_seed, dtype=dtype)
    rows = train(network, train_x, train_labels, test_x, test_labels, settings)

    # all artifacts are written only after training fully succeeds
    os.makedirs(cfg.run_out, exist_ok=True)
    curve_path = os.path.join(cfg.run_out, "curve.csv")
    weight_path = os.path.join(cfg.run_out, "weights.bin")
    write_curve(rows, curve_path)
    save_weights(weight_path, network)

    last = rows[-1]
    print(f"{spec.name}: epoch {last['epoch']} "
          f"train_err={last['train_err']:.4f} test_err={last['test_err']:.4f}")
    print(f"wrote {curve_path} and {weight_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _read_config(args.config)
    _apply_overrides(cfg, args)
    spec = to_network_spec(cfg)
    _check_input_size(spec)
    dtype = _dtype(cfg)

    # normalization statistics come from the training split by contract
    train_images, _ = _load_split(cfg, "data_train_path")
    test_images, test_labels = _load_split(cfg, "data_test_path")
    _check_labels(cfg, test_labels)
    mean, std = channel_stats(train_images)
    test_x = normalize(test_images, mean, std, dtype)

    network = build_network(spec, seed=cfg.run_seed, dtype=dtype)
    load_weights(args.weights, network, strict=True)
    loss, err = evaluate(network, test_x, test_labels,
                         batch_size=cfg.run_batch_size)
    print(f"{spec.name}: test_loss={loss!r} test_err={err!r}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _read_config(args.config)
    _apply_overrides(cfg, args)
    rep = report(to_network_spec(cfg))
    sys.stdout.write(rep.render_csv() if args.csv else rep.render_text())
    return 0


def cmd_gradcheck(args) -> int:
    cfg = ExperimentConfig()
    if args.config:
        cfg = _read_config(args.config)
    _apply_overrides(cfg, args)
    rng = np.random.default_rng(cfg.run_seed)

    failures = 0
    print(f"{'operator':<32} {'max rel err':>12}   status")
    for name, fn, leaves in _gradcheck_rows(cfg, rng):
        err = check_gradients(fn, leaves, rng)
        ok = err < TOLERANCE
        failures += 0 if ok else 1
        print(f"{name:<32} {err:>12.3e}   {'ok' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} operator(s) above tolerance {TOLERANCE:g}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msar",
        description="Train and analyze networks with multi-scale "
                    "spatially-asymmetric recalibration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--seed", type=int, default=None, metavar="N",
                       help="override run.seed")
        if out:
            p.add_argument("--out", default=None, metavar="DIR",
                           help="override run.out")
        p.add_argument("--precision", type=int, choices=PRECISIONS, default=None,
                       help="override run.precision")

    p = sub.add_parser("train", help="train a network and write curve + weights")
    p.add_argument("config")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on the test split")
    p.add_argument("config")
    p.add_argument("weights")
    common(p, out=False)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("analyze", help="print the parameter/multiply table")
    p.add_argument("config")
    p.add_argument("--csv", action="store_true",
                   help="emit machine-readable CSV instead of text")
    common(p, out=False)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every operator")
    p.add_argument("config", nargs="?", default="")
    common(p, out=False)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
