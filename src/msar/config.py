"""Flat experiment configuration: one `section.key = value` pair per line.

Blank lines and `#` comments are allowed.  Every key has a default
except the data paths, unknown keys are rejected, and every diagnostic
carries the offending line number.  parse -> serialize -> parse is the
identity, so configs can be normalized and stored canonically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import (FAMILIES, STAGE_MODES, MsarSettings, NetworkSpec,
                     StageSpec, densenet_cifar, resnet_cifar, resnet_ilsvrc,
                     resnext50_ilsvrc)
from .data import _distinct_classes
from .pooling import STRATEGIES
from .recalibrate import MultiScaleConfig
from .training import TrainSettings

PRESETS = ("resnet20", "resnet32", "resnet44", "resnet56", "resnet110",
           "densenet100", "resnet18-ilsvrc", "resnet34-ilsvrc",
           "resnext50-ilsvrc")


def _parse_bool(v):
    if v == "on":
        return True
    if v == "off":
        return False
    raise ValueError(f"expected on or off, got {v!r}")


def _parse_ints(v):
    if not v:
        return ()
    return tuple(int(part.strip()) for part in v.split(","))


def _parse_stages(v):
    if not v:
        return ()
    out = []
    for part in v.split(","):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ValueError(f"stage {part.strip()!r} is not width:blocks:stride")
        out.append(tuple(int(b) for b in bits))
    return tuple(out)


def _render_bool(v):
    return "on" if v else "off"


def _render_ints(v):
    return ",".join(str(i) for i in v)


def _render_stages(v):
    return ",".join(f"{w}:{b}:{s}" for w, b, s in v)


def _one_of(options):
    def check(v):
        if v not in options:
            shown = ", ".join(str(o) for o in options if o != "")
            raise ValueError(f"expected one of {shown}, got {v!r}")
    return check


def _positive(v):
    if v <= 0:
        raise ValueError(f"must be positive, got {v}")


def _non_negative(v):
    if v < 0:
        raise ValueError(f"must be >= 0, got {v}")


def _at_least_two(v):
    if v < 2:
        raise ValueError(f"must be >= 2, got {v}")


def _valid_stages(v):
    for w, b, s in v:
        StageSpec(w, b, s)


# key -> (parser, renderer, validator or None); defaults live in ExperimentConfig
SCHEMA = {
    "network.preset": (str, str, _one_of(("",) + PRESETS)),
    "network.kind": (str, str, _one_of(FAMILIES)),
    "network.depth": (int, str, _non_negative),
    "network.stages": (_parse_stages, _render_stages, _valid_stages),
    "network.stem_width": (int, str, _non_negative),
    "network.growth": (int, str, _positive),
    "network.classes": (int, str, _at_least_two),
    "network.input_size": (int, str, _positive),
    "msar.enabled": (_parse_bool, _render_bool, None),
    "msar.strategy": (str, str, _one_of(STRATEGIES)),
    "msar.scales": (_parse_ints, _render_ints, MultiScaleConfig),
    "msar.stage_mode": (str, str, _one_of(STAGE_MODES)),
    "optimizer.lr": (float, repr, _positive),
    "optimizer.momentum": (float, repr, _non_negative),
    "optimizer.weight_decay": (float, repr, _non_negative),
    "optimizer.drops": (_parse_ints, _render_ints, None),
    "data.format": (str, str, _one_of(("cifar10", "cifar100"))),
    "data.train_path": (str, str, None),
    "data.test_path": (str, str, None),
    "data.classes": (_parse_ints, _render_ints, _distinct_classes),
    "data.limit": (int, str, _non_negative),
    "run.seed": (int, str, _non_negative),
    "run.epochs": (int, str, _positive),
    "run.batch_size": (int, str, _positive),
    "run.out": (str, str, None),
    "run.precision": (int, str, _one_of((32, 64))),
    "run.log_timing": (_parse_bool, _render_bool, None),
}


def _attr(key: str) -> str:
    return key.replace(".", "_")


@dataclass
class ExperimentConfig:
    """Typed view of the flat config; attribute names replace '.' with '_'."""
    network_preset: str = ""
    network_kind: str = "residual"
    network_depth: int = 0
    network_stages: tuple = ()
    network_stem_width: int = 0
    network_growth: int = 12
    network_classes: int = 10
    network_input_size: int = 32
    msar_enabled: bool = False
    msar_strategy: str = "regional"
    msar_scales: tuple = (1, 2, 4)
    msar_stage_mode: str = "multi"
    optimizer_lr: float = 0.1
    optimizer_momentum: float = 0.9
    optimizer_weight_decay: float = 1e-4
    optimizer_drops: tuple = (80, 120)
    data_format: str = "cifar10"
    data_train_path: str = ""
    data_test_path: str = ""
    data_classes: tuple = ()
    data_limit: int = 0
    run_seed: int = 1
    run_epochs: int = 30
    run_batch_size: int = 128
    run_out: str = "runs"
    run_precision: int = 64
    run_log_timing: bool = True


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented format; diagnostics carry line numbers."""
    cfg = ExperimentConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        if key not in SCHEMA:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        parser, _, validator = SCHEMA[key]
        try:
            parsed = parser(value)
            if validator is not None:
                validator(parsed)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
        setattr(cfg, _attr(key), parsed)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form covering every key in schema order."""
    lines = []
    section = None
    for key, (_, renderer, _) in SCHEMA.items():
        this_section = key.split(".", 1)[0]
        if this_section != section:
            if section is not None:
                lines.append("")
            section = this_section
        lines.append(f"{key} = {renderer(getattr(cfg, _attr(key)))}".rstrip())
    return "\n".join(lines) + "\n"


def msar_settings(cfg: ExperimentConfig) -> MsarSettings | None:
    if not cfg.msar_enabled:
        return None
    return MsarSettings(scales=cfg.msar_scales, strategy=cfg.msar_strategy,
                        stage_mode=cfg.msar_stage_mode)


def to_network_spec(cfg: ExperimentConfig) -> NetworkSpec:
    """Resolve the network section into a NetworkSpec."""
    msar = msar_settings(cfg)
    preset = cfg.network_preset
    if preset:
        if preset == "densenet100":
            return densenet_cifar(100, cfg.network_growth, cfg.network_classes, msar)
        if preset == "resnext50-ilsvrc":
            return resnext50_ilsvrc(cfg.network_classes, msar)
        if preset.endswith("-ilsvrc"):
            return resnet_ilsvrc(int(preset[len("resnet"):-len("-ilsvrc")]),
                                 cfg.network_classes, msar)
        return resnet_cifar(int(preset[len("resnet"):]), cfg.network_classes, msar)
    if cfg.network_depth:
        if cfg.network_kind == "residual":
            return resnet_cifar(cfg.network_depth, cfg.network_classes, msar)
        if cfg.network_kind == "dense":
            return densenet_cifar(cfg.network_depth, cfg.network_growth,
                                  cfg.network_classes, msar)
        raise ValueError(f"network.depth shorthand needs kind residual or dense, "
                         f"got {cfg.network_kind!r}")
    if not cfg.network_stages:
        raise ValueError("network needs a preset, a depth, or explicit stages")
    stages = tuple(StageSpec(w, b, s) for w, b, s in cfg.network_stages)
    if cfg.network_stem_width:
        stem = cfg.network_stem_width
    elif cfg.network_kind == "dense":
        stem = 2 * cfg.network_growth
    else:
        stem = stages[0].width
    return NetworkSpec(
        name=f"custom-{cfg.network_kind}" + ("-msar" if msar else ""),
        family=cfg.network_kind, input_size=cfg.network_input_size,
        classes=cfg.network_classes, stem_width=stem, stages=stages,
        growth=cfg.network_growth, msar=msar)


def train_settings(cfg: ExperimentConfig) -> TrainSettings:
    return TrainSettings(
        epochs=cfg.run_epochs, batch_size=cfg.run_batch_size,
        lr=cfg.optimizer_lr, momentum=cfg.optimizer_momentum,
        weight_decay=cfg.optimizer_weight_decay, drops=cfg.optimizer_drops,
        seed=cfg.run_seed, log_timing=cfg.run_log_timing)
