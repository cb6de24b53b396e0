"""Flat experiment configuration: one `section.key = value` pair per line.

Blank lines and `#` comments are allowed.  Every key has a default
except the data paths, unknown keys are rejected, and every diagnostic
carries the offending line number.  parse -> serialize -> parse is the
identity, so configs can be normalized and stored canonically.

Each key is declared once, as an ExperimentConfig field that carries its
default, parser, renderer and check; SCHEMA, the key table the parser
and serializer walk, is derived from those fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .blocks import (FAMILIES, STAGE_MODES, MsarSettings, NetworkSpec,
                     StageSpec, densenet_cifar, resnet_cifar, resnet_ilsvrc,
                     resnext50_ilsvrc)
from .data import FORMATS, _distinct_classes
from .pooling import STRATEGIES
from .recalibrate import MultiScaleConfig
from .training import TrainSettings

PRESETS = ("resnet20", "resnet32", "resnet44", "resnet56", "resnet110",
           "densenet100", "resnet18-ilsvrc", "resnet34-ilsvrc",
           "resnext50-ilsvrc")
PRECISIONS = (32, 64)


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
    # the chained form also rejects nan, which compares false to everything
    if not 0 < v < math.inf:
        raise ValueError(f"must be positive and finite, got {v}")


def _non_negative(v):
    if not 0 <= v < math.inf:
        raise ValueError(f"must be finite and >= 0, got {v}")


def _at_least_two(v):
    if v < 2:
        raise ValueError(f"must be >= 2, got {v}")


def _valid_stages(v):
    for w, b, s in v:
        StageSpec(w, b, s)


def _key(default, parse=str, render=str, check=None):
    """An ExperimentConfig field for one key: default, parser, renderer, check."""
    return field(default=default,
                 metadata={"parse": parse, "render": render, "check": check})


@dataclass
class ExperimentConfig:
    """Typed view of the flat config, one field per key.

    A field's name is its key with the first '.' as '_' (network.stem_width
    is network_stem_width).  The field holds the key's default, parser,
    renderer and check; defaults that are library settings are read from
    TrainSettings and MsarSettings.  Keys serialize in field order.
    """
    network_preset: str = _key("", check=_one_of(("",) + PRESETS))
    network_kind: str = _key("residual", check=_one_of(FAMILIES))
    network_depth: int = _key(0, int, check=_non_negative)
    network_stages: tuple = _key((), _parse_stages, _render_stages, _valid_stages)
    network_stem_width: int = _key(0, int, check=_non_negative)
    network_growth: int = _key(12, int, check=_positive)
    network_classes: int = _key(10, int, check=_at_least_two)
    network_input_size: int = _key(32, int, check=_positive)
    msar_enabled: bool = _key(False, _parse_bool, _render_bool)
    msar_strategy: str = _key(MsarSettings.strategy, check=_one_of(STRATEGIES))
    msar_scales: tuple = _key(MsarSettings.scales, _parse_ints, _render_ints,
                              MultiScaleConfig)
    msar_stage_mode: str = _key(MsarSettings.stage_mode, check=_one_of(STAGE_MODES))
    optimizer_lr: float = _key(TrainSettings.lr, float, repr, _positive)
    optimizer_momentum: float = _key(TrainSettings.momentum, float, repr, _non_negative)
    optimizer_weight_decay: float = _key(TrainSettings.weight_decay, float, repr,
                                         _non_negative)
    optimizer_drops: tuple = _key(TrainSettings.drops, _parse_ints, _render_ints)
    data_format: str = _key("cifar10", check=_one_of(tuple(FORMATS)))
    data_train_path: str = _key("")
    data_test_path: str = _key("")
    data_classes: tuple = _key((), _parse_ints, _render_ints, _distinct_classes)
    data_limit: int = _key(0, int, check=_non_negative)
    run_seed: int = _key(TrainSettings.seed, int, check=_non_negative)
    run_epochs: int = _key(TrainSettings.epochs, int, check=_positive)
    run_batch_size: int = _key(TrainSettings.batch_size, int, check=_positive)
    run_out: str = _key("runs")
    run_precision: int = _key(64, int, check=_one_of(PRECISIONS))
    run_log_timing: bool = _key(TrainSettings.log_timing, _parse_bool, _render_bool)


# "section.key" -> its ExperimentConfig field, in serialization order
SCHEMA = {f.name.replace("_", ".", 1): f for f in fields(ExperimentConfig)}


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
        f = SCHEMA[key]
        try:
            parsed = f.metadata["parse"](value)
            if f.metadata["check"] is not None:
                f.metadata["check"](parsed)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
        setattr(cfg, f.name, parsed)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form covering every key in schema order."""
    lines = []
    section = None
    for key, f in SCHEMA.items():
        this_section = key.split(".", 1)[0]
        if this_section != section:
            if section is not None:
                lines.append("")
            section = this_section
        lines.append(f"{key} = {f.metadata['render'](getattr(cfg, f.name))}".rstrip())
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
