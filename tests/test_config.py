"""Flat config format: parsing, diagnostics, round-trips, resolution."""

import glob
import os
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msar.blocks import MsarSettings, build_network
from msar.config import (SCHEMA, ExperimentConfig, parse_config, serialize_config,
                         msar_settings, to_network_spec, train_settings)
from msar.costs import report


def test_defaults_from_empty_text():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.optimizer_momentum == 0.9
    assert cfg.optimizer_weight_decay == 1e-4
    assert cfg.optimizer_drops == (80, 120)
    assert cfg.run_precision == 64
    assert cfg.msar_scales == (1, 2, 4)
    assert not cfg.msar_enabled


def test_schema_keys_are_config_fields_in_order():
    assert [key.replace(".", "_") for key in SCHEMA] == \
        [f.name for f in fields(ExperimentConfig)]


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n# a comment\n  \nrun.seed = 9\n")
    assert cfg.run_seed == 9


def test_scales_parse_and_reject_zero():
    cfg = parse_config("msar.scales = 1,2,8\n")
    assert cfg.msar_scales == (1, 2, 8)
    with pytest.raises(ValueError, match="line 1"):
        parse_config("msar.scales = 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_config("run.seed = 1\nrun.epochs = 5\nmsar.scales = 2,2\n")


def test_stages_reject_bad_width_and_stride():
    with pytest.raises(ValueError, match="line 1.*width=0"):
        parse_config("network.stages = 0:3:1\n")
    with pytest.raises(ValueError, match="line 2.*stride"):
        parse_config("run.seed = 1\nnetwork.stages = 16:3:3\n")


def test_duplicate_data_classes_carry_line_number():
    assert parse_config("data.classes = 3,1\n").data_classes == (3, 1)
    with pytest.raises(ValueError, match="line 2.*class 1 is selected more than once"):
        parse_config("network.classes = 2\ndata.classes = 1,1\n")


def test_unknown_and_malformed_keys_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2.*unknown key"):
        parse_config("run.seed = 1\nnetwork.depht = 20\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config("just some words\n")
    with pytest.raises(ValueError, match="line 2.*duplicate"):
        parse_config("run.seed = 1\nrun.seed = 2\n")


def test_type_errors_are_line_precise():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("run.epochs = many\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config("msar.enabled = yes\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config("network.stages = 16:3\n")


def test_roundtrip_is_identity():
    text = ("network.preset = resnet32\nmsar.enabled = on\n"
            "msar.strategy = sliding\noptimizer.lr = 0.05\n"
            "data.train_path = /data/train.bin\nrun.log_timing = off\n")
    cfg = parse_config(text)
    canon = serialize_config(cfg)
    again = parse_config(canon)
    assert again == cfg
    assert serialize_config(again) == canon


def test_every_preset_resolves():
    for preset, family in [("resnet20", "residual"), ("resnet110", "residual"),
                           ("densenet100", "dense"),
                           ("resnet18-ilsvrc", "residual"),
                           ("resnet34-ilsvrc", "residual"),
                           ("resnext50-ilsvrc", "grouped")]:
        cfg = parse_config(f"network.preset = {preset}\n")
        spec = to_network_spec(cfg)
        assert spec.family == family


def test_preset_with_recalibration_tags_name():
    cfg = parse_config("network.preset = resnet56\nmsar.enabled = on\n")
    spec = to_network_spec(cfg)
    assert spec.name == "resnet56-msar"
    assert spec.msar == MsarSettings(scales=(1, 2, 4), strategy="regional")


def test_depth_shorthand():
    cfg = parse_config("network.kind = dense\nnetwork.depth = 40\n"
                       "network.growth = 24\n")
    spec = to_network_spec(cfg)
    assert spec.family == "dense"
    assert spec.growth == 24
    assert spec.stem_width == 48


def test_custom_stages():
    cfg = parse_config("network.stages = 8:1:1,16:2:2\nnetwork.classes = 2\n")
    spec = to_network_spec(cfg)
    assert [(s.width, s.blocks, s.stride) for s in spec.stages] == [(8, 1, 1), (16, 2, 2)]
    assert spec.stem_width == 8  # defaults to the first stage width


def test_network_requires_some_shape():
    with pytest.raises(ValueError, match="preset"):
        to_network_spec(parse_config(""))


def test_msar_settings_resolution():
    assert msar_settings(parse_config("")) is None
    cfg = parse_config("msar.enabled = on\nmsar.scales = 2\n"
                       "msar.stage_mode = single\n")
    got = msar_settings(cfg)
    assert got == MsarSettings(scales=(2,), strategy="regional",
                               stage_mode="single")


def test_train_settings_resolution():
    cfg = parse_config("optimizer.lr = 0.2\noptimizer.drops = 10,20\n"
                       "run.epochs = 25\nrun.batch_size = 64\nrun.seed = 3\n")
    ts = train_settings(cfg)
    assert ts.lr == 0.2
    assert ts.drops == (10, 20)
    assert ts.epochs == 25
    assert ts.batch_size == 64
    assert ts.seed == 3
    assert ts.momentum == 0.9


def test_float_values_survive_roundtrip_exactly():
    cfg = parse_config("optimizer.lr = 0.30000000000000004\n")
    text = serialize_config(cfg)
    assert parse_config(text).optimizer_lr == cfg.optimizer_lr


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["optimizer.lr", "optimizer.momentum",
                                 "optimizer.weight_decay"])
def test_float_keys_reject_non_finite_values(key, value):
    # nan passes every <= / < comparison, and a nan config is not even
    # equal to itself after a round trip
    with pytest.raises(ValueError, match=f"line 2: {key}: .*finite"):
        parse_config(f"run.seed = 1\n{key} = {value}\n")


SHIPPED = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))


def test_configs_are_shipped():
    assert len(SHIPPED) >= 9


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_config_round_trips_prices_and_builds(path):
    with open(path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    assert parse_config(serialize_config(cfg)) == cfg
    spec = to_network_spec(cfg)
    rep = report(spec)
    assert rep.total_params > 0 and rep.total_flops > 0
    if spec.family != "grouped" and spec.input_size == 32:
        assert build_network(spec).parameter_count() == rep.total_params


# -- fuzzing: every text parses or fails with its line number -----------------

_VALUES = st.one_of(
    st.sampled_from(["", "on", "off", "0", "-1", "3", "1,2,4", "1,1", "0,2",
                     "16:3:1", "16:3", "8:1:3", "1e400", "nan", "-inf", "0x10",
                     "1_000", "resnet20", "dense", "sliding", "regional", "64"]),
    st.text(max_size=12))
_LINES = st.one_of(
    st.builds(lambda k, v, sep: f"{k}{sep}{v}", st.sampled_from(sorted(SCHEMA)),
              _VALUES, st.sampled_from([" = ", "=", " =", " ==  "])),
    st.text(max_size=24))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_LINES, max_size=8))
def test_fuzzed_text_parses_or_names_its_line(lines):
    text = "\n".join(lines)
    try:
        cfg = parse_config(text)
    except ValueError as exc:
        found = re.match(r"line (\d+): ", str(exc))
        assert found, str(exc)
        assert 1 <= int(found.group(1)) <= len(text.splitlines())
    else:
        assert isinstance(cfg, ExperimentConfig)
