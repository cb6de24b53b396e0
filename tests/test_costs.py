"""Analytic cost model: hand-counted layers, goldens, and built-net cross-checks."""

from fractions import Fraction

import numpy as np
import pytest

from msar.blocks import (MsarSettings, NetworkSpec, StageSpec, build_network,
                         densenet_cifar, resnet_cifar, resnet_ilsvrc,
                         resnext50_ilsvrc)
from msar.costs import conv_cost, msar_cost, report
from msar.pooling import CoordinateSetSpec

MSAR = MsarSettings(scales=(1, 2, 4), strategy="regional")


def test_conv_cost_hand_counted():
    # 1x1 conv, 4 -> 8 channels on a 10x10 output map
    params, flops = conv_cost(1, 4, 8, 10, 10)
    assert params == 32
    assert flops == 3200
    # 3x3 same-width conv
    params, flops = conv_cost(3, 16, 16, 32, 32)
    assert params == 9 * 16 * 16
    assert flops == params * 32 * 32
    # grouped convolution divides the fan-in
    params, flops = conv_cost(3, 8, 8, 4, 4, groups=4)
    assert params == 9 * 2 * 8
    with pytest.raises(ValueError):
        conv_cost(3, 8, 6, 4, 4, groups=4)  # 6 not divisible by 4


def test_msar_cost_formula():
    specs = (CoordinateSetSpec("regional", 1, 8, 8),
             CoordinateSetSpec("regional", 2, 8, 8))
    cost = msar_cost(16, 16, 2, specs)
    # two scales of 2*(16+16) transform weights plus 4 per normalized feature
    assert cost.params_transform == 2 * 2 * (16 + 16)
    assert cost.params_norm == 2 * 4 * (2 + 16)
    assert cost.flops_pool == 64 * 16
    assert cost.flops_transform == (1 + 4) * 2 * (16 + 16)
    assert cost.params == cost.params_transform + cost.params_norm
    assert cost.flops == cost.flops_pool + cost.flops_transform


def test_transform_params_independent_of_scale_count():
    # reduced width D/(4L) cancels L in the transform term when 4L divides D
    for scales in ((1,), (1, 2), (1, 2, 4)):
        L = len(scales)
        specs = tuple(CoordinateSetSpec("regional", k, 16, 16) for k in scales)
        cost = msar_cost(24, 24, 24 // (4 * L), specs)
        assert cost.params_transform == 2 * 24 * 24 // 4


def test_regional_cheaper_than_sliding():
    reg = tuple(CoordinateSetSpec("regional", k, 16, 16) for k in (1, 2, 4))
    sli = tuple(CoordinateSetSpec("sliding", k, 16, 16) for k in (1, 2, 4))
    assert msar_cost(32, 32, 2, reg).flops < msar_cost(32, 32, 2, sli).flops


GOLDEN = [
    (resnet_cifar(20), 273_658, 40_813_184),
    (resnet_cifar(20, msar=MSAR), 285_178, 40_949_600),
    (resnet_cifar(32), 468_986, 69_124_736),
    (resnet_cifar(32, msar=MSAR), 488_186, 69_352_096),
    (resnet_cifar(56), 859_642, 125_747_840),
    (resnet_cifar(56, msar=MSAR), 894_202, 126_157_088),
    (densenet_cifar(100, 12), 793_150, 252_521_820),
    (densenet_cifar(100, 12, msar=MSAR), 972_862, 256_631_772),
]


@pytest.mark.parametrize("spec,params,flops", GOLDEN,
                         ids=[s.name for s, _, _ in GOLDEN])
def test_reference_totals_exact(spec, params, flops):
    rep = report(spec)
    assert rep.total_params == params
    assert rep.total_flops == flops


def test_ilsvrc_depth18_flops():
    rep = report(resnet_ilsvrc(18))
    assert rep.total_flops == 1_814_073_344
    assert rep.total_params == 11_695_528


def test_resnext50_builds_a_report():
    rep = report(resnext50_ilsvrc())
    assert rep.total_params == 25_081_768
    assert rep.total_flops == 3_768_057_856


def test_totals_are_row_sums():
    rep = report(resnet_cifar(20, msar=MSAR))
    assert rep.total_params == sum(r.params for r in rep.rows)
    assert rep.total_flops == sum(r.flops for r in rep.rows)
    assert rep.recal_params == sum(r.params for r in rep.rows if r.is_recal)


def test_overheads_are_exact_fractions():
    rep = report(resnet_cifar(20, msar=MSAR))
    base_params = rep.total_params - rep.recal_params
    assert rep.param_overhead() == Fraction(rep.recal_params, base_params)
    assert isinstance(rep.flop_overhead(), Fraction)
    assert rep.flop_overhead() < Fraction(1, 100)


def test_zero_stage_spec_costs_classifier_only():
    spec = NetworkSpec(name="classifier", family="residual", input_size=8,
                       classes=5, stem_width=4, stages=())
    rep = report(spec)
    names = [r.name for r in rep.rows]
    assert names == ["stem.conv", "stem.norm", "head.fc"]


def test_render_forms():
    rep = report(resnet_cifar(20, msar=MSAR))
    text = rep.render_text()
    assert text.endswith("\n")
    assert "recalibration" in text
    assert " *" in text
    csv = rep.render_csv()
    header, *rows = csv.strip().splitlines()
    assert header == "layer,params,flops,recalibration"
    assert rows[-1].startswith("total,")
    assert all(len(r.split(",")) == 4 for r in rows)


BUILDABLE = [
    resnet_cifar(20),
    resnet_cifar(20, msar=MSAR),
    densenet_cifar(22, growth=6),
    densenet_cifar(22, growth=6, msar=MsarSettings(scales=(1, 2))),
    densenet_cifar(22, growth=6,
                   msar=MsarSettings(scales=(1, 2), stage_mode="single")),
    resnet_ilsvrc(18, classes=10),
    NetworkSpec(name="plain", family="plain", input_size=16, classes=4,
                stem_width=4, stages=(StageSpec(8, 2, 2),)),
]


@pytest.mark.parametrize("spec", BUILDABLE, ids=[s.name for s in BUILDABLE])
def test_cost_params_match_built_network(spec):
    # the analytic count must equal the trainable + running array total,
    # and the rows must name the built leaf modules in forward order
    net = build_network(spec, seed=0)
    rep = report(spec)
    assert rep.total_params == net.parameter_count()
    leaves = [leaf.name for block in net.blocks for leaf in block.leaves]
    assert [r.name for r in rep.rows] == leaves


def test_msar_flop_overhead_under_one_percent_all_depths():
    for depth in (20, 32, 44, 56, 110):
        rep = report(resnet_cifar(depth, msar=MSAR))
        assert rep.flop_overhead() < Fraction(1, 100)
