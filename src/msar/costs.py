"""Analytical parameter and multiply counts for NetworkSpec architectures.

Conventions, applied uniformly:

* one flop = one multiply-accumulate;
* convolutions carry no bias; a convolution costs k*k*c_in*c_out/groups
  parameters and that many multiplies per output position;
* normalization layers hold four per-feature arrays (scale, shift, and
  the two running statistics) and cost no multiplies;
* activations, pooling, upsampling, and elementwise gating cost no
  multiplies;
* the classifier layer has a bias parameter but is charged only for its
  matrix multiplies;
* compression convolutions inside dense-family downsampling transitions
  are charged for parameters but excluded from the multiply budget,
  which covers only feature-producing convolutions and the classifier;
* a recalibration site is charged once per image for pooling (one
  pass over its input map, shared by all scales) and per scale for the
  two bottleneck transforms applied to every pooled vector.  The code
  makes that one pass for the regional scales: pooling.regional_pool
  sums the cells of all of them in a single read of the map.

report() prices the layer plan that build_network instantiates
(blocks.plan and each block class's layers()), one row per leaf module,
so its rows carry the built network's leaf names in forward order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blocks import Layer, MsarSettings, NetworkSpec, plan
from .pooling import CoordinateSetSpec


def conv_cost(k: int, c_in: int, c_out: int, out_h: int, out_w: int,
              groups: int = 1) -> tuple[int, int]:
    """(parameters, multiplies) of one convolution layer."""
    if c_in % groups or c_out % groups:
        raise ValueError(f"channels {c_in}->{c_out} not divisible by {groups} groups")
    params = k * k * (c_in // groups) * c_out
    return params, params * out_h * out_w


@dataclass(frozen=True)
class MsarCost:
    """Extra cost of one recalibration site."""

    params_transform: int   # the two linear maps, summed over scales
    params_norm: int        # normalization state, four entries per feature
    flops_pool: int         # shared pooling pass over the site's input map
    flops_transform: int    # bottleneck multiplies over all pooled vectors

    @property
    def params(self) -> int:
        return self.params_transform + self.params_norm

    @property
    def flops(self) -> int:
        return self.flops_pool + self.flops_transform


def msar_cost(d_in: int, d_out: int, reduced: int,
              specs: tuple[CoordinateSetSpec, ...]) -> MsarCost:
    """Cost of recalibrating a d_out-channel map from d_in-channel context."""
    if not specs:
        raise ValueError("msar_cost: no scales given")
    wh = specs[0].width * specs[0].height
    return MsarCost(
        params_transform=len(specs) * reduced * (d_in + d_out),
        params_norm=len(specs) * 4 * (reduced + d_out),
        flops_pool=wh * d_in,
        flops_transform=sum(s.vector_count * reduced * (d_in + d_out) for s in specs),
    )


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    flops: int
    is_recal: bool = False


@dataclass(frozen=True)
class CostReport:
    network: str
    rows: tuple[CostRow, ...]

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    @property
    def recal_params(self) -> int:
        return sum(r.params for r in self.rows if r.is_recal)

    @property
    def recal_flops(self) -> int:
        return sum(r.flops for r in self.rows if r.is_recal)

    def param_overhead(self) -> Fraction:
        """Recalibration parameters relative to the plain network's."""
        return Fraction(self.recal_params, self.total_params - self.recal_params)

    def flop_overhead(self) -> Fraction:
        return Fraction(self.recal_flops, self.total_flops - self.recal_flops)

    def render_text(self) -> str:
        width = max(len("layer"), max(len(r.name) for r in self.rows))
        lines = [f"network: {self.network}",
                 f"{'layer':<{width}}  {'params':>12}  {'flops':>14}"]
        for r in self.rows:
            mark = " *" if r.is_recal else ""
            lines.append(f"{r.name:<{width}}  {r.params:>12}  {r.flops:>14}{mark}")
        lines.append(f"{'total':<{width}}  {self.total_params:>12}  {self.total_flops:>14}")
        if self.recal_params:
            lines.append(f"{'recalibration':<{width}}  {self.recal_params:>12}  "
                         f"{self.recal_flops:>14}")
            lines.append(f"parameter overhead {float(100 * self.param_overhead()):.2f}%  "
                         f"flop overhead {float(100 * self.flop_overhead()):.3f}%")
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        lines = ["layer,params,flops,recalibration"]
        for r in self.rows:
            lines.append(f"{r.name},{r.params},{r.flops},{int(r.is_recal)}")
        lines.append(f"total,{self.total_params},{self.total_flops},")
        return "\n".join(lines) + "\n"


def _row(layer: Layer, msar: MsarSettings | None) -> CostRow:
    """Price one leaf of the layer plan."""
    if layer.op == "norm":
        return CostRow(layer.name, 4 * layer.c_out, 0)
    if layer.op == "linear":
        macs = layer.c_in * layer.c_out
        return CostRow(layer.name, macs + layer.c_out, macs)
    if layer.op == "recal":
        cost = msar_cost(layer.c_in, layer.c_out, layer.reduced,
                         msar.specs(layer.size, layer.size))
        return CostRow(layer.name, cost.params, cost.flops, is_recal=True)
    params, flops = conv_cost(layer.k, layer.c_in, layer.c_out, layer.size, layer.size,
                              layer.groups)
    return CostRow(layer.name, params, flops if layer.op == "conv" else 0)


def report(spec: NetworkSpec) -> CostReport:
    """Layer-by-layer parameter and multiply budget of an architecture."""
    rows = [_row(layer, spec.msar) for cls, name, geometry in plan(spec)
            for layer in cls.layers(name, *geometry, spec.msar)]
    return CostReport(spec.name, tuple(rows))
