"""The recalibration operator, from gates to the classic channel case.

Run with:  python3 demos/recalibration_tour.py

A recalibration site pools its feature map over coordinate sets, sends
every pooled vector through a two-layer bottleneck ending in a logistic,
and multiplies the resulting gate map back into the features.  Several
scales run side by side and their gate maps are averaged.
"""

import numpy as np

from msar import (MultiScaleConfig, MultiScaleRecalibration, RecalibrationParams,
                  Tensor, regional_pool, se_reference)
from msar.recalibrate import _bottleneck

rng = np.random.default_rng(7)


def paint(v, k, side=8):
    """(N*K*K, D) cell rows -> (N, D, side, side), each repeated over its cell."""
    cells = v.reshape(-1, k, k, v.shape[1]).transpose(0, 3, 1, 2)
    return cells.repeat(side // k, axis=2).repeat(side // k, axis=3)


print("== single regional scale on an 8x8 map ==")
site = MultiScaleRecalibration("site", MultiScaleConfig(scales=(2,)),
                               d_in=6, d_out=6, width=8, height=8,
                               reduced=3, rng=rng)
x = Tensor(rng.standard_normal((1, 6, 8, 8)))
out = site.forward(x, training=False)
gates = out.data / x.data
print(f"input shape {x.shape} -> output shape {out.shape}")
print(f"gates lie strictly inside (0, 1): min {gates.min():.3f}, max {gates.max():.3f}")
cell = gates[0, 0, :4, :4]
print(f"K=2 regional gates are constant inside each cell: top-left cell "
      f"spread = {cell.max() - cell.min():.1e} (rounding from the division)")

print()
print("== multiple scales average their gate maps ==")
multi = MultiScaleRecalibration("multi", MultiScaleConfig(scales=(1, 2, 4)),
                                d_in=6, d_out=6, width=8, height=8,
                                reduced=3, rng=rng)
# one pass pools every scale and applies its bottleneck's first map
rows = regional_pool(x, [s.spec for s in multi.scales], [s.params.w1 for s in multi.scales])
per_scale = [paint(_bottleneck(z, s.params, training=False).data, s.spec.k)
             for s, z in zip(multi.scales, rows)]
mean_map = sum(per_scale) / len(per_scale)
combined = multi.forward(x, training=False)
print(f"scales (1, 2, 4): max |combined - x * mean(per-scale maps)| = "
      f"{np.abs(combined.data - x.data * mean_map).max():.1e}")

print()
print("== one scale, one cell: the classic channel gate falls out ==")
seed = 42
module = MultiScaleRecalibration("se", MultiScaleConfig(scales=(1,)),
                                 d_in=6, d_out=6, width=8, height=8,
                                 reduced=3, rng=np.random.default_rng(seed))
params = RecalibrationParams(6, 6, 3, np.random.default_rng(seed))
ours = module.forward(x, training=False)
ref = se_reference(x, params, training=False)
print(f"K=1 regional recalibration vs direct squeeze-and-excitation: "
      f"bitwise equal = {bool((ours.data == ref.data).all())}")
print("global average pooling, bottleneck, sigmoid, channel-wise multiply:")
print("the general operator contains the channel-attention special case exactly")
