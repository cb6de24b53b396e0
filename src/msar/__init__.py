"""Multi-scale spatially-asymmetric recalibration on a small numpy stack.

The package is self-contained: a taped autodiff tensor engine, integral-
image pooling over coordinate sets, the recalibration operator and its
residual / densely-connected block integrations, an analytic parameter
and FLOP cost model, a desk-scale training harness, and a command-line
front end (train / eval / analyze / gradcheck).
"""

from .tensor import (Tape, Tensor, backward, conv2d, linear,
                     batch_norm, BNState, cross_entropy, global_avg_pool,
                     extend_channels)
from .pooling import (CoordinateSetSpec, build_sat, rect_sum, coordinate_set,
                      region_avg_pool, regional_pool)
from .recalibrate import (RecalibrationParams, MultiScaleConfig, se_reference,
                          ScaleRecalibration, MultiScaleRecalibration)
from .blocks import (NetworkSpec, StageSpec, MsarSettings, build_network,
                     ResidualBlock, DenseStep, Network,
                     resnet_cifar, densenet_cifar, resnet_ilsvrc, resnext50_ilsvrc)
from .costs import conv_cost, msar_cost, report, CostReport
from .data import (load_records, channel_stats, normalize, augment,
                   crop_and_flip, write_synthetic)
from .training import (TrainSettings, TrainingDiverged, NesterovSGD, lr_at,
                       train, evaluate, render_curve, write_curve)
from .weights import save_weights, load_weights
from .config import (ExperimentConfig, parse_config, serialize_config,
                     to_network_spec, train_settings, msar_settings)
from .gradcheck import check_gradients, relative_error

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
