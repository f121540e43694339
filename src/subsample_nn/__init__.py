"""CPU training engine for MLPs with exact or sampling-approximated products."""

from .analysis import (ConfusionMatrix, LayerErrorProfile, RunCounts, TrainReport,
                       build_theorem1_network, confusion, label_concentration,
                       lemma1_error, theorem1_check)
from .alsh import (AlshIndex, AlshParams, build_index,
                   collision_probability, query_active, rebuild_index,
                   rebuild_schedule, transform_data, transform_query)
from .data import Dataset, Split, load_idx, split, synth_blobs, synth_digits, write_idx
from .errors import (DegenerateInputError, DimensionError, FormatError,
                     NormBoundError, NumericError, ParameterError, SubsampleNNError)
from .linalg import FLOPS, col_norms, matmul, row_norms, stream
from .mc import (SamplePlan, approx_matmul_bernoulli, approx_matmul_cr,
                 bernoulli_error, optimal_probs_bernoulli, optimal_probs_cr)
from .nn import (ForwardTrace, Gradients, MlpModel, Optimizer, backward, forward,
                 init_weights, load_checkpoint, nll_loss, save_checkpoint, step)
from .policies import (AdaptiveDropoutPolicy, AlshPolicy, ComputePolicy,
                       DropoutPolicy, McBackpropPolicy, adaptive_keep_probs, make_policy)
from .train import evaluate_accuracy, train

__version__ = "0.1.0"
