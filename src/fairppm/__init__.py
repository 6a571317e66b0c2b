"""Fairness-aware outcome prediction on business-process event logs.

Train LSTM outcome classifiers on event-log prefixes under a composite
accuracy/fairness loss ((1-lambda)*BCE + lambda*W1 between group score
distributions), and evaluate group independence with both
threshold-bound (mean/rate gaps) and distribution-level (area between PDF
or CDF curves) metrics.
"""

from .autodiff import Tape, Var
from .encoding import EncodedPrefix, EncoderSpec, PackedDataset, encode, fit_encoder
from .eventlog import (
    BiasSpec,
    Event,
    EventLog,
    EventLogError,
    RawPrefixSample,
    SchemaConfig,
    Trace,
    extract_prefixes,
    generate_synthetic_log,
    label_and_cut,
    parse_event_log,
    split_cases,
    validation_split,
    write_event_log,
)
from .metrics import (
    DensityCurve,
    EvalReport,
    GroupedScores,
    UndefinedMetricError,
    abcc,
    abpc,
    auc,
    delta_dp_b,
    delta_dp_c,
    density_curve,
    ecdf,
    f1_acc_at,
    kde_pdf,
    optimal_threshold,
    trapezoid,
)
from .nn import (
    CompositeLossConfig,
    Hyper,
    ModelParams,
    bce_loss,
    composite_loss,
    forward,
    init_params,
    predict,
)
from .train import (
    Checkpoint,
    SweepPoint,
    TrainConfig,
    evaluate,
    grid_search,
    lambda_sweep,
    pareto_front,
    train_model,
)
from .transport import exact_w1_1d, w1_distance

__version__ = "0.1.0"
