"""``repro.core`` — the Conditional Graph Neural Process (the paper's
contribution): model, commutative aggregators, decoders, meta-train
(Algorithm 1) and meta-test (Algorithm 2)."""

from .aggregators import (
    AGGREGATORS,
    AttentionAggregator,
    MeanAggregator,
    SumAggregator,
    make_aggregator,
)
from .calibrate import calibrate_threshold, sweep_thresholds
from .decoders import (
    DECODERS,
    Decoder,
    GNNDecoder,
    InnerProductDecoder,
    MLPDecoder,
    make_decoder,
)
from .infer import (QueryPrediction, meta_test_task, predict_memberships,
                    validate_queries, validate_threshold)
from .model import CGNP, CGNPConfig
from .train import (MetaTrainConfig, TrainState, evaluate_loss, meta_train,
                    task_batch_loss, task_loss)

__all__ = [
    "CGNP",
    "CGNPConfig",
    "SumAggregator",
    "MeanAggregator",
    "AttentionAggregator",
    "make_aggregator",
    "AGGREGATORS",
    "Decoder",
    "InnerProductDecoder",
    "MLPDecoder",
    "GNNDecoder",
    "make_decoder",
    "DECODERS",
    "MetaTrainConfig",
    "TrainState",
    "meta_train",
    "task_loss",
    "task_batch_loss",
    "evaluate_loss",
    "QueryPrediction",
    "meta_test_task",
    "predict_memberships",
    "validate_queries",
    "validate_threshold",
    "calibrate_threshold",
    "sweep_thresholds",
]
