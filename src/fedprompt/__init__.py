"""Federated prompt tuning of a frozen transformer, at desk scale.

A deterministic simulator and supporting library: a tape that threads
one gradient back through hand-derived backward maps, a frozen
transformer backbone with trainable prompt slots, prototype-guided
per-sample prompt mixing, synthetic non-iid data partitioners, the
federated training loop, and evaluation / accounting utilities.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    Partition,
    SyntheticSpec,
    generate_synthetic,
    partition_dirichlet,
    partition_pathological,
)
from .errors import ConfigError, DataError, TrainingError
from .evaluation import (
    CommReport,
    EvalReport,
    comm_accounting,
    evaluate_clients,
    flop_estimate,
    heldout_split,
    prompt_mix_overhead,
    prototype_topk_probe,
)
from .federation import (
    ClientState,
    ClientUpdate,
    RoundLog,
    ServerState,
    TrainConfig,
    build_clients,
    fedavg_aggregate,
    local_train,
    run_round,
    run_training,
    sample_clients,
    warm_startup,
)
from .model import (
    BackboneWeights,
    ModelConfig,
    PromptParams,
    forward_shard,
    forward_with_prompts,
    gradient_check,
    init_backbone,
    score_constants,
)
from .prototypes import (
    PrototypeBank,
    add_laplace_noise,
    aggregate_submissions,
    compute_class_priors,
    laplace_sensitivity,
    local_prototypes,
    mix_prompt,
    momentum_update,
    soft_scores,
)
from .tensor import Tape, Tensor, cross_entropy, finite_diff_grad

__all__ = [
    "BackboneWeights", "ClientState", "ClientUpdate", "CommReport",
    "ConfigError", "DataError", "Dataset", "EvalReport", "ModelConfig",
    "Partition", "PromptParams", "PrototypeBank", "RoundLog", "ServerState",
    "SyntheticSpec", "Tape", "Tensor", "TrainingError", "TrainConfig",
    "__version__", "add_laplace_noise", "aggregate_submissions",
    "build_clients", "comm_accounting", "compute_class_priors",
    "cross_entropy", "evaluate_clients", "fedavg_aggregate",
    "finite_diff_grad", "flop_estimate", "forward_shard",
    "forward_with_prompts", "generate_synthetic", "gradient_check",
    "heldout_split", "init_backbone", "laplace_sensitivity",
    "local_prototypes", "local_train", "mix_prompt", "momentum_update",
    "partition_dirichlet", "partition_pathological", "prompt_mix_overhead",
    "prototype_topk_probe", "run_round", "run_training", "sample_clients",
    "score_constants", "soft_scores", "warm_startup",
]
