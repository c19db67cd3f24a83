"""Federated prompt tuning of a frozen transformer, at desk scale.

A deterministic simulator and supporting library: a tape that threads
one gradient back through hand-derived backward maps, a frozen
transformer backbone with trainable prompt slots, prototype-guided
per-sample prompt mixing, synthetic non-iid data partitioners, the
federated training loop, and evaluation / accounting utilities.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, TrainConfig, load_config
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
    heldout_split,
)
from .federation import (
    ClientState,
    RoundLog,
    ServerState,
    build_clients,
    evaluate_state,
    fedavg_aggregate,
    init_server,
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
    embed_patches,
    forward_shard,
    forward_with_prompts,
    gradient_check,
    init_backbone,
)
from .prototypes import (
    PrototypeBank,
    add_laplace_noise,
    aggregate_submissions,
    compute_class_priors,
    laplace_sensitivity,
    local_prototypes,
    momentum_update,
)
from .tensor import Tape, Tensor, cross_entropy, finite_diff_grad

__all__ = [
    "BackboneWeights", "ClientState", "CommReport", "ConfigError",
    "DataError", "Dataset", "EvalReport", "ExperimentConfig", "ModelConfig",
    "Partition", "PromptParams", "PrototypeBank", "RoundLog", "ServerState",
    "SyntheticSpec", "Tape", "Tensor", "TrainingError", "TrainConfig",
    "__version__", "add_laplace_noise", "aggregate_submissions",
    "build_clients", "comm_accounting", "compute_class_priors",
    "cross_entropy", "embed_patches", "evaluate_clients", "evaluate_state",
    "fedavg_aggregate", "finite_diff_grad", "forward_shard",
    "forward_with_prompts", "generate_synthetic", "gradient_check",
    "heldout_split", "init_backbone", "init_server", "laplace_sensitivity",
    "load_config", "local_prototypes", "local_train", "momentum_update",
    "partition_dirichlet", "partition_pathological", "run_round",
    "run_training", "sample_clients", "warm_startup",
]
