"""Federated prompt tuning of a frozen transformer, at desk scale.

A deterministic simulator and supporting library: a tape that threads
one gradient back through hand-derived backward maps, a frozen
transformer backbone with trainable prompt slots, prototype-guided
per-sample prompt mixing, synthetic non-iid data partitioners, the
federated training loop, and evaluation / accounting utilities.
"""

__version__ = "0.1.0"

from .config import load_config
from .federation import init_server, run_training
