"""Synthetic image datasets and non-iid client partitioners.

Classes are Gaussian clusters in pixel space rendered as small square
images.  Two partitioners reproduce the usual heterogeneity regimes:
a pathological split where every client holds exactly k distinct
classes, and a symmetric Dirichlet split where per-class client
proportions are drawn from Dir(beta).  Both produce disjoint shards
covering the full train and test sets, with matched per-client test
shards.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .seeding import derive_rng


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int
    train_per_class: int
    test_per_class: int
    image_size: int = 16
    separation: float = 1.0
    noise: float = 1.0

    def __post_init__(self):
        for key, ok, rule in (
                ("classes", self.classes >= 1, ">= 1"),
                ("train_per_class", self.train_per_class >= 1, ">= 1"),
                ("test_per_class", self.test_per_class >= 1, ">= 1"),
                ("image_size", self.image_size >= 1, ">= 1"),
                ("separation", self.separation >= 0, ">= 0"),
                ("noise", self.noise >= 0, ">= 0"),
                # far larger pixels overflow the squares of the layer
                # norms, which then zero every image token
                ("separation", self.separation <= 1e100, "<= 1e100"),
                ("noise", self.noise <= 1e100, "<= 1e100")):
            if not ok:
                raise ConfigError(
                    f"data {key} must be {rule}, got {getattr(self, key)}")


# each partition mode and the one `PartitionSpec` field it reads
MODES = {"pathological": "classes_per_client", "dirichlet": "beta"}


@dataclass(frozen=True)
class PartitionSpec:
    """The partitioner and the one parameter it reads (`MODES`): k for
    `pathological`, the Dirichlet beta for `dirichlet`.  The other one
    stays None (`config.UNREAD_KEYS` rejects a config that sets it)."""

    mode: str
    # typed for what a config value must be, so JSON null is rejected
    classes_per_client: int = None
    beta: float = None

    def __post_init__(self):
        if self.mode not in MODES:
            modes = " or ".join(map(repr, MODES))
            raise ConfigError(f"partition.mode must be {modes}, got {self.mode!r}")
        needed = MODES[self.mode]
        value = getattr(self, needed)
        if value is None:
            raise ConfigError(f"missing required field partition.{needed!r}")
        # once clients x beta overflows a double, the Dirichlet draw is all
        # zeros and the split deals almost no sample
        rules = {"classes_per_client": ((value >= 1, ">= 1"),),
                 "beta": ((value > 0, "> 0"), (value <= 1e100, "<= 1e100"))}
        for ok, rule in rules[needed]:
            if not ok:
                raise ConfigError(f"partition {needed} must be {rule}, got {value}")


@dataclass
class Dataset:
    train_x: np.ndarray  # (N, size, size)
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    classes: int


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Gaussian class clusters in pixel space, deterministic per seed."""
    size = spec.image_size
    pixels = size * size
    rng = derive_rng(seed, "data")
    centers = rng.normal(0.0, spec.separation, size=(spec.classes, pixels))

    def draw(per_class):
        xs = [centers[c] + rng.normal(0.0, spec.noise, size=(per_class, pixels))
              for c in range(spec.classes)]
        return (np.concatenate(xs).reshape(-1, size, size),
                np.repeat(np.arange(spec.classes, dtype=np.int64), per_class))

    train_x, train_y = draw(spec.train_per_class)
    test_x, test_y = draw(spec.test_per_class)
    return Dataset(train_x, train_y, test_x, test_y, spec.classes)


@dataclass
class Partition:
    """Per-client sample indices over the train and test sets."""

    train_indices: list
    test_indices: list


def _largest_remainder(proportions, total):
    """Integer counts summing to `total`, honoring proportions; remainder
    goes to the largest fractional parts, ties to the lowest index."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    frac = (raw - counts).tolist()
    # a stable sort, so tied fractions keep index order
    for i in sorted(range(len(frac)), key=lambda i: -frac[i])[
            :total - counts.sum()]:
        counts[i] += 1
    return counts


def _deal(dataset: Dataset, num_clients: int, rng, share) -> Partition:
    """The partition that gives each client its share `share(cls)` of each
    class, called once per class before the class's two shuffles: in each
    split, the class's samples are shuffled once and cut in client order
    at the `_largest_remainder` counts, so each goes to exactly one client."""
    owners = [np.empty(labels.size, np.int64)  # sample -> its client
              for labels in (dataset.train_y, dataset.test_y)]
    for cls in range(dataset.classes):
        p = share(cls)
        for owner, labels in zip(owners, (dataset.train_y, dataset.test_y)):
            pool = np.flatnonzero(labels == cls)
            owner[rng.permutation(pool)] = np.repeat(
                np.arange(num_clients), _largest_remainder(p, pool.size))
    return Partition(*([np.flatnonzero(owner == client)
                        for client in range(num_clients)] for owner in owners))


def partition_pathological(dataset: Dataset, num_clients: int,
                           classes_per_client: int, seed: int) -> Partition:
    """Give each client exactly `classes_per_client` distinct classes.

    Clients take consecutive positions on a random cyclic order of the
    classes, so coverage is automatic whenever n*k >= |C|; each class's
    holders share its samples equally, the lowest ids taking one more
    where they do not divide.  The config guarantees 1 <= k <= |C|,
    n*k >= |C| and at least one train sample per holder of each class
    (`ExperimentConfig.check`).
    """
    c = dataset.classes
    k = classes_per_client
    rng = derive_rng(seed, "partition")
    order = rng.permutation(c)
    held = np.zeros((c, num_clients))  # class -> clients holding it
    for client in range(num_clients):
        held[order[(client * k + np.arange(k)) % c], client] = 1.0
    return _deal(dataset, num_clients, rng,
                 lambda cls: held[cls] / held[cls].sum())


def partition_dirichlet(dataset: Dataset, num_clients: int, beta: float,
                        seed: int) -> Partition:
    """Per class, split samples by proportions drawn from Dir(beta * 1_n).

    The same drawn proportions shape the client's train and test shards.
    """
    rng = derive_rng(seed, "partition")
    return _deal(dataset, num_clients, rng,
                 lambda cls: rng.dirichlet(np.full(num_clients, beta)))


def label_histograms(dataset: Dataset, partition: Partition) -> np.ndarray:
    """(clients, classes) train-label counts per client."""
    return np.array([np.bincount(dataset.train_y[ix], minlength=dataset.classes)
                     for ix in partition.train_indices], dtype=np.int64)
