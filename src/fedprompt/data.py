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


MODES = ("pathological", "dirichlet")


@dataclass(frozen=True)
class PartitionSpec:
    """The partitioner and the one parameter it reads: k for
    `pathological`, the Dirichlet beta for `dirichlet`.  The other one
    stays None (`config.UNREAD_KEYS` rejects a config that sets it)."""

    mode: str
    # typed for what a config value must be, so JSON null is rejected
    classes_per_client: int = None
    beta: float = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"partition.mode must be 'pathological' or "
                              f"'dirichlet', got {self.mode!r}")
        needed = ("classes_per_client" if self.mode == "pathological"
                  else "beta")
        value = getattr(self, needed)
        if value is None:
            raise ConfigError(f"missing required field partition.{needed!r}")
        rule, ok = ((">= 1", value >= 1) if needed == "classes_per_client"
                    else ("> 0", value > 0))
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

    @property
    def num_clients(self) -> int:
        return len(self.train_indices)


def _finish(train_lists, test_lists):
    return Partition(
        *([np.sort(np.asarray(ix, dtype=np.int64)) for ix in lists]
          for lists in (train_lists, test_lists)))


def _indices_by_class(labels, classes):
    return [np.flatnonzero(labels == c) for c in range(classes)]


def partition_pathological(dataset: Dataset, num_clients: int,
                           classes_per_client: int, seed: int) -> Partition:
    """Give each client exactly `classes_per_client` distinct classes.

    Clients take consecutive positions on a random cyclic order of the
    classes, so coverage is automatic whenever n*k >= |C|; each class's
    samples are then split disjointly among its assigned clients.  The
    config guarantees 1 <= k <= |C|, n*k >= |C| and at least one train
    sample per holder of each class (`ExperimentConfig.check`).
    """
    c = dataset.classes
    k = classes_per_client
    rng = derive_rng(seed, "partition")
    order = rng.permutation(c)
    assigned = [[] for _ in range(c)]  # class -> clients holding it
    for client in range(num_clients):
        for j in range(k):
            assigned[order[(client * k + j) % c]].append(client)

    train_lists = [[] for _ in range(num_clients)]
    test_lists = [[] for _ in range(num_clients)]
    by_class_train = _indices_by_class(dataset.train_y, c)
    by_class_test = _indices_by_class(dataset.test_y, c)
    for cls in range(c):
        holders = assigned[cls]
        for target, pool in ((train_lists, by_class_train[cls]),
                             (test_lists, by_class_test[cls])):
            chunks = np.array_split(rng.permutation(pool), len(holders))
            for client, chunk in zip(holders, chunks):
                target[client].extend(chunk.tolist())
    return _finish(train_lists, test_lists)


def _largest_remainder(proportions, total):
    """Integer counts summing to `total`, honoring proportions; remainder
    goes to the largest fractional parts, ties to the lowest index."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - counts.sum()
    if short > 0:
        frac = raw - counts
        order = np.lexsort((np.arange(frac.size), -frac))
        counts[order[:short]] += 1
    return counts


def partition_dirichlet(dataset: Dataset, num_clients: int, beta: float,
                        seed: int) -> Partition:
    """Per class, split samples by proportions drawn from Dir(beta * 1_n).

    The same drawn proportions shape the client's train and test shards,
    with largest-remainder rounding keeping coverage exact.
    """
    rng = derive_rng(seed, "partition")
    train_lists = [[] for _ in range(num_clients)]
    test_lists = [[] for _ in range(num_clients)]
    for cls in range(dataset.classes):
        p = rng.dirichlet(np.full(num_clients, beta))
        for target, pool in (
            (train_lists, np.flatnonzero(dataset.train_y == cls)),
            (test_lists, np.flatnonzero(dataset.test_y == cls)),
        ):
            counts = _largest_remainder(p, pool.size)
            shuffled = rng.permutation(pool)
            offset = 0
            for client, n in enumerate(counts):
                target[client].extend(shuffled[offset:offset + n].tolist())
                offset += n
    return _finish(train_lists, test_lists)


def label_histograms(dataset: Dataset, partition: Partition) -> np.ndarray:
    """(clients, classes) train-label counts per client."""
    hist = np.zeros((partition.num_clients, dataset.classes), dtype=np.int64)
    for client, ix in enumerate(partition.train_indices):
        hist[client] = np.bincount(dataset.train_y[ix], minlength=dataset.classes)
    return hist
