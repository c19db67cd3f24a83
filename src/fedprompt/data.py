"""Synthetic image datasets and non-iid client partitioners.

Classes are Gaussian clusters in pixel space rendered as small square
images.  Two partitioners reproduce the usual heterogeneity regimes:
a pathological split where every client holds exactly k distinct
classes, and a symmetric Dirichlet split where per-class client
proportions are drawn from Dir(beta).  Both produce disjoint shards
covering the full train and test sets, with matched per-client test
shards.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .prototypes import compute_class_priors
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
        if self.classes < 1:
            raise ConfigError("need at least one class")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("per-class sample counts must be positive")
        for name in ("separation", "noise"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"data {name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class PartitionSpec:
    """The partitioner and the one parameter it reads: k for
    `pathological`, the Dirichlet beta for `dirichlet`.  The other one
    stays None; a config that sets it is rejected."""

    mode: str
    # typed for what a config value must be, so JSON null is rejected
    classes_per_client: int = None
    beta: float = None

    def __post_init__(self):
        if self.mode not in ("pathological", "dirichlet"):
            raise ConfigError(f"partition.mode must be 'pathological' or "
                              f"'dirichlet', got {self.mode!r}")
        needed, unread = (("classes_per_client", "beta")
                          if self.mode == "pathological"
                          else ("beta", "classes_per_client"))
        if getattr(self, needed) is None:
            raise ConfigError(f"missing required field partition.{needed!r}")
        if getattr(self, unread) is not None:
            raise ConfigError(f"partition.{unread!r} is not read by mode "
                              f"{self.mode!r}")


@dataclass
class Dataset:
    train_x: np.ndarray  # (N, size, size)
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    classes: int

    @property
    def num_train(self) -> int:
        return self.train_y.size


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Gaussian class clusters in pixel space, deterministic per seed."""
    size = spec.image_size
    pixels = size * size
    rng = derive_rng(seed, "data")
    centers = rng.normal(0.0, spec.separation, size=(spec.classes, pixels))

    def draw(per_class):
        xs, ys = [], []
        for c in range(spec.classes):
            noise = rng.normal(0.0, spec.noise, size=(per_class, pixels))
            for i in range(per_class):
                xs.append((centers[c] + noise[i]).reshape(size, size))
                ys.append(c)
        return np.stack(xs), np.asarray(ys, dtype=np.int64)

    train_x, train_y = draw(spec.train_per_class)
    test_x, test_y = draw(spec.test_per_class)
    return Dataset(train_x, train_y, test_x, test_y, spec.classes)


@dataclass
class Partition:
    """Per-client sample indices over the train and test sets."""

    train_indices: list
    test_indices: list
    priors: list = field(default_factory=list)

    @property
    def num_clients(self) -> int:
        return len(self.train_indices)

    def export_rows(self, dataset: Dataset):
        for client, idx in enumerate(self.train_indices):
            for i in idx:
                yield client, int(i), int(dataset.train_y[i]), "train"
        for client, idx in enumerate(self.test_indices):
            for i in idx:
                yield client, int(i), int(dataset.test_y[i]), "test"

    def write_csv(self, dataset: Dataset, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["client", "sample_index", "label", "split"])
            writer.writerows(self.export_rows(dataset))


def _finish(dataset, train_lists, test_lists):
    train = [np.sort(np.asarray(ix, dtype=np.int64)) for ix in train_lists]
    test = [np.sort(np.asarray(ix, dtype=np.int64)) for ix in test_lists]
    priors = [
        compute_class_priors(dataset.train_y[ix], dataset.classes)
        if ix.size else np.zeros(dataset.classes)
        for ix in train
    ]
    return Partition(train, test, priors)


def _indices_by_class(labels, classes):
    return [np.flatnonzero(labels == c) for c in range(classes)]


def partition_pathological(dataset: Dataset, num_clients: int,
                           classes_per_client: int, seed: int) -> Partition:
    """Give each client exactly `classes_per_client` distinct classes.

    Clients take consecutive positions on a random cyclic order of the
    classes, so coverage is automatic whenever n*k >= |C|; each class's
    samples are then split disjointly among its assigned clients.
    """
    c = dataset.classes
    k = classes_per_client
    if k < 1 or k > c:
        raise ConfigError(f"classes per client must lie in [1, {c}], got {k}")
    if num_clients * k < c:
        raise ConfigError(
            f"{num_clients} clients x {k} classes cannot cover {c} classes"
        )
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
            if target is train_lists and any(ch.size == 0 for ch in chunks):
                raise ConfigError(
                    f"class {cls} has too few samples for {len(holders)} holders"
                )
            for client, chunk in zip(holders, chunks):
                target[client].extend(chunk.tolist())
    return _finish(dataset, train_lists, test_lists)


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
    if beta <= 0:
        raise ConfigError(f"dirichlet concentration must be positive, got {beta}")
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
    return _finish(dataset, train_lists, test_lists)


def label_histograms(dataset: Dataset, partition: Partition) -> np.ndarray:
    """(clients, classes) train-label counts per client."""
    hist = np.zeros((partition.num_clients, dataset.classes), dtype=np.int64)
    for client, ix in enumerate(partition.train_indices):
        hist[client] = np.bincount(dataset.train_y[ix], minlength=dataset.classes)
    return hist
