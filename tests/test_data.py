import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprompt.config import ExperimentConfig, TrainConfig
from fedprompt.data import (
    Partition,
    PartitionSpec,
    SyntheticSpec,
    generate_synthetic,
    label_histograms,
    partition_dirichlet,
    partition_pathological,
)
from fedprompt.errors import ConfigError
from fedprompt.federation import build_clients
from fedprompt.model import ModelConfig, init_backbone
from fedprompt.prototypes import compute_class_priors


SPEC = SyntheticSpec(classes=8, train_per_class=30, test_per_class=10,
                     separation=1.0, noise=0.2)


def clients_of(ds, part):
    """The clients of `part`, each image embedded as one patch token of a
    2-dim backbone."""
    size = ds.train_x.shape[-1]
    backbone = init_backbone(0, ModelConfig(dim=2, layers=1, heads=1,
                                            patch_size=size, mix_layers=()))
    return build_clients(ds, part, backbone)


def assert_disjoint_cover(index_lists, total):
    seen = np.concatenate([np.asarray(ix) for ix in index_lists])
    assert len(seen) == total
    assert len(np.unique(seen)) == total


class TestGenerateSynthetic:
    def test_same_seed_identical_bytes(self):
        a = generate_synthetic(SPEC, 5)
        b = generate_synthetic(SPEC, 5)
        assert a.train_x.tobytes() == b.train_x.tobytes()
        assert a.test_x.tobytes() == b.test_x.tobytes()
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_per_class_counts(self):
        ds = generate_synthetic(SPEC, 1)
        np.testing.assert_array_equal(
            np.bincount(ds.train_y), np.full(8, SPEC.train_per_class))
        np.testing.assert_array_equal(
            np.bincount(ds.test_y), np.full(8, SPEC.test_per_class))

    def test_nearest_centroid_oracle_on_separated_data(self):
        spec = SyntheticSpec(classes=6, train_per_class=40, test_per_class=25,
                             separation=3.0, noise=0.15)
        ds = generate_synthetic(spec, 2)
        centroids = np.stack([
            ds.train_x[ds.train_y == c].reshape(-1, 256).mean(axis=0)
            for c in range(6)
        ])
        flat = ds.test_x.reshape(-1, 256)
        dists = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == ds.test_y).mean()
        assert acc > 0.99

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(classes=0, train_per_class=1, test_per_class=1)

    def test_scale_limit_is_inclusive(self):
        spec = SyntheticSpec(classes=2, train_per_class=1, test_per_class=1,
                             separation=1e100, noise=1e100)
        assert np.isfinite(generate_synthetic(spec, 0).train_x).all()


class TestPathological:
    def test_one_class_per_client(self):
        ds = generate_synthetic(SPEC, 4)
        part = partition_pathological(ds, num_clients=8, classes_per_client=1,
                                      seed=0)
        hist = label_histograms(ds, part)
        assert ((hist > 0).sum(axis=1) == 1).all()
        # all 8 clients hold different classes
        assert len({int(h.argmax()) for h in hist}) == 8

    def test_exactly_k_labels_and_disjoint(self):
        ds = generate_synthetic(SPEC, 5)
        part = partition_pathological(ds, num_clients=12, classes_per_client=2,
                                      seed=1)
        hist = label_histograms(ds, part)
        assert ((hist > 0).sum(axis=1) == 2).all()
        assert_disjoint_cover(part.train_indices, ds.train_y.size)
        assert_disjoint_cover(part.test_indices, ds.test_y.size)

    def test_priors_match_histograms(self):
        ds = generate_synthetic(SPEC, 7)
        part = partition_pathological(ds, 12, 2, seed=2)
        hist = label_histograms(ds, part)
        clients = clients_of(ds, part)
        for client, built in enumerate(clients):
            expected = hist[client] / hist[client].sum()
            np.testing.assert_allclose(built.priors, expected)
            np.testing.assert_array_equal(
                built.priors,
                compute_class_priors(ds.train_y[part.train_indices[client]], 8),
            )

    def test_empty_train_shard_has_zero_priors(self):
        # a client with test samples and no train sample keeps all-zero
        # priors, which `init_server` refuses to score a heldout client with
        ds = generate_synthetic(SPEC, 7)
        everything = np.arange(ds.train_y.size)
        part = Partition([everything, everything[:0]],
                         [everything[:0], np.arange(ds.test_y.size)])
        full, empty = clients_of(ds, part)
        assert np.array_equal(full.priors, np.full(8, 1 / 8))
        assert np.array_equal(empty.priors, np.zeros(8))
        assert empty.train_x.shape == (0, 1, 2)
        assert empty.test_x.shape == (ds.test_y.size, 1, 2)


class TestDirichlet:
    def test_disjoint_cover_many_seeds(self):
        ds = generate_synthetic(SPEC, 8)
        for seed in range(100):
            part = partition_dirichlet(ds, num_clients=6, beta=0.3, seed=seed)
            assert_disjoint_cover(part.train_indices, ds.train_y.size)
            assert_disjoint_cover(part.test_indices, ds.test_y.size)

    def test_huge_beta_near_uniform(self):
        spec = SyntheticSpec(classes=4, train_per_class=600, test_per_class=10)
        ds = generate_synthetic(spec, 9)
        part = partition_dirichlet(ds, num_clients=6, beta=1e6, seed=3)
        sizes = np.array([ix.size for ix in part.train_indices])
        expected = ds.train_y.size / 6
        assert np.abs(sizes - expected).max() / expected < 0.05

    def test_low_beta_is_heterogeneous(self):
        ds = generate_synthetic(SPEC, 10)

        def mean_entropy(beta):
            values = []
            for seed in range(5):
                part = partition_dirichlet(ds, 10, beta, seed=seed)
                hist = label_histograms(ds, part)
                for row in hist:
                    if row.sum() == 0:
                        continue
                    p = row / row.sum()
                    p = p[p > 0]
                    values.append(float(-(p * np.log(p)).sum()))
            return np.mean(values)

        uniform_entropy = np.log(8)
        skewed = mean_entropy(0.3)
        balanced = mean_entropy(100.0)
        assert skewed < balanced
        assert skewed < 0.75 * uniform_entropy

    def test_largest_remainder_exact(self):
        from fedprompt.data import _largest_remainder
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.full(n, 0.5))
            total = int(rng.integers(0, 50))
            counts = _largest_remainder(p, total)
            assert counts.sum() == total
            assert (counts >= 0).all()
            assert np.abs(counts - p * total).max() < 1.0 + 1e-9


@st.composite
def tiny_partitions(draw):
    """(dataset, config maker, partition maker, k) on 1-6 classes of 1-4
    train and test samples each, over 1-8 clients: Dirichlet with a beta
    of 0, -1 or log-uniform over the whole positive double range (k is
    None), or pathological with k from 0 to one past the classes.  The
    config maker builds the `ExperimentConfig` of the same draw."""
    classes = draw(st.integers(1, 6))
    spec = SyntheticSpec(classes=classes,
                         train_per_class=draw(st.integers(1, 4)),
                         test_per_class=draw(st.integers(1, 4)), image_size=1)
    ds = generate_synthetic(spec, draw(st.integers(0, 2**16)))
    clients, seed = draw(st.integers(1, 8)), draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        beta = draw(st.sampled_from([5e-324, 1e300, 0.0, -1.0])
                    | st.floats(-323.3, 300.0).map(
                        lambda e: max(10.0 ** e, 5e-324)))
        partition = {"mode": "dirichlet", "beta": beta}
        make = lambda: partition_dirichlet(ds, clients, beta, seed)
        k = None
    else:
        k = draw(st.integers(0, classes + 1))
        partition = {"mode": "pathological", "classes_per_client": k}
        make = lambda: partition_pathological(ds, clients, k, seed)

    def config():
        return ExperimentConfig(
            data=spec, partition=PartitionSpec(**partition),
            train=TrainConfig(clients=clients, clients_per_round=1, rounds=0),
            model=ModelConfig(dim=2, layers=1, heads=1, patch_size=1,
                              mix_layers=(1,)),
            seed=seed)
    return ds, config, make, k


class TestPartitionProperty:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(tiny_partitions())
    def test_rejected_or_exact_cover_with_exact_priors(self, drawn):
        # a draw whose config is rejected is never partitioned; any other
        # draw assigns each sample once, gives each pathological client
        # exactly k classes of train samples, and each built client's
        # priors are its train shard's exact label frequencies
        ds, config, make, k = drawn
        try:
            config()
        except ConfigError:
            return
        part = make()
        if k is not None:
            hist = label_histograms(ds, part)
            assert ((hist > 0).sum(axis=1) == k).all()
        for shards, labels in ((part.train_indices, ds.train_y),
                               (part.test_indices, ds.test_y)):
            assert len(shards) == part.num_clients
            assert sorted(np.concatenate(shards).tolist()) == list(
                range(labels.size))
        clients = clients_of(ds, part)
        assert len(clients) == part.num_clients
        for ix, client in zip(part.train_indices, clients):
            priors = client.priors
            if ix.size == 0:
                assert np.array_equal(priors, np.zeros(ds.classes))
                continue
            counts = np.bincount(ds.train_y[ix], minlength=ds.classes)
            assert np.array_equal(priors, counts / ix.size)
            assert abs(priors.sum() - 1.0) <= 1e-12
