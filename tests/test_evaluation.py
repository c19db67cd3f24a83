import numpy as np
import pytest

from fedprompt.config import ExperimentConfig, TrainConfig
from fedprompt.data import PartitionSpec, SyntheticSpec, generate_synthetic
from fedprompt.errors import ConfigError, DataError
from fedprompt.evaluation import (
    CommReport,
    comm_accounting,
    evaluate_clients,
    heldout_split,
    prototype_topk_probe,
)
from fedprompt.federation import ClientState, init_server, run_training
from fedprompt import model
from fedprompt.model import (ModelConfig, PromptParams, embed_patches,
                             forward_shard, forward_with_prompts, init_backbone)
from fedprompt.prototypes import PrototypeBank


def make_client(cid, test_y, priors=None):
    """A client of `TestEvaluateClients._world`, its 4 x 4 images all zero:
    each image is 4 patch tokens of dim 8."""
    n = len(test_y)
    return ClientState(
        client_id=cid,
        train_x=np.zeros((1, 4, 8)), train_y=np.zeros(1, dtype=np.int64),
        test_x=np.zeros((n, 4, 8)), test_y=np.asarray(test_y, dtype=np.int64),
        priors=np.asarray(priors if priors is not None else [1.0, 0.0]),
    )


class TestEvaluateClients:
    def _world(self):
        cfg = ModelConfig(dim=8, layers=2, heads=2, patch_size=2,
                          mix_layers=())
        backbone = init_backbone(0, cfg)
        params = PromptParams.init(0, 8, 2)
        return backbone, params

    def test_single_perfect_client(self):
        backbone, params = self._world()
        # head forcing class 0 regardless of input
        params.head.data[...] = 0.0
        params.head.data[0, :] = 0.0
        client = make_client(0, [0, 0, 0])
        # with a zero head, logits tie at 0 and the lowest class wins
        report = evaluate_clients([client], backbone, lambda cid: (params, {}))
        assert report.mean_acc == 1.0
        assert report.worst_acc == 1.0
        assert report.per_client == {0: 1.0}

    def test_mean_and_worst(self):
        backbone, params = self._world()
        params.head.data[...] = 0.0
        clients = [make_client(0, [0, 0]), make_client(1, [0, 1])]
        report = evaluate_clients(clients, backbone, lambda cid: (params, {}))
        assert report.mean_acc == pytest.approx(0.75)
        assert report.worst_acc == pytest.approx(0.5)

    def test_empty_test_shard_skipped_with_count(self):
        backbone, params = self._world()
        clients = [make_client(0, [0]), make_client(1, [])]
        report = evaluate_clients(clients, backbone, lambda cid: (params, {}))
        assert report.skipped_empty == 1
        assert set(report.per_client) == {0}

    def test_chance_level_on_random_labels(self):
        # untrained zero head always predicts class 0; labels uniform over 8
        cfg = ModelConfig(dim=8, layers=2, heads=2, patch_size=2,
                          mix_layers=())
        backbone = init_backbone(1, cfg)
        params = PromptParams.init(1, 8, 8)
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 8, size=400)
        client = ClientState(
            client_id=0, train_x=np.zeros((1, 4, 8)),
            train_y=np.zeros(1, dtype=np.int64),
            test_x=embed_patches(rng.normal(size=(400, 4, 4)), backbone),
            test_y=labels, priors=np.full(8, 1 / 8))
        report = evaluate_clients([client], backbone, lambda cid: (params, {}))
        # binomial(400, 1/8): three-sigma window around 0.125
        assert abs(report.mean_acc - 0.125) < 3 * np.sqrt(0.125 * 0.875 / 400)

    @pytest.mark.parametrize("label, acc", [(1, 1.0), (2, 0.0)])
    def test_tie_between_top_classes_goes_to_lowest(self, label, acc):
        backbone, _ = self._world()
        tokens = embed_patches(np.random.default_rng(3).normal(size=(1, 4, 4)),
                               backbone)
        # an identity head reads out the normalized final cls token x
        probe = PromptParams.init(0, 8, 8)
        probe.head.data[...] = np.eye(8)
        x, _ = forward_with_prompts(tokens[0], probe, backbone, {})
        # logits (-|x|^2, |x|^2, |x|^2): classes 1 and 2 tie on top
        params = PromptParams.init(0, 8, 3)
        params.head.data[...] = [-x, x, x]
        client = make_client(0, [label])
        client.test_x = tokens
        report = evaluate_clients([client], backbone, lambda cid: (params, {}))
        assert report.per_client == {0: acc}

    def test_matches_per_sample_argmax_scan(self):
        backbone, _ = self._world()
        rng = np.random.default_rng(4)
        params = PromptParams.init(0, 8, 5)
        params.head.data[...] = rng.normal(size=(5, 8))
        labels = rng.integers(0, 5, size=30)
        client = make_client(0, labels)
        client.test_x = embed_patches(rng.normal(size=(30, 4, 4)), backbone)
        hits = 0
        for tokens, y in zip(client.test_x, labels):
            logits, _ = forward_with_prompts(tokens, params, backbone, {})
            best, arg = -np.inf, -1
            for i, v in enumerate(logits):
                if v > best:
                    best, arg = v, i
            hits += int(arg == y)
        report = evaluate_clients([client], backbone, lambda cid: (params, {}))
        assert 0 < hits < 30
        assert report.per_client == {0: hits / 30}

    def test_worst_le_mean_bounds(self):
        backbone, params = self._world()
        params.head.data[...] = 0.0
        clients = [make_client(i, [0, 1, 0]) for i in range(4)]
        report = evaluate_clients(clients, backbone, lambda cid: (params, {}))
        assert 0.0 <= report.worst_acc <= report.mean_acc <= 1.0


class TestHeldoutSplit:
    def test_nine_one(self):
        part, held = heldout_split(range(10), 0.9, seed=0)
        assert len(part) == 9 and len(held) == 1
        assert set(part) | set(held) == set(range(10))

    def test_deterministic(self):
        assert heldout_split(range(20), 0.9, 5) == heldout_split(range(20), 0.9, 5)
        assert heldout_split(range(20), 0.9, 5) != heldout_split(range(20), 0.9, 6)

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(ConfigError):
            heldout_split(range(10), 0.99999, 0)
        with pytest.raises(ConfigError):
            heldout_split(range(3), 0.05, 0)
        with pytest.raises(ConfigError):
            heldout_split(range(10), 1.5, 0)

    def test_heldout_never_sampled_in_training(self):
        cfg = ExperimentConfig(
            data=SyntheticSpec(classes=4, train_per_class=12, test_per_class=4,
                               image_size=8, separation=1.5, noise=0.5),
            partition=PartitionSpec("pathological", 2),
            train=TrainConfig(clients=6, clients_per_round=3, rounds=4,
                              local_epochs=1),
            model=ModelConfig(dim=8, layers=3, heads=2, patch_size=4,
                              mix_layers=(2,)),
            seed=3, heldout_fraction=0.2)
        state = init_server(cfg)
        _, heldout = heldout_split(range(6), 0.8, seed=3)
        assert state.heldout == heldout
        logs = run_training(state)
        sampled = set()
        for log in logs:
            sampled.update(log.participants)
        assert sampled.isdisjoint(heldout)
        assert all(log.heldout_mean_acc is not None for log in logs)


class TestPrototypeProbe:
    def _world(self, seed=4):
        cfg = ModelConfig(dim=16, layers=4, heads=2, patch_size=4,
                          mix_layers=())
        return init_backbone(seed, cfg), PromptParams.init(seed, 16, 4)

    def _tokens(self, images, layer, consts=None):
        """The cls tokens entering `layer` over the pool `images`."""
        backbone, params = self._world()
        _, cls = forward_shard(embed_patches(images, backbone), params,
                               backbone, consts or {})
        return cls[layer - 1]

    def test_single_class_pool_top1(self):
        images = np.random.default_rng(5).normal(size=(6, 8, 8))
        assert prototype_topk_probe(self._tokens(images, 2), [0] * 6, 1) == 1.0

    def test_k_equals_classes_is_one(self):
        rng = np.random.default_rng(6)
        images = rng.normal(size=(12, 8, 8))
        labels = rng.integers(0, 4, size=12)
        assert prototype_topk_probe(self._tokens(images, 3), labels, 4) == 1.0

    def test_separated_data_beats_chance_at_mid_layers(self):
        spec = SyntheticSpec(classes=8, train_per_class=20, test_per_class=1,
                             image_size=8, separation=2.0, noise=0.3)
        ds = generate_synthetic(spec, 7)
        cfg = ModelConfig(dim=16, layers=4, heads=2, patch_size=4,
                          mix_layers=())
        backbone = init_backbone(7, cfg)
        params = PromptParams.init(7, 16, 8)
        _, cls = forward_shard(embed_patches(ds.train_x, backbone), params,
                               backbone, {})
        acc = prototype_topk_probe(cls[2], ds.train_y, 1)
        # chance for top-1 over 8 classes is 0.125
        assert acc > 0.5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_pair_reference(self, seed):
        spec = SyntheticSpec(classes=8, train_per_class=20, test_per_class=1,
                             image_size=8, separation=2.0, noise=0.3)
        ds = generate_synthetic(spec, seed)
        cfg = ModelConfig(dim=16, layers=4, heads=2, patch_size=4,
                          mix_layers=())
        backbone = init_backbone(seed, cfg)
        _, cls = forward_shard(embed_patches(ds.train_x, backbone),
                               PromptParams.init(seed, 16, 8), backbone, {})

        def cosine(a, b):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            return 0.0 if na == 0.0 or nb == 0.0 else float(a @ b) / (na * nb)

        for tokens in cls[:4]:
            protos = np.stack([tokens[ds.train_y == c].mean(axis=0)
                               for c in range(8)])
            for k in (1, 2, 3):
                hits = sum(
                    y in np.argsort([-cosine(t, p) for p in protos],
                                    kind="stable")[:k]
                    for t, y in zip(tokens, ds.train_y))
                assert prototype_topk_probe(tokens, ds.train_y, k) == (
                    hits / ds.train_y.size)

    @pytest.mark.parametrize("k", [0, -2])
    def test_out_of_range_arguments_rejected(self, k):
        images = np.random.default_rng(8).normal(size=(4, 8, 8))
        with pytest.raises(ConfigError, match=f"probe k must be >= 1, got {k}"):
            prototype_topk_probe(self._tokens(images, 2), [0, 1, 0, 1], k)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError, match="probe pool is empty"):
            prototype_topk_probe(np.zeros((0, 16)), [], 1)

    @pytest.mark.parametrize("rows, labels, message", [
        (3, [0, 1], "3 cls tokens for 2 labels"),
        (2, [0, -1], "labels must be >= 0, got -1"),
    ])
    def test_tokens_and_labels_must_agree(self, rows, labels, message):
        with pytest.raises(DataError, match=message):
            prototype_topk_probe(np.ones((rows, 4)), labels, 1)

    def test_tokens_of_a_mixing_forward(self):
        bank = PrototypeBank(layers=(2,), num_classes=4, dim=16, tau=0.05)
        images = np.random.default_rng(9).normal(size=(4, 8, 8))
        tokens = self._tokens(images, 4,
                              consts=bank.score_constants(np.full(4, 0.25)))
        assert prototype_topk_probe(tokens, [0, 1, 0, 1], 2) == 1.0

    def test_runs_no_forward(self, monkeypatch):
        images = np.random.default_rng(5).normal(size=(6, 8, 8))
        tokens = self._tokens(images, 3)

        def no_forward(*args, **kwargs):
            raise AssertionError("the probe ran a forward")

        monkeypatch.setattr(model, "forward_with_prompts", no_forward)
        assert prototype_topk_probe(tokens, [0, 1, 2] * 2, 3) == 1.0

    def test_zero_vectors_score_zero(self):
        # class 1's prototype is the zero vector: it outranks class 0's
        # only for a token at negative similarity to that one, and the zero
        # token ties both classes at 0, so it ranks class 0 first
        tokens = np.array([[1.0, 0.0], [3.0, 0.0],
                           [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert prototype_topk_probe(tokens, [0, 0, 1, 1, 1], 1) == 0.6


class TestCommAccounting:
    def test_vitb_twelve_rounds_totals(self):
        report = comm_accounting(dim=768, classes=100, mix_layers=3,
                                 rounds=12, update_period=1)
        assert report.uploaded_total == pytest.approx(4.6e6, rel=0.05)
        # exact tally: 12 * (76800 + 768 + 76800) + 12 * 230400
        assert report.uploaded_total == 4_617_216

    def test_no_mix_layers_no_prototype_payload(self):
        report = comm_accounting(dim=64, classes=10, mix_layers=0, rounds=5)
        assert report.prototype_payload == 0
        assert report.prototype_syncs == 0
        assert report.uploaded_total == 5 * report.params_per_round

    def test_longer_period_halves_prototype_syncs(self):
        r1 = comm_accounting(dim=64, classes=10, mix_layers=2, rounds=12,
                             update_period=1)
        r2 = comm_accounting(dim=64, classes=10, mix_layers=2, rounds=12,
                             update_period=2)
        assert r2.prototype_syncs * 2 == r1.prototype_syncs
        assert (r1.uploaded_total - r2.uploaded_total
                == 6 * r1.prototype_payload)

    def test_is_dataclass(self):
        assert isinstance(
            comm_accounting(dim=2, classes=2, mix_layers=1, rounds=1),
            CommReport)
