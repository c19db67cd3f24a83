import numpy as np
import pytest

from fedprompt import federation
from fedprompt.config import ExperimentConfig, TrainConfig
from fedprompt.data import PartitionSpec, SyntheticSpec, generate_synthetic
from fedprompt.evaluation import (
    CommReport,
    comm_accounting,
    evaluate_clients,
    heldout_split,
)
from fedprompt.federation import (ClientState, init_server, local_train,
                                  run_training, sample_clients)
from fedprompt.model import (ModelConfig, PromptParams, embed_patches,
                             forward_shard, forward_with_prompts,
                             init_backbone)
from fedprompt.prototypes import ScoreConstants, local_prototypes
from fedprompt.seeding import derive_rng


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

    def test_heldout_never_sampled_in_training(self, monkeypatch):
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
        trained = []

        def recording(client, *args):
            trained.append(client.client_id)
            return local_train(client, *args)

        monkeypatch.setattr(federation, "local_train", recording)
        logs = run_training(state)
        # each round trains the sample drawn from the participating clients
        samples = [sample_clients(derive_rng(3, "sample", t),
                                  state.participating, 3)
                   for t in range(1, 5)]
        assert trained == [cid for sample in samples for cid in sample]
        assert set(trained).isdisjoint(heldout)
        assert all(log.heldout_mean_acc is not None for log in logs)


class TestMixingScoreRanking:
    def test_separated_data_ranks_the_true_class_first_at_mid_layers(self):
        # how well a layer's cls tokens tell the classes apart is read from
        # the scores that mixing weights the class prompts with: their top-1
        # and the mass they put on the true class
        spec = SyntheticSpec(classes=8, train_per_class=20, test_per_class=1,
                             image_size=8, separation=2.0, noise=0.3)
        ds = generate_synthetic(spec, 7)
        cfg = ModelConfig(dim=16, layers=4, heads=2, patch_size=4,
                          mix_layers=())
        backbone = init_backbone(7, cfg)
        _, cls = forward_shard(embed_patches(ds.train_x, backbone),
                               PromptParams.init(7, 16, 8), backbone, {})
        protos, _ = local_prototypes(cls, ds.train_y, 8, (3,))
        consts = ScoreConstants(protos[3], np.full(8, 1 / 8), 0.05)
        scores = np.stack([consts.evaluate(token)[0] for token in cls[2]])
        # chance is 1/8 for both
        assert (scores.argmax(axis=1) == ds.train_y).mean() > 0.5
        assert scores[np.arange(ds.train_y.size), ds.train_y].mean() > 0.25


class TestCommAccounting:
    def test_vitb_twelve_rounds_totals(self):
        report = comm_accounting(dim=768, classes=100, mix_layers=3,
                                 rounds=12, update_period=1)
        assert report.uploaded_total == pytest.approx(4.6e6, rel=0.05)
        # exact tally: 12 * (76800 + 768 + 76800) + 12 * 230400
        assert report.uploaded_total == 4_617_216

    def test_no_mix_layers_no_prototype_payload(self):
        report = comm_accounting(dim=64, classes=10, mix_layers=0, rounds=5,
                                 update_period=1)
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
            comm_accounting(dim=2, classes=2, mix_layers=1, rounds=1,
                            update_period=1),
            CommReport)

    @pytest.mark.parametrize("mix_layers, rounds, update_period",
                             [(0, 5, 1), (3, 12, 1), (2, 7, 3)])
    def test_uploads_what_it_downloads(self, mix_layers, rounds,
                                       update_period):
        # every block and prototype that travels one way travels the other
        report = comm_accounting(dim=16, classes=5, mix_layers=mix_layers,
                                 rounds=rounds, update_period=update_period)
        assert report.uploaded_total == report.downloaded_total == (
            rounds * report.params_per_round
            + report.prototype_syncs * report.prototype_payload)
