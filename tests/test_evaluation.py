import numpy as np
import pytest

from fedprompt.data import SyntheticSpec, generate_synthetic, partition_pathological
from fedprompt.errors import ConfigError
from fedprompt.evaluation import (
    CommReport,
    comm_accounting,
    evaluate_clients,
    flop_estimate,
    heldout_split,
    prompt_mix_overhead,
    prototype_topk_probe,
)
from fedprompt.federation import ClientState, build_clients, run_training, TrainConfig
from fedprompt.model import (ModelConfig, PromptParams, forward_with_prompts,
                             init_backbone)


def make_client(cid, test_y, priors=None):
    n = len(test_y)
    return ClientState(
        client_id=cid,
        train_x=np.zeros((1, 4, 4)), train_y=np.zeros(1, dtype=np.int64),
        test_x=np.zeros((n, 4, 4)), test_y=np.asarray(test_y, dtype=np.int64),
        priors=np.asarray(priors if priors is not None else [1.0, 0.0]),
    )


class TestEvaluateClients:
    def _world(self):
        cfg = ModelConfig(dim=8, layers=2, heads=2, image_size=4, patch_size=2,
                          mix_layers=())
        backbone = init_backbone(0, cfg)
        params = PromptParams.init(0, 8, 2, 1)
        return cfg, backbone, params

    def test_single_perfect_client(self):
        cfg, backbone, params = self._world()
        # head forcing class 0 regardless of input
        params.head.data[...] = 0.0
        params.head.data[0, :] = 0.0
        client = make_client(0, [0, 0, 0])
        # with a zero head, logits tie at 0 and the lowest class wins
        report = evaluate_clients([client], backbone, cfg,
                                  lambda cid: (params, {}))
        assert report.mean_acc == 1.0
        assert report.worst_acc == 1.0
        assert report.per_client == {0: 1.0}

    def test_mean_and_worst(self):
        cfg, backbone, params = self._world()
        params.head.data[...] = 0.0
        clients = [make_client(0, [0, 0]), make_client(1, [0, 1])]
        report = evaluate_clients(clients, backbone, cfg,
                                  lambda cid: (params, {}))
        assert report.mean_acc == pytest.approx(0.75)
        assert report.worst_acc == pytest.approx(0.5)

    def test_empty_test_shard_skipped_with_count(self):
        cfg, backbone, params = self._world()
        clients = [make_client(0, [0]), make_client(1, [])]
        report = evaluate_clients(clients, backbone, cfg,
                                  lambda cid: (params, {}))
        assert report.skipped_empty == 1
        assert set(report.per_client) == {0}

    def test_chance_level_on_random_labels(self):
        # untrained zero head always predicts class 0; labels uniform over 8
        cfg = ModelConfig(dim=8, layers=2, heads=2, image_size=4, patch_size=2,
                          mix_layers=())
        backbone = init_backbone(1, cfg)
        params = PromptParams.init(1, 8, 8, 1)
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 8, size=400)
        client = ClientState(
            client_id=0, train_x=np.zeros((1, 4, 4)),
            train_y=np.zeros(1, dtype=np.int64),
            test_x=rng.normal(size=(400, 4, 4)), test_y=labels,
            priors=np.full(8, 1 / 8))
        report = evaluate_clients([client], backbone, cfg,
                                  lambda cid: (params, {}))
        # binomial(400, 1/8): three-sigma window around 0.125
        assert abs(report.mean_acc - 0.125) < 3 * np.sqrt(0.125 * 0.875 / 400)

    @pytest.mark.parametrize("label, acc", [(1, 1.0), (2, 0.0)])
    def test_tie_between_top_classes_goes_to_lowest(self, label, acc):
        cfg, backbone, _ = self._world()
        image = np.random.default_rng(3).normal(size=(4, 4))
        # an identity head reads out the normalized final cls token x
        probe = PromptParams.init(0, 8, 8, 1)
        probe.head.data[...] = np.eye(8)
        x, _ = forward_with_prompts(image, probe, backbone, cfg, {})
        # logits (-|x|^2, |x|^2, |x|^2): classes 1 and 2 tie on top
        params = PromptParams.init(0, 8, 3, 1)
        params.head.data[...] = [-x, x, x]
        client = make_client(0, [label])
        client.test_x = image[None]
        report = evaluate_clients([client], backbone, cfg,
                                  lambda cid: (params, {}))
        assert report.per_client == {0: acc}

    def test_matches_per_sample_argmax_scan(self):
        cfg, backbone, _ = self._world()
        rng = np.random.default_rng(4)
        params = PromptParams.init(0, 8, 5, 1)
        params.head.data[...] = rng.normal(size=(5, 8))
        labels = rng.integers(0, 5, size=30)
        client = make_client(0, labels)
        client.test_x = rng.normal(size=(30, 4, 4))
        hits = 0
        for image, y in zip(client.test_x, labels):
            logits, _ = forward_with_prompts(image, params, backbone, cfg, {})
            best, arg = -np.inf, -1
            for i, v in enumerate(logits):
                if v > best:
                    best, arg = v, i
            hits += int(arg == y)
        report = evaluate_clients([client], backbone, cfg,
                                  lambda cid: (params, {}))
        assert 0 < hits < 30
        assert report.per_client == {0: hits / 30}

    def test_worst_le_mean_bounds(self):
        cfg, backbone, params = self._world()
        params.head.data[...] = 0.0
        clients = [make_client(i, [0, 1, 0]) for i in range(4)]
        report = evaluate_clients(clients, backbone, cfg,
                                  lambda cid: (params, {}))
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
        spec = SyntheticSpec(classes=4, train_per_class=12, test_per_class=4,
                             image_size=8, separation=1.5, noise=0.5)
        ds = generate_synthetic(spec, 3)
        part = partition_pathological(ds, 6, 2, 3)
        clients = build_clients(ds, part)
        participating, heldout = heldout_split(range(6), 0.8, seed=3)
        model_cfg = ModelConfig(dim=8, layers=3, heads=2, image_size=8,
                                patch_size=4, mix_layers=(2,))
        backbone = init_backbone(3, model_cfg)
        cfg = TrainConfig(clients_per_round=3, rounds=4, local_epochs=1)
        _, logs = run_training(clients, backbone, model_cfg, cfg, seed=3,
                               heldout=heldout)
        sampled = set()
        for log in logs:
            sampled.update(log.participants)
        assert sampled.isdisjoint(heldout)
        assert all(log.heldout_mean_acc is not None for log in logs)


class TestPrototypeProbe:
    def _world(self, seed=4):
        cfg = ModelConfig(dim=16, layers=4, heads=2, image_size=8, patch_size=4,
                          mix_layers=())
        return cfg, init_backbone(seed, cfg), PromptParams.init(seed, 16, 4, 0)

    def test_single_class_pool_top1(self):
        cfg, backbone, params = self._world()
        rng = np.random.default_rng(5)
        images = rng.normal(size=(6, 8, 8))
        acc = prototype_topk_probe(images, [0] * 6, backbone, cfg, params,
                                   layer=2, k=1)
        assert acc == 1.0

    def test_k_equals_classes_is_one(self):
        cfg, backbone, params = self._world()
        rng = np.random.default_rng(6)
        images = rng.normal(size=(12, 8, 8))
        labels = rng.integers(0, 4, size=12)
        acc = prototype_topk_probe(images, labels, backbone, cfg, params,
                                   layer=3, k=4)
        assert acc == 1.0

    def test_separated_data_beats_chance_at_mid_layers(self):
        spec = SyntheticSpec(classes=8, train_per_class=20, test_per_class=1,
                             image_size=8, separation=2.0, noise=0.3)
        ds = generate_synthetic(spec, 7)
        cfg = ModelConfig(dim=16, layers=4, heads=2, image_size=8, patch_size=4,
                          mix_layers=())
        backbone = init_backbone(7, cfg)
        params = PromptParams.init(7, 16, 8, 0)
        acc = prototype_topk_probe(ds.train_x, ds.train_y, backbone, cfg,
                                   params, layer=3, k=1)
        # chance for top-1 over 8 classes is 0.125
        assert acc > 0.5

    @pytest.mark.parametrize("layer, k, message", [
        (0, 1, r"probe layer must lie within \[1, 4\], got 0"),
        (-1, 1, r"probe layer must lie within \[1, 4\], got -1"),
        (5, 1, r"probe layer must lie within \[1, 4\], got 5"),
        (2, 0, "probe k must be >= 1, got 0"),
        (2, -2, "probe k must be >= 1, got -2"),
    ])
    def test_out_of_range_arguments_rejected(self, layer, k, message):
        cfg, backbone, params = self._world()
        images = np.random.default_rng(8).normal(size=(4, 8, 8))
        with pytest.raises(ConfigError, match=message):
            prototype_topk_probe(images, [0, 1, 0, 1], backbone, cfg, params,
                                 layer=layer, k=k)


class TestFlopAccounting:
    def test_unit_dimensions(self):
        assert flop_estimate(1, 1, 1, 1, 1, 1) == 6

    def test_vitb_mix_overhead_hits_paper_figure(self):
        frac = prompt_mix_overhead(layers=12, heads=12, tokens=197, dim=768,
                                   head_dim=64, classes=100, mix_layers=3)
        assert frac * 100 == pytest.approx(0.008, abs=0.003)

    def test_token_count_superlinear(self):
        base = flop_estimate(12, 12, 100, 768, 64, 100)
        doubled = flop_estimate(12, 12, 200, 768, 64, 100)
        assert doubled > 2 * base

    def test_matches_term_by_term_expansion(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            L, H, T, d, dh, C = (int(rng.integers(1, 7)) for _ in range(6))
            per_head = 0
            for _ in range(L):
                for _ in range(H):
                    per_head += T * d * dh  # query
                    per_head += T * d * dh  # key
                    per_head += T * d * dh  # value
                    per_head += T * T * dh  # attention inner products
            mlp = L * T * d * d
            head = C * d
            assert flop_estimate(L, H, T, d, dh, C) == per_head + mlp + head

    def test_positive_dimensions_required(self):
        with pytest.raises(ConfigError):
            flop_estimate(0, 1, 1, 1, 1, 1)


class TestCommAccounting:
    def test_vitb_twelve_rounds_totals(self):
        report = comm_accounting(dim=768, classes=100, shared_prompts=1,
                                 mix_layers=3, rounds=12, update_period=1)
        assert report.uploaded_total == pytest.approx(4.6e6, rel=0.05)
        # exact tally: 12 * (76800 + 768 + 76800) + 12 * 230400
        assert report.uploaded_total == 4_617_216

    def test_no_mix_layers_no_prototype_payload(self):
        report = comm_accounting(dim=64, classes=10, shared_prompts=2,
                                 mix_layers=0, rounds=5)
        assert report.prototype_payload == 0
        assert report.prototype_syncs == 0
        assert report.uploaded_total == 5 * report.params_per_round

    def test_longer_period_halves_prototype_syncs(self):
        r1 = comm_accounting(dim=64, classes=10, shared_prompts=1,
                             mix_layers=2, rounds=12, update_period=1)
        r2 = comm_accounting(dim=64, classes=10, shared_prompts=1,
                             mix_layers=2, rounds=12, update_period=2)
        assert r2.prototype_syncs * 2 == r1.prototype_syncs
        assert (r1.uploaded_total - r2.uploaded_total
                == 6 * r1.prototype_payload)

    def test_is_dataclass(self):
        assert isinstance(
            comm_accounting(dim=2, classes=2, shared_prompts=1, mix_layers=1,
                            rounds=1), CommReport)
