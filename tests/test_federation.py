import dataclasses

import numpy as np
import pytest

from backbone_digest import backbone_checksum
from fedprompt import evaluation, federation
from fedprompt import tensor as te
from fedprompt.data import SyntheticSpec, generate_synthetic, partition_pathological
from fedprompt.errors import ConfigError, TrainingError
from fedprompt.federation import (
    ClientState,
    TrainConfig,
    build_clients,
    fedavg_aggregate,
    init_server,
    local_train,
    run_round,
    run_training,
    sample_clients,
    warm_startup,
)
from fedprompt.model import (ModelConfig, PromptParams, forward_with_prompts,
                             init_backbone, score_constants)
from fedprompt.seeding import derive_rng

TINY_MODEL = ModelConfig(dim=8, layers=3, heads=2, image_size=8, patch_size=4,
                         mix_layers=(2,))


def tiny_world(seed=0, clients=6, classes=4, k=2, train_per_class=12,
               test_per_class=6, noise=0.3):
    spec = SyntheticSpec(classes=classes, train_per_class=train_per_class,
                         test_per_class=test_per_class, image_size=8,
                         separation=1.5, noise=noise)
    ds = generate_synthetic(spec, seed)
    part = partition_pathological(ds, clients, k, seed)
    return build_clients(ds, part), init_backbone(seed, TINY_MODEL)


def tiny_cfg(**kw):
    defaults = dict(clients_per_round=3, rounds=2, local_epochs=1, batch_size=8,
                    lr=0.1)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSampleClients:
    def test_full_participation(self):
        rng = derive_rng(0, "sample", 1)
        assert sample_clients(rng, range(5), 5) == (0, 1, 2, 3, 4)

    def test_deterministic_per_seed_round(self):
        a = sample_clients(derive_rng(3, "sample", 7), range(10), 4)
        b = sample_clients(derive_rng(3, "sample", 7), range(10), 4)
        assert a == b
        c = sample_clients(derive_rng(3, "sample", 8), range(10), 4)
        assert isinstance(c, tuple)

    def test_count_too_large(self):
        with pytest.raises(ConfigError):
            sample_clients(derive_rng(0, "sample", 1), range(3), 4)

    def test_participation_frequency(self):
        n, count, rounds = 10, 3, 10_000
        hits = np.zeros(n)
        for t in range(rounds):
            for cid in sample_clients(derive_rng(1, "sample", t), range(n), count):
                hits[cid] += 1
        freq = hits / rounds
        assert np.abs(freq - count / n).max() < 0.02


class TestWarmStartup:
    def test_single_client_bank_equals_local_prototypes(self):
        clients, backbone = tiny_world(1, clients=4, classes=4, k=4)
        cfg = tiny_cfg(clients_per_round=1, warmup_fraction=0.25)
        state = init_server(clients[:1], backbone, TINY_MODEL, cfg, seed=1)
        warm_startup(state)
        from fedprompt.federation import compute_client_prototypes
        protos, _ = compute_client_prototypes(
            clients[0], state.params, state.client_inputs(0)[1], backbone,
            state.model_cfg)
        # bank was zero during the warm-up pass, matching this recompute
        np.testing.assert_allclose(state.bank.mu[2], protos[2], atol=1e-12)

    def test_mean_over_clients_matches_bruteforce(self):
        clients, backbone = tiny_world(2, clients=5, classes=4, k=2)
        cfg = tiny_cfg(clients_per_round=2)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=2)
        warm_startup(state)
        from fedprompt.federation import compute_client_prototypes
        fresh = init_server(clients, backbone, TINY_MODEL, cfg, seed=2)
        subs = [
            compute_client_prototypes(c, fresh.params,
                                      fresh.client_inputs(c.client_id)[1],
                                      backbone, fresh.model_cfg)[0]
            for c in clients
        ]
        expected = np.mean([s[2] for s in subs], axis=0)
        np.testing.assert_allclose(state.bank.mu[2], expected, atol=1e-12)


class TestLocalTrain:
    def test_zero_lr_is_noop(self):
        clients, backbone = tiny_world(3)
        cfg = tiny_cfg(lr=0.0, local_epochs=3)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=3)
        warm_startup(state)
        update = local_train(clients[0], state.params,
                             state.client_inputs(0)[1], backbone,
                             state.model_cfg, cfg, seed=3, round_index=1)
        np.testing.assert_array_equal(update.params.shared.data,
                                      state.params.shared.data)
        np.testing.assert_array_equal(update.params.head.data,
                                      state.params.head.data)

    def test_given_params_left_bit_for_bit_unchanged(self):
        # clients are handed the server's own blocks, so local SGD must
        # train a copy of them and leave the originals as they were
        clients, backbone = tiny_world(3)
        cfg = tiny_cfg(local_epochs=2)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=3)
        warm_startup(state)
        params, consts = state.client_inputs(0)
        assert params is state.params
        before = [block.data.tobytes() for _, block in params.blocks()]
        update = local_train(clients[0], params, consts, backbone,
                             state.model_cfg, cfg, seed=3, round_index=1)
        assert [block.data.tobytes() for _, block in params.blocks()] == before
        assert update.params is not params
        assert update.params.head.data.tobytes() != before[2]

    def test_single_step_matches_closed_form_head_update(self):
        # one sample, one epoch, huge clip, zero momentum history:
        # H' = H - lr * (softmax(logits) - onehot(y)) cls_final^T
        cfg_model = ModelConfig(dim=4, layers=1, heads=1, image_size=4,
                                patch_size=2, mix_layers=(1,))
        backbone = init_backbone(11, cfg_model)
        rng = np.random.default_rng(11)
        client = ClientState(
            client_id=0,
            train_x=rng.normal(size=(1, 4, 4)),
            train_y=np.array([1]),
            test_x=np.zeros((0, 4, 4)),
            test_y=np.zeros(0, dtype=np.int64),
            priors=np.array([0.5, 0.5]),
        )
        cfg = TrainConfig(clients_per_round=1, rounds=1, local_epochs=1,
                          batch_size=1, lr=0.05, grad_clip=1e9, momentum=0.9)
        start = PromptParams.init(11, 4, 2, 1)
        start.head.data[...] = rng.normal(size=(2, 4))
        from fedprompt.prototypes import PrototypeBank
        bank = PrototypeBank(layers=(1,), num_classes=2, dim=4)
        bank.mu[1] = rng.normal(size=(2, 4))

        consts = score_constants(cfg_model, bank, client.priors)
        logits, _ = forward_with_prompts(client.train_x[0], start, backbone,
                                         cfg_model, consts)
        # an identity head reads out the normalized final cls token exactly
        probe = PromptParams.from_arrays(start.shared.data,
                                         start.class_prompts.data, np.eye(4))
        cls_final, _ = forward_with_prompts(client.train_x[0], probe, backbone,
                                            cfg_model, consts)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        p[1] -= 1.0
        expected_head = start.head.data - cfg.lr * np.outer(p, cls_final)

        update = local_train(client, start, consts, backbone, cfg_model, cfg,
                             seed=11, round_index=1)
        np.testing.assert_allclose(update.params.head.data, expected_head,
                                   atol=1e-12)

    def test_loss_decreases_on_separable_shard(self):
        clients, backbone = tiny_world(4, clients=2, classes=2, k=2, noise=0.1,
                                       train_per_class=10)
        cfg = tiny_cfg(clients_per_round=1, local_epochs=5, lr=0.2)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=4)
        warm_startup(state)
        client = clients[0]

        consts = score_constants(state.model_cfg, state.bank, client.priors)

        def shard_loss(params):
            total = 0.0
            for x, y in zip(client.train_x, client.train_y):
                logits, _ = forward_with_prompts(x, params, backbone,
                                                 state.model_cfg, consts)
                total += te.cross_entropy(logits, int(y))
            return total / client.num_train

        before = shard_loss(state.params)
        update = local_train(client, state.params, consts, backbone,
                             state.model_cfg, cfg, seed=4, round_index=1)
        after = shard_loss(update.params)
        assert after <= before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradient_norm_names_round_and_client(self):
        # a head near 1e200 sends gradients near 1e200 into the prompts; their
        # squares overflow, and clipping by an infinite norm would zero the
        # step instead of failing
        clients, backbone = tiny_world(3)
        cfg = tiny_cfg()
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=3)
        warm_startup(state)
        start = state.params.copy()
        start.head.data[...] = np.random.default_rng(3).normal(
            scale=1e200, size=start.head.data.shape)
        with pytest.raises(TrainingError) as err:
            local_train(clients[0], start, state.client_inputs(0)[1], backbone,
                        state.model_cfg, cfg, seed=3, round_index=1)
        assert str(err.value) == "non-finite gradient norm (round=1, client=0)"

    def test_gradient_clipping_caps_step(self):
        from fedprompt.federation import _clip_global_norm
        grads = [np.full((2, 2), 100.0), np.full(3, -50.0)]
        clipped, norm = _clip_global_norm(grads, 10.0)
        total = np.sqrt(sum((g**2).sum() for g in clipped))
        assert norm > 10.0
        assert total == pytest.approx(10.0)
        small, _ = _clip_global_norm([np.ones(2)], 10.0)
        np.testing.assert_array_equal(small[0], np.ones(2))


class TestFedAvg:
    def _update(self, cid, value, n=4):
        from fedprompt.federation import ClientUpdate
        return ClientUpdate(
            client_id=cid,
            params=PromptParams.from_arrays(np.full((2, 1), float(value)),
                                            np.full((2, 3), float(value)),
                                            np.full((3, 2), float(value))),
            prototypes={}, sensitivities={}, num_samples=n, mean_loss=0.0)

    def test_mean_of_two(self):
        out = fedavg_aggregate([self._update(0, 2.0), self._update(1, 4.0)])
        np.testing.assert_array_equal(out.head.data, np.full((3, 2), 3.0))

    def test_idempotent_on_identical(self):
        out = fedavg_aggregate([self._update(0, 5.0), self._update(1, 5.0)])
        np.testing.assert_array_equal(out.shared.data, np.full((2, 1), 5.0))

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(5)
        updates = []
        values = rng.normal(size=5)
        for cid, v in enumerate(values):
            updates.append(self._update(cid, v))
        out = fedavg_aggregate(updates)
        expected = values.mean()
        assert abs(out.head.data[0, 0] - expected) < 1e-15

    def test_linearity(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=4)
        alpha = 2.5
        base = fedavg_aggregate([self._update(i, v) for i, v in enumerate(values)])
        scaled = fedavg_aggregate(
            [self._update(i, alpha * v) for i, v in enumerate(values)])
        np.testing.assert_allclose(scaled.head.data, alpha * base.head.data,
                                   atol=1e-12)

    def test_weighted_averaging(self):
        updates = [self._update(0, 1.0, n=1), self._update(1, 4.0, n=3)]
        out = fedavg_aggregate(updates, weighted=True)
        np.testing.assert_allclose(out.head.data, np.full((3, 2), 3.25))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            fedavg_aggregate([])


class TestRounds:
    def test_update_period_semantics(self):
        clients, backbone = tiny_world(7)
        cfg = tiny_cfg(rounds=2, update_period=2)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=7)
        warm_startup(state)
        warm = {l: state.bank.mu[l].copy() for l in state.bank.layers}
        run_round(state)
        for l in state.bank.layers:
            np.testing.assert_array_equal(state.bank.mu[l], warm[l])
        assert state.bank.pending() == cfg.clients_per_round
        run_round(state)
        assert state.bank.pending() == 0
        assert any(
            np.abs(state.bank.mu[l] - warm[l]).max() > 0 for l in state.bank.layers)

    def test_single_client_round_is_local_sgd(self):
        clients, backbone = tiny_world(8, clients=1, classes=4, k=4)
        cfg = tiny_cfg(clients_per_round=1, rounds=1)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=8)
        warm_startup(state)
        broadcast = state.params.copy()
        consts = score_constants(state.model_cfg, state.bank, clients[0].priors)
        expected = local_train(clients[0], broadcast, consts, backbone,
                               state.model_cfg, cfg, seed=8, round_index=1)
        log = run_round(state)
        assert log.participants == (0,)
        np.testing.assert_array_equal(state.params.head.data,
                                      expected.params.head.data)
        np.testing.assert_array_equal(state.params.shared.data,
                                      expected.params.shared.data)

    def test_clients_read_the_server_blocks(self):
        # broadcasting hands out the server's own blocks: a sampled client
        # is copied once, in local_train, and an evaluated one not at all
        clients, backbone = tiny_world(8)
        state = init_server(clients, backbone, TINY_MODEL, tiny_cfg(), seed=8)
        warm_startup(state)
        run_round(state)
        for cid in range(len(clients)):
            params, _ = state.client_inputs(cid)
            assert params.shared is state.params.shared
            assert params.class_prompts is state.params.class_prompts
            assert params.head is state.params.head

    def test_three_round_determinism(self):
        clients_a, backbone_a = tiny_world(9)
        _, logs_a = run_training(clients_a, backbone_a, TINY_MODEL,
                                 tiny_cfg(rounds=3), seed=9)
        clients_b, backbone_b = tiny_world(9)
        _, logs_b = run_training(clients_b, backbone_b, TINY_MODEL,
                                 tiny_cfg(rounds=3), seed=9)
        assert [dataclasses.asdict(l) for l in logs_a] == [
            dataclasses.asdict(l) for l in logs_b]

    def test_zero_rounds_returns_warm_started_state(self):
        clients, backbone = tiny_world(10)
        state, logs = run_training(clients, backbone, TINY_MODEL,
                                   tiny_cfg(rounds=0), seed=10)
        assert state.round == 0
        assert len(logs) == 1
        assert logs[0].train_loss is None
        assert any(np.abs(state.bank.mu[l]).max() > 0 for l in state.bank.layers)

    def test_backbone_frozen_across_run(self):
        clients, backbone = tiny_world(11)
        before = backbone_checksum(backbone)
        run_training(clients, backbone, TINY_MODEL, tiny_cfg(rounds=2), seed=11)
        assert backbone_checksum(backbone) == before

    def test_shared_only_never_touches_bank(self):
        clients, backbone = tiny_world(12)
        cfg = tiny_cfg(strategy="shared_only", rounds=2)
        state, logs = run_training(clients, backbone, TINY_MODEL, cfg, seed=12)
        assert state.bank is None
        assert state.model_cfg.mix_layers == ()
        assert len(logs) == 3

    def test_nonparticipants_untouched(self):
        clients, backbone = tiny_world(13, clients=6)
        cfg = tiny_cfg(clients_per_round=2, rounds=1)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=13)
        warm_startup(state)
        snapshots = {
            c.client_id: (c.train_x.copy(), c.priors.copy()) for c in clients}
        log = run_round(state)
        for c in clients:
            if c.client_id in log.participants:
                continue
            np.testing.assert_array_equal(c.train_x, snapshots[c.client_id][0])
            np.testing.assert_array_equal(c.priors, snapshots[c.client_id][1])
            assert c.client_id not in state.personal


    def test_score_constants_built_once_per_client_and_pass(self,
                                                            monkeypatch):
        # a sampled client's prototype pass and SGD share one build; each
        # evaluated client with a test sample gets one more
        clients, backbone = tiny_world(14)
        clients[2].test_x = clients[2].test_x[:0]
        clients[2].test_y = clients[2].test_y[:0]
        state = init_server(clients, backbone, TINY_MODEL,
                            tiny_cfg(clients_per_round=3), seed=14,
                            heldout=(5,))
        warm_startup(state)
        calls = []

        def counting(*args):
            calls.append(args)
            return score_constants(*args)

        for module in (federation, evaluation):
            monkeypatch.setattr(module, "score_constants", counting)
        log = run_round(state)
        evaluated = sum(1 for c in clients if c.test_y.size)
        assert evaluated == len(clients) - 1
        assert len(calls) == len(log.participants) + evaluated

    def test_non_finite_period_update_names_round(self):
        clients, backbone = tiny_world(5)
        state = init_server(clients, backbone, TINY_MODEL, tiny_cfg(), seed=5)
        warm_startup(state)
        # from round 1 on the Laplace noise of each period update overflows
        state.bank.epsilon = 1e-310
        with pytest.raises(TrainingError) as err:
            run_round(state)
        assert str(err.value) == "non-finite prototype norms at layer 2 (round=1)"

    def test_overflowing_prototype_norms_name_round(self):
        clients, backbone = tiny_world(5)
        state = init_server(clients, backbone, TINY_MODEL, tiny_cfg(), seed=5)
        warm_startup(state)
        # noise of scale S/1e-300 leaves prototypes finite near 1e300, but
        # their squared norms overflow, which would zero every similarity
        state.bank.epsilon = 1e-300
        with pytest.raises(TrainingError) as err:
            run_round(state)
        assert str(err.value) == "non-finite prototype norms at layer 2 (round=1)"
        assert np.isfinite(state.bank.mu[2]).all()
        assert np.abs(state.bank.mu[2]).max() > 1e290


class TestPersonalizedStrategy:
    def test_only_head_aggregated(self):
        clients, backbone = tiny_world(15)
        cfg = tiny_cfg(strategy="personalized", rounds=1, clients_per_round=2)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=15)
        warm_startup(state)
        log = run_round(state)
        # global prompt blocks stay at initialization; head moved
        init = PromptParams.init(15, TINY_MODEL.dim, 4, cfg.shared_prompts)
        np.testing.assert_array_equal(state.params.shared.data,
                                      init.shared.data)
        np.testing.assert_array_equal(state.params.class_prompts.data,
                                      init.class_prompts.data)
        assert np.abs(state.params.head.data).max() > 0
        for cid in log.participants:
            own = state.personal[cid]
            assert isinstance(own, PromptParams)
            # a trained client starts from its own prompts and the global head
            params, _ = state.client_inputs(cid)
            assert params.shared is own.shared
            assert params.class_prompts is own.class_prompts
            assert params.head is state.params.head

    def test_heldout_client_gets_initial_prompts(self):
        clients, backbone = tiny_world(16)
        cfg = tiny_cfg(strategy="personalized", rounds=1, clients_per_round=2)
        state = init_server(clients, backbone, TINY_MODEL, cfg, seed=16,
                            heldout=(5,))
        warm_startup(state)
        run_round(state)
        params = state.broadcast_params(5)
        init = PromptParams.init(16, TINY_MODEL.dim, 4, cfg.shared_prompts)
        np.testing.assert_array_equal(params.shared.data, init.shared.data)
        np.testing.assert_array_equal(params.class_prompts.data,
                                      init.class_prompts.data)
        np.testing.assert_array_equal(params.head.data, state.params.head.data)


class TestConfigValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            TrainConfig(clients_per_round=1, rounds=1, strategy="bogus")

    def test_bad_rates(self):
        with pytest.raises(ConfigError):
            TrainConfig(clients_per_round=1, rounds=1, lr=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(clients_per_round=1, rounds=1, local_epochs=0)

    def test_too_many_clients_per_round(self):
        clients, backbone = tiny_world(17, clients=3, classes=4, k=2)
        with pytest.raises(ConfigError):
            init_server(clients, backbone, TINY_MODEL,
                        tiny_cfg(clients_per_round=5), seed=17)
