import dataclasses
from pathlib import Path

import numpy as np
import pytest

from backbone_digest import backbone_checksum
from fedprompt import federation
from fedprompt import tensor as te
from fedprompt.config import ExperimentConfig, TrainConfig, load_config
from fedprompt.data import PartitionSpec, SyntheticSpec
from fedprompt.errors import ConfigError, TrainingError
from fedprompt.evaluation import heldout_split
from fedprompt.federation import (
    ClientState,
    fedavg_aggregate,
    init_server,
    local_train,
    run_round,
    run_training,
    sample_clients,
    warm_startup,
)
from fedprompt.model import (ModelConfig, PromptParams, embed_patches,
                             forward_with_prompts, init_backbone)
from fedprompt.prototypes import PrototypeBank
from fedprompt.seeding import derive_rng

TINY_MODEL = ModelConfig(dim=8, layers=3, heads=2, patch_size=4,
                         mix_layers=(2,))


def tiny_experiment(seed=0, *, clients=6, classes=4, k=2, train_per_class=12,
                    test_per_class=6, noise=0.3, heldout_fraction=0.0,
                    model=TINY_MODEL, **train):
    """A run of `model` over `clients` clients holding `k` classes each;
    `train` overrides the training fields."""
    data = SyntheticSpec(classes=classes, train_per_class=train_per_class,
                         test_per_class=test_per_class, image_size=8,
                         separation=1.5, noise=noise)
    train = {"clients_per_round": 3, "rounds": 2, "local_epochs": 1,
             "batch_size": 8, "lr": 0.1, **train}
    return ExperimentConfig(
        data=data, partition=PartitionSpec("pathological", k),
        train=TrainConfig(clients=clients, **train), model=model, seed=seed,
        heldout_fraction=heldout_fraction)


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
        state = init_server(tiny_experiment(1, clients=1, k=4,
                                            clients_per_round=1,
                                            warmup_fraction=0.25))
        warm_startup(state)
        from fedprompt.federation import compute_client_prototypes
        protos, _ = compute_client_prototypes(
            state.clients[0], state.params, state.client_inputs(0)[1],
            state.backbone)
        # bank was zero during the warm-up pass, matching this recompute
        np.testing.assert_allclose(state.bank.mu[2], protos[2], atol=1e-12)

    def test_mean_over_clients_matches_bruteforce(self):
        cfg = tiny_experiment(2, clients=5, clients_per_round=2)
        state = init_server(cfg)
        warm_startup(state)
        from fedprompt.federation import compute_client_prototypes
        fresh = init_server(cfg)
        subs = [
            compute_client_prototypes(c, fresh.params,
                                      fresh.client_inputs(c.client_id)[1],
                                      fresh.backbone)[0]
            for c in fresh.clients
        ]
        expected = np.mean([s[2] for s in subs], axis=0)
        np.testing.assert_allclose(state.bank.mu[2], expected, atol=1e-12)


    def test_chosen_snapshots_enter_through_submit(self, monkeypatch):
        # the warm start folds in what the chosen clients submitted, as a
        # period update does, and leaves the buffer empty
        cfg = tiny_experiment(4, clients=6, warmup_fraction=0.5)
        submitted = []
        submit = PrototypeBank.submit

        def recording(bank, protos, sens):
            submitted.append(protos)
            submit(bank, protos, sens)

        monkeypatch.setattr(PrototypeBank, "submit", recording)
        state = init_server(cfg)
        warm_startup(state)
        chosen = sample_clients(derive_rng(4, "warmup"),
                                state.participating, 3)
        fresh = init_server(cfg)
        expected = [federation.compute_client_prototypes(
            fresh.clients[cid], *fresh.client_inputs(cid), fresh.backbone)[0]
            for cid in chosen]
        assert len(submitted) == len(chosen) == 3
        for got, want in zip(submitted, expected):
            assert np.array_equal(got[2], want[2])
        assert state.bank._buffer == []
        assert np.array_equal(state.bank.mu[2],
                              np.stack([p[2] for p in expected]).mean(axis=0))


class TestLocalTrain:
    def test_zero_lr_is_noop(self):
        state = init_server(tiny_experiment(3, lr=0.0, local_epochs=3))
        warm_startup(state)
        trained, _ = local_train(state.clients[0], state.params,
                                 state.client_inputs(0)[1], state.backbone,
                                 state.cfg, seed=3, round_index=1)
        np.testing.assert_array_equal(trained.shared.data,
                                      state.params.shared.data)
        np.testing.assert_array_equal(trained.head.data,
                                      state.params.head.data)

    def test_given_params_left_bit_for_bit_unchanged(self):
        # clients are handed the server's own blocks, so local SGD must
        # train a copy of them and leave the originals as they were
        state = init_server(tiny_experiment(3, local_epochs=2))
        warm_startup(state)
        params, consts = state.client_inputs(0)
        assert params is state.params
        before = [block.data.tobytes() for _, block in params.blocks()]
        trained, _ = local_train(state.clients[0], params, consts,
                                 state.backbone, state.cfg, seed=3,
                                 round_index=1)
        assert [block.data.tobytes() for _, block in params.blocks()] == before
        assert trained is not params
        assert trained.head.data.tobytes() != before[2]

    def test_single_step_matches_closed_form_head_update(self):
        # one sample, one epoch, huge clip, zero momentum history:
        # H' = H - lr * (softmax(logits) - onehot(y)) cls_final^T
        cfg_model = ModelConfig(dim=4, layers=1, heads=1, patch_size=2,
                                mix_layers=(1,))
        backbone = init_backbone(11, cfg_model)
        rng = np.random.default_rng(11)
        client = ClientState(
            client_id=0,
            train_x=embed_patches(rng.normal(size=(1, 4, 4)), backbone),
            train_y=np.array([1]),
            test_x=np.zeros((0, 4, 4)),  # no samples of 4 patch tokens of dim 4
            test_y=np.zeros(0, dtype=np.int64),
            priors=np.array([0.5, 0.5]),
        )
        cfg = TrainConfig(clients=1, clients_per_round=1, rounds=1,
                          local_epochs=1, batch_size=1, lr=0.05, grad_clip=1e9,
                          momentum=0.9)
        start = PromptParams.init(11, 4, 2)
        start.head.data[...] = rng.normal(size=(2, 4))
        bank = PrototypeBank(layers=(1,), num_classes=2, dim=4,
                             tau=cfg_model.tau)
        bank.mu[1] = rng.normal(size=(2, 4))

        consts = bank.score_constants(client.priors)
        logits, _ = forward_with_prompts(client.train_x[0], start, backbone,
                                         consts)
        # an identity head reads out the normalized final cls token exactly
        probe = PromptParams.from_arrays(start.shared.data,
                                         start.class_prompts.data, np.eye(4))
        cls_final, _ = forward_with_prompts(client.train_x[0], probe, backbone,
                                            consts)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        p[1] -= 1.0
        expected_head = start.head.data - cfg.lr * np.outer(p, cls_final)

        trained, _ = local_train(client, start, consts, backbone, cfg,
                                 seed=11, round_index=1)
        np.testing.assert_allclose(trained.head.data, expected_head,
                                   atol=1e-12)

    def test_loss_decreases_on_separable_shard(self):
        state = init_server(tiny_experiment(
            4, clients=2, classes=2, k=2, noise=0.1, train_per_class=10,
            clients_per_round=1, local_epochs=5, lr=0.2))
        warm_startup(state)
        client, backbone = state.clients[0], state.backbone

        consts = state.bank.score_constants(client.priors)

        def shard_loss(params):
            total = 0.0
            for x, y in zip(client.train_x, client.train_y):
                logits, _ = forward_with_prompts(x, params, backbone,
                                                 consts)
                total += te.cross_entropy(logits, int(y))
            return total / client.num_train

        before = shard_loss(state.params)
        trained, _ = local_train(client, state.params, consts, backbone,
                                 state.cfg, seed=4, round_index=1)
        after = shard_loss(trained)
        assert after <= before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradient_norm_names_round_and_client(self):
        # a head near 1e200 sends gradients near 1e200 into the prompts; their
        # squares overflow, and clipping by an infinite norm would zero the
        # step instead of failing
        state = init_server(tiny_experiment(3))
        warm_startup(state)
        start = state.params.copy()
        start.head.data[...] = np.random.default_rng(3).normal(
            scale=1e200, size=start.head.data.shape)
        with pytest.raises(TrainingError) as err:
            local_train(state.clients[0], start, state.client_inputs(0)[1],
                        state.backbone, state.cfg, seed=3, round_index=1)
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
    def _trained(self, value):
        return PromptParams.from_arrays(np.full((2, 1), float(value)),
                                        np.full((2, 3), float(value)),
                                        np.full((3, 2), float(value)))

    def test_mean_of_two(self):
        out = fedavg_aggregate([self._trained(2.0), self._trained(4.0)])
        np.testing.assert_array_equal(out.head.data, np.full((3, 2), 3.0))

    def test_idempotent_on_identical(self):
        out = fedavg_aggregate([self._trained(5.0), self._trained(5.0)])
        np.testing.assert_array_equal(out.shared.data, np.full((2, 1), 5.0))

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=5)
        out = fedavg_aggregate([self._trained(v) for v in values])
        expected = values.mean()
        assert abs(out.head.data[0, 0] - expected) < 1e-15

    def test_linearity(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=4)
        alpha = 2.5
        base = fedavg_aggregate([self._trained(v) for v in values])
        scaled = fedavg_aggregate([self._trained(alpha * v) for v in values])
        np.testing.assert_allclose(scaled.head.data, alpha * base.head.data,
                                   atol=1e-12)


class TestRounds:
    def test_update_period_semantics(self):
        state = init_server(tiny_experiment(7, update_period=2))
        warm_startup(state)
        warm = {l: state.bank.mu[l].copy() for l in state.bank.layers}
        run_round(state)
        for l in state.bank.layers:
            np.testing.assert_array_equal(state.bank.mu[l], warm[l])
        assert len(state.bank._buffer) == state.cfg.clients_per_round
        run_round(state)
        assert len(state.bank._buffer) == 0
        assert any(
            np.abs(state.bank.mu[l] - warm[l]).max() > 0 for l in state.bank.layers)

    def test_single_client_round_is_local_sgd(self):
        state = init_server(tiny_experiment(8, clients=1, k=4,
                                            clients_per_round=1, rounds=1))
        warm_startup(state)
        broadcast = state.params.copy()
        client = state.clients[0]
        consts = state.bank.score_constants(client.priors)
        expected, _ = local_train(client, broadcast, consts, state.backbone,
                                  state.cfg, seed=8, round_index=1)
        run_round(state)
        assert sample_clients(derive_rng(8, "sample", 1), state.participating,
                              1) == (0,)
        np.testing.assert_array_equal(state.params.head.data,
                                      expected.head.data)
        np.testing.assert_array_equal(state.params.shared.data,
                                      expected.shared.data)

    def test_clients_read_the_server_blocks(self):
        # broadcasting hands out the server's own blocks: a sampled client
        # is copied once, in local_train, and an evaluated one not at all
        state = init_server(tiny_experiment(8))
        warm_startup(state)
        run_round(state)
        for cid in range(len(state.clients)):
            params, _ = state.client_inputs(cid)
            assert params.shared is state.params.shared
            assert params.class_prompts is state.params.class_prompts
            assert params.head is state.params.head

    def test_three_round_determinism(self):
        logs_a = run_training(init_server(tiny_experiment(9, rounds=3)))
        logs_b = run_training(init_server(tiny_experiment(9, rounds=3)))
        assert [dataclasses.asdict(l) for l in logs_a] == [
            dataclasses.asdict(l) for l in logs_b]

    def test_zero_rounds_returns_warm_started_state(self):
        state = init_server(tiny_experiment(10, rounds=0))
        logs = run_training(state)
        assert state.round == 0
        assert len(logs) == 1
        assert logs[0].train_loss is None
        assert any(np.abs(state.bank.mu[l]).max() > 0 for l in state.bank.layers)

    def test_backbone_frozen_across_run(self):
        state = init_server(tiny_experiment(11))
        before = backbone_checksum(state.backbone)
        run_training(state)
        assert backbone_checksum(state.backbone) == before

    def test_shared_only_never_touches_bank(self, monkeypatch):
        # shared_only leaves the mix layers unread, so they keep the default
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(federation, "compute_client_prototypes",
                            counted("pass", federation.compute_client_prototypes))
        monkeypatch.setattr(PrototypeBank, "apply_period_update",
                            counted("update", PrototypeBank.apply_period_update))
        model = ModelConfig(dim=8, layers=3, heads=2, patch_size=4)
        state = init_server(tiny_experiment(12, model=model,
                                            strategy="shared_only"))
        logs = run_training(state)
        # its bank has no layers, so no client gets score constants and
        # nothing mixes, and no prototype is computed or folded in
        assert state.bank.layers == ()
        assert state.bank.mu == {}
        for cid in range(len(state.clients)):
            assert state.client_inputs(cid)[1] == {}
        assert calls == []
        assert len(logs) == 3

    def test_nonparticipants_untouched(self):
        state = init_server(tiny_experiment(13, clients_per_round=2, rounds=1))
        warm_startup(state)
        snapshots = {c.client_id: (c.train_x.copy(), c.priors.copy())
                     for c in state.clients}
        run_round(state)
        chosen = sample_clients(derive_rng(13, "sample", 1),
                                state.participating, 2)
        for c in state.clients:
            if c.client_id in chosen:
                continue
            np.testing.assert_array_equal(c.train_x, snapshots[c.client_id][0])
            np.testing.assert_array_equal(c.priors, snapshots[c.client_id][1])
            assert c.client_id not in state.personal


    def test_score_constants_built_once_per_client_and_pass(self,
                                                            monkeypatch):
        # a sampled client's prototype pass and SGD share one build; each
        # evaluated client with a test sample gets one more
        state = init_server(tiny_experiment(14, heldout_fraction=0.17))
        assert len(state.heldout) == 1
        clients = state.clients
        clients[2].test_x = clients[2].test_x[:0]
        clients[2].test_y = clients[2].test_y[:0]
        warm_startup(state)
        calls = []
        build = PrototypeBank.score_constants

        def counting(bank, priors):
            calls.append(priors)
            return build(bank, priors)

        monkeypatch.setattr(PrototypeBank, "score_constants", counting)
        run_round(state)
        chosen = sample_clients(derive_rng(14, "sample", 1),
                                state.participating, state.cfg.clients_per_round)
        evaluated = sum(1 for c in clients if c.test_y.size)
        assert evaluated == len(clients) - 1
        assert len(calls) == len(chosen) + evaluated

    def test_non_finite_period_update_names_round(self):
        state = init_server(tiny_experiment(5))
        warm_startup(state)
        # from round 1 on the Laplace noise of each period update overflows
        state.bank.epsilon = 1e-310
        with pytest.raises(TrainingError) as err:
            run_round(state)
        assert str(err.value) == "non-finite prototype norms at layer 2 (round=1)"

    def test_overflowing_prototype_norms_name_round(self):
        state = init_server(tiny_experiment(5))
        warm_startup(state)
        # noise of scale S/1e-300 leaves prototypes finite near 1e300, but
        # their squared norms overflow, which would zero every similarity
        state.bank.epsilon = 1e-300
        with pytest.raises(TrainingError) as err:
            run_round(state)
        assert str(err.value) == "non-finite prototype norms at layer 2 (round=1)"
        assert np.isfinite(state.bank.mu[2]).all()
        assert np.abs(state.bank.mu[2]).max() > 1e290


class TestInitServer:
    @pytest.mark.parametrize("clients, heldout_fraction",
                             [(4, 0.0), (6, 0.34), (8, 0.25)])
    def test_builds_the_clients_and_heldout_ids_of_its_config(
            self, clients, heldout_fraction):
        # the world follows from the config alone, so its client count is
        # `train.clients` and its heldout ids are those of `heldout_split`
        state = init_server(tiny_experiment(
            19, clients=clients, heldout_fraction=heldout_fraction,
            clients_per_round=1))
        assert [c.client_id for c in state.clients] == list(range(clients))
        split = (tuple(range(clients)), ())
        if heldout_fraction:
            split = heldout_split(range(clients), 1.0 - heldout_fraction, 19)
        assert (state.participating, state.heldout) == split

    @pytest.mark.parametrize("strategy", ["mixed", "mixed_no_prior"])
    def test_sets_the_priors_each_client_scores_with(self, strategy,
                                                     monkeypatch):
        # its own train-label frequencies, or uniform for the no-prior
        # ablation, heldout clients included: set once, and what every
        # score of the client is built from
        state = init_server(tiny_experiment(20, strategy=strategy,
                                            heldout_fraction=0.34))
        assert state.heldout
        read = []
        monkeypatch.setattr(PrototypeBank, "score_constants",
                            lambda bank, priors: read.append(priors) or {})
        for client in state.clients:
            want = np.full(4, 0.25)
            if strategy == "mixed":
                want = np.bincount(client.train_y, minlength=4) / client.num_train
            assert np.array_equal(client.priors, want)
            state.client_inputs(client.client_id)
            assert read.pop() is client.priors

    @pytest.mark.parametrize("strategy",
                             ["shared_only", "mixed", "mixed_no_prior"])
    def test_keeps_no_personal_prompts_outside_personalized(self, strategy):
        # `run_round` keeps each client's prompts whenever `personal` holds
        # any, so only `personalized` may fill it: here every participant
        # trains from, and is averaged back into, the server's own blocks
        model = TINY_MODEL
        if strategy == "shared_only":  # which leaves the default mix layers
            model = ModelConfig(dim=8, layers=3, heads=2, patch_size=4)
        state = init_server(tiny_experiment(21, strategy=strategy, rounds=1,
                                            clients_per_round=2, model=model))
        assert state.personal == {}
        warm_startup(state)
        run_round(state)
        assert state.personal == {}
        for cid in sample_clients(derive_rng(21, "sample", 1),
                                  state.participating, 2):
            assert state.client_inputs(cid)[0] is state.params


class TestPersonalizedStrategy:
    def test_only_head_aggregated(self):
        state = init_server(tiny_experiment(15, strategy="personalized",
                                            rounds=1, clients_per_round=2))
        warm_startup(state)
        run_round(state)
        # global prompt blocks stay at initialization; head moved
        init = PromptParams.init(15, TINY_MODEL.dim, 4)
        np.testing.assert_array_equal(state.params.shared.data,
                                      init.shared.data)
        np.testing.assert_array_equal(state.params.class_prompts.data,
                                      init.class_prompts.data)
        assert np.abs(state.params.head.data).max() > 0
        for cid in sample_clients(derive_rng(15, "sample", 1),
                                  state.participating, 2):
            own = state.personal[cid]
            assert isinstance(own, PromptParams)
            # a trained client starts from its own prompts and the global head
            params, _ = state.client_inputs(cid)
            assert params.shared is own.shared
            assert params.class_prompts is own.class_prompts
            assert params.head is state.params.head

    def test_head_averaged_as_every_strategy_averages(self):
        # at 3 clients a round the head is `fedavg_aggregate`'s mean of the
        # trained heads bit for bit (a sum divided once rounds otherwise)
        state = init_server(tiny_experiment(17, strategy="personalized",
                                            rounds=1, clients_per_round=3))
        init = state.params.copy()
        warm_startup(state)
        run_round(state)
        chosen = sample_clients(derive_rng(17, "sample", 1),
                                state.participating, 3)
        trained = [state.personal[cid] for cid in chosen]
        assert np.array_equal(state.params.head.data,
                              fedavg_aggregate(trained).head.data)
        for (name, block), (_, start) in zip(state.params.blocks()[:2],
                                             init.blocks()[:2]):
            assert np.array_equal(block.data, start.data), name

    def test_init_server_gives_each_participating_client_a_copy(self):
        state = init_server(tiny_experiment(
            18, strategy="personalized", rounds=1, clients_per_round=2,
            heldout_fraction=0.17))
        assert state.heldout
        assert set(state.personal) == set(state.participating)
        init = [block.data for _, block in state.params.blocks()]
        for own in state.personal.values():
            for (_, block), data in zip(own.blocks(), init):
                np.testing.assert_array_equal(block.data, data)
                assert not np.shares_memory(block.data, data)

    def test_heldout_client_gets_initial_prompts(self):
        state = init_server(tiny_experiment(
            16, strategy="personalized", rounds=1, clients_per_round=2,
            heldout_fraction=0.17))
        warm_startup(state)
        run_round(state)
        (heldout,) = state.heldout
        params, _ = state.client_inputs(heldout)
        init = PromptParams.init(16, TINY_MODEL.dim, 4)
        np.testing.assert_array_equal(params.shared.data, init.shared.data)
        np.testing.assert_array_equal(params.class_prompts.data,
                                      init.class_prompts.data)
        np.testing.assert_array_equal(params.head.data, state.params.head.data)


class TestTrainingError:
    @pytest.mark.parametrize("round_index, client_id, message", [
        (None, None, "diverged"),
        (3, None, "diverged (round=3)"),
        (None, 5, "diverged (client=5)"),
        (0, 0, "diverged (round=0, client=0)"),
    ])
    def test_message_names_its_context(self, round_index, client_id,
                                       message):
        # the context lives in the message alone, round 0 and client 0 too
        assert str(TrainingError("diverged", round_index, client_id)) == message


class TestConfigValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            TrainConfig(clients=1, clients_per_round=1, rounds=1,
                        strategy="bogus")

    def test_bad_rates(self):
        with pytest.raises(ConfigError):
            TrainConfig(clients=1, clients_per_round=1, rounds=1, lr=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(clients=1, clients_per_round=1, rounds=1, local_epochs=0)

    @pytest.mark.parametrize("mix_layers, rule", [
        ((), "be set under strategy 'mixed'"),
        ((5, 6, 7), "lie within [1, 3]")])
    def test_mixing_needs_mix_layers_of_the_model(self, mix_layers, rule):
        # ModelConfig alone does not check its mix layers against `layers`,
        # so the experiment does, before any data is drawn
        model = dataclasses.replace(TINY_MODEL, mix_layers=mix_layers)
        with pytest.raises(ConfigError) as err:
            tiny_experiment(17, model=model)
        assert str(err.value) == (
            f"model mix_layers must {rule}, got {mix_layers}")

    def test_too_many_clients_per_round(self):
        with pytest.raises(ConfigError) as err:
            tiny_experiment(17, clients=3, clients_per_round=5)
        assert str(err.value) == ("train clients_per_round must be <= 3 "
                                  "participating clients, got 5")

    @pytest.mark.parametrize("section, change, message", [
        ("train", {"clients_per_round": 99},
         "train clients_per_round must be <= 12 participating clients, "
         "got 99"),
        ("model", {"mix_layers": (9,)},
         "model mix_layers must lie within [1, 8], got (9,)"),
        ("data", {"image_size": 12},
         "data image_size 12 must be a multiple of model patch_size 8"),
    ])
    def test_init_server_checks_a_section_assigned_later(
            self, monkeypatch, section, change, message):
        # assigning a section skips `__post_init__`, so `init_server` checks
        # the config again, before it draws any data
        def no_data(*args, **kwargs):
            raise AssertionError("drew data for a config it rejects")

        monkeypatch.setattr(federation, "generate_synthetic", no_data)
        cfg = load_config(str(Path(__file__).resolve().parents[1]
                              / "configs" / "pathological.json"))
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section),
                                                  **change))
        with pytest.raises(ConfigError) as err:
            init_server(cfg)
        assert str(err.value) == message
