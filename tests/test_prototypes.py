import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprompt import model
from fedprompt import tensor as te
from fedprompt.cli import write_prototypes_csv
from fedprompt.prototypes import (
    PrototypeBank,
    ScoreConstants,
    add_laplace_noise,
    aggregate_submissions,
    compute_class_priors,
    laplace_sensitivity,
    local_prototypes,
    momentum_update,
    soft_scores_op,
)


def soft_scores(cls, protos, priors, tau):
    """The scores the forward pass gives one cls token against `protos`."""
    return soft_scores_op(cls, ScoreConstants(protos, priors, tau), False)[0]


class TestClassPriors:
    def test_two_thirds(self):
        np.testing.assert_allclose(compute_class_priors(np.array([0, 0, 1]), 2),
                                   [2 / 3, 1 / 3])

    def test_single_class_one_hot(self):
        np.testing.assert_array_equal(compute_class_priors(np.array([2, 2, 2]), 4),
                                      [0, 0, 1, 0])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 6, size=200)
        counts = Counter(labels.tolist())
        expected = np.array([counts.get(c, 0) / 200 for c in range(6)])
        np.testing.assert_allclose(compute_class_priors(labels, 6), expected)


class TestLocalPrototypes:
    def test_mean_of_two(self):
        cls = np.zeros((5, 2, 2))
        cls[4] = [[1.0, 0.0], [3.0, 0.0]]
        protos, _ = local_prototypes(cls, np.array([0, 0]), num_classes=2,
                                     layers=(5,))
        np.testing.assert_allclose(protos[5][0], [2.0, 0.0])

    def test_absent_class_is_zero_vector(self):
        cls = np.full((5, 1, 2), 4.0)
        protos, sens = local_prototypes(cls, np.array([1]), num_classes=3,
                                        layers=(5,))
        np.testing.assert_array_equal(protos[5][0], [0.0, 0.0])
        np.testing.assert_array_equal(protos[5][2], [0.0, 0.0])
        assert sens[5][0] == 0.0

    def test_reads_each_layer_from_its_own_row(self):
        cls = np.arange(3.0)[:, None, None] * np.ones((3, 2, 2))
        protos, _ = local_prototypes(cls, np.array([0, 0]), num_classes=1,
                                     layers=(1, 3))
        np.testing.assert_array_equal(protos[1][0], [0.0, 0.0])
        np.testing.assert_array_equal(protos[3][0], [2.0, 2.0])

    def test_matches_bruteforce_mean(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(20, 4))
        labels = rng.integers(0, 3, size=20)
        protos, _ = local_prototypes(np.stack([vecs, vecs]), labels,
                                     num_classes=3, layers=(2,))
        for c in range(3):
            acc = np.zeros(4)
            n = 0
            for v, y in zip(vecs, labels):
                if y == c:
                    acc += v
                    n += 1
            expected = acc / n if n else np.zeros(4)
            np.testing.assert_allclose(protos[2][c], expected, atol=1e-12)


class TestAggregateSubmissions:
    def test_two_clients(self):
        agg, counts = aggregate_submissions(
            [np.array([[1.0, 0.0]]), np.array([[3.0, 0.0]])]
        )
        np.testing.assert_allclose(agg[0], [2.0, 0.0])
        assert counts[0] == 2

    def test_zero_submission_excluded(self):
        agg, counts = aggregate_submissions(
            [np.array([[0.0, 0.0]]), np.array([[4.0, 4.0]])]
        )
        np.testing.assert_allclose(agg[0], [4.0, 4.0])
        assert counts[0] == 1

    def test_matches_flat_mean_over_nonzero(self):
        rng = np.random.default_rng(2)
        subs = []
        for _ in range(6):  # three rounds x two clients
            s = rng.normal(size=(4, 3))
            s[rng.integers(0, 4)] = 0.0  # some absent classes
            subs.append(s)
        agg, counts = aggregate_submissions(subs)
        for c in range(4):
            contributions = [s[c] for s in subs if np.any(s[c] != 0.0)]
            assert counts[c] == len(contributions)
            expected = (
                np.mean(contributions, axis=0) if contributions else np.zeros(3)
            )
            np.testing.assert_allclose(agg[c], expected, atol=1e-12)


class TestMomentumUpdate:
    def test_direct_formula(self):
        out = momentum_update(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([1]), rho=0.9
        )
        np.testing.assert_allclose(out, [[0.9, 0.1]])

    def test_no_contributors_keeps_previous(self):
        prev = np.array([[5.0, 6.0]])
        out = momentum_update(prev, np.zeros((1, 2)), np.array([0]), rho=0.3)
        np.testing.assert_array_equal(out, prev)

    def test_rho_zero_takes_aggregate(self):
        agg = np.array([[7.0, 8.0]])
        out = momentum_update(np.ones((1, 2)), agg, np.array([2]), rho=0.0)
        np.testing.assert_array_equal(out, agg)

    def test_geometric_convergence(self):
        rng = np.random.default_rng(3)
        target = rng.normal(size=(3, 2))
        mu = rng.normal(size=(3, 2))
        rho = 0.8
        start_gap = np.abs(mu - target).max()
        for r in range(1, 30):
            mu = momentum_update(mu, target, np.full(3, 2), rho)
            gap = np.abs(mu - target).max()
            assert gap <= start_gap * rho**r + 1e-12


class TestSoftScores:
    def test_symmetric(self):
        cls = np.array([1.0, 1.0])
        protos = np.array([[2.0, 2.0], [0.5, 0.5]])  # both sim 1 with cls
        s = soft_scores(cls, protos, np.array([0.5, 0.5]), tau=0.05)
        np.testing.assert_allclose(s, [0.5, 0.5])

    def test_prior_mask(self):
        rng = np.random.default_rng(4)
        s = soft_scores(rng.normal(size=3), rng.normal(size=(2, 3)),
                        np.array([1.0, 0.0]), 0.05)
        np.testing.assert_array_equal(s, [1.0, 0.0])

    def test_paper_temperature_value(self):
        # sims exactly (1, 0) with tau=0.05 and even priors
        cls = np.array([1.0, 0.0])
        protos = np.array([[3.0, 0.0], [0.0, 5.0]])
        s = soft_scores(cls, protos, np.array([0.5, 0.5]), tau=0.05)
        expected = 1.0 / (1.0 + math.exp(-20.0))
        assert s[0] == pytest.approx(expected, abs=1e-15)
        assert s[0] == pytest.approx(1.0 - 2.061153622e-09, abs=1e-12)

    def test_zero_prototype_neutral_similarity(self):
        cls = np.array([1.0, 0.0])
        protos = np.array([[0.0, 0.0], [2.0, 0.0]])
        s = soft_scores(cls, protos, np.array([0.5, 0.5]), tau=1.0)
        # logits are (0, 1): softmax
        expected = np.exp([0.0, 1.0])
        expected /= expected.sum()
        np.testing.assert_allclose(s, expected, rtol=1e-12)

    def test_extreme_similarities_stay_finite(self):
        cls = np.array([1.0, 0.0])
        protos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        s = soft_scores(cls, protos, np.full(3, 1 / 3), tau=1e-4)
        assert np.isfinite(s).all()
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_simplex_invariants(self, seed):
        rng = np.random.default_rng(seed)
        c, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        cls = rng.normal(size=d)
        protos = rng.normal(size=(c, d))
        protos[rng.random(c) < 0.2] = 0.0
        priors = rng.random(c) * (rng.random(c) < 0.8)
        if priors.sum() == 0:
            priors[0] = 1.0
        priors /= priors.sum()
        tau = float(rng.uniform(0.01, 10.0))
        s = soft_scores(cls, protos, priors, tau)
        assert (s >= 0).all()
        assert abs(s.sum() - 1.0) < 1e-12
        assert np.all(s[priors == 0.0] == 0.0)

    def test_scale_invariance_in_cls(self):
        rng = np.random.default_rng(5)
        cls = rng.normal(size=4)
        protos = rng.normal(size=(3, 4))
        priors = np.array([0.2, 0.5, 0.3])
        base = soft_scores(cls, protos, priors, 0.05)
        # power-of-two scalings keep alpha*cls exactly representable, so
        # invariance must be bitwise; other scalings round the input itself
        for alpha in (0.25, 2.0, 1024.0, 2.0**-30):
            np.testing.assert_array_equal(
                soft_scores(alpha * cls, protos, priors, 0.05), base
            )
        for alpha in (1e-6, 7.0, 3.14159):
            np.testing.assert_allclose(
                soft_scores(alpha * cls, protos, priors, 0.05), base,
                rtol=0, atol=1e-13,
            )

    def test_large_temperature_collapses_to_prior(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c, d = 5, 4
            cls = rng.normal(size=d)
            protos = rng.normal(size=(c, d))
            priors = rng.random(c)
            priors /= priors.sum()
            s = soft_scores(cls, protos, priors, tau=1e6)
            assert np.abs(s - priors).max() < 1e-4


class TestSoftScoresOp:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        d, c = 5, 4
        cls = rng.normal(size=d)
        protos = rng.normal(size=(c, d))
        priors = rng.random(c)
        priors[2] = 0.0
        priors /= priors.sum()
        return cls, protos, priors, int(rng.integers(c))

    def test_backward_vs_finite_differences(self):
        cls, protos, priors, label = self._setup(7)
        consts = ScoreConstants(protos, priors, 0.7)

        def loss_from(cls_arr):
            return te.cross_entropy(soft_scores_op(cls_arr, consts, False)[0],
                                    label)

        scores, scores_map = soft_scores_op(cls, consts, grad=True)
        with te.Tape() as tape:
            te.cross_entropy(scores, label)
        auto = scores_map(tape.backward())
        oracle = te.finite_diff_grad(loss_from, cls, 1e-5)
        assert te.grad_rel_error(auto, oracle) < 1e-6

    def test_no_map_without_grad_same_forward(self):
        cls, protos, priors, _ = self._setup(8)
        consts = ScoreConstants(protos, priors, 0.7)
        s, scores_map = soft_scores_op(cls, consts, False)
        assert scores_map is None
        np.testing.assert_array_equal(s, soft_scores(cls, protos, priors, 0.7))
        np.testing.assert_array_equal(
            soft_scores_op(cls, consts, grad=True)[0], s)

    def test_evaluate_leaves_the_constants_as_built(self):
        cls, protos, priors, _ = self._setup(11)
        consts = ScoreConstants(protos, priors, 0.7)

        def state():
            return {name: (np.shape(v), np.asarray(v).dtype.str,
                           np.asarray(v).tobytes())
                    for name in consts.__slots__
                    for v in [getattr(consts, name)]}

        built = state()
        first = soft_scores_op(cls, consts, False)[0]
        assert not np.array_equal(soft_scores_op(-3.0 * cls, consts, False)[0],
                                  first)
        assert state() == built


class TestMix:
    """The token `model._mix` inserts after the cls row of a sequence:
    P @ s for the scores s of the layer's `ScoreConstants`."""

    @staticmethod
    def mix(pc, priors, rng):
        # zero prototypes score every class alike, so s is the priors
        d, c = pc.shape
        consts = ScoreConstants(np.zeros((c, d)), priors, 0.05)
        seq = rng.normal(size=(3, d))
        out = model._mix(seq, te.Tensor(pc), consts, False, None)
        # the cls row stays first and the other rows follow the mixed one
        np.testing.assert_array_equal(out[0], seq[0])
        np.testing.assert_array_equal(out[2:], seq[1:])
        return out[1], soft_scores_op(seq[0], consts, False)[0]

    def test_one_hot_selects_column(self):
        rng = np.random.default_rng(9)
        pc = rng.normal(size=(4, 3))
        mixed, s = self.mix(pc, np.array([0.0, 1.0, 0.0]), rng)
        np.testing.assert_array_equal(s, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(mixed, pc[:, 1])

    def test_uniform_mix(self):
        pc = np.array([[1.0, 0.0], [0.0, 1.0]])
        mixed, _ = self.mix(pc, np.array([0.5, 0.5]), np.random.default_rng(0))
        np.testing.assert_allclose(mixed, [0.5, 0.5])

    def test_matches_explicit_summation(self):
        rng = np.random.default_rng(10)
        pc = rng.normal(size=(6, 5))
        priors = rng.random(5)
        priors /= priors.sum()
        mixed, s = self.mix(pc, priors, rng)
        np.testing.assert_allclose(s, priors, atol=1e-15)
        expected = np.zeros(6)
        for c in range(5):
            expected += s[c] * pc[:, c]
        np.testing.assert_allclose(mixed, expected, atol=1e-15)


class TestDifferentialPrivacy:
    def test_single_token_zero_sensitivity(self):
        mu = np.array([1.0, -2.0])
        assert laplace_sensitivity(mu[None, :], mu) == 0.0

    def test_hand_computed_sensitivity(self):
        tokens = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert laplace_sensitivity(tokens, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(11)
        tokens = rng.normal(size=(30, 5))
        mu = tokens.mean(axis=0)
        best = max(float(np.abs(t - mu).sum()) for t in tokens)
        assert laplace_sensitivity(tokens, mu) == pytest.approx(2 * best / 30)

    def test_zero_scale_is_identity(self):
        proto = np.array([1.0, 2.0, 3.0])
        out = add_laplace_noise(proto, 0.0, 0.2, np.random.default_rng(0))
        np.testing.assert_array_equal(out, proto)

    def test_monte_carlo_scale(self):
        rng = np.random.default_rng(12)
        sens, eps = 0.8, 0.2
        draws = add_laplace_noise(np.zeros((1000, 1000)), sens, eps, rng)
        # E|Laplace(0, b)| = b
        assert abs(np.abs(draws).mean() - sens / eps) / (sens / eps) < 0.02


class TestPrototypeBank:
    def make_bank(self, **kw):
        return PrototypeBank(layers=(5, 6), num_classes=3, dim=2, tau=0.05,
                             **kw)

    @staticmethod
    def sens(value=0.0):
        return {5: np.full(3, value), 6: np.full(3, value)}

    @staticmethod
    def rng():
        # what a bank without epsilon is handed and never draws from
        return np.random.default_rng(0)

    def test_warm_start_plain_mean_includes_zeros(self):
        bank = self.make_bank()
        sub_a = {5: np.array([[1.0, 0], [0, 0], [2, 2]]), 6: np.zeros((3, 2))}
        sub_b = {5: np.array([[3.0, 0], [0, 0], [0, 0]]), 6: np.zeros((3, 2))}
        for sub in (sub_a, sub_b):
            bank.submit(sub, self.sens())
        bank.warm_start(self.rng())
        np.testing.assert_allclose(bank.mu[5][0], [2.0, 0.0])
        np.testing.assert_allclose(bank.mu[5][2], [1.0, 1.0])  # zero included
        assert bank._buffer == []

    def test_single_client_warm_start(self):
        bank = self.make_bank()
        sub = {5: np.arange(6.0).reshape(3, 2), 6: np.ones((3, 2))}
        bank.submit(sub, self.sens())
        bank.warm_start(self.rng())
        np.testing.assert_array_equal(bank.mu[5], sub[5])
        assert bank._buffer == []

    def test_period_update_momentum(self):
        bank = self.make_bank(rho=0.5)
        bank.mu[5] = np.ones((3, 2))
        bank.mu[6] = np.ones((3, 2))
        sub = {5: np.full((3, 2), 3.0), 6: np.full((3, 2), 5.0)}
        sens = {5: np.zeros(3), 6: np.zeros(3)}
        bank.submit(sub, sens)
        bank.apply_period_update(self.rng())
        np.testing.assert_allclose(bank.mu[5], np.full((3, 2), 2.0))
        np.testing.assert_allclose(bank.mu[6], np.full((3, 2), 3.0))
        assert len(bank._buffer) == 0

    def test_dp_uses_max_submitted_sensitivity(self):
        bank = self.make_bank(rho=0.0, epsilon=0.2)
        subs = [
            ({5: np.full((3, 2), 1.0), 6: np.zeros((3, 2))},
             {5: np.array([0.1, 0.4, 0.2]), 6: np.zeros(3)}),
            ({5: np.full((3, 2), 3.0), 6: np.zeros((3, 2))},
             {5: np.array([0.3, 0.1, 0.2]), 6: np.zeros(3)}),
        ]
        for protos, sens in subs:
            bank.submit(protos, sens)
        rng_a = np.random.default_rng(100)
        bank.apply_period_update(rng=rng_a)
        # replicate: aggregate is 2.0 everywhere; noise should use max sens
        rng_b = np.random.default_rng(100)
        expected = np.full((3, 2), 2.0)
        for c, s in enumerate([0.3, 0.4, 0.2]):
            expected[c] += rng_b.laplace(0.0, s / 0.2, size=2)
        np.testing.assert_allclose(bank.mu[5], expected)

    @pytest.mark.parametrize("value", [0.0, 1.0, 1e300, np.inf, np.nan])
    def test_noiseless_bank_draws_nothing(self, value):
        # without epsilon, neither the warm start nor a period update draws
        # from the generator, whatever sensitivities it is passed
        bank = self.make_bank()
        sub = {5: np.ones((3, 2)), 6: np.full((3, 2), 2.0)}
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        bank.submit(sub, self.sens(value))
        bank.warm_start(rng)
        assert bank._buffer == []
        bank.submit(sub, self.sens(value))
        bank.apply_period_update(rng)
        assert rng.bit_generator.state == before
        for l in bank.layers:
            np.testing.assert_array_equal(bank.mu[l], sub[l])

    def test_export_rows(self, tmp_path):
        bank = self.make_bank()
        write_prototypes_csv(bank, tmp_path / "prototypes.csv")
        header, *rows = (tmp_path / "prototypes.csv").read_text().splitlines()
        assert header == "layer,class,dim,value"
        assert len(rows) == 2 * 3 * 2
        assert rows[0] == "5,0,0,0.0"
