"""Tests for the federated training loop (repro.fl.training)."""

import numpy as np
import pytest

from repro.config import CompressionConfig, PrivacyBudget
from repro.errors import ConfigurationError
from repro.fl.data import make_synthetic_images
from repro.fl.dpsgd import train_dpsgd
from repro.fl.model import MLPClassifier
from repro.fl.training import FederatedTrainer, TrainingConfig
from repro.mechanisms import GaussianMechanism, SkellamMixtureMechanism


@pytest.fixture(scope="module")
def tiny_task():
    rng = np.random.default_rng(0)
    return make_synthetic_images(400, 100, noise_scale=0.2, rng=rng)


def _model(seed=1):
    return MLPClassifier([784, 8, 10], np.random.default_rng(seed))


class TestTrainingConfig:
    def test_defaults_match_paper(self):
        config = TrainingConfig(rounds=10, expected_batch=5)
        assert config.optimizer == "adam"
        assert config.l2_bound == 1.0

    def test_rejects_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(rounds=0, expected_batch=5)

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(rounds=10, expected_batch=0)


class TestFederatedTrainer:
    def test_non_private_training_learns(self, tiny_task):
        # Un-clipped per-example gradients have norms ~10 at init (the
        # reason DP-SGD's clipping also acts as a useful normaliser), so
        # plain Adam needs a larger step size to make headway quickly.
        train, test = tiny_task
        model = _model()
        config = TrainingConfig(rounds=100, expected_batch=40, learning_rate=0.02)
        trainer = FederatedTrainer(model, None, train, test, config)
        before = model.accuracy(test.features, test.labels)
        history = trainer.run(np.random.default_rng(2))
        assert history.final_accuracy > before + 0.15

    def test_mechanism_requires_budget(self, tiny_task):
        train, test = tiny_task
        config = TrainingConfig(rounds=5, expected_batch=10)
        with pytest.raises(ConfigurationError):
            FederatedTrainer(
                _model(), GaussianMechanism(), train, test, config
            )

    def test_batch_larger_than_population_rejected(self, tiny_task):
        train, test = tiny_task
        config = TrainingConfig(rounds=5, expected_batch=10_000)
        with pytest.raises(ConfigurationError):
            FederatedTrainer(_model(), None, train, test, config)

    def test_sampling_rate(self, tiny_task):
        train, test = tiny_task
        config = TrainingConfig(rounds=5, expected_batch=40)
        trainer = FederatedTrainer(_model(), None, train, test, config)
        assert trainer.sampling_rate == pytest.approx(0.1)

    def test_mechanism_calibrated_for_run(self, tiny_task):
        train, test = tiny_task
        mechanism = GaussianMechanism()
        config = TrainingConfig(
            rounds=8, expected_batch=40, budget=PrivacyBudget(3.0)
        )
        trainer = FederatedTrainer(mechanism=mechanism, model=_model(),
                                   train=train, test=test, config=config)
        trainer.calibrate_mechanism()
        assert mechanism.accounting.rounds == 8
        assert mechanism.accounting.sampling_rate == pytest.approx(0.1)
        assert mechanism.spec.num_participants == 40
        assert mechanism.spec.dimension == _model().num_parameters

    def test_eval_every_collects_history(self, tiny_task):
        train, test = tiny_task
        config = TrainingConfig(
            rounds=20, expected_batch=40, eval_every=5, learning_rate=0.005
        )
        trainer = FederatedTrainer(_model(), None, train, test, config)
        history = trainer.run(np.random.default_rng(3))
        assert history.evaluated_rounds == [5, 10, 15, 20]
        assert len(history.test_accuracies) == 4

    def test_dpsgd_with_loose_budget_learns(self, tiny_task):
        train, test = tiny_task
        config = TrainingConfig(
            rounds=100,
            expected_batch=40,
            budget=PrivacyBudget(50.0),
            learning_rate=0.01,
        )
        history = train_dpsgd(_model(), train, test, config, np.random.default_rng(4))
        assert history.final_accuracy > 0.45
        assert history.mechanism_summary["name"] == "gaussian"

    def test_smm_mechanism_trains_end_to_end(self, tiny_task):
        train, test = tiny_task
        mechanism = SkellamMixtureMechanism(
            CompressionConfig(modulus=2**10, gamma=32.0)
        )
        config = TrainingConfig(
            rounds=25,
            expected_batch=40,
            budget=PrivacyBudget(8.0),
            learning_rate=0.005,
        )
        trainer = FederatedTrainer(_model(), mechanism, train, test, config)
        history = trainer.run(np.random.default_rng(5))
        assert history.mechanism_summary["name"] == "smm"
        assert 0.0 <= history.final_accuracy <= 1.0
        assert history.mechanism_summary["achieved_epsilon"] <= 8.0 + 1e-6

    def test_reproducible_given_seeds(self, tiny_task):
        train, test = tiny_task
        config = TrainingConfig(rounds=10, expected_batch=20, learning_rate=0.005)
        first = FederatedTrainer(_model(7), None, train, test, config).run(
            np.random.default_rng(9)
        )
        second = FederatedTrainer(_model(7), None, train, test, config).run(
            np.random.default_rng(9)
        )
        assert first.final_accuracy == second.final_accuracy


class TestSchedulesAndDropout:
    def test_schedule_config_round_trips(self):
        config = TrainingConfig(
            rounds=10, expected_batch=5, lr_schedule="cosine"
        )
        assert config.lr_schedule == "cosine"

    def test_unknown_schedule_fails_at_run(self, tiny_task):
        train, test = tiny_task
        config = TrainingConfig(
            rounds=2, expected_batch=5, lr_schedule="bogus"
        )
        trainer = FederatedTrainer(_model(), None, train, test, config)
        with pytest.raises(ConfigurationError, match="unknown schedule"):
            trainer.run(np.random.default_rng(0))

    def test_cosine_schedule_trains(self, tiny_task):
        train, test = tiny_task
        model = _model(1)
        before = model.accuracy(test.features, test.labels)
        config = TrainingConfig(
            rounds=100,
            expected_batch=40,
            learning_rate=0.02,
            lr_schedule="cosine",
        )
        trainer = FederatedTrainer(model, None, train, test, config)
        history = trainer.run(np.random.default_rng(2))
        assert history.final_accuracy > before + 0.15
