"""Federated learning with distributed DP (Algorithm 3 / Algorithm 13).

One :class:`FederatedTrainer` round performs exactly the paper's loop:

1. the server "shares" the current parameters (our model object holds
   them),
2. a Poisson-sampled subset of participants is selected with rate ``q``
   (line 3; each record is one participant, Section 6.2),
3. each selected participant computes the gradient of *her own* record
   (line 5) and perturbs/encodes it with the plugged-in mechanism
   (line 6 — Algorithm 4 for SMM, Algorithm 14 for DGM, the conditional-
   rounding pipelines for DDG/Skellam/cpSGD, or plain Gaussian for the
   centralised DPSGD baseline),
4. the mechanism's secure aggregation + server decode yield the noisy
   gradient sum (lines 7-8), and
5. the server updates the model with Adam/SGD on
   ``noisy_sum / expected_batch`` (line 9; dividing by the *expected*
   batch size keeps the actual participation count private, the standard
   DPSGD convention).

Privacy calibration happens once, before training: the mechanism is
calibrated for ``T`` rounds of Poisson-subsampled composition at rate
``q`` (Theorem 6 / Theorem 9 accounting), so the *final* model satisfies
the requested ``(epsilon, delta)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.errors import ConfigurationError
from repro.fl.data import Dataset
from repro.fl.model import MLPClassifier
from repro.fl.optimizers import make_optimizer
from repro.fl.schedules import make_schedule
from repro.mechanisms.base import InputSpec, SumEstimator


@dataclasses.dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one FL training run.

    Attributes:
        rounds: Number of training iterations ``T``.
        expected_batch: Expected participants per round ``|B|``; the
            Poisson rate is ``q = expected_batch / num_records``.
        budget: Target ``(epsilon, delta)`` for the whole run; ``None``
            trains without privacy (the non-private ceiling).
        learning_rate: Server optimiser step size (0.005 in the paper).
        optimizer: ``"adam"`` (the paper's choice) or ``"sgd"``.
        l2_bound: Gradient L2 clipping norm ``Delta_2`` (1 in the paper).
        eval_every: Evaluate test accuracy every this many rounds (and
            always at the end); ``0`` evaluates only at the end.
        lr_schedule: Server learning-rate schedule name (see
            :func:`repro.fl.schedules.make_schedule`); ``"constant"``
            is the paper's setting.  Schedules act server-side only, so
            they never affect the privacy guarantee.
    """

    rounds: int
    expected_batch: int
    budget: PrivacyBudget | None = None
    learning_rate: float = 0.005
    optimizer: str = "adam"
    l2_bound: float = 1.0
    eval_every: int = 0
    lr_schedule: str = "constant"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.expected_batch < 1:
            raise ConfigurationError(
                f"expected_batch must be >= 1, got {self.expected_batch}"
            )
        if self.eval_every < 0:
            raise ConfigurationError(
                f"eval_every must be >= 0, got {self.eval_every}"
            )


@dataclasses.dataclass
class TrainingHistory:
    """Metrics collected during a run.

    Attributes:
        evaluated_rounds: Round indices at which test accuracy was taken.
        test_accuracies: Test accuracy at those rounds.
        final_accuracy: Test accuracy of the final model.
        final_loss: Test cross-entropy of the final model.
        mechanism_summary: The mechanism's calibration description.
    """

    evaluated_rounds: list[int] = dataclasses.field(default_factory=list)
    test_accuracies: list[float] = dataclasses.field(default_factory=list)
    final_accuracy: float = 0.0
    final_loss: float = 0.0
    mechanism_summary: dict = dataclasses.field(default_factory=dict)


class FederatedTrainer:
    """Run Algorithm 3 with a pluggable perturbation mechanism.

    Args:
        model: The shared model (updated in place).
        mechanism: A :class:`SumEstimator` (un-calibrated; the trainer
            calibrates it for this run's ``T`` and ``q``), or ``None``
            for non-private training.
        train: Training dataset (one record per participant).
        test: Held-out evaluation dataset.
        config: Hyper-parameters and privacy budget.
    """

    def __init__(
        self,
        model: MLPClassifier,
        mechanism: SumEstimator | None,
        train: Dataset,
        test: Dataset,
        config: TrainingConfig,
    ) -> None:
        if config.expected_batch > train.num_records:
            raise ConfigurationError(
                f"expected_batch {config.expected_batch} exceeds the "
                f"{train.num_records} available participants"
            )
        if mechanism is not None and config.budget is None:
            raise ConfigurationError(
                "a privacy budget is required when a mechanism is supplied"
            )
        self.model = model
        self.mechanism = mechanism
        self.train = train
        self.test = test
        self.config = config
        self.sampling_rate = config.expected_batch / train.num_records

    def calibrate_mechanism(self) -> None:
        """Calibrate the mechanism for this run's composition (Theorem 6)."""
        if self.mechanism is None or self.config.budget is None:
            return
        spec = InputSpec(
            num_participants=self.config.expected_batch,
            dimension=self.model.num_parameters,
            l2_bound=self.config.l2_bound,
        )
        accounting = AccountingSpec(
            budget=self.config.budget,
            rounds=self.config.rounds,
            sampling_rate=self.sampling_rate,
        )
        self.mechanism.calibrate(spec, accounting)

    def _select_round_participants(
        self, rng: np.random.Generator, round_index: int
    ) -> np.ndarray:
        """Record indices participating in one round (may be empty).

        The default is the paper's regime: Poisson sampling at rate
        ``q``.  Subclasses (e.g. the :mod:`repro.simulation` engine)
        override this to drive selection from a client population model
        instead, dropouts included.
        """
        selected = rng.random(self.train.num_records) < self.sampling_rate
        return np.flatnonzero(selected)

    def _aggregate_gradients(
        self, batch: Dataset, rng: np.random.Generator, round_index: int
    ) -> np.ndarray | None:
        """The server's gradient estimate for one sampled batch.

        Returns ``None`` to skip the round's model update (the default
        never does; the async simulation engine does when an aggregation
        round aborts below the SecAgg threshold).
        """
        per_example = self.model.per_example_gradients(
            batch.features, batch.labels
        )
        if self.mechanism is None:
            gradient_sum = per_example.sum(axis=0)
        else:
            gradient_sum = self.mechanism.estimate_sum(per_example, rng)
        return gradient_sum / self.config.expected_batch

    def run(self, rng: np.random.Generator) -> TrainingHistory:
        """Train for ``config.rounds`` rounds; returns collected metrics.

        Args:
            rng: Generator driving Poisson sampling, mechanism noise and
                SecAgg masks.
        """
        self.calibrate_mechanism()
        optimizer = make_optimizer(
            self.config.optimizer, self.config.learning_rate
        )
        schedule = make_schedule(
            self.config.lr_schedule,
            self.config.learning_rate,
            self.config.rounds,
        )
        history = TrainingHistory()
        if self.mechanism is not None:
            history.mechanism_summary = self.mechanism.describe()
        parameters = self.model.get_flat_parameters()
        for round_index in range(1, self.config.rounds + 1):
            participants = self._select_round_participants(rng, round_index)
            if participants.size == 0:
                continue  # Empty Poisson sample: no update this round.
            optimizer.learning_rate = schedule.rate(round_index)
            batch = self.train.subset(participants)
            gradient = self._aggregate_gradients(batch, rng, round_index)
            if gradient is None:
                continue  # Aggregation aborted: no update this round.
            parameters = optimizer.step(parameters, gradient)
            self.model.set_flat_parameters(parameters)
            if (
                self.config.eval_every
                and round_index % self.config.eval_every == 0
            ):
                history.evaluated_rounds.append(round_index)
                history.test_accuracies.append(
                    self.model.accuracy(self.test.features, self.test.labels)
                )
        history.final_accuracy = self.model.accuracy(
            self.test.features, self.test.labels
        )
        history.final_loss = self.model.loss(
            self.test.features, self.test.labels
        )
        return history
