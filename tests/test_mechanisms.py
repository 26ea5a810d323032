"""Integration tests for the six calibrated sum estimators.

These exercise the full calibrate -> estimate pipeline on a small sphere
dataset, checking the statistical and privacy-accounting behaviour each
mechanism must exhibit (including the paper's headline ordering at small
bitwidths).
"""

import warnings

import numpy as np
import pytest

from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.core.clipping import clip_gradient
from repro.core.dgm import dgm_perturb
from repro.core.skellam_mixture import smm_perturb
from repro.mechanisms import (
    CpSgdMechanism,
    DiscreteGaussianMixtureMechanism,
    DistributedDiscreteGaussian,
    GaussianMechanism,
    InputSpec,
    SkellamMechanism,
    SkellamMixtureMechanism,
)
from repro.sumestimation.datasets import sample_sphere

DIM = 512
N = 40


@pytest.fixture(scope="module")
def sphere():
    rng = np.random.default_rng(0)
    return sample_sphere(N, DIM, rng)


def _mse(mechanism, values, rng, trials=3):
    spec = InputSpec(num_participants=values.shape[0], dimension=values.shape[1])
    mechanism.calibrate(spec, AccountingSpec(budget=PrivacyBudget(3.0)))
    truth = values.sum(axis=0)
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(trials):
            estimate = mechanism.estimate_sum(values, rng)
            errors.append(np.mean((estimate - truth) ** 2))
    return float(np.mean(errors))


WIDE = CompressionConfig(modulus=2**18, gamma=512.0)


@pytest.mark.parametrize(
    "factory",
    [
        GaussianMechanism,
        lambda: SkellamMixtureMechanism(WIDE),
        lambda: SkellamMechanism(WIDE),
        lambda: DistributedDiscreteGaussian(WIDE),
        lambda: DiscreteGaussianMixtureMechanism(WIDE),
        lambda: CpSgdMechanism(WIDE),
    ],
    ids=["gaussian", "smm", "skellam", "ddg", "dgm", "cpsgd"],
)
class TestAllMechanisms:
    def test_estimate_roughly_unbiased(self, factory, sphere):
        rng = np.random.default_rng(1)
        mechanism = factory()
        spec = InputSpec(num_participants=N, dimension=DIM)
        mechanism.calibrate(spec, AccountingSpec(budget=PrivacyBudget(3.0)))
        truth = sphere.sum(axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimates = np.stack(
                [mechanism.estimate_sum(sphere, rng) for _ in range(30)]
            )
        bias = estimates.mean(axis=0) - truth
        spread = estimates.std(axis=0).mean() + 1e-9
        # Bias must be well inside the noise floor.
        assert np.abs(bias).mean() < spread

    def test_achieved_epsilon_within_budget(self, factory, sphere):
        mechanism = factory()
        spec = InputSpec(num_participants=N, dimension=DIM)
        mechanism.calibrate(spec, AccountingSpec(budget=PrivacyBudget(3.0)))
        achieved = mechanism.describe().get("achieved_epsilon")
        assert achieved is not None
        assert achieved <= 3.0 + 1e-6

    def test_describe_contains_name(self, factory, sphere):
        mechanism = factory()
        assert "name" in mechanism.describe()


class TestPrivacyUtilityMonotonicity:
    def test_mse_decreases_with_epsilon(self, sphere):
        rng = np.random.default_rng(2)
        mses = []
        for epsilon in [0.5, 2.0, 8.0]:
            mechanism = GaussianMechanism()
            spec = InputSpec(num_participants=N, dimension=DIM)
            mechanism.calibrate(
                spec, AccountingSpec(budget=PrivacyBudget(epsilon))
            )
            truth = sphere.sum(axis=0)
            estimates = np.stack(
                [mechanism.estimate_sum(sphere, rng) for _ in range(20)]
            )
            mses.append(float(np.mean((estimates - truth) ** 2)))
        assert mses[0] > mses[1] > mses[2]

    def test_smm_mse_tracks_gaussian_within_small_factor(self, sphere):
        # Corollary 2: SMM's DP error is at most a small constant above
        # continuous Gaussian at the same budget (wide pipe, large gamma).
        rng = np.random.default_rng(3)
        gaussian_mse = _mse(GaussianMechanism(), sphere, rng, trials=10)
        smm_mse = _mse(SkellamMixtureMechanism(WIDE), sphere, rng, trials=10)
        assert smm_mse < 3.0 * gaussian_mse


class TestLowBitwidthOrdering:
    def test_smm_beats_conditional_rounding_at_small_bitwidth(self, sphere):
        # The paper's headline (Figure 1a-c): at coarse quantisation the
        # rounding-based mechanisms pay a huge sensitivity penalty.
        rng = np.random.default_rng(4)
        narrow = CompressionConfig(modulus=2**10, gamma=8.0)
        smm_mse = _mse(SkellamMixtureMechanism(narrow), sphere, rng, trials=5)
        skellam_mse = _mse(SkellamMechanism(narrow), sphere, rng, trials=5)
        ddg_mse = _mse(DistributedDiscreteGaussian(narrow), sphere, rng, trials=5)
        assert smm_mse < skellam_mse
        assert smm_mse < ddg_mse

    def test_cpsgd_is_worst_at_any_bitwidth(self, sphere):
        rng = np.random.default_rng(5)
        config = CompressionConfig(modulus=2**14, gamma=64.0)
        cpsgd_mse = _mse(CpSgdMechanism(config), sphere, rng, trials=5)
        smm_mse = _mse(SkellamMixtureMechanism(config), sphere, rng, trials=5)
        assert cpsgd_mse > smm_mse


class TestCalibrationDetails:
    def test_smm_delta_inf_positive(self, sphere):
        mechanism = SkellamMixtureMechanism(WIDE)
        mechanism.calibrate(
            InputSpec(num_participants=N, dimension=DIM),
            AccountingSpec(budget=PrivacyBudget(3.0)),
        )
        assert mechanism.clip is not None
        assert mechanism.clip.delta_inf > 0
        assert mechanism.clip.c == pytest.approx(WIDE.gamma**2)

    def test_ddg_integer_sigma(self, sphere):
        mechanism = DistributedDiscreteGaussian(WIDE, integer_sigma=True)
        mechanism.calibrate(
            InputSpec(num_participants=N, dimension=DIM),
            AccountingSpec(budget=PrivacyBudget(3.0)),
        )
        assert mechanism.effective_sigma == float(int(mechanism.effective_sigma))
        assert mechanism.effective_sigma >= mechanism.sigma

    def test_dgm_effective_sigma_at_least_calibrated(self, sphere):
        mechanism = DiscreteGaussianMixtureMechanism(WIDE)
        mechanism.calibrate(
            InputSpec(num_participants=N, dimension=DIM),
            AccountingSpec(budget=PrivacyBudget(3.0)),
        )
        assert mechanism.effective_sigma >= mechanism.sigma

    def test_cpsgd_trials_positive_even(self, sphere):
        mechanism = CpSgdMechanism(WIDE)
        mechanism.calibrate(
            InputSpec(num_participants=N, dimension=DIM),
            AccountingSpec(budget=PrivacyBudget(3.0)),
        )
        assert mechanism.trials_per_participant > 0
        assert mechanism.trials_per_participant % 2 == 0

    def test_skellam_rounded_bound_exceeds_scaled_norm(self, sphere):
        mechanism = SkellamMechanism(WIDE)
        mechanism.calibrate(
            InputSpec(num_participants=N, dimension=DIM),
            AccountingSpec(budget=PrivacyBudget(3.0)),
        )
        assert mechanism.rounded_l2_bound > WIDE.gamma

    def test_smm_encoding_is_smm_perturb(self, sphere):
        mechanism = SkellamMixtureMechanism(WIDE)
        mechanism.calibrate(
            InputSpec(num_participants=N, dimension=DIM),
            AccountingSpec(budget=PrivacyBudget(3.0)),
        )
        scaled = WIDE.gamma * sphere[:4]
        np.testing.assert_array_equal(
            mechanism._encode_integer(scaled, np.random.default_rng(9)),
            smm_perturb(
                clip_gradient(scaled, mechanism.clip),
                mechanism.lam,
                np.random.default_rng(9),
            ),
        )

    def test_dgm_encoding_is_dgm_perturb(self, sphere):
        mechanism = DiscreteGaussianMixtureMechanism(WIDE)
        mechanism.calibrate(
            InputSpec(num_participants=N, dimension=DIM),
            AccountingSpec(budget=PrivacyBudget(3.0)),
        )
        scaled = WIDE.gamma * sphere[:4]
        np.testing.assert_array_equal(
            mechanism._encode_integer(scaled, np.random.default_rng(9)),
            dgm_perturb(
                clip_gradient(scaled, mechanism.clip),
                mechanism.effective_sigma**2,
                np.random.default_rng(9),
            ),
        )

    def test_fl_style_accounting(self, sphere):
        # Calibrating for many subsampled rounds still meets the budget.
        mechanism = SkellamMixtureMechanism(WIDE)
        mechanism.calibrate(
            InputSpec(num_participants=N, dimension=DIM),
            AccountingSpec(
                budget=PrivacyBudget(3.0), rounds=50, sampling_rate=0.05
            ),
        )
        assert mechanism.achieved_epsilon <= 3.0 + 1e-6
