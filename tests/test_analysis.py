"""Tests for the theoretical-analysis helpers (repro.analysis)."""

import math

import numpy as np
import pytest

from repro.analysis import (
    noise_variance_ratio,
    sensitivity_inflation,
    smm_expected_error,
    smm_gaussian_error_ratio,
)
from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec, epsilon_for_curve
from repro.core.skellam_mixture import smm_perturb
from repro.errors import ConfigurationError
from repro.mechanisms import (
    GaussianMechanism,
    InputSpec,
    SkellamMechanism,
    SkellamMixtureMechanism,
)


class TestSmmExpectedError:
    def test_integer_data_has_no_bernoulli_term(self):
        values = np.ones((10, 4)) * 3.0
        assert smm_expected_error(values, lam=2.0) == pytest.approx(
            2 * 2.0 * 10 * 4
        )

    def test_fractional_data_adds_quantisation(self):
        values = np.full((10, 4), 0.5)
        expected = 2 * 1.0 * 10 * 4 + 10 * 4 * 0.25
        assert smm_expected_error(values, lam=1.0) == pytest.approx(expected)

    def test_gamma_rescales(self):
        values = np.ones((5, 2))
        assert smm_expected_error(values, 1.0, gamma=2.0) == pytest.approx(
            smm_expected_error(values, 1.0) / 4.0
        )

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-2, 2, size=(12, 6))
        lam = 1.5
        predicted = smm_expected_error(values, lam)
        errors = []
        for _ in range(3000):
            estimate = smm_perturb(values, lam, rng).sum(axis=0)
            errors.append(np.sum((estimate - values.sum(axis=0)) ** 2))
        assert np.mean(errors) == pytest.approx(predicted, rel=0.1)

    def test_rejects_vector_input(self):
        with pytest.raises(ConfigurationError):
            smm_expected_error(np.ones(4), 1.0)


class TestErrorRatio:
    def test_limits(self):
        assert smm_gaussian_error_ratio(2.0) == pytest.approx(1.7)
        assert smm_gaussian_error_ratio(1e9) == pytest.approx(1.2, abs=1e-6)

    def test_rejects_order_one(self):
        with pytest.raises(ConfigurationError):
            smm_gaussian_error_ratio(1.0)


class TestSensitivityInflation:
    def test_paper_regimes(self):
        # At the paper's m=2^8 FL point the baselines' sensitivity is
        # ~5x SMM's; at m=2^18 sum estimation it is ~1x.
        low_bitwidth = sensitivity_inflation(64.0, 65536)
        assert 4.5 < low_bitwidth.inflation < 5.5
        high_bitwidth = sensitivity_inflation(1024.0, 65536)
        assert 1.0 < high_bitwidth.inflation < 1.1

    def test_inflation_grows_with_dimension(self):
        small = sensitivity_inflation(32.0, 1024).inflation
        large = sensitivity_inflation(32.0, 65536).inflation
        assert large > small

    def test_inflation_shrinks_with_gamma(self):
        coarse = sensitivity_inflation(8.0, 16384).inflation
        fine = sensitivity_inflation(128.0, 16384).inflation
        assert coarse > fine


class TestNoiseVarianceRatio:
    def test_positive_and_large_in_low_bitwidth_regime(self):
        ratio = noise_variance_ratio(8.0, 16.0, 65536)
        assert ratio > 10.0

    def test_approaches_alpha_scaling_at_high_gamma(self):
        # With inflation ~1, ratio -> alpha / (1.2 alpha + 1) ~ 0.77.
        ratio = noise_variance_ratio(16.0, 2048.0, 16384)
        assert 0.5 < ratio < 1.1


def single_release_epsilon(mechanism, noise, dimension, participants):
    """One release's epsilon at ``noise``, from the mechanism's own curve."""
    curve = mechanism.rdp_curve(
        InputSpec(participants, dimension), noise, participants
    )
    accounting = AccountingSpec(budget=PrivacyBudget(epsilon=1.0, delta=1e-5))
    epsilon, _ = epsilon_for_curve(curve, accounting)
    return epsilon


class TestSingleReleaseEpsilon:
    def test_monotone_in_noise(self):
        eps_small = single_release_epsilon(GaussianMechanism(), 1.0, 128, 10)
        eps_large = single_release_epsilon(GaussianMechanism(), 10.0, 128, 10)
        assert eps_large < eps_small

    def test_smm_below_skellam_at_low_bitwidth(self):
        # Same per-participant lambda: SMM's bound (no rounding
        # inflation) gives a smaller epsilon.
        compression = CompressionConfig(modulus=2**8, gamma=8.0)
        smm = single_release_epsilon(
            SkellamMixtureMechanism(compression), 4.0, 16384, 100
        )
        skellam = single_release_epsilon(
            SkellamMechanism(compression), 4.0, 16384, 100
        )
        assert smm < skellam

    def test_finite_for_reasonable_parameters(self):
        compression = CompressionConfig(modulus=2**16, gamma=64.0)
        assert math.isfinite(
            single_release_epsilon(
                SkellamMixtureMechanism(compression), 2.0, 65536, 100
            )
        )
