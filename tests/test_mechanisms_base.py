"""Tests for the mechanism interface (repro.mechanisms.base)."""

import numpy as np
import pytest

from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.errors import (
    CalibrationError,
    ConfigurationError,
    PrivacyAccountingError,
)
from repro.mechanisms import (
    CpSgdMechanism,
    DiscreteGaussianMixtureMechanism,
    DistributedDiscreteGaussian,
    SkellamMechanism,
    SkellamMixtureMechanism,
)
from repro.mechanisms.base import (
    DistributedSumEstimator,
    InputSpec,
    clip_l2,
)

from tests.test_calibration_golden import CELLS, MECHANISMS, calibrated
from tests.test_ledger_curves import RDP_MECHANISMS


class TestInputSpec:
    def test_valid(self):
        spec = InputSpec(num_participants=100, dimension=784)
        assert spec.l2_bound == 1.0

    def test_padded_dimension(self):
        assert InputSpec(1, 784).padded_dimension == 1024
        assert InputSpec(1, 1024).padded_dimension == 1024
        assert InputSpec(1, 63_610).padded_dimension == 65_536

    def test_rejects_bad_participants(self):
        with pytest.raises(ConfigurationError):
            InputSpec(num_participants=0, dimension=10)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            InputSpec(num_participants=1, dimension=0)

    def test_rejects_bad_l2(self):
        with pytest.raises(ConfigurationError):
            InputSpec(num_participants=1, dimension=10, l2_bound=0.0)


class TestClipL2:
    def test_no_op_below_bound(self):
        values = np.array([[0.3, 0.4]])
        assert np.allclose(clip_l2(values, 1.0), values)

    def test_scales_to_bound(self):
        values = np.array([[3.0, 4.0]])  # norm 5
        clipped = clip_l2(values, 1.0)
        assert np.isclose(np.linalg.norm(clipped), 1.0)
        # Direction preserved.
        assert np.allclose(clipped / np.linalg.norm(clipped), values / 5.0)

    def test_rows_independent(self):
        values = np.array([[3.0, 4.0], [0.1, 0.1]])
        clipped = clip_l2(values, 1.0)
        assert np.isclose(np.linalg.norm(clipped[0]), 1.0)
        assert np.allclose(clipped[1], values[1])

    def test_zero_vector_unchanged(self):
        assert np.allclose(clip_l2(np.zeros((2, 3)), 1.0), 0.0)

    def test_single_vector_shape(self):
        assert clip_l2(np.array([3.0, 4.0]), 1.0).shape == (2,)


class _IdentityMechanism(DistributedSumEstimator):
    """Noise-free distributed mechanism for pipeline testing."""

    name = "identity"

    def _calibrate(self, spec, accounting):
        pass

    def _encode_integer(self, scaled, rng):
        return np.round(scaled).astype(np.int64)


class TestDistributedPipeline:
    def test_uncalibrated_estimate_raises(self):
        mech = _IdentityMechanism(CompressionConfig(2**16, 64.0))
        with pytest.raises(CalibrationError):
            mech.estimate_sum(np.zeros((2, 4)), np.random.default_rng(0))

    def test_uncalibrated_spec_access_raises(self):
        mech = _IdentityMechanism(CompressionConfig(2**16, 64.0))
        with pytest.raises(CalibrationError):
            _ = mech.spec

    def test_pipeline_recovers_sum(self):
        rng = np.random.default_rng(0)
        mech = _IdentityMechanism(CompressionConfig(2**18, 512.0))
        spec = InputSpec(num_participants=10, dimension=20)
        mech.calibrate(spec, AccountingSpec(budget=PrivacyBudget(1.0)))
        values = rng.normal(size=(10, 20))
        values /= np.linalg.norm(values, axis=1, keepdims=True)
        estimate = mech.estimate_sum(values, rng)
        # Deterministic rounding at gamma=512: error ~ sqrt(n)/(2 gamma).
        assert np.allclose(estimate, values.sum(axis=0), atol=0.05)

    def test_l2_preclip_applied(self):
        rng = np.random.default_rng(1)
        mech = _IdentityMechanism(CompressionConfig(2**18, 512.0))
        spec = InputSpec(num_participants=1, dimension=8, l2_bound=1.0)
        mech.calibrate(spec, AccountingSpec(budget=PrivacyBudget(1.0)))
        big = np.full((1, 8), 100.0)
        estimate = mech.estimate_sum(big, rng)
        assert np.linalg.norm(estimate) < 1.1

    def test_wrong_width_rejected(self):
        mech = _IdentityMechanism(CompressionConfig(2**16, 64.0))
        mech.calibrate(
            InputSpec(num_participants=2, dimension=8),
            AccountingSpec(budget=PrivacyBudget(1.0)),
        )
        with pytest.raises(ConfigurationError):
            mech.estimate_sum(np.zeros((2, 9)), np.random.default_rng(0))

    def test_describe_default(self):
        mech = _IdentityMechanism(CompressionConfig(2**16, 64.0))
        assert mech.describe() == {
            "name": "identity",
            "modulus": 2**16,
            "gamma": 64.0,
        }


RDP_DISTRIBUTED = [
    SkellamMixtureMechanism,
    DiscreteGaussianMixtureMechanism,
    DistributedDiscreteGaussian,
    SkellamMechanism,
]


@pytest.mark.parametrize(
    "mechanism_type",
    [*RDP_DISTRIBUTED, CpSgdMechanism],
    ids=lambda kind: kind.name,
)
def test_uncalibrated_distributed_mechanism_refuses_to_estimate(
    mechanism_type,
):
    mechanism = mechanism_type(CompressionConfig(2**16, 64.0))
    with pytest.raises(CalibrationError, match="is not calibrated"):
        mechanism.estimate_sum(np.zeros((2, 4)), np.random.default_rng(0))


@pytest.mark.parametrize(
    "mechanism_type", RDP_DISTRIBUTED, ids=lambda kind: kind.name
)
def test_failed_calibration_leaves_the_mechanism_refusing(mechanism_type):
    """A calibration that finds no noise level has already stored the
    geometry; ``estimate_sum`` still refuses instead of running with no
    noise parameter."""
    mechanism = mechanism_type(CompressionConfig(2**4, 1.0))
    with pytest.raises(CalibrationError, match="no noise parameter"):
        mechanism.calibrate(
            InputSpec(num_participants=1, dimension=4),
            AccountingSpec(budget=PrivacyBudget(1e-4)),
        )
    with pytest.raises(CalibrationError, match="is not calibrated"):
        mechanism.estimate_sum(np.zeros((1, 4)), np.random.default_rng(0))


def _curve_outcomes(curve):
    """``alpha -> repr(tau)`` at every order 2..100, or the refusal."""
    outcomes = {}
    for alpha in range(2, 101):
        try:
            outcomes[alpha] = repr(curve(alpha))
        except PrivacyAccountingError as error:
            outcomes[alpha] = (type(error), str(error))
    return outcomes


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("mechanism_name", RDP_MECHANISMS)
def test_uncalibrated_curve_equals_the_ledger_curve(mechanism_name, cell):
    """``rdp_curve`` is a pure function of the geometry it is given: a
    fresh, never-calibrated instance prices the calibrated noise level
    exactly as the calibrated instance's ledger curve does."""
    reference = calibrated(mechanism_name, cell)
    modulus, gamma, _, participants, dimension, _, _ = CELLS[cell]
    fresh = MECHANISMS[mechanism_name](CompressionConfig(modulus, gamma))
    curve = fresh.rdp_curve(
        InputSpec(participants, dimension),
        getattr(reference, reference.noise_attribute),
        participants,
        1.0 if reference.clip is None else reference.clip.delta_inf,
    )
    assert fresh.order is None
    assert _curve_outcomes(curve) == _curve_outcomes(
        reference.per_round_rdp_curve()
    )
