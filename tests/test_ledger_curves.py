"""The ledger's per-round curve is the curve calibration inverted.

Every RDP mechanism states its accounting once, in ``rdp_curve``;
``SumEstimator.per_round_rdp_curve`` evaluates it at the calibrated
noise level.  Composing that curve ``T`` times at rate ``q`` in an
:class:`~repro.accounting.rdp.RdpAccountant` must therefore land on the
epsilon calibration reported — the simulation engine's ledger and the
calibrator cannot disagree about what a round costs.
"""

import pytest

from repro.accounting.rdp import RdpAccountant
from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.errors import CalibrationError, PrivacyAccountingError
from repro.mechanisms import InputSpec, SkellamMixtureMechanism

from tests.test_calibration_golden import CELLS, MECHANISMS, calibrated

RDP_MECHANISMS = ("smm", "dgm", "ddg", "skellam", "gaussian")


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("mechanism_name", RDP_MECHANISMS)
def test_ledger_reproduces_calibrated_epsilon(mechanism_name, cell):
    mechanism = calibrated(mechanism_name, cell)
    accounting = mechanism.accounting
    ledger = RdpAccountant(orders=accounting.budget.orders)
    ledger.step_subsampled(
        mechanism.per_round_rdp_curve(),
        accounting.sampling_rate,
        count=accounting.rounds,
    )
    delta = accounting.budget.delta
    assert ledger.epsilon(delta) == mechanism.achieved_epsilon
    assert ledger.best_order(delta) == mechanism.order


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cpsgd_has_no_rdp_curve(cell):
    with pytest.raises(CalibrationError):
        calibrated("cpsgd", cell).per_round_rdp_curve()


@pytest.mark.parametrize("mechanism_name", RDP_MECHANISMS)
def test_uncalibrated_curve_refused(mechanism_name):
    mechanism = MECHANISMS[mechanism_name](CompressionConfig(2**8, 32.0))
    with pytest.raises(CalibrationError):
        mechanism.per_round_rdp_curve()


#: SMM's ledger curve on the ``smm_train_wide`` cell at survivor counts
#: k, recorded before the curve was merged with calibration's: order ->
#: tau at every feasible order of 2..100 (every other order raises).
SMM_SURVIVOR_CURVES = {
    32: {
        2: "0.22376759431840093",
        3: "0.30274439231313066",
        4: "0.3817211903078604",
        5: "0.4606979883025901",
        6: "0.5396747862973198",
    },
    29: {
        2: "0.2469159661444424",
        3: "0.33406277772483384",
        4: "0.4212095893052253",
        5: "0.5083564008856167",
    },
    8: {2: "0.8950703772736037", 3: "1.2109775692525226"},
    1: {},
}


@pytest.mark.parametrize("survivors", sorted(SMM_SURVIVOR_CURVES))
def test_smm_curve_at_reduced_survivors_is_pinned(survivors):
    curve = calibrated("smm", "smm_train_wide").per_round_rdp_curve(survivors)
    feasible = {}
    for alpha in range(2, 101):
        try:
            feasible[alpha] = repr(curve(alpha))
        except PrivacyAccountingError:
            pass
    assert feasible == SMM_SURVIVOR_CURVES[survivors]


def test_recalibration_does_not_read_the_previous_clip():
    """A second ``calibrate`` equals a fresh one: the calibration curve
    takes ``Delta_inf`` as an argument, never from the last run's clip."""

    def calibrate(mechanism, epsilon):
        mechanism.calibrate(
            InputSpec(num_participants=16, dimension=100),
            AccountingSpec(budget=PrivacyBudget(epsilon=epsilon), rounds=3),
        )
        return mechanism.lam, mechanism.order, mechanism.clip

    compression = CompressionConfig(modulus=2**12, gamma=2**12 / 8)
    reused = SkellamMixtureMechanism(compression)
    calibrate(reused, 10.0)
    assert calibrate(reused, 1.0) == calibrate(
        SkellamMixtureMechanism(compression), 1.0
    )
