"""The ledger's per-round curve is the curve calibration inverted.

Every RDP mechanism states its accounting once, in ``rdp_curve``;
``SumEstimator.per_round_rdp_curve`` evaluates it at the calibrated
noise level.  Composing that curve ``T`` times at rate ``q`` in an
:class:`~repro.accounting.rdp.RdpAccountant` must therefore land on the
epsilon calibration reported — the simulation engine's ledger and the
calibrator cannot disagree about what a round costs.
"""

from collections import Counter

import pytest

import repro.simulation.engine as engine_module
from repro.accounting.rdp import RdpAccountant
from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.errors import CalibrationError, PrivacyAccountingError
from repro.mechanisms import InputSpec, SkellamMixtureMechanism
from repro.simulation import BernoulliDropout, SimulationConfig, SimulationEngine

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


#: Fixed-seed engine runs — configuration, dropout rate, parameters
#: digest, each round's cumulative epsilon — recorded while the ledger
#: still re-derived the subsampled curve every round: ``smm_train_wide``'s
#: configuration, and one whose charges follow the survivor count
#: (q = 1/3, survivors 13, 12, 0, 13, 0).
ENGINE_RUNS = {
    "smm_train_wide": (
        dict(
            population_size=32, expected_cohort=32, rounds=6, hidden=8,
            epsilon=5.0, seed=100,
        ),
        0.1,
        "f92af72176dff2bf1b437d3347e231c78009bf797541046b6ad734835f76ade4",
        [
            "2.7282875505515287", "3.2038467642832344", "3.6952579518059974",
            "4.170817165537703", "4.662228353060466", "5.153639540583229",
        ],
    ),
    "survivor_charges": (
        dict(
            population_size=48, expected_cohort=16, rounds=5, hidden=4,
            epsilon=3.0, seed=7,
        ),
        0.3,
        "95d3cca7cfaa5a703509833ff1cf45d30f5cae93170384074fe35c31a4361f66",
        [
            "2.5180199798018776", "3.5700537662577365", "3.7093726590539893",
            "3.8992684853689275", "4.038587378165181",
        ],
    ),
}


def run_engine(name):
    config, dropout, _, _ = ENGINE_RUNS[name]
    return SimulationEngine(
        SimulationConfig(telemetry=False, verify_aggregate=True, **config),
        availability=BernoulliDropout(dropout),
    ).run()


@pytest.mark.parametrize("name", sorted(ENGINE_RUNS))
def test_engine_ledger_charges_the_recorded_epsilons(name):
    _, _, digest, epsilons = ENGINE_RUNS[name]
    result = run_engine(name)
    assert result.parameters_digest == digest
    assert [repr(record.epsilon) for record in result.records] == epsilons


def test_subsampled_curve_runs_once_per_order_and_survivor_count(
    monkeypatch,
):
    calls = Counter()
    subsampled_rdp = engine_module.subsampled_rdp

    def counting(alpha, sampling_rate, curve):
        calls[alpha, curve] += 1
        return subsampled_rdp(alpha, sampling_rate, curve)

    monkeypatch.setattr(engine_module, "subsampled_rdp", counting)
    result = run_engine("survivor_charges")
    curves = {curve for _, curve in calls}
    # Five charged rounds at fewer distinct survivor counts: a memo
    # that forgot between rounds would count some pair twice.
    assert len(curves) < len(result.records)
    assert set(calls.values()) == {1}
