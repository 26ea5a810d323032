"""Golden calibration pin: every mechanism's calibrated state, bit for bit.

Each cell is a configuration the repository runs: ``smm_train_wide``
(the simulation engine's default geometry: m = 2^16, gamma = 64,
epsilon = 5, a full cohort of 32 for 6 rounds over the 6 370-parameter
MLP) and the two low-bitwidth Figure 2 panels at bench scale (m = 2^6
and 2^8, gamma = m/8, epsilon = 3, |B| = 100 of 12 000 for 80 rounds
over 12 730 parameters).  For every mechanism the test pins the
calibrated noise parameter, order and achieved epsilon, the derived
thresholds (``Delta_inf`` and ``c``, ``effective_sigma``,
``rounded_l2_bound``, cpSGD's trial counts) and ``describe()`` — as
``repr`` strings compared with ``==``, so any refactor of the
calibration path must reproduce every value exactly, not approximately.
"""

import functools

import pytest

from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.mechanisms import (
    CpSgdMechanism,
    DiscreteGaussianMixtureMechanism,
    DistributedDiscreteGaussian,
    GaussianMechanism,
    InputSpec,
    SkellamMechanism,
    SkellamMixtureMechanism,
)

#: name -> (modulus, gamma, epsilon, participants, dimension, rounds, rate)
CELLS = {
    "smm_train_wide": (2**16, 64.0, 5.0, 32, 6370, 6, 1.0),
    "fig2_m2^6": (2**6, 2**6 / 8, 3.0, 100, 12730, 80, 100 / 12000),
    "fig2_m2^8": (2**8, 2**8 / 8, 3.0, 100, 12730, 80, 100 / 12000),
}

MECHANISMS = {
    "smm": SkellamMixtureMechanism,
    "dgm": DiscreteGaussianMixtureMechanism,
    "ddg": DistributedDiscreteGaussian,
    "skellam": SkellamMechanism,
    "gaussian": lambda compression: GaussianMechanism(),
    "cpsgd": CpSgdMechanism,
}

#: Calibrated attributes pinned beside ``describe()`` (where set).
ATTRIBUTES = (
    "lam",
    "sigma",
    "effective_sigma",
    "order",
    "achieved_epsilon",
    "rounded_l2_bound",
    "total_trials",
    "trials_per_participant",
)


@functools.cache
def calibrated(mechanism_name: str, cell: str):
    """A mechanism calibrated on a cell (cached: callers only read it)."""
    modulus, gamma, epsilon, participants, dimension, rounds, rate = CELLS[cell]
    mechanism = MECHANISMS[mechanism_name](
        CompressionConfig(modulus=modulus, gamma=gamma)
    )
    mechanism.calibrate(
        InputSpec(num_participants=participants, dimension=dimension),
        AccountingSpec(
            budget=PrivacyBudget(epsilon=epsilon, delta=1e-5),
            rounds=rounds,
            sampling_rate=rate,
        ),
    )
    return mechanism


def snapshot(mechanism) -> dict[str, str]:
    """Every pinned value of a calibrated mechanism, as ``repr`` strings."""
    state = {
        name: repr(getattr(mechanism, name))
        for name in ATTRIBUTES
        if getattr(mechanism, name, None) is not None
    }
    clip = getattr(mechanism, "clip", None)
    if clip is not None:
        state["clip.c"] = repr(clip.c)
        state["clip.delta_inf"] = repr(clip.delta_inf)
    for key, value in mechanism.describe().items():
        state[f"describe.{key}"] = repr(value)
    return state


#: Recorded before the calibration path was refactored; never regenerate
#: to make this test pass.
GOLDEN: dict[tuple[str, str], dict[str, str]] = {('cpsgd', 'fig2_m2^6'): {'achieved_epsilon': '2.9999999994366826',
                          'describe.achieved_epsilon': '2.9999999994366826',
                          'describe.gamma': '8.0',
                          'describe.modulus': '64',
                          'describe.name': "'cpsgd'",
                          'describe.total_trials': '701903205',
                          'describe.trials_per_participant': '7019034',
                          'total_trials': '701903205',
                          'trials_per_participant': '7019034'},
 ('cpsgd', 'fig2_m2^8'): {'achieved_epsilon': '2.9999999995330446',
                          'describe.achieved_epsilon': '2.9999999995330446',
                          'describe.gamma': '32.0',
                          'describe.modulus': '256',
                          'describe.name': "'cpsgd'",
                          'describe.total_trials': '972336907',
                          'describe.trials_per_participant': '9723370',
                          'total_trials': '972336907',
                          'trials_per_participant': '9723370'},
 ('cpsgd', 'smm_train_wide'): {'achieved_epsilon': '4.9999996860987626',
                               'describe.achieved_epsilon': '4.9999996860987626',
                               'describe.gamma': '64.0',
                               'describe.modulus': '65536',
                               'describe.name': "'cpsgd'",
                               'describe.total_trials': '4149349',
                               'describe.trials_per_participant': '129668',
                               'total_trials': '4149349',
                               'trials_per_participant': '129668'},
 ('ddg', 'fig2_m2^6'): {'achieved_epsilon': '2.999043213234024',
                        'describe.achieved_epsilon': '2.999043213234024',
                        'describe.beta': '0.6065306597126334',
                        'describe.effective_sigma': '5.0',
                        'describe.gamma': '8.0',
                        'describe.modulus': '64',
                        'describe.name': "'ddg'",
                        'describe.order': '5',
                        'describe.rounded_l2_bound': '65.05382386916237',
                        'describe.sigma_per_participant': '4.565673828125',
                        'effective_sigma': '5.0',
                        'order': '5',
                        'rounded_l2_bound': '65.05382386916237',
                        'sigma': '4.565673828125'},
 ('ddg', 'fig2_m2^8'): {'achieved_epsilon': '2.9985831226799986',
                        'describe.achieved_epsilon': '2.9985831226799986',
                        'describe.beta': '0.6065306597126334',
                        'describe.effective_sigma': '6.0',
                        'describe.gamma': '32.0',
                        'describe.modulus': '256',
                        'describe.name': "'ddg'",
                        'describe.order': '5',
                        'describe.rounded_l2_bound': '72.22188034107116',
                        'describe.sigma_per_participant': '5.06884765625',
                        'effective_sigma': '6.0',
                        'order': '5',
                        'rounded_l2_bound': '72.22188034107116',
                        'sigma': '5.06884765625'},
 ('ddg', 'smm_train_wide'): {'achieved_epsilon': '4.999705679354747',
                             'describe.achieved_epsilon': '4.999705679354747',
                             'describe.beta': '0.6065306597126334',
                             'describe.effective_sigma': '33.0',
                             'describe.gamma': '64.0',
                             'describe.modulus': '65536',
                             'describe.name': "'ddg'",
                             'describe.order': '5',
                             'describe.rounded_l2_bound': '79.07752420249346',
                             'describe.sigma_per_participant': '32.666015625',
                             'effective_sigma': '33.0',
                             'order': '5',
                             'rounded_l2_bound': '79.07752420249346',
                             'sigma': '32.666015625'},
 ('dgm', 'fig2_m2^6'): {'achieved_epsilon': '2.270389177981192',
                        'clip.c': '64.0',
                        'clip.delta_inf': '1.0000066080034196',
                        'describe.achieved_epsilon': '2.270389177981192',
                        'describe.c': '64.0',
                        'describe.delta_inf': '1.0000066080034196',
                        'describe.effective_sigma': '2.0',
                        'describe.gamma': '8.0',
                        'describe.modulus': '64',
                        'describe.name': "'dgm'",
                        'describe.order': '5',
                        'describe.sigma_per_participant': '1.00921630859375',
                        'effective_sigma': '2.0',
                        'order': '5',
                        'sigma': '1.00921630859375'},
 ('dgm', 'fig2_m2^8'): {'achieved_epsilon': '2.9990995137888743',
                        'clip.c': '1024.0',
                        'clip.delta_inf': '2.3554687476445313',
                        'describe.achieved_epsilon': '2.9990995137888743',
                        'describe.c': '1024.0',
                        'describe.delta_inf': '2.3554687476445313',
                        'describe.effective_sigma': '3.0',
                        'describe.gamma': '32.0',
                        'describe.modulus': '256',
                        'describe.name': "'dgm'",
                        'describe.order': '5',
                        'describe.sigma_per_participant': '2.35546875',
                        'effective_sigma': '3.0',
                        'order': '5',
                        'sigma': '2.35546875'},
 ('dgm', 'smm_train_wide'): {'achieved_epsilon': '4.999614559713169',
                             'clip.c': '4096.0',
                             'clip.delta_inf': '15.685617128854096',
                             'describe.achieved_epsilon': '4.999614559713169',
                             'describe.c': '4096.0',
                             'describe.delta_inf': '15.685617128854096',
                             'describe.effective_sigma': '28.0',
                             'describe.gamma': '64.0',
                             'describe.modulus': '65536',
                             'describe.name': "'dgm'",
                             'describe.order': '5',
                             'describe.sigma_per_participant': '27.728515625',
                             'effective_sigma': '28.0',
                             'order': '5',
                             'sigma': '27.728515625'},
 ('gaussian', 'fig2_m2^6'): {'achieved_epsilon': '2.9986002548081494',
                             'describe.achieved_epsilon': '2.9986002548081494',
                             'describe.name': "'gaussian'",
                             'describe.order': '5',
                             'describe.sigma': '0.70184326171875',
                             'order': '5',
                             'sigma': '0.70184326171875'},
 ('gaussian', 'fig2_m2^8'): {'achieved_epsilon': '2.9986002548081494',
                             'describe.achieved_epsilon': '2.9986002548081494',
                             'describe.name': "'gaussian'",
                             'describe.order': '5',
                             'describe.sigma': '0.70184326171875',
                             'order': '5',
                             'sigma': '0.70184326171875'},
 ('gaussian', 'smm_train_wide'): {'achieved_epsilon': '4.999967839059686',
                                  'describe.achieved_epsilon': '4.999967839059686',
                                  'describe.name': "'gaussian'",
                                  'describe.order': '5',
                                  'describe.sigma': '2.336669921875',
                                  'order': '5',
                                  'sigma': '2.336669921875'},
 ('skellam', 'fig2_m2^6'): {'achieved_epsilon': '2.999566317687243',
                            'describe.achieved_epsilon': '2.999566317687243',
                            'describe.beta': '0.6065306597126334',
                            'describe.gamma': '8.0',
                            'describe.lambda_per_participant': '10.423828125',
                            'describe.modulus': '64',
                            'describe.name': "'skellam'",
                            'describe.order': '5',
                            'describe.rounded_l2_bound': '65.05382386916237',
                            'lam': '10.423828125',
                            'order': '5',
                            'rounded_l2_bound': '65.05382386916237'},
 ('skellam', 'fig2_m2^8'): {'achieved_epsilon': '2.999997738697305',
                            'describe.achieved_epsilon': '2.999997738697305',
                            'describe.beta': '0.6065306597126334',
                            'describe.gamma': '32.0',
                            'describe.lambda_per_participant': '12.8466796875',
                            'describe.modulus': '256',
                            'describe.name': "'skellam'",
                            'describe.order': '5',
                            'describe.rounded_l2_bound': '72.22188034107116',
                            'lam': '12.8466796875',
                            'order': '5',
                            'rounded_l2_bound': '72.22188034107116'},
 ('skellam', 'smm_train_wide'): {'achieved_epsilon': '4.999906366813581',
                                 'describe.achieved_epsilon': '4.999906366813581',
                                 'describe.beta': '0.6065306597126334',
                                 'describe.gamma': '64.0',
                                 'describe.lambda_per_participant': '533.5',
                                 'describe.modulus': '65536',
                                 'describe.name': "'skellam'",
                                 'describe.order': '5',
                                 'describe.rounded_l2_bound': '79.07752420249346',
                                 'lam': '533.5',
                                 'order': '5',
                                 'rounded_l2_bound': '79.07752420249346'},
 ('smm', 'fig2_m2^6'): {'achieved_epsilon': '2.2721079866591785',
                        'clip.c': '64.0',
                        'clip.delta_inf': '1.000037233590757',
                        'describe.achieved_epsilon': '2.2721079866591785',
                        'describe.c': '64.0',
                        'describe.delta_inf': '1.000037233590757',
                        'describe.gamma': '8.0',
                        'describe.lambda_per_participant': '0.63604736328125',
                        'describe.modulus': '64',
                        'describe.name': "'smm'",
                        'describe.order': '5',
                        'lam': '0.63604736328125',
                        'order': '5'},
 ('smm', 'fig2_m2^8'): {'achieved_epsilon': '2.9993744248561445',
                        'clip.c': '1024.0',
                        'clip.delta_inf': '2.370458405632586',
                        'describe.achieved_epsilon': '2.9993744248561445',
                        'describe.c': '1024.0',
                        'describe.delta_inf': '2.370458405632586',
                        'describe.gamma': '32.0',
                        'describe.lambda_per_participant': '3.57373046875',
                        'describe.modulus': '256',
                        'describe.name': "'smm'",
                        'describe.order': '5',
                        'lam': '3.57373046875',
                        'order': '5'},
 ('smm', 'smm_train_wide'): {'achieved_epsilon': '4.999960360138399',
                             'clip.c': '4096.0',
                             'clip.delta_inf': '12.925807894787894',
                             'describe.achieved_epsilon': '4.999960360138399',
                             'describe.c': '4096.0',
                             'describe.delta_inf': '12.925807894787894',
                             'describe.gamma': '64.0',
                             'describe.lambda_per_participant': '486.21875',
                             'describe.modulus': '65536',
                             'describe.name': "'smm'",
                             'describe.order': '6',
                             'lam': '486.21875',
                             'order': '6'}}


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("mechanism_name", sorted(MECHANISMS))
def test_calibration_is_pinned(mechanism_name, cell):
    assert snapshot(calibrated(mechanism_name, cell)) == GOLDEN[
        (mechanism_name, cell)
    ]
