"""The paper's core contribution: SMM, DGM, clipping, encoding, calibration."""

from repro.core.calibration import (
    AccountingSpec,
    CalibrationResult,
    calibrate_noise,
    epsilon_for_curve,
)
from repro.core.client import GradientEncoder, skellam_encoder
from repro.core.communication import (
    SecAggRoundCost,
    TrainingCommunication,
    bonawitz_round_cost,
    central_upload_bytes,
    client_upload_bytes,
    compression_ratio,
    payload_bits,
    training_communication,
)
from repro.core.clipping import (
    clip_gradient,
    clip_linf_ceiling,
    invert_sensitivity_helper,
    mixture_sensitivity,
    sensitivity_helper,
)
from repro.core.dgm import dgm_perturb, round_sigma_up
from repro.core.server import GradientDecoder
from repro.core.skellam_mixture import (
    estimate_sum,
    estimate_sum_1d,
    mixture_variance,
    smm_perturb,
    smm_perturb_exact,
)

__all__ = [
    "AccountingSpec",
    "CalibrationResult",
    "GradientDecoder",
    "GradientEncoder",
    "SecAggRoundCost",
    "TrainingCommunication",
    "bonawitz_round_cost",
    "calibrate_noise",
    "central_upload_bytes",
    "client_upload_bytes",
    "compression_ratio",
    "payload_bits",
    "training_communication",
    "clip_gradient",
    "clip_linf_ceiling",
    "dgm_perturb",
    "epsilon_for_curve",
    "estimate_sum",
    "estimate_sum_1d",
    "invert_sensitivity_helper",
    "mixture_sensitivity",
    "mixture_variance",
    "round_sigma_up",
    "sensitivity_helper",
    "skellam_encoder",
    "smm_perturb",
    "smm_perturb_exact",
]
