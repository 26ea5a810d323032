"""Closed-form utility predictions and mechanism bound comparisons."""

from repro.analysis.numerical import (
    bound_tightness,
    exact_skellam_divergence,
    exact_smm_divergence,
    gaussian_reference_divergence,
    numerical_renyi_divergence,
    theorem3_bound,
    theorem5_bound,
)
from repro.analysis.theory import (
    SensitivityComparison,
    noise_variance_ratio,
    sensitivity_inflation,
    smm_expected_error,
    smm_gaussian_error_ratio,
)

__all__ = [
    "SensitivityComparison",
    "bound_tightness",
    "exact_skellam_divergence",
    "exact_smm_divergence",
    "gaussian_reference_divergence",
    "noise_variance_ratio",
    "numerical_renyi_divergence",
    "sensitivity_inflation",
    "smm_expected_error",
    "smm_gaussian_error_ratio",
    "theorem3_bound",
    "theorem5_bound",
]
