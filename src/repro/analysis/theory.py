"""Closed-form utility predictions and bound comparisons.

The paper's analytical claims — Corollary 2's error decomposition, the
constant-factor gap to continuous Gaussian, and the sensitivity-inflation
comparison against the conditional-rounding baselines — as executable
formulas.  The test suite checks the *implementation* against these
predictions, and the ablation benchmarks use them to annotate measured
numbers with their theoretical expectations.

A mechanism's epsilon at a given noise level is not restated here: it is
``epsilon_for_curve(mechanism.rdp_curve(spec, noise, n), accounting)``
(:func:`repro.core.calibration.epsilon_for_curve`), the same curve its
calibration inverts, and no calibration is needed first.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.mechanisms.rounding import DEFAULT_BETA, conditional_rounding_bound


def smm_expected_error(
    values: np.ndarray, lam: float, gamma: float = 1.0
) -> float:
    """Corollary 2's error of dSMM on a concrete dataset (summed MSE).

    ``Err = 2 n lam d + sum_{i,j} p_ij (1 - p_ij)`` in the integer grid,
    divided by ``gamma^2`` to express it in the un-scaled domain.  (The
    restatement below Corollary 2; the first term is the DP noise, the
    second the Bernoulli quantisation variance.)

    Args:
        values: ``(n, d)`` participant data *after* scaling by gamma.
        lam: Per-participant Skellam parameter.
        gamma: The scale parameter, for converting back to raw units.

    Returns:
        The expected total squared error of the estimated (un-scaled) sum.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ConfigurationError(f"expected an (n, d) array, got {values.ndim}-d")
    n, d = values.shape
    fractional = np.abs(values) - np.floor(np.abs(values))
    bernoulli = float(np.sum(fractional * (1.0 - fractional)))
    return (2.0 * lam * n * d + bernoulli) / gamma**2


def smm_gaussian_error_ratio(alpha: float) -> float:
    """Corollary 2 remark: SMM's DP-error multiplier over Gaussian.

    The leading coefficient of SMM's error is ``(1.2 alpha + 1)/2``
    versus the Gaussian mechanism's ``alpha/2`` at the same order:
    the ratio ``(1.2 alpha + 1)/alpha`` tends to 1.2 for large alpha.
    """
    if not alpha > 1:
        raise ConfigurationError(f"alpha must be > 1, got {alpha}")
    return (1.2 * alpha + 1.0) / alpha


@dataclasses.dataclass(frozen=True)
class SensitivityComparison:
    """Side-by-side sensitivities of SMM vs a conditional-rounding baseline.

    Attributes:
        smm_c: SMM's mixture clipping threshold ``gamma^2 Delta_2^2``.
        rounded_l2_squared: The baseline's post-rounding squared L2 bound
            (Eq. (6) squared).
        inflation: Their ratio — the sensitivity penalty the baselines
            pay, which grows like ``d / (4 gamma^2 Delta_2^2)``.
    """

    smm_c: float
    rounded_l2_squared: float

    @property
    def inflation(self) -> float:
        return self.rounded_l2_squared / self.smm_c


def sensitivity_inflation(
    gamma: float,
    dimension: int,
    l2_bound: float = 1.0,
    beta: float = DEFAULT_BETA,
) -> SensitivityComparison:
    """Quantify Section 5's sensitivity-inflation argument.

    Args:
        gamma: Scale parameter.
        dimension: (Padded) data dimension.
        l2_bound: Raw L2 bound ``Delta_2``.
        beta: Conditional-rounding failure probability.

    Returns:
        The comparison; ``inflation >> 1`` is the low-bitwidth regime
        where SMM dominates (Figures 1-3).
    """
    scaled = gamma * l2_bound
    rounded = conditional_rounding_bound(scaled, dimension, beta)
    return SensitivityComparison(
        smm_c=scaled**2, rounded_l2_squared=rounded**2
    )


def noise_variance_ratio(
    alpha: float, gamma: float, dimension: int, l2_bound: float = 1.0
) -> float:
    """Skellam-mechanism over SMM noise variance at equal RDP.

    Solves both mechanisms' RDP formulas for the aggregate noise
    parameter at a common ``tau`` and returns the variance ratio
    (dropping the Skellam mechanism's second-order L1 term, which
    vanishes at large noise):

    ``ratio = (alpha / 2) Delta~_2^2 / ((1.2 alpha + 1)/2 * c)``.
    """
    comparison = sensitivity_inflation(gamma, dimension, l2_bound)
    return (alpha / 2.0) * comparison.rounded_l2_squared / (
        (1.2 * alpha + 1.0) / 2.0 * comparison.smm_c
    )
