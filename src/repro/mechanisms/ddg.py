"""The distributed discrete Gaussian baseline (Kairouz et al., DDG).

Pipeline (Section 5): L2-clip the raw vector to ``Delta_2``, rotate,
scale by ``gamma``, **conditionally round** to integers within the Eq. (6)
norm bound, add per-participant discrete Gaussian noise, wrap mod ``m``.

Accounting uses Theorem 7 / :func:`repro.accounting.divergences.ddg_rdp`
with the *rounded* sensitivities

``Delta~_2 = B`` (the Eq. (6) bound itself — conditional rounding
guarantees no rounded vector exceeds it) and
``Delta~_1 = min(sqrt(d) Delta~_2, Delta~_2^2)`` (the relationship the
paper quotes from Kairouz et al., automatic for integer vectors).

The rounding inflates ``Delta~_2`` by roughly ``sqrt(d)/2`` over the
scaled signal ``gamma Delta_2`` — negligible at large ``gamma`` but
dominant at the coarse quantisation of small bitwidths, which is exactly
the regime where SMM wins (Figures 1-3).
"""

from __future__ import annotations

import numpy as np

from repro.accounting.divergences import (
    ddg_rdp,
    discrete_gaussian_sum_gap,
)
from repro.config import CompressionConfig
from repro.core.dgm import round_sigma_up
from repro.mechanisms.base import InputSpec
from repro.mechanisms.rounding import (
    DEFAULT_BETA,
    ConditionallyRoundedEstimator,
)
from repro.sampling.fast import discrete_gaussian_noise


class DistributedDiscreteGaussian(ConditionallyRoundedEstimator):
    """DDG sum estimator (baseline of Kairouz et al. 2021).

    Args:
        compression: Modulus ``m`` and scale ``gamma``.
        beta: Conditional-rounding failure probability (``e^-0.5`` in the
            paper's experiments).
        integer_sigma: Round the per-participant sigma up to an integer,
            mirroring the TF-Privacy implementation the paper benchmarks.
    """

    name = "ddg"
    calibrated_fields = (
        ("sigma_per_participant", "sigma"),
        ("effective_sigma", "effective_sigma"),
        ("rounded_l2_bound", "rounded_l2_bound"),
        ("order", "order"),
        ("achieved_epsilon", "achieved_epsilon"),
    )
    sigma: float | None = None
    effective_sigma: float | None = None

    def __init__(
        self,
        compression: CompressionConfig,
        beta: float = DEFAULT_BETA,
        integer_sigma: bool = True,
    ) -> None:
        super().__init__(compression, beta)
        self.integer_sigma = integer_sigma

    def rdp_curve(self, noise: float, contributors: int, delta_inf: float = 1.0):
        """Theorem 7 at the rounded sensitivities (``delta_inf`` unused)."""
        dimension = self.spec.padded_dimension
        rounded_l2, rounded_l1 = self.rounded_l2_bound, self.rounded_l1_bound
        sigma_squared = noise**2
        gap = discrete_gaussian_sum_gap(contributors, sigma_squared)
        return lambda alpha: ddg_rdp(
            alpha,
            rounded_l2**2,
            rounded_l1,
            contributors,
            sigma_squared,
            dimension,
            gap=gap,
        )

    def _derive_thresholds(self, spec: InputSpec) -> None:
        self.effective_sigma = (
            round_sigma_up(self.sigma) if self.integer_sigma else self.sigma
        )

    def _encode_integer(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        rounded = self._round(scaled, rng)
        return rounded + discrete_gaussian_noise(
            self.effective_sigma**2, rounded.shape, rng
        )
