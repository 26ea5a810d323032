"""The (non-mixture) Skellam mechanism baseline (Agarwal et al. [3]).

Identical pipeline to DDG — L2 clip, rotate, scale, *conditional
rounding* within the Eq. (6) bound — but the injected noise is symmetric
Skellam ``Sk(lam, lam)`` instead of a discrete Gaussian.  Skellam's
closure under summation makes the distributed accounting exact (no
``tau_n`` gap), but the mechanism still pays the conditional-rounding
sensitivity inflation, and its RDP bound involves the L1 sensitivity
(:func:`repro.accounting.divergences.skellam_mechanism_rdp`) — the two
limitations Section 5 contrasts against SMM.
"""

from __future__ import annotations

import numpy as np

from repro.accounting.divergences import skellam_mechanism_rdp
from repro.mechanisms.rounding import ConditionallyRoundedEstimator
from repro.sampling.fast import skellam_noise


class SkellamMechanism(ConditionallyRoundedEstimator):
    """Skellam-mechanism sum estimator (baseline of Agarwal et al. 2021).

    Args:
        compression: Modulus ``m`` and scale ``gamma``.
        beta: Conditional-rounding failure probability (``e^-0.5`` in the
            paper's experiments).
    """

    name = "skellam"
    noise_attribute = "lam"
    calibrated_fields = (
        ("lambda_per_participant", "lam"),
        ("rounded_l2_bound", "rounded_l2_bound"),
        ("order", "order"),
        ("achieved_epsilon", "achieved_epsilon"),
    )
    lam: float | None = None

    def rdp_curve(self, noise: float, contributors: int, delta_inf: float = 1.0):
        """Agarwal et al.'s bound at the rounded sensitivities
        (``delta_inf`` unused)."""
        rounded_l2, rounded_l1 = self.rounded_l2_bound, self.rounded_l1_bound
        total_lam = contributors * noise
        return lambda alpha: skellam_mechanism_rdp(
            alpha, rounded_l2**2, rounded_l1, total_lam
        )

    def _encode_integer(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        rounded = self._round(scaled, rng)
        return rounded + skellam_noise(self.lam, rounded.shape, rng)
