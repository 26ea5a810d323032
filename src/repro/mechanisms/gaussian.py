"""Centralised continuous Gaussian baseline (and DPSGD's noise engine).

The "strong baseline" of Sections 6.1-6.2: a trusted curator clips each
vector to ``Delta_2``, sums, and adds per-coordinate ``N(0, sigma^2)``
noise.  No rotation, quantisation or modulus is involved — this is the
utility ceiling the distributed mechanisms chase.  The same calibrated
object drives the DPSGD baseline in :mod:`repro.fl.dpsgd` (Abadi et al.'s
algorithm is exactly this estimator inside the SGD loop, with Poisson
subsampling amplification and moments accounting, both handled by
:mod:`repro.core.calibration`).
"""

from __future__ import annotations

import numpy as np

from repro.accounting.divergences import gaussian_rdp
from repro.mechanisms.base import InputSpec, SumEstimator, clip_l2


class GaussianMechanism(SumEstimator):
    """Continuous Gaussian sum estimator (centralised DP baseline)."""

    name = "gaussian"
    calibrated_fields = (
        ("sigma", "sigma"),
        ("order", "order"),
        ("achieved_epsilon", "achieved_epsilon"),
    )
    sigma: float | None = None

    def rdp_curve(
        self,
        spec: InputSpec,
        noise: float,
        contributors: int,
        delta_inf: float = 1.0,
    ):
        """The Gaussian mechanism's RDP (one curator draw: ``contributors``
        and ``delta_inf`` unused)."""
        l2_bound = spec.l2_bound
        return lambda alpha: gaussian_rdp(alpha, l2_bound, noise)

    def estimate_sum(
        self, values: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        self._require_calibrated()
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        clipped = clip_l2(values, self.spec.l2_bound)
        noise = rng.normal(0.0, self.sigma, size=values.shape[1])
        return clipped.sum(axis=0) + noise
