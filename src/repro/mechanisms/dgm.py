"""The discrete Gaussian mixture mechanism as a calibrated sum estimator.

Appendix B's DGM in the :class:`SumEstimator` interface.  Calibration
mirrors SMM (``c = gamma^2 Delta_2^2``, ``Delta_inf`` from the
feasibility constraints at the optimal order) but accounts with Theorem 8
/ Corollary 3, whose bound carries two discrete-Gaussian-specific terms:
the non-closure gap ``tau_n`` (Eq. (7)) and an L1-sensitivity arm with
``Delta_1 <= sqrt(d) * gamma * Delta_2`` (Appendix B.3).

Following Appendix B.3, the per-participant ``sigma`` actually used for
sampling is rounded *up* to an integer ("the noise parameter sigma for
DGM is integer-valued in the current implementation" of TF-Privacy),
which preserves privacy but produces the utility staircase of Figures
4-5.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accounting.divergences import (
    dgm_max_delta_inf,
    dgm_rdp,
    discrete_gaussian_sum_gap,
)
from repro.config import ClipConfig, CompressionConfig
from repro.core.clipping import clip_gradient
from repro.core.dgm import dgm_perturb, round_sigma_up
from repro.mechanisms.base import DistributedSumEstimator, InputSpec

_DELTA_INF_MARGIN = 1.0 - 1e-9


class DiscreteGaussianMixtureMechanism(DistributedSumEstimator):
    """DGM sum estimator (Appendix B, Algorithms 11-14).

    Args:
        compression: Modulus ``m`` and scale ``gamma``.
        integer_sigma: Round the per-participant sigma up to an integer
            before sampling (Appendix B.3 behaviour; True in the paper's
            experiments).
    """

    name = "dgm"
    requires_l2_preclip = False
    calibrated_fields = (
        ("sigma_per_participant", "sigma"),
        ("effective_sigma", "effective_sigma"),
        ("c", "clip.c"),
        ("delta_inf", "clip.delta_inf"),
        ("order", "order"),
        ("achieved_epsilon", "achieved_epsilon"),
    )
    sigma: float | None = None
    effective_sigma: float | None = None

    def __init__(
        self, compression: CompressionConfig, integer_sigma: bool = True
    ) -> None:
        super().__init__(compression)
        self.integer_sigma = integer_sigma

    def rdp_curve(
        self,
        spec: InputSpec,
        noise: float,
        contributors: int,
        delta_inf: float = 1.0,
    ):
        """Theorem 8 / Corollary 3 for ``contributors`` shares of ``noise``.

        Orders at which Eq. (8) admits no ceiling as large as
        ``delta_inf`` raise.
        """
        c = (self.compression.gamma * spec.l2_bound) ** 2
        dimension = spec.padded_dimension
        l1_bound = math.sqrt(dimension) * self.compression.gamma * spec.l2_bound
        sigma_squared = noise**2
        gap = discrete_gaussian_sum_gap(contributors, sigma_squared)
        return lambda alpha: dgm_rdp(
            alpha,
            c,
            contributors,
            sigma_squared,
            delta_inf,
            l1_bound,
            dimension,
            gap=gap,
        )

    def _derive_thresholds(self, spec: InputSpec) -> None:
        self.effective_sigma = (
            round_sigma_up(self.sigma) if self.integer_sigma else self.sigma
        )
        delta_inf = (
            dgm_max_delta_inf(self.order, spec.num_participants, self.sigma**2)
            * _DELTA_INF_MARGIN
        )
        c = (self.compression.gamma * spec.l2_bound) ** 2
        self.clip = ClipConfig(c=c, delta_inf=delta_inf)

    def _encode_integer(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return dgm_perturb(
            clip_gradient(scaled, self.clip), self.effective_sigma**2, rng
        )
