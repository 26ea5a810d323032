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
from repro.core.calibration import AccountingSpec, calibrate_noise
from repro.core.clipping import clip_gradient
from repro.core.dgm import dgm_perturb, round_sigma_up
from repro.errors import CalibrationError, PrivacyAccountingError
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

    def __init__(
        self, compression: CompressionConfig, integer_sigma: bool = True
    ) -> None:
        super().__init__(compression)
        self.integer_sigma = integer_sigma
        self.sigma: float | None = None
        self.effective_sigma: float | None = None
        self.clip: ClipConfig | None = None
        self.order: int | None = None
        self.achieved_epsilon: float | None = None

    def _calibrate(self, spec: InputSpec, accounting: AccountingSpec) -> None:
        c = (self.compression.gamma * spec.l2_bound) ** 2
        n = spec.num_participants
        dimension = spec.padded_dimension
        l1_bound = math.sqrt(dimension) * self.compression.gamma * spec.l2_bound

        def curve_factory(sigma: float):
            sigma_squared = sigma**2
            gap = discrete_gaussian_sum_gap(n, sigma_squared)

            def curve(alpha: int) -> float:
                delta_inf = (
                    dgm_max_delta_inf(alpha, n, sigma_squared, gap=gap)
                    * _DELTA_INF_MARGIN
                )
                if delta_inf < 1.0:
                    # An order whose Eq. (8) ceiling is below 1 cannot
                    # transmit any nonzero coordinate; exclude it.
                    raise PrivacyAccountingError(
                        f"Delta_inf < 1 at order {alpha}"
                    )
                return dgm_rdp(
                    alpha,
                    c,
                    n,
                    sigma_squared,
                    delta_inf,
                    l1_bound,
                    dimension,
                    gap=gap,
                )

            return curve

        result = calibrate_noise(curve_factory, accounting, initial=1.0)
        self.sigma = result.noise_parameter
        self.order = result.order
        self.achieved_epsilon = result.epsilon
        self.effective_sigma = (
            round_sigma_up(result.noise_parameter)
            if self.integer_sigma
            else result.noise_parameter
        )
        sigma_squared = result.noise_parameter**2
        gap = discrete_gaussian_sum_gap(n, sigma_squared)
        delta_inf = (
            dgm_max_delta_inf(result.order, n, sigma_squared, gap=gap)
            * _DELTA_INF_MARGIN
        )
        if delta_inf <= 0:
            raise CalibrationError(
                "DGM calibration produced an empty Delta_inf range; the "
                "discrete Gaussian non-closure gap dominates at this noise "
                "scale"
            )
        self.clip = ClipConfig(c=c, delta_inf=delta_inf)

    def _encode_integer(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if self.effective_sigma is None or self.clip is None:
            raise CalibrationError(
                "DiscreteGaussianMixtureMechanism is not calibrated"
            )
        return dgm_perturb(
            clip_gradient(scaled, self.clip), self.effective_sigma**2, rng
        )

    def describe(self) -> dict[str, float | int | str]:
        summary: dict[str, float | int | str] = {
            "name": self.name,
            "modulus": self.compression.modulus,
            "gamma": self.compression.gamma,
        }
        if self.sigma is not None and self.clip is not None:
            summary.update(
                {
                    "sigma_per_participant": self.sigma,
                    "effective_sigma": float(self.effective_sigma or 0.0),
                    "c": self.clip.c,
                    "delta_inf": self.clip.delta_inf,
                    "order": int(self.order or 0),
                    "achieved_epsilon": float(self.achieved_epsilon or 0.0),
                }
            )
        return summary
