"""The Skellam mixture mechanism as a calibrated sum estimator.

Wires the core pieces (Algorithm 5 clipping + Algorithm 4 perturbation +
Theorem 5 / Corollary 1 accounting) into the :class:`SumEstimator`
interface used by the experiments.

Calibration follows Section 6: the mixture clipping threshold is
``c = gamma^2 Delta_2^2``; the per-participant ``lambda`` is the smallest
value whose accounted epsilon (subsampled composition at the optimal
integer order) meets the budget; and the L-infinity bound ``Delta_inf``
is then computed from Eq. (3) at the optimal order.  The RDP parameter
``tau(alpha) = (1.2 alpha + 1)/2 * c / (2 n lambda)`` does not itself
depend on ``Delta_inf`` — the constraint only restricts which orders are
usable — so calibration accounts at ``Delta_inf = 1`` (the smallest
ceiling that transmits anything) and fixes ``Delta_inf`` *after*
choosing the order, at the largest feasible value (maximising the usable
range, as the paper notes this "leads to a sufficiently large range for
L-inf clipping without causing much utility degradation").
"""

from __future__ import annotations

import numpy as np

from repro.accounting.divergences import smm_max_delta_inf, smm_rdp
from repro.config import ClipConfig
from repro.core.clipping import clip_gradient
from repro.core.skellam_mixture import smm_perturb
from repro.mechanisms.base import DistributedSumEstimator, InputSpec

#: Strict-inequality safety margin applied to the Eq. (3) maximum.
_DELTA_INF_MARGIN = 1.0 - 1e-9


class SkellamMixtureMechanism(DistributedSumEstimator):
    """SMM sum estimator (the paper's proposed mechanism).

    Args:
        compression: Modulus ``m`` and scale ``gamma``.
    """

    name = "smm"
    requires_l2_preclip = False
    noise_attribute = "lam"
    calibrated_fields = (
        ("lambda_per_participant", "lam"),
        ("c", "clip.c"),
        ("delta_inf", "clip.delta_inf"),
        ("order", "order"),
        ("achieved_epsilon", "achieved_epsilon"),
    )
    lam: float | None = None

    def rdp_curve(
        self,
        spec: InputSpec,
        noise: float,
        contributors: int,
        delta_inf: float = 1.0,
    ):
        """Theorem 5 / Corollary 1 at ``contributors * noise`` total lambda.

        Orders at which Eq. (3) admits no ceiling as large as
        ``delta_inf`` raise; as ``Delta_inf_max`` decreases with alpha,
        this truncates the order grid from above.
        """
        c = (self.compression.gamma * spec.l2_bound) ** 2
        total_lam = contributors * noise
        return lambda alpha: smm_rdp(alpha, c, total_lam, delta_inf)

    def _derive_thresholds(self, spec: InputSpec) -> None:
        delta_inf = (
            smm_max_delta_inf(self.order, spec.num_participants * self.lam)
            * _DELTA_INF_MARGIN
        )
        c = (self.compression.gamma * spec.l2_bound) ** 2
        self.clip = ClipConfig(c=c, delta_inf=delta_inf)

    def _encode_integer(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return smm_perturb(clip_gradient(scaled, self.clip), self.lam, rng)
