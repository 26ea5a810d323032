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
usable — so the calibration fixes ``Delta_inf`` *after* choosing the
order, at the largest feasible value (maximising the usable range, as the
paper notes this "leads to a sufficiently large range for L-inf clipping
without causing much utility degradation").
"""

from __future__ import annotations

import numpy as np

from repro.accounting.divergences import smm_max_delta_inf, smm_rdp
from repro.config import ClipConfig, CompressionConfig
from repro.core.calibration import AccountingSpec, calibrate_noise
from repro.core.clipping import clip_gradient
from repro.core.skellam_mixture import smm_perturb
from repro.errors import CalibrationError, PrivacyAccountingError
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

    def __init__(self, compression: CompressionConfig) -> None:
        super().__init__(compression)
        self.lam: float | None = None
        self.clip: ClipConfig | None = None
        self.order: int | None = None
        self.achieved_epsilon: float | None = None

    def _calibrate(self, spec: InputSpec, accounting: AccountingSpec) -> None:
        c = (self.compression.gamma * spec.l2_bound) ** 2
        n = spec.num_participants

        def curve_factory(lam_per_participant: float):
            total_lam = n * lam_per_participant

            def curve(alpha: int) -> float:
                delta_inf = smm_max_delta_inf(alpha, total_lam) * _DELTA_INF_MARGIN
                if delta_inf < 1.0:
                    # ceil(|x|) <= Delta_inf < 1 forces every coordinate
                    # to zero: the order is unusable for transmission, so
                    # exclude it (Delta_inf_max decreases with alpha, so
                    # this truncates the order grid from above).
                    raise PrivacyAccountingError(
                        f"Delta_inf < 1 at order {alpha}"
                    )
                return smm_rdp(alpha, c, total_lam, delta_inf)

            return curve

        result = calibrate_noise(curve_factory, accounting, initial=1.0)
        self.lam = result.noise_parameter
        self.order = result.order
        self.achieved_epsilon = result.epsilon
        delta_inf = (
            smm_max_delta_inf(result.order, n * result.noise_parameter)
            * _DELTA_INF_MARGIN
        )
        self.clip = ClipConfig(c=c, delta_inf=delta_inf)

    def _encode_integer(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if self.lam is None or self.clip is None:
            raise CalibrationError("SkellamMixtureMechanism is not calibrated")
        return smm_perturb(clip_gradient(scaled, self.clip), self.lam, rng)

    def per_round_rdp_curve(self, num_participants: int | None = None):
        """Theorem-5 RDP curve of one round at the calibrated ``lambda``.

        Args:
            num_participants: Contributors whose noise shares actually
                reached the aggregate; defaults to the calibrated
                expectation.  A running ledger passes the *realized*
                survivor count, so dropout rounds — which carry less
                total noise than calibration assumed — are charged
                their true, higher cost.

        Feasibility mirrors calibration: orders whose Eq. (3) maximum
        falls below the transmitted ``Delta_inf`` raise, so a ledger
        composing this curve drops exactly the orders the (possibly
        reduced) noise level excludes.
        """
        if self.lam is None or self.clip is None:
            raise CalibrationError("SkellamMixtureMechanism is not calibrated")
        contributors = (
            num_participants
            if num_participants is not None
            else self.spec.num_participants
        )
        if contributors < 1:
            raise CalibrationError(
                f"num_participants must be >= 1, got {contributors}"
            )
        total_lam = contributors * self.lam
        c = self.clip.c
        delta_inf = self.clip.delta_inf

        def curve(alpha: int) -> float:
            if smm_max_delta_inf(alpha, total_lam) < delta_inf:
                raise PrivacyAccountingError(
                    f"Delta_inf {delta_inf:g} infeasible at order {alpha}"
                )
            return smm_rdp(alpha, c, total_lam, delta_inf)

        return curve

    def describe(self) -> dict[str, float | int | str]:
        summary: dict[str, float | int | str] = {
            "name": self.name,
            "modulus": self.compression.modulus,
            "gamma": self.compression.gamma,
        }
        if self.lam is not None and self.clip is not None:
            summary.update(
                {
                    "lambda_per_participant": self.lam,
                    "c": self.clip.c,
                    "delta_inf": self.clip.delta_inf,
                    "order": int(self.order or 0),
                    "achieved_epsilon": float(self.achieved_epsilon or 0.0),
                }
            )
        return summary
