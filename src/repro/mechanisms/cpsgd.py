"""The cpSGD binomial-mechanism baseline (Agarwal et al. 2018).

Pipeline (Section 5): L2 clip, rotate, scale by ``gamma``, **stochastic
rounding** (no norm condition — the full ``sqrt(d)`` sensitivity inflation
applies), per-participant centred binomial noise, wrap mod ``m``.

Accounting is pure ``(epsilon, delta)`` — the binomial mechanism does not
satisfy RDP — so rounds compose by the better of linear and advanced
composition with **no subsampling amplification**, exactly the weak
accounting the paper identifies as cpSGD's first limitation.  Together
with the rounding blow-up this keeps cpSGD "off the chart" in every
experiment (mse > 1e4 in Figure 1, accuracy < 20% in Figures 2-3).
"""

from __future__ import annotations

import math

import numpy as np

from repro.accounting.binomial import binomial_mechanism_epsilon
from repro.accounting.composition import best_composition
from repro.core.calibration import AccountingSpec
from repro.errors import CalibrationError, PrivacyAccountingError
from repro.mechanisms.base import DistributedSumEstimator, InputSpec
from repro.mechanisms.rounding import stochastic_round
from repro.sampling.fast import binomial_noise


def _round_up_even(value: float) -> int:
    """Smallest even integer >= ``value``."""
    candidate = int(math.ceil(value))
    return candidate if candidate % 2 == 0 else candidate + 1


class CpSgdMechanism(DistributedSumEstimator):
    """cpSGD sum estimator (binomial mechanism baseline).

    Args:
        compression: Modulus ``m`` and scale ``gamma``.
    """

    name = "cpsgd"
    calibrated_fields = (
        ("total_trials", "total_trials"),
        ("trials_per_participant", "trials_per_participant"),
        ("achieved_epsilon", "achieved_epsilon"),
    )
    total_trials: int | None = None
    trials_per_participant: int | None = None

    def _rounded_sensitivities(self, spec: InputSpec) -> tuple[float, float, float]:
        """Worst-case ``(Delta~_1, Delta~_2, Delta~_inf)`` after rounding.

        Stochastic rounding moves each coordinate by less than 1, so the
        L2 norm can grow by up to ``sqrt(d)`` and a single coordinate by
        up to 1 — cpSGD's original worst-case bounds.
        """
        scaled_l2 = self.compression.gamma * spec.l2_bound
        dimension = spec.padded_dimension
        rounded_l2 = scaled_l2 + math.sqrt(dimension)
        rounded_l1 = min(math.sqrt(dimension) * rounded_l2, rounded_l2**2)
        rounded_linf = scaled_l2 + 1.0
        return rounded_l1, rounded_l2, rounded_linf

    def _calibrate(self, spec: InputSpec, accounting: AccountingSpec) -> None:
        dimension = spec.padded_dimension
        rounded_l1, rounded_l2, rounded_linf = self._rounded_sensitivities(spec)
        budget = accounting.budget
        rounds = accounting.rounds
        delta_per_round = budget.delta / (2.0 * rounds)

        def total_epsilon(num_trials: int) -> float:
            try:
                per_round = binomial_mechanism_epsilon(
                    num_trials,
                    dimension,
                    delta_per_round,
                    rounded_l1,
                    rounded_l2,
                    rounded_linf,
                )
                return best_composition(
                    per_round, delta_per_round, rounds, budget.delta
                )
            except PrivacyAccountingError:
                return math.inf

        # Bracket then bisect over the (integer) total trial count.
        hi = 1024
        doublings = 0
        while total_epsilon(hi) > budget.epsilon:
            hi *= 2
            doublings += 1
            if doublings > 200:
                raise CalibrationError(
                    f"cpSGD cannot meet epsilon={budget.epsilon} at any "
                    f"binomial size up to {hi}"
                )
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if total_epsilon(mid) <= budget.epsilon:
                hi = mid
            else:
                lo = mid
        self.total_trials = hi
        self.trials_per_participant = _round_up_even(
            hi / spec.num_participants
        )
        self.achieved_epsilon = total_epsilon(hi)

    def _encode_integer(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        rounded = stochastic_round(scaled, rng)
        return rounded + binomial_noise(
            self.trials_per_participant, rounded.shape, rng
        )
