"""Stochastic and conditional rounding (the baselines' integerisation).

cpSGD rounds each scaled coordinate to a neighbouring integer unbiasedly
(**stochastic rounding**), which can inflate a vector's L2 norm by up to
``sqrt(d)`` — the sensitivity blow-up Section 5 describes.

DDG and the Skellam mechanism mitigate this with **conditional rounding**
(Kairouz et al.): re-draw the stochastic rounding until the rounded
vector's L2 norm is within the bound of Eq. (6),

``B = sqrt(gamma^2 Delta_2^2 + d/4
         + sqrt(2 log(1/beta)) * (gamma Delta_2 + sqrt(d)/2))``,

which holds with probability at least ``1 - beta`` per attempt.  The
rejection step introduces the bias the paper criticises; ``beta`` is fixed
to ``exp(-0.5)`` as recommended by Kairouz et al. and used in Section 6.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import CompressionConfig
from repro.core.calibration import AccountingSpec
from repro.errors import CalibrationError, ConfigurationError
from repro.mechanisms.base import DistributedSumEstimator, InputSpec
from repro.sampling.fast import bernoulli_round

#: The bias/sensitivity trade-off parameter recommended by Kairouz et al.
DEFAULT_BETA = math.exp(-0.5)


def stochastic_round(
    values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Unbiased per-coordinate rounding to a neighbouring integer."""
    return bernoulli_round(np.asarray(values, dtype=np.float64), rng)


def conditional_rounding_bound(
    scaled_l2: float, dimension: int, beta: float = DEFAULT_BETA
) -> float:
    """The post-rounding L2 bound of Eq. (6).

    Args:
        scaled_l2: ``gamma * Delta_2``, the L2 bound of the scaled input.
        dimension: Vector width ``d`` (padded, where rounding happens).
        beta: Per-attempt failure probability.

    Returns:
        The norm bound ``B`` enforced by conditional rounding.
    """
    if not 0 < beta < 1:
        raise ConfigurationError(f"beta must be in (0, 1), got {beta}")
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    return math.sqrt(
        scaled_l2**2
        + dimension / 4.0
        + math.sqrt(2.0 * math.log(1.0 / beta))
        * (scaled_l2 + math.sqrt(dimension) / 2.0)
    )


def rounded_sensitivities(
    scaled_l2: float, dimension: int, beta: float = DEFAULT_BETA
) -> tuple[float, float]:
    """``(Delta~_2, Delta~_1)`` of a conditionally rounded input.

    ``Delta~_2`` is the Eq. (6) bound itself (conditional rounding
    guarantees no rounded vector exceeds it) and
    ``Delta~_1 = min(sqrt(d) Delta~_2, Delta~_2^2)``, automatic for
    integer vectors — the sensitivities DDG and the Skellam mechanism
    account with.
    """
    rounded_l2 = conditional_rounding_bound(scaled_l2, dimension, beta)
    return rounded_l2, min(math.sqrt(dimension) * rounded_l2, rounded_l2**2)


def conditional_round(
    values: np.ndarray,
    norm_bound: float,
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> np.ndarray:
    """Re-draw stochastic roundings until every row meets ``norm_bound``.

    Args:
        values: ``(n, d)`` real array (or a single vector).
        norm_bound: Maximum allowed L2 norm of each rounded row.
        rng: Numpy random generator.
        max_attempts: Safety limit on redraws per batch (with the Eq. (6)
            bound at ``beta = e^-0.5`` each attempt succeeds with
            probability >= 0.39, so hitting this limit indicates a
            mis-configured bound).

    Returns:
        Integer array of the same shape; every row has L2 norm
        <= ``norm_bound``.

    Raises:
        CalibrationError: If some row still violates the bound after
            ``max_attempts`` redraws.
    """
    values = np.asarray(values, dtype=np.float64)
    single_vector = values.ndim == 1
    batch = np.atleast_2d(values)
    rounded = stochastic_round(batch, rng)
    for _ in range(max_attempts):
        norms = np.linalg.norm(rounded.astype(np.float64), axis=1)
        violating = norms > norm_bound
        if not violating.any():
            result = rounded
            return result[0] if single_vector else result
        rounded[violating] = stochastic_round(batch[violating], rng)
    raise CalibrationError(
        f"conditional rounding failed to meet bound {norm_bound:g} within "
        f"{max_attempts} attempts"
    )


class ConditionallyRoundedEstimator(DistributedSumEstimator):
    """What DDG and the Skellam mechanism share: conditional rounding
    within the Eq. (6) bound, and accounting at its sensitivities.

    The rounded sensitivities ``(Delta~_2, Delta~_1)``
    (:func:`rounded_sensitivities`) depend only on the geometry, so they
    are computed once per calibration, before the bisection builds its
    curves, and every curve — calibration's and a ledger's — reads them.
    A subclass states its noise: :meth:`rdp_curve` from
    ``rounded_l2_bound`` and ``rounded_l1_bound``, and
    :meth:`_encode_integer` as :meth:`_round` plus its noise draw.

    Args:
        compression: Modulus ``m`` and scale ``gamma``.
        beta: Conditional-rounding failure probability (``e^-0.5`` in the
            paper's experiments).
    """

    summary_fields = (
        *DistributedSumEstimator.summary_fields,
        ("beta", "beta"),
    )
    rounded_l2_bound: float | None = None
    rounded_l1_bound: float | None = None

    def __init__(
        self, compression: CompressionConfig, beta: float = DEFAULT_BETA
    ) -> None:
        super().__init__(compression)
        self.beta = beta

    def _calibrate(self, spec: InputSpec, accounting: AccountingSpec) -> None:
        self.rounded_l2_bound, self.rounded_l1_bound = rounded_sensitivities(
            self.compression.gamma * spec.l2_bound,
            spec.padded_dimension,
            self.beta,
        )
        super()._calibrate(spec, accounting)

    def _round(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Conditionally round the scaled batch within ``Delta~_2``."""
        return conditional_round(scaled, self.rounded_l2_bound, rng)
