"""The discrete Gaussian mixture mechanism (Appendix B, Algorithms 11-14).

DGM is the paper's demonstration that the mixture construction is not
tied to Skellam noise: the Bernoulli rounding coin is identical, but the
injected noise is a discrete Gaussian ``N_Z(0, sigma^2)``.  The privacy
analysis (Theorem 8 / Corollary 3) pays two penalties Skellam avoids —
the sum of discrete Gaussians is *not* a discrete Gaussian (gap ``tau_n``,
Eq. (7)) and the TensorFlow-Privacy implementation the paper mirrors
rounds the per-participant ``sigma`` up to an integer — both of which
surface at small bitwidths (Figures 4-5).
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import ClipConfig, CompressionConfig
from repro.core.client import GradientEncoder
from repro.errors import ConfigurationError
from repro.linalg.hadamard import RandomRotation
from repro.linalg.modular import decode_centered, encode_mod, sum_mod
from repro.sampling.fast import bernoulli_round, discrete_gaussian_noise


def round_sigma_up(sigma: float) -> float:
    """Round a per-participant ``sigma`` up to the nearest integer.

    Appendix B.3: "the noise parameter sigma for DGM is integer-valued in
    the current implementation ... if sigma is computed as 0.9 based on
    privacy constraints, then sigma is rounded up to its nearest integer,
    1, for the actual perturbation."  Rounding *up* only adds noise, so
    the privacy guarantee is preserved while utility steps in plateaus —
    the staircase visible in Figures 4-5.
    """
    if not sigma > 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    return float(math.ceil(sigma))


def dgm_perturb(
    values: np.ndarray,
    sigma_squared: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Perturb real values with the discrete Gaussian mixture (Alg. 11-12).

    Args:
        values: Real-valued array of any shape.
        sigma_squared: Per-participant discrete Gaussian parameter.
        rng: Numpy random generator.

    Returns:
        An int64 array of the same shape, unbiased for ``values``.
    """
    values = np.asarray(values, dtype=np.float64)
    rounded = bernoulli_round(values, rng)
    return rounded + discrete_gaussian_noise(sigma_squared, values.shape, rng)


def estimate_sum(
    values: np.ndarray,
    sigma_squared: float,
    modulus: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run dDGM end-to-end (Algorithm 12) and return the decoded sum.

    As in :mod:`repro.core.skellam_mixture`, the SecAgg line is the ideal
    functionality: the messages' sum mod ``m``.

    Args:
        values: ``(n, d)`` real array, one row per participant.
        sigma_squared: Per-participant discrete Gaussian parameter.
        modulus: SecAgg modulus ``m``.
        rng: Numpy random generator (the noise; the sum draws nothing).

    Returns:
        Length-``d`` int64 estimate of the column sums.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ConfigurationError(f"expected an (n, d) array, got ndim={values.ndim}")
    perturbed = dgm_perturb(values, sigma_squared, rng)
    messages = encode_mod(perturbed, modulus)
    residue = sum_mod(messages, modulus)
    return decode_centered(residue, modulus)


def discrete_gaussian_encoder(
    rotation: RandomRotation,
    compression: CompressionConfig,
    clip: ClipConfig,
    sigma: float,
    integer_sigma: bool = True,
) -> GradientEncoder:
    """Build the DGM participant encoder (Algorithm 14).

    Identical to Algorithm 4 except for the injected noise distribution.

    Args:
        rotation: Shared public rotation.
        compression: Wire format (``m``, ``gamma``).
        clip: Mixture clipping thresholds.
        sigma: Per-participant noise standard deviation parameter.
        integer_sigma: Mirror the TF-Privacy behaviour of rounding sigma
            up to an integer before sampling (Appendix B.3).

    Returns:
        A ready-to-use :class:`GradientEncoder`.
    """
    if not sigma > 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    effective_sigma = round_sigma_up(sigma) if integer_sigma else sigma
    sigma_squared = effective_sigma**2
    return GradientEncoder(
        rotation=rotation,
        compression=compression,
        clip=clip,
        noise=lambda shape, rng: discrete_gaussian_noise(
            sigma_squared, shape, rng
        ),
    )
