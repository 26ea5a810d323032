"""The discrete Gaussian mixture mechanism (Appendix B, Algorithms 11-14).

DGM is the paper's demonstration that the mixture construction is not
tied to Skellam noise: the Bernoulli rounding coin is identical, but the
injected noise is a discrete Gaussian ``N_Z(0, sigma^2)``.  The privacy
analysis (Theorem 8 / Corollary 3) pays two penalties Skellam avoids —
the sum of discrete Gaussians is *not* a discrete Gaussian (gap ``tau_n``,
Eq. (7)) and the TensorFlow-Privacy implementation the paper mirrors
rounds the per-participant ``sigma`` up to an integer — both of which
surface at small bitwidths (Figures 4-5).

This module holds DGM's two primitives: the sigma rounding and the
mixture perturbation.  The mechanism that calibrates sigma and runs them
inside Algorithm 14's rotate -> scale -> clip -> perturb -> mod m
pipeline (:class:`~repro.core.client.GradientEncoder` and
:class:`~repro.core.server.GradientDecoder`, as for SMM) is
:class:`~repro.mechanisms.dgm.DiscreteGaussianMixtureMechanism`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
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
