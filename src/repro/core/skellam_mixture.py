"""The Skellam mixture mechanism (Algorithms 1 and 2 of the paper).

Given a real value ``x`` with integer part ``floor(x)`` and fractional
part ``p = x - floor(x)``, SMM outputs

* ``floor(x) + Sk(lam, lam)`` with probability ``1 - p``, and
* ``floor(x) + 1 + Sk(lam, lam)`` with probability ``p``.

The output is integer-valued, and its expectation equals ``x`` — SMM is an
unbiased integer encoder that needs *no* stochastic/conditional rounding
step (the source of the baselines' sensitivity blow-up).  The variance of
one perturbed coordinate is ``2 lam + p (1 - p)``: the injected Skellam
noise plus the Bernoulli rounding variance (Corollary 2).

:func:`smm_perturb` is the vectorised (fast-sampler) form used by the
experiment pipelines; :func:`smm_perturb_exact` composes the exact
samplers of Appendix A so the noise distribution matches its analytical
form exactly.  :func:`estimate_sum_1d` / :func:`estimate_sum` run the
complete Algorithm 1 / Algorithm 2.  Their SecAgg line is the ideal
functionality the paper's analysis assumes — the messages' sum mod ``m``
and nothing else (:func:`repro.linalg.modular.sum_mod`); the protocol
that realises it is :func:`repro.secagg.bonawitz.run_bonawitz`, which
returns the same vector on the same messages.
"""

from __future__ import annotations

import fractions

import numpy as np

from repro.errors import ConfigurationError
from repro.linalg.modular import decode_centered, encode_mod, sum_mod
from repro.sampling.fast import bernoulli_round, skellam_noise
from repro.sampling.rng import RandIntSource
from repro.sampling.exact_poisson import sample_poisson


def smm_perturb(
    values: np.ndarray, lam: float, rng: np.random.Generator
) -> np.ndarray:
    """Perturb real values with the Skellam mixture (lines 2-7, Alg. 1-2).

    Args:
        values: Real-valued array of any shape (one participant's data, or
            a batch of participants' vectors).
        lam: The per-participant Skellam parameter; noise variance is
            ``2 * lam`` per coordinate.
        rng: Numpy random generator.

    Returns:
        An int64 array of the same shape, unbiased for ``values``.
    """
    values = np.asarray(values, dtype=np.float64)
    rounded = bernoulli_round(values, rng)
    return rounded + skellam_noise(lam, values.shape, rng)


def smm_perturb_exact(
    values: np.ndarray,
    lam: float | fractions.Fraction,
    source: RandIntSource,
) -> np.ndarray:
    """Exact-sampler variant of :func:`smm_perturb` (Appendix A).

    Every random decision — the Bernoulli rounding coin included — is
    drawn through :class:`RandIntSource`, so the output distribution
    matches the analytical mixture exactly.  Fractional parts are
    represented as exact rationals before the Bernoulli trial.

    Args:
        values: Real-valued array (flattened internally).
        lam: Rational Skellam parameter.
        source: Exact randomness source.

    Returns:
        An int64 array of the same shape as ``values``.
    """
    rational_lam = (
        lam
        if isinstance(lam, fractions.Fraction)
        else fractions.Fraction(lam).limit_denominator(10**9)
    )
    if rational_lam <= 0:
        raise ConfigurationError(f"lambda must be positive, got {lam}")
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    out = np.empty(flat.shape, dtype=np.int64)
    for index, value in enumerate(flat):
        floor = int(np.floor(value))
        fraction_part = fractions.Fraction(float(value) - floor).limit_denominator(
            10**9
        )
        coin = source.bernoulli(
            fraction_part.numerator, fraction_part.denominator
        )
        noise = sample_poisson(
            rational_lam.numerator, rational_lam.denominator, source
        ) - sample_poisson(
            rational_lam.numerator, rational_lam.denominator, source
        )
        out[index] = floor + coin + noise
    return out.reshape(values.shape)


def mixture_variance(values: np.ndarray, lam: float) -> float:
    """Total variance of the SMM estimate of ``sum(values)`` (Corollary 2).

    ``n`` participants contribute ``2 n lam`` of Skellam variance per
    coordinate plus ``sum_i p_i (1 - p_i)`` of Bernoulli rounding variance,
    where ``p_i`` is the fractional part of participant ``i``'s value.

    Args:
        values: ``(n,)`` or ``(n, d)`` array of participant values.
        lam: Per-participant Skellam parameter.

    Returns:
        The summed variance over all coordinates of the estimated sum.
    """
    values = np.asarray(values, dtype=np.float64)
    fractional = values - np.floor(values)
    bernoulli_var = float(np.sum(fractional * (1.0 - fractional)))
    num_participants = values.shape[0]
    num_coords = 1 if values.ndim == 1 else values.shape[1]
    return 2.0 * lam * num_participants * num_coords + bernoulli_var


def estimate_sum_1d(
    values: np.ndarray,
    lam: float,
    modulus: int,
    rng: np.random.Generator,
) -> int:
    """Run 1SMM end-to-end (Algorithm 1) and return the decoded sum.

    Args:
        values: ``(n,)`` real array, one scalar per participant.
        lam: Per-participant Skellam parameter.
        modulus: SecAgg modulus ``m``.
        rng: Numpy random generator (the noise; the sum draws nothing).

    Returns:
        The server's integer estimate of ``sum(values)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ConfigurationError(f"expected a 1-d array, got ndim={values.ndim}")
    perturbed = smm_perturb(values, lam, rng)
    messages = encode_mod(perturbed[:, np.newaxis], modulus)
    residue = sum_mod(messages, modulus)
    return int(decode_centered(residue, modulus)[0])


def estimate_sum(
    values: np.ndarray,
    lam: float,
    modulus: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run dSMM end-to-end (Algorithm 2) and return the decoded vector sum.

    Args:
        values: ``(n, d)`` real array, one row per participant.
        lam: Per-participant Skellam parameter.
        modulus: SecAgg modulus ``m``.
        rng: Numpy random generator (the noise; the sum draws nothing).

    Returns:
        Length-``d`` int64 estimate of the column sums.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ConfigurationError(f"expected an (n, d) array, got ndim={values.ndim}")
    perturbed = smm_perturb(values, lam, rng)
    messages = encode_mod(perturbed, modulus)
    residue = sum_mod(messages, modulus)
    return decode_centered(residue, modulus)
