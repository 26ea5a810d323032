"""Exact Skellam sampler and Skellam distribution helpers.

A symmetric Skellam variate ``Sk(lambda, lambda)`` is the difference of two
independent Poisson(lambda) variates (Section 2.1 of the paper), so the
exact rational-Poisson sampler of Appendix A immediately yields an exact
Skellam sampler.

This module also holds the one pmf of ``Sk(lambda, lambda)`` in this
library, ``e^{-2 lambda} I_|k|(2 lambda)`` from the exponentially scaled
modified Bessel function :func:`scipy.special.ive`.  The fast sampler's
alias table and the PLD accountant both evaluate it through
:func:`symmetric_skellam_pmf`, which imports scipy on its first call: a
process that never evaluates the pmf (every SecAgg-only process) never
loads scipy.
"""

from __future__ import annotations

import dataclasses
import fractions
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.sampling.exact_poisson import sample_poisson
from repro.sampling.rng import RandIntSource


def _as_rational(value: float | int | fractions.Fraction) -> fractions.Fraction:
    """Convert a parameter to an exact rational, rejecting non-finite input."""
    if isinstance(value, fractions.Fraction):
        return value
    if isinstance(value, int):
        return fractions.Fraction(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"parameter must be finite, got {value}")
    return fractions.Fraction(value).limit_denominator(10**9)


def symmetric_skellam_pmf(
    k: np.ndarray | int, lam: float
) -> np.ndarray | float:
    """``Pr[Z = k] = e^{-2 lam} I_|k|(2 lam)`` for ``Z ~ Sk(lam, lam)``.

    ``ive(v, z) = e^{-z} I_v(z)`` stays finite where ``e^{-2 lam}`` and
    ``I_|k|(2 lam)`` alone would under- and overflow; it flushes masses
    below about 1e-304 to 0.  ``ive`` also takes non-integer orders, so a
    non-integer ``k`` is masked to 0 here.
    """
    from scipy.special import ive

    k = np.asarray(k, dtype=float)
    mass = ive(np.abs(k), 2.0 * lam)
    return np.where(k == np.floor(k), mass, 0.0)[()]


@dataclasses.dataclass(frozen=True)
class SkellamDistribution:
    """The symmetric Skellam distribution ``Sk(lambda, lambda)``.

    Attributes:
        lam: The Poisson rate ``lambda`` of each of the two components;
            the variate has mean 0 and variance ``2 * lambda``.
    """

    lam: float

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ConfigurationError(f"lambda must be positive, got {self.lam}")

    @property
    def variance(self) -> float:
        """Variance of ``Sk(lambda, lambda)``, equal to ``2 * lambda``."""
        return 2.0 * self.lam

    def pmf(self, k: np.ndarray | int) -> np.ndarray | float:
        """Probability mass ``Pr[Z = k] = exp(-2 lam) I_|k|(2 lam)``."""
        return symmetric_skellam_pmf(k, self.lam)


class ExactSkellamSampler:
    """Exact sampler for ``Sk(lambda, lambda)`` with rational ``lambda``.

    Draws two exact Poisson(lambda) variates (Algorithm 10) and returns
    their difference.  All arithmetic is over integers, so the output
    distribution is exactly Skellam.

    Args:
        lam: The rate parameter; coerced to an exact rational.  Floats are
            converted via :class:`fractions.Fraction` (denominator capped at
            ``1e9``), which is exact for the power-of-two-scaled parameters
            used in the experiments.
        seed: Optional seed for the underlying ``RandInt`` source.
    """

    def __init__(
        self,
        lam: float | int | fractions.Fraction,
        seed: int | None = None,
    ) -> None:
        rational = _as_rational(lam)
        if rational <= 0:
            raise ConfigurationError(f"lambda must be positive, got {lam}")
        self._numerator = rational.numerator
        self._denominator = rational.denominator
        self._source = RandIntSource(seed)

    @property
    def lam(self) -> fractions.Fraction:
        """The exact rational rate parameter."""
        return fractions.Fraction(self._numerator, self._denominator)

    def sample(self) -> int:
        """Draw one exact ``Sk(lambda, lambda)`` variate."""
        first = sample_poisson(self._numerator, self._denominator, self._source)
        second = sample_poisson(self._numerator, self._denominator, self._source)
        return first - second

    def sample_many(self, count: int) -> list[int]:
        """Draw ``count`` i.i.d. exact Skellam variates (sequentially).

        Exact samplers are inherently sequential (Appendix A.1 measures
        exactly this cost); use :mod:`repro.sampling.fast` when a
        floating-point approximation is acceptable.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        return [self.sample() for _ in range(count)]
