"""Fast vectorised samplers (floating-point, numpy-based).

The paper's experiments use "the approximate samplers for Discrete Gaussian
and Skellam from the TensorFlow libraries, which are based on floating
point approximations" (Section 6) because they are orders of magnitude
faster than the exact samplers.  This module plays the same role for our
pipelines:

* :func:`skellam_noise` — a Walker/Vose alias table over the bulk of
  ``Sk(lam, lam)``, built once per ``lam`` and cached, with the tail
  resolved exactly by inverse CDF,
* :func:`discrete_gaussian_noise` — inverse-CDF sampling over a truncated
  integer support,
* :func:`binomial_noise` — ``Binomial(N, 1/2) - N/2`` noise for cpSGD.

All functions take an explicit :class:`numpy.random.Generator`; no global
random state is touched.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.sampling.skellam import SkellamDistribution

#: Largest ``lam`` :func:`skellam_noise` accepts.  Its table spans about
#: ``±7.1 sqrt(2 lam)`` (≈ 10 000 cells here), builds in well under 0.5 s
#: and holds well under 16 MiB; the largest ``lam`` any experiment of this
#: repository draws with is 107 728.
MAX_SKELLAM_LAMBDA = 2.0**18

#: Two-sided mass the alias table leaves to its single tail outcome.
TABLE_TAIL_MASS = 2.0**-40

#: Cells per inverse-CDF block when a tail outcome is resolved.
TAIL_BLOCK = 64

#: A remainder of the pmf this much smaller than the sum it would join
#: cannot change that sum in float64, so a run of cells may stop there.
_NEGLIGIBLE = 2.0**-64


def _remainder_bound(run: np.ndarray) -> float:
    """Upper bound on the pmf's mass beyond the last cell of ``run``.

    ``run`` is the pmf on consecutive cells right of the mode.  The
    Skellam pmf ``e^{-2 lam} I_k(2 lam)`` is log-concave in ``k``
    (Turán's inequality ``I_k^2 >= I_{k-1} I_{k+1}``), so the ratio of
    neighbouring cells only falls and the rest of the tail is at most the
    geometric series of the last ratio.
    """
    last = float(run[-1])
    if last == 0.0:
        return 0.0
    ratio = last / float(run[-2])
    return math.inf if ratio >= 1.0 else last * ratio / (1.0 - ratio)


def _alias_table(probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias method: outcome ``i`` is kept with ``threshold[i]``,
    else replaced by ``alias[i]``, after a uniform pick of ``i``."""
    count = probabilities.size
    scaled = (probabilities * (count / probabilities.sum())).tolist()
    threshold = [1.0] * count
    alias = list(range(count))
    small = [i for i, weight in enumerate(scaled) if weight < 1.0]
    large = [i for i, weight in enumerate(scaled) if weight >= 1.0]
    while small and large:
        light, heavy = small.pop(), large.pop()
        threshold[light], alias[light] = scaled[light], heavy
        scaled[heavy] += scaled[light] - 1.0
        (small if scaled[heavy] < 1.0 else large).append(heavy)
    # Whatever is left weighs 1 up to rounding and keeps threshold 1.
    return np.array(threshold), np.array(alias, dtype=np.int64)


class SkellamTable:
    """``Sk(lam, lam)`` as an alias table over ``[-R, R]`` plus one tail outcome.

    ``R`` is the smallest radius whose two-sided tail mass is at most
    :data:`TABLE_TAIL_MASS`.  Outcome ``i <= 2R`` is the value ``i - R``;
    outcome ``2R + 1`` carries the whole tail mass and reads as the
    sentinel value ``R + 1``, which :meth:`sample` replaces with an exact
    draw from beyond ``R``.  Every mass is a sum of the Bessel pmf
    (:func:`~repro.sampling.skellam.symmetric_skellam_pmf`), never a
    library survival function (``sf``), which is wrong in the far tail.

    Attributes:
        radius: ``R``.
        threshold: Per-outcome probability of keeping the outcome.
        alias: Per-outcome replacement outcome.
    """

    def __init__(self, lam: float) -> None:
        self._pmf = SkellamDistribution(lam).pmf
        chunk = max(TAIL_BLOCK, math.ceil(math.sqrt(2.0 * lam)))
        # The pmf right of the mode, far enough that what is left beyond
        # cannot move a tail mass of TABLE_TAIL_MASS's size.
        run = self._pmf(np.arange(chunk))
        while _remainder_bound(run) > _NEGLIGIBLE * TABLE_TAIL_MASS:
            more = self._pmf(np.arange(run.size, run.size + chunk))
            run = np.concatenate([run, more])
        beyond = np.cumsum(run[::-1])[::-1]  # beyond[k] = sum of pmf over >= k
        radius = int(np.argmax(2.0 * beyond[1:] <= TABLE_TAIL_MASS))
        self.radius = radius
        self._tail = run[radius + 1 :]
        probabilities = np.concatenate(
            [run[radius:0:-1], run[: radius + 1], [2.0 * beyond[radius + 1]]]
        )
        self.threshold, self.alias = _alias_table(probabilities)
        self.threshold.setflags(write=False)
        self.alias.setflags(write=False)

    def sample(
        self, size: int | tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``size`` variates: one index, one uniform and two gathers each."""
        index = rng.integers(0, self.threshold.size, size=size)
        keep = rng.random(size=size) < self.threshold[index]
        draws = np.where(keep, index, self.alias[index])
        draws -= self.radius
        tail = np.flatnonzero(draws == self.radius + 1)
        if tail.size:
            draws.flat[tail] = self.sample_tail(tail.size, rng)
        return draws

    def sample_tail(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` variates of ``Sk(lam, lam)`` conditioned on ``|k| > R``.

        Inverse CDF over blocks of :data:`TAIL_BLOCK` cells, with fresh
        uniforms for each block a draw reaches: a draw stays in the block
        with the block's share of the mass from the block on, so the
        cells of a far block are resolved at full float64 precision
        rather than at a share of one uniform.  Blocks are tabulated as
        draws reach them; nothing beyond ``R`` is cut off.
        """
        magnitudes = np.empty(count, dtype=np.int64)
        pending = np.arange(count)
        start = self.radius + 1
        while pending.size:
            cdf = np.cumsum(self._tail_pmf(start, start + TAIL_BLOCK))
            points = rng.random(pending.size) * (
                cdf[-1] + self._mass_from(start + TAIL_BLOCK)
            )
            cells = np.searchsorted(cdf, points, side="right")
            inside = cells < TAIL_BLOCK
            magnitudes[pending[inside]] = start + cells[inside]
            pending = pending[~inside]
            start += TAIL_BLOCK
        return np.where(rng.random(count) < 0.5, magnitudes, -magnitudes)

    def _tail_pmf(self, start: int, stop: int) -> np.ndarray:
        """The pmf on ``[start, stop)`` (``start > R``), tabulating as needed."""
        first = self.radius + 1
        while first + self._tail.size < stop:
            end = first + self._tail.size
            more = self._pmf(np.arange(end, end + TAIL_BLOCK))
            self._tail = np.concatenate([self._tail, more])
        return self._tail[start - first : stop - first]

    def _mass_from(self, start: int) -> float:
        """``sum of pmf over k >= start``, summed until the rest is negligible."""
        stop = start + TAIL_BLOCK
        while True:
            run = self._tail_pmf(start, stop)
            mass = float(run.sum())
            if _remainder_bound(run) <= _NEGLIGIBLE * mass:
                return mass
            stop += TAIL_BLOCK


@functools.lru_cache(maxsize=64)
def skellam_table(lam: float) -> SkellamTable:
    """The cached :class:`SkellamTable` of ``lam``.

    A run draws with one ``lam`` throughout, so each table is built once;
    the bound keeps a sweep over many ``lam`` from growing the cache
    without limit (64 covers every ``lam`` the tier-1 suite uses).
    """
    return SkellamTable(lam)


def skellam_noise(
    lam: float, size: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Sample ``Sk(lam, lam)`` variates from the cached alias table of ``lam``.

    A draw costs one ``rng.integers``, one ``rng.random`` and two gathers
    (see :class:`SkellamTable`); the per-coordinate work of two Poisson
    draws is paid once per ``lam``, when the table is built.  The table
    covers ``[-R, R]``, where the two-sided tail mass falls to
    :data:`TABLE_TAIL_MASS`, and one extra outcome carries exactly that
    mass.  A draw landing on it is resolved exactly by inverse CDF beyond
    ``R``, so the support stays all of ``Z``: the Skellam RDP bound and
    the full-support argument against floating-point attacks
    (:mod:`repro.attacks.floating_point`) both hold only for noise that
    reaches every integer, so the tail is never truncated.

    Args:
        lam: Rate of each Poisson component (variance of the output is
            ``2 * lam``); must be positive, finite and at most
            :data:`MAX_SKELLAM_LAMBDA`.
        size: Output shape.
        rng: Numpy random generator.

    Returns:
        An int64 array of shape ``size``.

    Raises:
        ConfigurationError: If ``lam`` is not in ``(0, MAX_SKELLAM_LAMBDA]``.
    """
    if not 0 < lam <= MAX_SKELLAM_LAMBDA:
        raise ConfigurationError(
            f"lambda must be in (0, {MAX_SKELLAM_LAMBDA:g}], got {lam}"
        )
    return skellam_table(float(lam)).sample(size, rng)


def discrete_gaussian_noise(
    sigma_squared: float,
    size: int | tuple[int, ...],
    rng: np.random.Generator,
    tail_mass: float = 1e-12,
) -> np.ndarray:
    """Sample ``N_Z(0, sigma^2)`` variates by inverse-CDF over a table.

    The support is truncated where the tail mass drops below ``tail_mass``;
    for the experiment parameter ranges (``sigma^2 <= 2^20``) the truncated
    mass is far below float precision, so the sampled law matches the
    discrete Gaussian up to floating-point rounding — the same fidelity
    class as the TensorFlow sampler the paper uses.

    Args:
        sigma_squared: Distribution parameter; must be positive.
        size: Output shape.
        rng: Numpy random generator.
        tail_mass: Total probability allowed outside the table.

    Returns:
        An int64 array of shape ``size``.
    """
    if not sigma_squared > 0:
        raise ConfigurationError(f"sigma^2 must be positive, got {sigma_squared}")
    sigma = math.sqrt(sigma_squared)
    radius = int(math.ceil(sigma * math.sqrt(-2.0 * math.log(tail_mass)))) + 2
    support = np.arange(-radius, radius + 1, dtype=np.int64)
    log_weights = -(support.astype(float) ** 2) / (2.0 * sigma_squared)
    weights = np.exp(log_weights - log_weights.max())
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    uniforms = rng.random(size=size)
    indices = np.searchsorted(cdf, uniforms, side="left")
    return support[indices]


def binomial_noise(
    num_trials: int, size: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Sample ``Binomial(N, 1/2) - N/2`` noise (cpSGD's binomial mechanism).

    Args:
        num_trials: ``N``; must be a non-negative *even* integer so the
            centred noise is integer-valued.
        size: Output shape.
        rng: Numpy random generator.

    Returns:
        An int64 array of shape ``size`` with mean 0 and variance ``N/4``.
    """
    if num_trials < 0:
        raise ConfigurationError(f"N must be non-negative, got {num_trials}")
    if num_trials % 2 != 0:
        raise ConfigurationError(f"N must be even for integer noise, got {num_trials}")
    if num_trials == 0:
        return np.zeros(size, dtype=np.int64)
    draws = rng.binomial(num_trials, 0.5, size=size)
    return draws.astype(np.int64) - num_trials // 2


def bernoulli_round(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomise each value to ``floor(v)`` or ``floor(v) + 1`` unbiasedly.

    This is the shared Bernoulli step of SMM/DGM (lines 2-3 of Algorithm 1)
    and of stochastic rounding: the success probability is the fractional
    part ``p = v - floor(v)`` so the output's expectation equals ``v``.

    Args:
        values: Real-valued array.
        rng: Numpy random generator.

    Returns:
        An int64 array of the same shape, unbiased for ``values``.
    """
    floors = np.floor(values)
    fractions_part = values - floors
    successes = rng.random(size=values.shape) < fractions_part
    return (floors + successes).astype(np.int64)
