"""Privacy-loss-distribution (PLD) accountant with FFT composition.

The paper's Related Work cites Koskela et al. (AISTATS 2021, reference
[34]) as the tight alternative to RDP accounting for discrete-valued
mechanisms.  This module implements that accountant for the integer
noise distributions in this library, which serves two purposes:

* an **independent check** on the RDP pipeline — the tight
  ``epsilon(delta)`` from the PLD lower-bounds any valid conversion, so
  RDP results must dominate it; and
* an **ablation** quantifying how much of the paper's epsilon is
  accounting slack versus mechanism noise (see
  ``benchmarks/test_ablations.py``).

Background.  For output distributions ``P`` (on ``X``) and ``Q`` (on a
neighbouring ``X'``), the privacy loss at outcome ``o`` is ``L(o) =
log(P(o)/Q(o))`` and the PLD is the distribution of ``L(o)`` under
``o ~ P``.  Tight approximate DP is the hockey-stick divergence

``delta(eps) = E_P[max(0, 1 - e^{eps - L})] + Pr_P[Q = 0]``,

and the loss of a ``T``-fold independent composition is the sum of the
per-step losses, so the composed PLD is the ``T``-fold convolution of
the single-step PLD — computed here on a uniform grid with FFT
exponentiation.  Discretisation rounds losses *up* (the pessimistic
direction), and mass lost to FFT noise is routed to the
infinite-loss bucket, so reported deltas are conservative.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import PrivacyAccountingError
from repro.sampling.skellam import symmetric_skellam_pmf

#: Default discretisation step for privacy losses (natural-log units).
DEFAULT_GRID_STEP = 1e-3

#: Default PMF tail mass truncated into the infinity bucket per side.
DEFAULT_TAIL_MASS = 1e-12


@dataclasses.dataclass(frozen=True)
class PrivacyLossDistribution:
    """A discretised PLD: atoms on a uniform loss grid plus an
    infinite-loss bucket.

    Attributes:
        grid_step: Spacing of the loss grid.
        min_index: Grid index of the first atom (loss = index * step).
        probabilities: Atom masses, ``probabilities[k]`` at loss
            ``(min_index + k) * grid_step``.
        infinity_mass: Mass at loss ``+infinity`` (outcomes impossible
            under ``Q``, plus truncated tails).
    """

    grid_step: float
    min_index: int
    probabilities: np.ndarray
    infinity_mass: float

    def __post_init__(self) -> None:
        if self.grid_step <= 0:
            raise PrivacyAccountingError(
                f"grid step must be positive, got {self.grid_step}"
            )
        if not 0 <= self.infinity_mass <= 1 + 1e-9:
            raise PrivacyAccountingError(
                f"infinity mass must be a probability, got "
                f"{self.infinity_mass}"
            )
        total = float(np.sum(self.probabilities)) + self.infinity_mass
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise PrivacyAccountingError(
                f"PLD masses must sum to 1, got {total}"
            )

    @property
    def losses(self) -> np.ndarray:
        """The grid of loss values carrying the atoms."""
        return (
            np.arange(len(self.probabilities)) + self.min_index
        ) * self.grid_step

    def delta(self, epsilon: float) -> float:
        """Tight ``delta`` at the given ``epsilon`` (hockey-stick)."""
        if epsilon < 0:
            raise PrivacyAccountingError(
                f"epsilon must be >= 0, got {epsilon}"
            )
        losses = self.losses
        above = losses > epsilon
        contributions = self.probabilities[above] * (
            1.0 - np.exp(epsilon - losses[above])
        )
        return float(np.sum(contributions)) + self.infinity_mass

    def epsilon(self, delta: float) -> float:
        """Smallest ``epsilon`` with ``delta(epsilon) <= delta``.

        Raises:
            PrivacyAccountingError: If even ``epsilon = +inf`` cannot meet
                ``delta`` (i.e. ``infinity_mass > delta``).
        """
        if not 0 < delta < 1:
            raise PrivacyAccountingError(
                f"delta must be in (0, 1), got {delta}"
            )
        if self.infinity_mass > delta:
            raise PrivacyAccountingError(
                f"infinite-loss mass {self.infinity_mass:.3g} exceeds "
                f"delta={delta:.3g}; no finite epsilon exists"
            )
        if self.delta(0.0) <= delta:
            return 0.0
        low, high = 0.0, float(max(self.losses.max(), self.grid_step))
        while self.delta(high) > delta:
            high *= 2.0
            if high > 1e8:
                raise PrivacyAccountingError("epsilon search diverged")
        for _ in range(100):
            mid = 0.5 * (low + high)
            if self.delta(mid) > delta:
                low = mid
            else:
                high = mid
        return high

    def compose(self, count: int) -> "PrivacyLossDistribution":
        """The PLD of ``count`` independent runs (FFT self-convolution).

        Args:
            count: Number of compositions (>= 1).

        Returns:
            The composed PLD on the same grid step.
        """
        if count < 1:
            raise PrivacyAccountingError(f"count must be >= 1, got {count}")
        if count == 1:
            return self
        finite = self.probabilities
        out_len = count * (len(finite) - 1) + 1
        fft_len = 1 << max(1, (out_len - 1)).bit_length()
        spectrum = np.fft.rfft(finite, fft_len)
        composed = np.fft.irfft(spectrum**count, fft_len)[:out_len]
        # FFT round-off can go slightly negative; clip and route the
        # clipped mass (and the deficit vs the exact total) to infinity,
        # keeping delta() an upper bound.
        composed = np.clip(composed, 0.0, None)
        finite_total = float(np.sum(finite)) ** count
        overshoot = float(np.sum(composed)) - finite_total
        if overshoot > 0:
            composed *= finite_total / float(np.sum(composed))
        new_infinity = 1.0 - float(np.sum(composed))
        return PrivacyLossDistribution(
            grid_step=self.grid_step,
            min_index=count * self.min_index,
            probabilities=composed,
            infinity_mass=min(max(new_infinity, 0.0), 1.0),
        )


def pld_from_pmfs(
    p: np.ndarray,
    q: np.ndarray,
    grid_step: float = DEFAULT_GRID_STEP,
) -> PrivacyLossDistribution:
    """Build a (pessimistic) PLD from two PMFs on a common support.

    Losses ``log(p_i / q_i)`` are rounded *up* to the grid; outcomes with
    ``q_i = 0 < p_i`` go to the infinity bucket.  Outcomes with
    ``p_i = 0`` carry no mass under ``P`` and are skipped.

    Args:
        p: PMF of the mechanism on ``X`` (the numerator distribution).
        q: PMF on the neighbouring ``X'``, aligned index-by-index.
        grid_step: Loss discretisation step.

    Returns:
        The discretised PLD.

    Raises:
        PrivacyAccountingError: On mismatched shapes or negative masses.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise PrivacyAccountingError(
            f"PMF shapes differ: {p.shape} vs {q.shape}"
        )
    if (p < 0).any() or (q < 0).any():
        raise PrivacyAccountingError("PMFs must be non-negative")
    support = p > 0
    infinity_mass = float(np.sum(p[support & (q == 0)]))
    # Any mass p fails to account for (truncated tails) is also routed to
    # infinity so delta stays an upper bound.
    infinity_mass += max(0.0, 1.0 - float(np.sum(p)))
    finite = support & (q > 0)
    if not finite.any():
        return PrivacyLossDistribution(
            grid_step=grid_step,
            min_index=0,
            probabilities=np.array([1.0 - infinity_mass]),
            infinity_mass=infinity_mass,
        )
    losses = np.log(p[finite]) - np.log(q[finite])
    masses = p[finite]
    indices = np.ceil(losses / grid_step - 1e-12).astype(np.int64)
    min_index = int(indices.min())
    probabilities = np.zeros(int(indices.max()) - min_index + 1)
    np.add.at(probabilities, indices - min_index, masses)
    return PrivacyLossDistribution(
        grid_step=grid_step,
        min_index=min_index,
        probabilities=probabilities,
        infinity_mass=infinity_mass,
    )


def _skellam_support(
    total_lambda: float, max_shift: int, tail_mass: float
) -> np.ndarray:
    """Integer support covering all shifted Skellams up to ``tail_mass``."""
    std = math.sqrt(2.0 * total_lambda)
    # Chernoff-style half-width: generous constant keeps tails < 1e-12.
    half_width = int(math.ceil(10.0 * std + 30.0)) + abs(max_shift)
    del tail_mass  # width chosen conservatively; kept for API clarity
    return np.arange(-half_width, half_width + 1)


def skellam_pmf(support: np.ndarray, total_lambda: float) -> np.ndarray:
    """PMF of the symmetric Skellam ``Sk(lambda, lambda)`` on ``support``."""
    if total_lambda <= 0:
        raise PrivacyAccountingError(
            f"lambda must be positive, got {total_lambda}"
        )
    return symmetric_skellam_pmf(support, total_lambda)


def skellam_pair_pmfs(
    shift: int,
    total_lambda: float,
    tail_mass: float = DEFAULT_TAIL_MASS,
) -> tuple[np.ndarray, np.ndarray]:
    """The worst-case (P, Q) pair for pure Skellam noise on integer data.

    ``P = shift + Sk(lambda, lambda)`` and ``Q = Sk(lambda, lambda)`` on a
    shared truncated support — the Theorem 3 pair.

    Args:
        shift: The differing record's value ``s``.
        total_lambda: Aggregate noise parameter ``n * lambda``.
        tail_mass: Truncation budget (routed to the infinity bucket).

    Returns:
        ``(p, q)`` PMF arrays on the common support.
    """
    support = _skellam_support(total_lambda, shift, tail_mass)
    q = skellam_pmf(support, total_lambda)
    p = skellam_pmf(support - shift, total_lambda)
    return p, q


def smm_pair_pmfs(
    value: float,
    total_lambda: float,
    tail_mass: float = DEFAULT_TAIL_MASS,
) -> tuple[np.ndarray, np.ndarray]:
    """The worst-case (P, Q) pair for the Skellam *mixture* mechanism.

    By Lemma 4 the binding pair is the all-zero dataset versus the same
    dataset plus one record of (scaled) value ``x``:

    ``Q = Sk(n lambda)`` and
    ``P = (1 - p) (floor(x) + Sk) + p (ceil(x) + Sk)``, ``p = x - floor(x)``.

    Args:
        value: The extra record's scaled value ``x_{n+1}``.
        total_lambda: Aggregate noise parameter ``n * lambda``.
        tail_mass: Truncation budget.

    Returns:
        ``(p, q)`` PMF arrays on the common support.
    """
    floor = math.floor(value)
    frac = value - floor
    max_shift = max(abs(floor), abs(floor + 1) if frac > 0.0 else 0)
    support = _skellam_support(total_lambda, max_shift, tail_mass)
    q = skellam_pmf(support, total_lambda)
    p = (1.0 - frac) * skellam_pmf(support - floor, total_lambda)
    if frac > 0.0:
        p = p + frac * skellam_pmf(support - floor - 1, total_lambda)
    return p, q


def subsampled_pair(
    p: np.ndarray, q: np.ndarray, sampling_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson-subsample a worst-case pair (remove-one adjacency).

    With sampling rate ``s``, the differing record participates with
    probability ``s``, so the mechanism on the larger dataset becomes the
    mixture ``(1 - s) Q + s P`` while the smaller dataset still yields
    ``Q``.

    Args:
        p: PMF with the extra record present.
        q: PMF without it.
        sampling_rate: Poisson participation probability in [0, 1].

    Returns:
        The pair ``((1-s) q + s p, q)``.
    """
    if not 0 <= sampling_rate <= 1:
        raise PrivacyAccountingError(
            f"sampling rate must be in [0, 1], got {sampling_rate}"
        )
    return (1.0 - sampling_rate) * q + sampling_rate * p, q


def tight_epsilon(
    p: np.ndarray,
    q: np.ndarray,
    delta: float,
    compositions: int = 1,
    sampling_rate: float = 1.0,
    grid_step: float = DEFAULT_GRID_STEP,
) -> float:
    """Tight ``epsilon`` of a (possibly subsampled, composed) mechanism.

    Accounts both adjacency directions — ``(P, Q)`` and ``(Q, P)`` — and
    returns the larger epsilon, which is the guarantee that holds for
    add *and* remove neighbouring datasets.

    Args:
        p: Worst-case PMF with the differing record.
        q: Worst-case PMF without it.
        delta: Target DP delta.
        compositions: Number of adaptive repetitions ``T``.
        sampling_rate: Poisson subsampling rate per repetition.
        grid_step: PLD discretisation step.

    Returns:
        The tight (up to discretisation pessimism) epsilon.
    """
    mixture, base = subsampled_pair(p, q, sampling_rate)
    epsilons = []
    for numerator, denominator in ((mixture, base), (base, mixture)):
        pld = pld_from_pmfs(numerator, denominator, grid_step)
        epsilons.append(pld.compose(compositions).epsilon(delta))
    return max(epsilons)
