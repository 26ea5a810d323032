"""Noise calibration: solve for the noise parameter meeting a DP budget.

Every mechanism in the paper exposes a monotone trade-off: more noise
(larger ``lambda``, ``sigma^2`` or binomial ``N``) means a smaller
converted epsilon.  The experiments fix a target ``(epsilon, delta)`` and
solve for the noise parameter; this module provides that inversion:

* :func:`epsilon_for_curve` — the forward direction: per-round RDP curve
  -> total epsilon under ``T``-fold composition (Lemma 1), optional
  Poisson subsampling (Lemma 2) and conversion at the optimal order
  (Lemma 3), exactly the paper's accounting procedure.
* :func:`calibrate_noise` — the inverse: bracket-and-bisect the smallest
  noise parameter whose epsilon is within budget.

The calibrator works for any mechanism through a *curve factory*: a
callable mapping the candidate noise parameter to that mechanism's
per-round RDP curve.  Every RDP mechanism passes its one
:meth:`~repro.mechanisms.base.SumEstimator.rdp_curve` at its geometry
and the expected contributor count
(``lambda noise: mechanism.rdp_curve(spec, noise, n)``), the same pure
function the engine's ledger composes, so calibration and the ledger
cannot disagree about a round's cost.  Parameters at which a curve is
infeasible at every order (the feasibility constraints Eq. (3) /
Eq. (8)) are treated as ``epsilon = inf``.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

from repro.config import PrivacyBudget
from repro.accounting.rdp import RdpCurve, best_epsilon, subsampled_rdp
from repro.errors import CalibrationError, PrivacyAccountingError

#: Maps a candidate noise parameter to a mechanism's per-round RDP curve.
CurveFactory = Callable[[float], RdpCurve]


@dataclasses.dataclass(frozen=True)
class AccountingSpec:
    """How many releases are composed and how participants are sampled.

    Attributes:
        budget: The target ``(epsilon, delta)``.
        rounds: Number of composed releases ``T`` (1 for one-shot sum
            estimation).
        sampling_rate: Poisson sampling probability ``q`` of each
            participant per round (1 disables amplification).
    """

    budget: PrivacyBudget
    rounds: int = 1
    sampling_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise CalibrationError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 < self.sampling_rate <= 1:
            raise CalibrationError(
                f"sampling_rate must be in (0, 1], got {self.sampling_rate}"
            )


@dataclasses.dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a successful calibration.

    Attributes:
        noise_parameter: The calibrated mechanism parameter (total
            ``lambda``, ``sigma^2``, binomial ``N``, ... — mechanism
            specific).
        epsilon: The achieved epsilon (<= the budget's target).
        order: The optimal Renyi order attaining that epsilon.
    """

    noise_parameter: float
    epsilon: float
    order: int


def _memoised(curve: RdpCurve) -> RdpCurve:
    """Cache curve evaluations (subsampling re-queries the same orders)."""
    cache: dict[int, float] = {}
    errors: dict[int, PrivacyAccountingError] = {}

    def wrapped(order: int) -> float:
        if order in errors:
            raise errors[order]
        if order not in cache:
            try:
                cache[order] = curve(order)
            except PrivacyAccountingError as exc:
                errors[order] = exc
                raise
        return cache[order]

    return wrapped


def epsilon_for_curve(curve: RdpCurve, spec: AccountingSpec) -> tuple[float, int]:
    """Total converted epsilon of ``T`` (subsampled) releases.

    Args:
        curve: Per-release RDP curve of the mechanism.
        spec: Composition count, sampling rate and target delta.

    Returns:
        ``(epsilon, order)`` at the optimal feasible Renyi order.

    Raises:
        PrivacyAccountingError: If no candidate order is feasible.
    """
    base = _memoised(curve)
    if spec.sampling_rate < 1:

        def per_round(alpha: int) -> float:
            return subsampled_rdp(alpha, spec.sampling_rate, base)

    else:
        per_round = base

    def total(alpha: int) -> float:
        return spec.rounds * per_round(alpha)

    return best_epsilon(spec.budget.orders, total, spec.budget.delta)


def calibrate_noise(
    curve_factory: CurveFactory,
    spec: AccountingSpec,
    initial: float = 1.0,
    relative_tolerance: float = 1e-4,
    max_doublings: int = 200,
) -> CalibrationResult:
    """Find the smallest noise parameter meeting the budget.

    Assumes ``epsilon`` is non-increasing in the noise parameter (true for
    every mechanism here).  The search brackets the target by doubling /
    halving from ``initial`` and then bisects to ``relative_tolerance``.

    Args:
        curve_factory: Candidate parameter -> per-release RDP curve.
        spec: Accounting specification (budget, rounds, sampling rate).
        initial: Starting guess for the parameter.
        relative_tolerance: Bisection stops when the bracket is this tight.
        max_doublings: Safety bound on the bracketing phase.

    Returns:
        The calibrated parameter with its achieved epsilon and order.

    Raises:
        CalibrationError: If no parameter within ``initial * 2**200``
            meets the budget.
    """
    if initial <= 0:
        raise CalibrationError(f"initial must be positive, got {initial}")
    target = spec.budget.epsilon

    def achieved(parameter: float) -> float:
        try:
            epsilon, _ = epsilon_for_curve(curve_factory(parameter), spec)
        except PrivacyAccountingError:
            return math.inf
        return epsilon

    # Bracket: find hi with achieved(hi) <= target.
    hi = initial
    doublings = 0
    while achieved(hi) > target:
        hi *= 2.0
        doublings += 1
        if doublings > max_doublings:
            raise CalibrationError(
                f"no noise parameter up to {hi:g} meets epsilon={target}"
            )
    # Tighten lo: find lo with achieved(lo) > target (or accept tiny noise).
    lo = hi / 2.0
    halvings = 0
    while achieved(lo) <= target:
        hi = lo
        lo /= 2.0
        halvings += 1
        if halvings > max_doublings:
            lo = 0.0
            break
    while hi - lo > relative_tolerance * hi:
        mid = (lo + hi) / 2.0
        if achieved(mid) <= target:
            hi = mid
        else:
            lo = mid
    epsilon, order = epsilon_for_curve(curve_factory(hi), spec)
    return CalibrationResult(noise_parameter=hi, epsilon=epsilon, order=order)
