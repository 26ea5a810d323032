"""Renyi-DP accountant: composition, subsampling, and DP conversion.

Implements the three accounting lemmata of Section 2.3:

* **Composition** (Lemma 1): RDP parameters at a fixed order add up.
* **Poisson subsampling** (Lemma 2, Zhu-Wang / Mironov et al.): a
  mechanism run on a ``q``-sampled subset enjoys amplified RDP.  (The
  restatement inside Theorem 6 contains a sign misprint, ``alpha q - q -
  1``; we implement Lemma 2's ``alpha q - q + 1``, the published formula.)
* **Conversion** (Lemma 3, Canonne-Kamath-Steinke): any
  ``(alpha, tau)``-RDP guarantee yields ``(epsilon, delta)``-DP with
  ``epsilon = tau + (log(1/delta) + (alpha-1) log(1 - 1/alpha) -
  log(alpha)) / (alpha - 1)``.

The :class:`RdpAccountant` tracks a vector of RDP parameters over integer
orders, composes mechanisms, and reports the best (smallest) converted
epsilon over the order grid — exactly the procedure the paper uses
("the optimal RDP order is chosen from integers from 2 to 100").

Only the subsampled sum needs scipy (``gammaln`` and ``logsumexp``), and
:func:`subsampled_rdp` imports it when it evaluates one, so importing the
accountant loads no scipy.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from repro.errors import PrivacyAccountingError

#: Type of a per-order RDP curve: order -> tau (may raise
#: PrivacyAccountingError when the order is infeasible for the mechanism).
RdpCurve = Callable[[int], float]


def rdp_to_dp(alpha: float, tau: float, delta: float) -> float:
    """Convert ``(alpha, tau)``-RDP to ``(epsilon, delta)``-DP (Lemma 3)."""
    if not alpha > 1:
        raise PrivacyAccountingError(f"Renyi order must be > 1, got {alpha}")
    if not 0 < delta < 1:
        raise PrivacyAccountingError(f"delta must be in (0, 1), got {delta}")
    if tau < 0:
        raise PrivacyAccountingError(f"tau must be non-negative, got {tau}")
    correction = (
        math.log(1.0 / delta)
        + (alpha - 1.0) * math.log(1.0 - 1.0 / alpha)
        - math.log(alpha)
    ) / (alpha - 1.0)
    return tau + correction


def compose(taus: Sequence[float]) -> float:
    """Compose RDP parameters at a fixed order (Lemma 1): they add."""
    if any(tau < 0 for tau in taus):
        raise PrivacyAccountingError("RDP parameters must be non-negative")
    return float(sum(taus))


def subsampled_rdp(alpha: int, sampling_rate: float, curve: RdpCurve) -> float:
    """Amplified RDP of a Poisson-subsampled mechanism (Lemma 2).

    ``tau_sub(alpha) = 1/(alpha-1) * log((1-q)^{alpha-1} (alpha q - q + 1)
    + sum_{l=2}^{alpha} C(alpha, l) (1-q)^{alpha-l} q^l e^{(l-1) tau(l)})``.

    Args:
        alpha: Integer Renyi order >= 2.
        sampling_rate: Poisson sampling probability ``q`` in [0, 1].
        curve: The base mechanism's RDP curve; evaluated at ``l = 2..alpha``.

    Returns:
        The subsampled RDP parameter at order ``alpha``.
    """
    if not isinstance(alpha, int) or alpha < 2:
        raise PrivacyAccountingError(
            f"subsampling lemma needs an integer order >= 2, got {alpha}"
        )
    if not 0 <= sampling_rate <= 1:
        raise PrivacyAccountingError(
            f"sampling rate must be in [0, 1], got {sampling_rate}"
        )
    if sampling_rate == 0:
        return 0.0
    if sampling_rate == 1:
        return curve(alpha)
    from scipy.special import gammaln, logsumexp

    q = sampling_rate
    log_q = math.log(q)
    log_one_minus_q = math.log1p(-q)
    log_terms = [
        (alpha - 1) * log_one_minus_q + math.log(alpha * q - q + 1.0)
    ]
    log_alpha_factorial = gammaln(alpha + 1)
    for order in range(2, alpha + 1):
        log_binom = (
            log_alpha_factorial - gammaln(order + 1) - gammaln(alpha - order + 1)
        )
        log_terms.append(
            log_binom
            + (alpha - order) * log_one_minus_q
            + order * log_q
            + (order - 1) * curve(order)
        )
    return float(logsumexp(log_terms)) / (alpha - 1)


def best_epsilon(
    orders: Sequence[int],
    taus: Callable[[int], float] | dict[int, float],
    delta: float,
) -> tuple[float, int]:
    """Smallest converted epsilon over a grid of Renyi orders.

    Orders at which the RDP curve is infeasible (raises
    :class:`PrivacyAccountingError`) are skipped.

    Args:
        orders: Candidate integer orders.
        taus: RDP parameter per order (mapping or callable).
        delta: Target DP delta.

    Returns:
        ``(epsilon, order)`` achieving the minimum.

    Raises:
        PrivacyAccountingError: If no order is feasible.
    """
    lookup = taus.__getitem__ if isinstance(taus, dict) else taus
    best: tuple[float, int] | None = None
    for alpha in orders:
        try:
            tau = lookup(alpha)
            epsilon = rdp_to_dp(alpha, tau, delta)
        except (PrivacyAccountingError, KeyError):
            continue
        if best is None or epsilon < best[0]:
            best = (epsilon, alpha)
    if best is None:
        raise PrivacyAccountingError(
            "no feasible Renyi order: the mechanism's constraints exclude "
            "every candidate order"
        )
    return best


class RdpAccountant:
    """Accumulates RDP over a training run and converts to ``(eps, delta)``.

    The accountant holds one running RDP total per candidate order.  Orders
    that become infeasible for some composed mechanism are dropped (their
    curve raised :class:`PrivacyAccountingError`), mirroring the paper's
    constrained optimal-order selection.

    Args:
        orders: Candidate integer Renyi orders (default 2..100, as in the
            paper's experiments).
    """

    def __init__(self, orders: Sequence[int] = tuple(range(2, 101))) -> None:
        if not orders or any(
            (not isinstance(order, int)) or order < 2 for order in orders
        ):
            raise PrivacyAccountingError("orders must be integers >= 2")
        self._totals: dict[int, float] = {order: 0.0 for order in orders}

    @property
    def orders(self) -> tuple[int, ...]:
        """Orders still feasible for every composed mechanism."""
        return tuple(sorted(self._totals))

    def step(self, curve: RdpCurve, count: int = 1) -> None:
        """Compose ``count`` executions of a mechanism with RDP ``curve``.

        Args:
            curve: Per-order RDP parameter of one execution.
            count: Number of independent executions (Lemma 1).
        """
        if count < 0:
            raise PrivacyAccountingError(f"count must be >= 0, got {count}")
        updated: dict[int, float] = {}
        for order, total in self._totals.items():
            try:
                updated[order] = total + count * curve(order)
            except PrivacyAccountingError:
                continue
        if not updated:
            raise PrivacyAccountingError(
                "mechanism infeasible at every tracked Renyi order"
            )
        self._totals = updated

    def step_subsampled(
        self, curve: RdpCurve, sampling_rate: float, count: int = 1
    ) -> None:
        """Compose ``count`` Poisson-subsampled executions (Lemmas 1 + 2)."""
        self.step(
            lambda alpha: subsampled_rdp(alpha, sampling_rate, curve), count
        )

    def epsilon(self, delta: float) -> float:
        """Best converted epsilon at the given delta (Lemma 3)."""
        value, _ = best_epsilon(self.orders, dict(self._totals), delta)
        return value

    def best_order(self, delta: float) -> int:
        """The order attaining :meth:`epsilon`."""
        _, order = best_epsilon(self.orders, dict(self._totals), delta)
        return order
