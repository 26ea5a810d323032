"""Numerically exact Rényi divergences for the paper's noise distributions.

Theorems 3-5 give *closed-form upper bounds* on the Rényi divergence of
shifted Skellam and Skellam-mixture distributions.  Because every
distribution involved is a PMF over the integers, the divergences can
also be computed *exactly* (up to truncation) by direct summation.  This
module does that, which lets the test suite verify the theorems —
``exact <= bound`` across the parameter space — and lets the ablation
benchmarks quantify how much of the bound is slack (the paper's future
work: "further reduce the constant factor in the privacy analysis").

All computations run in log space over a truncated support whose tail
mass is far below double precision for the parameter ranges exercised;
:func:`numerical_renyi_divergence` imports scipy's ``logsumexp`` when it
sums, not at import.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accounting.divergences import skellam_rdp, smm_rdp
from repro.accounting.pld import (
    skellam_pair_pmfs,
    smm_pair_pmfs,
)
from repro.errors import PrivacyAccountingError


def numerical_renyi_divergence(
    p: np.ndarray, q: np.ndarray, alpha: float
) -> float:
    """Exact ``D_alpha(P || Q)`` of two PMFs on a common support.

    ``D_alpha = 1/(alpha - 1) * log sum_i p_i^alpha q_i^{1 - alpha}``,
    evaluated with a log-sum-exp over the support of ``P``.

    Args:
        p: Numerator PMF.
        q: Denominator PMF, aligned index-by-index.
        alpha: Renyi order (> 1).

    Returns:
        The divergence in nats; ``inf`` when ``P`` puts mass where ``Q``
        does not.

    Raises:
        PrivacyAccountingError: On an invalid order or mismatched shapes.
    """
    if not alpha > 1:
        raise PrivacyAccountingError(f"order must be > 1, got {alpha}")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise PrivacyAccountingError(
            f"PMF shapes differ: {p.shape} vs {q.shape}"
        )
    support = p > 0
    if (q[support] == 0).any():
        return math.inf
    from scipy.special import logsumexp

    log_terms = alpha * np.log(p[support]) + (1.0 - alpha) * np.log(
        q[support]
    )
    return float(logsumexp(log_terms)) / (alpha - 1.0)


def exact_skellam_divergence(
    shift: int, total_lambda: float, alpha: float
) -> float:
    """Exact ``D_alpha(s + Sk(lam, lam) || Sk(lam, lam))`` (Theorem 3 LHS).

    Args:
        shift: Integer shift ``s``.
        total_lambda: Skellam parameter ``lam`` of the aggregate noise.
        alpha: Renyi order (> 1).
    """
    p, q = skellam_pair_pmfs(shift, total_lambda)
    return numerical_renyi_divergence(p, q, alpha)


def theorem3_bound(shift: int, total_lambda: float, alpha: float) -> float:
    """Theorem 3's closed form ``(1.09 alpha + 0.91)/2 * s^2 / (2 lam)``.

    Thin wrapper over :func:`repro.accounting.divergences.skellam_rdp`
    with the single-record sensitivity ``c = s^2``, ``Delta_inf = |s|``.
    """
    return skellam_rdp(alpha, float(shift) ** 2, total_lambda, abs(shift))


def exact_smm_divergence(
    value: float,
    total_lambda: float,
    alpha: float,
    direction: str = "worst",
) -> float:
    """Exact Rényi divergence of the SMM worst-case pair (Lemma 4).

    ``Q = Sk(n lam)`` is the mechanism on the all-zero dataset and ``P``
    the mixture with one extra record of value ``x`` (see
    :func:`repro.accounting.pld.smm_pair_pmfs`).  Lemma 5 bounds both
    directions:

    * ``"A"`` — ``D_alpha(Q || P)`` (record removed),
    * ``"B"`` — ``D_alpha(P || Q)`` (record added),
    * ``"worst"`` — the max of the two, which Theorem 5 must dominate.

    Args:
        value: The extra record's (scaled) value.
        total_lambda: Aggregate Skellam parameter ``n * lam``.
        alpha: Renyi order (> 1).
        direction: ``"A"``, ``"B"`` or ``"worst"``.
    """
    p, q = smm_pair_pmfs(value, total_lambda)
    if direction == "A":
        return numerical_renyi_divergence(q, p, alpha)
    if direction == "B":
        return numerical_renyi_divergence(p, q, alpha)
    if direction == "worst":
        return max(
            numerical_renyi_divergence(q, p, alpha),
            numerical_renyi_divergence(p, q, alpha),
        )
    raise PrivacyAccountingError(
        f"direction must be 'A', 'B' or 'worst', got {direction!r}"
    )


def theorem5_bound(value: float, total_lambda: float, alpha: float) -> float:
    """Theorem 5's closed form ``(1.2 alpha + 1)/2 * c / (2 n lam)``.

    The single-record mixture sensitivity is ``c = x^2 + p - p^2`` with
    ``p`` the fractional part of ``|x|`` (Eq. (4) with one nonzero
    coordinate).
    """
    magnitude = abs(value)
    frac = magnitude - math.floor(magnitude)
    c = magnitude**2 + frac - frac**2
    # Delta_inf >= 1 keeps Eq. (3) well defined; enlarging it only
    # tightens the feasibility check, never the bound itself.
    return smm_rdp(alpha, c, total_lambda, max(1, math.ceil(magnitude)))


def bound_tightness(
    value: float, total_lambda: float, alpha: float
) -> float:
    """Ratio ``Theorem 5 bound / exact divergence`` (>= 1 when the theorem
    holds; how far above 1 measures the analysis slack)."""
    exact = exact_smm_divergence(value, total_lambda, alpha)
    if exact <= 1e-12:
        return math.inf
    return theorem5_bound(value, total_lambda, alpha) / exact


def gaussian_reference_divergence(
    shift: float, variance: float, alpha: float
) -> float:
    """``D_alpha`` of two Gaussians at distance ``shift`` with common
    ``variance`` — the continuous benchmark ``alpha s^2 / (2 sigma^2)``
    the paper compares Theorem 3 against."""
    if variance <= 0:
        raise PrivacyAccountingError(
            f"variance must be positive, got {variance}"
        )
    if not alpha > 1:
        raise PrivacyAccountingError(f"order must be > 1, got {alpha}")
    return alpha * shift**2 / (2.0 * variance)
