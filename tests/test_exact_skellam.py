"""Tests for the exact Skellam sampler and distribution helpers."""

import fractions
import math

import numpy as np
import pytest
from scipy import stats

from repro.accounting.pld import skellam_pmf
from repro.errors import ConfigurationError
from repro.sampling.fast import TAIL_BLOCK, SkellamTable
from repro.sampling.skellam import (
    ExactSkellamSampler,
    SkellamDistribution,
    symmetric_skellam_pmf,
)


#: From a tiny lambda up past the alias table's bound (the PLD accountant
#: evaluates the pmf at the aggregate ``n * lambda``): 0.636 and 81.04 are
#: calibrated per-client lambdas, 107 728 the largest any experiment
#: draws with, 2^18 ``MAX_SKELLAM_LAMBDA``.
PMF_LAMBDAS = [0.05, 0.636, 1.5, 81.04, 107_728.0, 2.0**18, 1.08e7]

#: ``scipy.special.ive`` flushes results below about 1e-304 to zero, where
#: ``stats.skellam.pmf`` still returns the (sub)normal value; below this
#: floor both sides only have to be negligible.
UNDERFLOW_FLOOR = 1e-300


def reach(lam: float) -> int:
    """The farthest ``|k|`` the alias table of ``lam`` tabulates by its
    fourth tail block."""
    return SkellamTable(lam).radius + 4 * TAIL_BLOCK


class TestSkellamDistribution:
    """The Bessel pmf, with ``stats.skellam.pmf`` as the oracle."""

    def test_variance(self):
        assert SkellamDistribution(lam=4.0).variance == 8.0

    @pytest.mark.parametrize("lam", PMF_LAMBDAS)
    def test_pmf_matches_scipy(self, lam):
        ks = np.arange(reach(lam) + 1)
        got = SkellamDistribution(lam).pmf(ks)
        want = stats.skellam.pmf(ks, lam, lam)
        above = want >= UNDERFLOW_FLOOR
        np.testing.assert_allclose(got[above], want[above], rtol=1e-10, atol=0)
        assert np.all(got[~above] < UNDERFLOW_FLOOR)
        if lam < 1:
            # The small-lambda runs reach far below 1e-200 inside the floor.
            assert np.count_nonzero(above & (want < 1e-200)) > 10

    @pytest.mark.parametrize("lam", PMF_LAMBDAS)
    def test_pmf_symmetric(self, lam):
        dist = SkellamDistribution(lam)
        ks = np.arange(1, reach(lam) + 1)
        np.testing.assert_array_equal(dist.pmf(-ks), dist.pmf(ks))

    @pytest.mark.parametrize("lam", PMF_LAMBDAS)
    def test_pmf_sums_to_one(self, lam):
        # Out to twice the table's radius, where the rest is far below 1e-12.
        ks = np.arange(-2 * reach(lam), 2 * reach(lam) + 1)
        total = math.fsum(SkellamDistribution(lam).pmf(ks))
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("lam", [0.636, 2.0, 81.04])
    def test_pmf_is_zero_at_non_integer_k(self, lam):
        dist = SkellamDistribution(lam)
        ks = np.array([1.5, -2.5, 0.25, 3.999])
        np.testing.assert_array_equal(dist.pmf(ks), 0.0)
        np.testing.assert_array_equal(stats.skellam.pmf(ks, lam, lam), 0.0)
        assert dist.pmf(1.5) == 0.0
        assert dist.pmf(2.0) > 0.0

    def test_scalar_in_scalar_out(self):
        mass = SkellamDistribution(lam=2.0).pmf(1)
        assert np.ndim(mass) == 0
        assert mass == pytest.approx(stats.skellam.pmf(1, 2.0, 2.0), rel=1e-12)

    def test_table_and_accountant_share_the_pmf(self):
        ks = np.arange(-40, 41)
        want = SkellamDistribution(7.5).pmf(ks)
        np.testing.assert_array_equal(symmetric_skellam_pmf(ks, 7.5), want)
        np.testing.assert_array_equal(skellam_pmf(ks, 7.5), want)
        table = SkellamTable(7.5)
        tail = np.arange(table.radius + 1, table.radius + 1 + TAIL_BLOCK)
        np.testing.assert_array_equal(
            table._tail_pmf(tail[0], tail[-1] + 1),
            symmetric_skellam_pmf(tail, 7.5),
        )

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            SkellamDistribution(lam=0.0)


class TestExactSkellamSampler:
    def test_moments(self):
        sampler = ExactSkellamSampler(lam=2, seed=0)
        draws = np.array(sampler.sample_many(20_000))
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 4.0) < 0.15

    def test_symmetry(self):
        sampler = ExactSkellamSampler(lam=3, seed=1)
        draws = np.array(sampler.sample_many(20_000))
        assert abs((draws > 0).mean() - (draws < 0).mean()) < 0.02

    def test_distribution_chi_square(self):
        sampler = ExactSkellamSampler(lam=1, seed=2)
        draws = np.array(sampler.sample_many(30_000))
        cutoff = 6
        clipped = np.clip(draws, -cutoff, cutoff)
        counts = np.bincount(clipped + cutoff, minlength=2 * cutoff + 1)
        ks = np.arange(-cutoff, cutoff + 1)
        probs = stats.skellam.pmf(ks, 1, 1)
        probs[0] += stats.skellam.cdf(-cutoff - 1, 1, 1)
        probs[-1] += stats.skellam.sf(cutoff, 1, 1)
        expected = probs * len(draws)
        mask = expected > 5
        chi_square = float(
            ((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum()
        )
        assert chi_square < 35.0

    def test_rational_lambda(self):
        sampler = ExactSkellamSampler(lam=fractions.Fraction(1, 2), seed=3)
        draws = np.array(sampler.sample_many(20_000))
        assert abs(draws.var() - 1.0) < 0.05

    def test_float_lambda_coerced_exactly(self):
        sampler = ExactSkellamSampler(lam=0.25, seed=0)
        assert sampler.lam == fractions.Fraction(1, 4)

    def test_seed_reproducibility(self):
        first = ExactSkellamSampler(lam=2, seed=9)
        second = ExactSkellamSampler(lam=2, seed=9)
        assert first.sample_many(100) == second.sample_many(100)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            ExactSkellamSampler(lam=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ExactSkellamSampler(lam=1, seed=0).sample_many(-1)
