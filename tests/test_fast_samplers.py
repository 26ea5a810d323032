"""Tests for the fast vectorised samplers (repro.sampling.fast)."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.errors import ConfigurationError
from repro.sampling.fast import (
    MAX_SKELLAM_LAMBDA,
    TABLE_TAIL_MASS,
    TAIL_BLOCK,
    SkellamTable,
    bernoulli_round,
    binomial_noise,
    discrete_gaussian_noise,
    skellam_noise,
    skellam_table,
)


def two_poisson_skellam(lam, size, rng):
    """The textbook ``Sk(lam, lam)`` sampler: a difference of two Poisson draws."""
    return rng.poisson(lam, size=size) - rng.poisson(lam, size=size)


def g_test_pvalue(draws, probabilities_of, low, high):
    """G-test p-value of integer ``draws`` against a pmf on ``[low, high]``.

    ``probabilities_of(ks)`` gives the mass of each cell.  Cells expecting
    fewer than five draws are pooled from the outside in, so the outermost
    cells are tested as one bin rather than dropped.
    """
    ks = np.arange(low, high + 1)
    expected = probabilities_of(ks) * draws.size
    observed = np.bincount(draws - low, minlength=ks.size)[: ks.size]
    assert observed.sum() == draws.size, "draws outside [low, high]"
    keep = expected >= 5
    first, last = np.argmax(keep), ks.size - np.argmax(keep[::-1])

    def pooled(cells):
        return np.concatenate(
            [[cells[: first + 1].sum()], cells[first + 1 : last - 1],
             [cells[last - 1 :].sum()]]
        )

    cells_observed, cells_expected = pooled(observed), pooled(expected)
    cells_expected *= cells_observed.sum() / cells_expected.sum()
    return stats.power_divergence(
        cells_observed, cells_expected, lambda_="log-likelihood"
    ).pvalue


class TestSkellamNoise:
    def test_moments(self):
        rng = np.random.default_rng(0)
        draws = skellam_noise(8.0, 200_000, rng)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 16.0) < 0.3

    def test_dtype_and_shape(self):
        rng = np.random.default_rng(0)
        draws = skellam_noise(1.0, (3, 4), rng)
        assert draws.shape == (3, 4)
        assert draws.dtype == np.int64

    def test_distribution_matches_scipy(self):
        rng = np.random.default_rng(1)
        draws = skellam_noise(2.0, 100_000, rng)
        cutoff = 8
        clipped = np.clip(draws, -cutoff, cutoff)
        counts = np.bincount(clipped + cutoff, minlength=2 * cutoff + 1)
        ks = np.arange(-cutoff, cutoff + 1)
        probs = stats.skellam.pmf(ks, 2.0, 2.0)
        probs[0] += stats.skellam.cdf(-cutoff - 1, 2.0, 2.0)
        probs[-1] += stats.skellam.sf(cutoff, 2.0, 2.0)
        expected = probs * len(draws)
        mask = expected > 5
        chi_square = float(
            ((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum()
        )
        assert chi_square < 42.0  # ~dof 16, 0.999 quantile

    # The ends of the range of lambda the tier-1 suite draws with, and two
    # values inside it.
    @pytest.mark.parametrize("lam", [0.25, 5.0, 81.0, 107_728.0])
    def test_g_test_against_pmf(self, lam):
        draws = skellam_noise(lam, 2_000_000, np.random.default_rng(11))
        radius = int(np.abs(draws).max())
        pvalue = g_test_pvalue(
            draws, lambda ks: stats.skellam.pmf(ks, lam, lam), -radius, radius
        )
        assert pvalue > 1e-3

    @pytest.mark.parametrize("lam", [0.636, 81.0, 20_000.0])
    def test_two_sample_against_two_poisson_oracle(self, lam):
        table = skellam_noise(lam, 500_000, np.random.default_rng(12))
        oracle = two_poisson_skellam(lam, 500_000, np.random.default_rng(13))
        low = min(table.min(), oracle.min())
        width = max(table.max(), oracle.max()) - low + 1
        counts = np.stack(
            [np.bincount(sample - low, minlength=width) for sample in (table, oracle)]
        )
        # Each bin runs from one well-filled cell to the next, so sparse
        # cells join their inner neighbour.
        dense = np.flatnonzero(counts.sum(axis=0) >= 20)
        pooled = np.add.reduceat(counts, np.append(0, dense[1:]), axis=1)
        assert stats.chi2_contingency(pooled).pvalue > 1e-3

    def test_invalid_lambda(self):
        with pytest.raises(ConfigurationError):
            skellam_noise(0.0, 3, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "lam", [-1.0, math.nan, math.inf, 1e300, 2 * MAX_SKELLAM_LAMBDA]
    )
    def test_refusals_are_typed(self, lam):
        with pytest.raises(ConfigurationError, match="lambda"):
            skellam_noise(lam, 3, np.random.default_rng(0))

    def test_table_at_the_bound_is_small_and_quick(self):
        # The faster of two builds, so one scheduler hiccup cannot fail it.
        seconds = []
        for _ in range(2):
            started = time.perf_counter()
            SkellamTable(MAX_SKELLAM_LAMBDA)
            seconds.append(time.perf_counter() - started)
        assert min(seconds) <= 0.5
        tracemalloc.start()
        try:
            table = SkellamTable(MAX_SKELLAM_LAMBDA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert table.threshold.nbytes + table.alias.nbytes <= 16 * 2**20

    def test_cache_stays_bounded(self):
        # Tier-1 draws with 44 distinct lambdas; each is built once.
        assert skellam_table.cache_info().maxsize >= 44
        for step in range(skellam_table.cache_info().maxsize + 8):
            skellam_noise(0.01 + step / 1000, 4, np.random.default_rng(step))
        info = skellam_table.cache_info()
        assert info.currsize == info.maxsize
        assert skellam_table(81.0) is skellam_table(81.0)


def pmf_run(lam, start, cells):
    """``stats.skellam.pmf`` on ``[start, start + cells)``."""
    return stats.skellam.pmf(np.arange(start, start + cells), lam, lam)


class TestSkellamTable:
    @pytest.mark.parametrize("lam", [0.25, 3.0, 81.0, 107_728.0])
    def test_radius_is_smallest_with_tail_below_bound(self, lam):
        table = skellam_table(lam)
        radius = table.radius
        far = pmf_run(lam, radius, 8 * int(math.sqrt(2 * lam)) + 200)
        beyond = np.cumsum(far[::-1])[::-1]  # beyond[j] = mass over >= radius + j
        assert 2 * beyond[1] <= TABLE_TAIL_MASS < 2 * beyond[0]

    @pytest.mark.parametrize("lam", [0.25, 3.0, 81.0])
    def test_alias_table_reproduces_the_pmf(self, lam):
        table = skellam_table(lam)
        count, radius = table.threshold.size, table.radius
        assert count == 2 * radius + 2
        # Outcome i is drawn with (threshold[i] + the spill of every j
        # aliased to i) / count.
        implied = table.threshold.copy()
        np.add.at(implied, table.alias, 1.0 - table.threshold)
        implied /= count
        bulk = stats.skellam.pmf(np.arange(-radius, radius + 1), lam, lam)
        tail = 2 * pmf_run(lam, radius + 1, 400).sum()
        wanted = np.concatenate([bulk, [tail]])
        wanted /= wanted.sum()
        assert np.allclose(implied[:-1], wanted[:-1], rtol=1e-9, atol=0)
        assert implied[-1] == pytest.approx(wanted[-1], rel=1e-6)

    def test_sample_resolves_the_tail_outcome(self):
        table = skellam_table(3.0)

        class TailFirst:
            """Picks the tail outcome and keeps it, then draws honestly."""

            def __init__(self):
                self.inner = np.random.default_rng(14)
                self.kept = False

            def integers(self, low, high, size):
                return np.full(size, high - 1)

            def random(self, size):
                if not self.kept:
                    self.kept = True
                    return np.zeros(size)
                return self.inner.random(size)

        draws = table.sample(5_000, TailFirst())
        assert np.all(np.abs(draws) > table.radius)
        assert (draws > 0).any() and (draws < 0).any()
        assert (np.abs(draws) > table.radius + 1).any()

    def test_forced_tail_follows_the_pmf_to_the_outermost_cells(self):
        # At lam = 3 the tail beyond R = 21 holds 1.17e-13 per side;
        # stats.skellam.sf misplaces that mass by about 0.14 %, which a
        # sampler built on it takes out of the outermost cells.  Pooled
        # outside-in, those cells are the G-test's last bin.
        lam = 3.0
        table = skellam_table(lam)
        radius = table.radius
        draws = table.sample_tail(2_000_000, np.random.default_rng(15))
        magnitudes = np.abs(draws)
        assert magnitudes.min() > radius
        assert stats.binomtest(int((draws > 0).sum()), draws.size).pvalue > 1e-3
        tail = pmf_run(lam, radius + 1, 400)
        pvalue = g_test_pvalue(
            magnitudes,
            lambda ks: tail[ks - radius - 1] / tail.sum(),
            radius + 1,
            int(magnitudes.max()),
        )
        assert pvalue > 1e-3

    def test_forced_tail_goes_beyond_one_block(self):
        lam = 107_728.0
        table = skellam_table(lam)
        radius = table.radius
        magnitudes = np.abs(table.sample_tail(40_000, np.random.default_rng(16)))
        assert magnitudes.min() > radius
        tail = pmf_run(lam, radius + 1, 3_000)
        shares = np.add.reduceat(tail, np.arange(0, tail.size, TAIL_BLOCK))
        blocks = np.bincount(
            (magnitudes - radius - 1) // TAIL_BLOCK, minlength=shares.size
        )
        assert blocks[1:].sum() > 1_000
        assert (blocks[3:] > 0).any()
        dense = shares * magnitudes.size / shares.sum() >= 5
        counts = np.append(blocks[dense], blocks[~dense].sum())
        wanted = np.append(shares[dense], shares[~dense].sum())
        pvalue = stats.chisquare(counts, wanted * counts.sum() / wanted.sum()).pvalue
        assert pvalue > 1e-3


class TestDiscreteGaussianNoise:
    def test_moments(self):
        rng = np.random.default_rng(2)
        draws = discrete_gaussian_noise(9.0, 200_000, rng)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 9.0) < 0.25

    def test_small_sigma_concentrates(self):
        rng = np.random.default_rng(3)
        draws = discrete_gaussian_noise(0.01, 10_000, rng)
        assert np.all(np.abs(draws) <= 1)
        assert (draws == 0).mean() > 0.99

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        draws = discrete_gaussian_noise(4.0, 100_000, rng)
        assert abs((draws > 0).mean() - (draws < 0).mean()) < 0.01

    def test_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            discrete_gaussian_noise(-1.0, 3, np.random.default_rng(0))


class TestBinomialNoise:
    def test_moments(self):
        rng = np.random.default_rng(5)
        draws = binomial_noise(100, 100_000, rng)
        assert abs(draws.mean()) < 0.1
        assert abs(draws.var() - 25.0) < 0.5

    def test_zero_trials(self):
        rng = np.random.default_rng(0)
        assert np.all(binomial_noise(0, (2, 3), rng) == 0)

    def test_odd_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            binomial_noise(7, 3, np.random.default_rng(0))

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            binomial_noise(-2, 3, np.random.default_rng(0))

    def test_support_bounds(self):
        rng = np.random.default_rng(6)
        draws = binomial_noise(10, 10_000, rng)
        assert draws.min() >= -5
        assert draws.max() <= 5


class TestBernoulliRound:
    def test_integers_pass_through(self):
        rng = np.random.default_rng(0)
        values = np.array([-3.0, 0.0, 7.0])
        assert np.array_equal(bernoulli_round(values, rng), [-3, 0, 7])

    def test_output_is_neighbouring_integer(self):
        rng = np.random.default_rng(1)
        values = np.array([0.3, -1.7, 2.5])
        for _ in range(200):
            rounded = bernoulli_round(values, rng)
            assert np.all((rounded == np.floor(values)) | (rounded == np.ceil(values)))

    def test_unbiasedness(self):
        rng = np.random.default_rng(2)
        values = np.array([0.25, -0.75, 1.5, 3.999])
        rounds = np.stack([bernoulli_round(values, rng) for _ in range(40_000)])
        assert np.allclose(rounds.mean(axis=0), values, atol=0.02)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_property_neighbouring_integers(self, values, seed):
        rng = np.random.default_rng(seed)
        array = np.array(values)
        rounded = bernoulli_round(array, rng)
        assert np.all(rounded >= np.floor(array))
        assert np.all(rounded <= np.floor(array) + 1)

    def test_variance_is_p_one_minus_p(self):
        rng = np.random.default_rng(3)
        value = np.full(100_000, 0.3)
        rounded = bernoulli_round(value, rng)
        assert abs(rounded.var() - 0.21) < 0.01
