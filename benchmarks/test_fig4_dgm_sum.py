"""Figure 4: DGM vs SMM on distributed sum estimation (Appendix B.3).

Paper workload: the Figure 1 dataset with m in {2^10, 2^14, 2^18} and
gamma in {4, 64, 1024}; series are mse vs epsilon for SMM and DGM at
each bitwidth, plus the continuous Gaussian reference.

Expected shape (paper): DGM tracks SMM at 14/18 bits; at 10 bits DGM is
worse and steps in plateaus (integer-sigma rounding) while SMM degrades
smoothly; both sit near the Gaussian baseline at 18 bits.
``test_fig4_low_bitwidth_smm_leads_dgm`` asserts the 10-bit headline on
three seeds.

The file takes about 7 s at d = 16 384, so it runs in tier-1.  It
prints its rows and writes ``results/fig4.txt`` only at paper scale
(``REPRO_BENCH_FULL=1``), so tier-1 leaves the tree clean.
"""

import numpy as np
import pytest

from repro.config import CompressionConfig, PrivacyBudget
from repro.mechanisms import (
    DiscreteGaussianMixtureMechanism,
    GaussianMechanism,
    SkellamMixtureMechanism,
)
from repro.sumestimation import run_sum_estimation, sample_sphere

from benchmarks.conftest import FULL_SCALE

NUM_POINTS = 100
DIMENSION = 65_536 if FULL_SCALE else 16_384
EPSILONS = [1.0, 3.0, 5.0]
PANELS = {"10bit": (2**10, 4.0), "14bit": (2**14, 64.0), "18bit": (2**18, 1024.0)}


@pytest.fixture(scope="module")
def sphere(bench_rng):
    return sample_sphere(NUM_POINTS, DIMENSION, bench_rng)


def _series(factory, sphere, rng):
    mses = []
    for epsilon in EPSILONS:
        result = run_sum_estimation(
            factory(), sphere, PrivacyBudget(epsilon=epsilon), rng, trials=1
        )
        mses.append(result.mse)
    return mses


@pytest.mark.parametrize("panel", list(PANELS))
@pytest.mark.parametrize("mixture", ["smm", "dgm"])
def test_fig4_mixture_series(benchmark, emit, sphere, bench_rng, panel, mixture):
    """One SMM/DGM series of Figure 4."""
    modulus, gamma = PANELS[panel]
    compression = CompressionConfig(modulus=modulus, gamma=gamma)
    factory = (
        (lambda: SkellamMixtureMechanism(compression))
        if mixture == "smm"
        else (lambda: DiscreteGaussianMixtureMechanism(compression))
    )
    series = benchmark.pedantic(
        lambda: _series(factory, sphere, bench_rng), rounds=1, iterations=1
    )
    cells = "  ".join(
        f"eps={eps:.0f}:{mse:11.4g}" for eps, mse in zip(EPSILONS, series)
    )
    emit(
        f"[fig4 {panel} gamma={gamma:g} d={DIMENSION}] {mixture:4s} {cells}",
        filename="fig4.txt" if FULL_SCALE else None,
    )
    assert all(np.isfinite(series))


def test_fig4_gaussian_reference(benchmark, emit, sphere, bench_rng):
    """The continuous-Gaussian reference line of Figure 4."""
    series = benchmark.pedantic(
        lambda: _series(GaussianMechanism, sphere, bench_rng),
        rounds=1,
        iterations=1,
    )
    cells = "  ".join(
        f"eps={eps:.0f}:{mse:11.4g}" for eps, mse in zip(EPSILONS, series)
    )
    emit(
        f"[fig4 reference d={DIMENSION}] gaussian {cells}",
        filename="fig4.txt" if FULL_SCALE else None,
    )
    assert all(np.isfinite(series))


#: The headline gate: SMM and DGM at 2^10, gamma = 4, epsilon = 3, each
#: seed drawing its sphere and its noise from ``default_rng(seed)`` as
#: Fig. 1's gate does, at d = 16 384 at any scale.
GATE_SEEDS = (0, 1, 2)
GATE_DIMENSION = 16_384


@pytest.mark.parametrize("seed", GATE_SEEDS)
def test_fig4_low_bitwidth_smm_leads_dgm(seed):
    """At 10 bits DGM's integer-sigma rounding costs it; SMM pays
    nothing for the short word."""
    rng = np.random.default_rng(seed)
    values = sample_sphere(NUM_POINTS, GATE_DIMENSION, rng)
    compression = CompressionConfig(*PANELS["10bit"])
    smm, dgm = (
        run_sum_estimation(
            mechanism(compression), values, PrivacyBudget(epsilon=3.0), rng
        ).mse
        for mechanism in (
            SkellamMixtureMechanism,
            DiscreteGaussianMixtureMechanism,
        )
    )
    # Seeds 0-2: SMM 7.96 / 7.88 / 7.96, DGM/SMM 3.14 / 3.23 / 3.15x.
    assert dgm >= 2 * smm
