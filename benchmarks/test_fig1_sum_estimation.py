"""Figure 1: distributed sum estimation mse vs epsilon.

Paper workload: n = 100 points on the unit L2 sphere, d = 65536,
delta = 1e-5, epsilon in {1..5}, communication bitwidth m in
{2^10, 2^12, 2^14, 2^16, 2^18} with gamma in {4, 16, 64, 256, 1024}
(first row of the figure; the second row doubles gamma).

This benchmark regenerates the three bitwidths that span the figure's
regimes — (2^10, 4) where only SMM stays near the Gaussian baseline,
(2^14, 64) where SMM clearly leads, and (2^18, 1024) where
Skellam/DDG converge to the baseline and SMM trails by Corollary 2's
constant factor — at epsilon in {1, 3, 5}.

Expected shape (paper): SMM << Skellam ~= DDG at small m; cpSGD off the
chart everywhere; all distributed mechanisms -> Gaussian as m grows,
with SMM slightly above at 2^18.
"""

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # figure reproduction: minutes of wall time

from repro.config import CompressionConfig, PrivacyBudget
from repro.mechanisms import build_mechanism
from repro.sumestimation import run_sum_estimation, sample_sphere

from benchmarks.conftest import FULL_SCALE

NUM_POINTS = 100
DIMENSION = 65_536 if FULL_SCALE else 16_384
EPSILONS = [1.0, 3.0, 5.0]
PANELS = {
    "2^10": (2**10, 4.0),
    "2^14": (2**14, 64.0),
    "2^18": (2**18, 1024.0),
}
MECHANISMS = ["gaussian", "smm", "skellam", "ddg", "cpsgd"]


@pytest.fixture(scope="module")
def sphere(bench_rng):
    return sample_sphere(NUM_POINTS, DIMENSION, bench_rng)


@pytest.mark.parametrize("panel", list(PANELS))
@pytest.mark.parametrize("mechanism_name", MECHANISMS)
def test_fig1_panel(benchmark, emit, sphere, bench_rng, panel, mechanism_name):
    """One mse-vs-epsilon series of Figure 1 (one mechanism, one panel)."""
    modulus, gamma = PANELS[panel]
    compression = CompressionConfig(modulus=modulus, gamma=gamma)

    def run_series():
        series = []
        for epsilon in EPSILONS:
            mechanism = build_mechanism(mechanism_name, compression)
            result = run_sum_estimation(
                mechanism,
                sphere,
                PrivacyBudget(epsilon=epsilon),
                bench_rng,
                trials=1,
            )
            series.append(result.mse)
        return series

    series = benchmark.pedantic(run_series, rounds=1, iterations=1)
    cells = "  ".join(
        f"eps={eps:.0f}:{mse:11.4g}" for eps, mse in zip(EPSILONS, series)
    )
    emit(
        f"[fig1 m={panel} gamma={gamma:g} d={DIMENSION}] "
        f"{mechanism_name:9s} {cells}",
        filename="fig1.txt",
    )
    assert all(np.isfinite(series)) and all(mse > 0 for mse in series)
