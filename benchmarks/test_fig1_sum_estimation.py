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
with SMM slightly above at 2^18.  The ``test_fig1_*`` gates below assert
that shape, with margins, on three seeds.

The whole 45-cell grid takes about 7 s at d = 16 384 (2 vCPUs, Python
3.11), so it runs in tier-1.  It prints its rows and writes
``results/fig1.txt`` only at paper scale (``REPRO_BENCH_FULL=1``), so
tier-1 leaves the tree clean.
"""

import numpy as np
import pytest

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
        filename="fig1.txt" if FULL_SCALE else None,
    )
    assert all(np.isfinite(series)) and all(mse > 0 for mse in series)


#: The paper-fidelity gate: Gaussian, SMM, Skellam and DDG at epsilon = 3
#: on every panel, each seed drawing its sphere and its noise from
#: ``default_rng(seed)``.  Kept at d = 16 384 at any scale: at d = 1 024
#: the 2^10 separation is only ~5x, a different regime.
GATE_SEEDS = (0, 1, 2)
GATE_DIMENSION = 16_384
GATE_MECHANISMS = ("gaussian", "smm", "skellam", "ddg")


@pytest.fixture(scope="module", params=GATE_SEEDS)
def gate_mse(request):
    """``{(panel, mechanism): mse}`` of one seed's gate grid."""
    rng = np.random.default_rng(request.param)
    values = sample_sphere(NUM_POINTS, GATE_DIMENSION, rng)
    return {
        (panel, name): run_sum_estimation(
            build_mechanism(name, CompressionConfig(modulus, gamma)),
            values,
            PrivacyBudget(epsilon=3.0),
            rng,
        ).mse
        for panel, (modulus, gamma) in PANELS.items()
        for name in GATE_MECHANISMS
    }


def test_fig1_low_bitwidth_only_smm_stays_near(gate_mse):
    """At 2^10 conditional rounding's sensitivity inflation swamps
    Skellam and DDG; SMM pays none."""
    smm = gate_mse["2^10", "smm"]
    # Seeds 0-2: Skellam/SMM 72.4-74.0x, DDG/SMM 77.3-79.0x.
    assert gate_mse["2^10", "skellam"] > 30 * smm
    assert gate_mse["2^10", "ddg"] > 30 * smm


def test_fig1_mid_bitwidth_smm_leads(gate_mse):
    smm = gate_mse["2^14", "smm"]
    # Seeds 0-2: Skellam/SMM 1.51-1.54x, DDG/SMM 1.57-1.63x.
    assert gate_mse["2^14", "skellam"] > 1.3 * smm
    assert gate_mse["2^14", "ddg"] > 1.3 * smm


def test_fig1_high_bitwidth_converges_to_gaussian(gate_mse):
    """At 2^18 rounding is negligible: Skellam and DDG meet Gaussian,
    and SMM trails by Corollary 2's constant factor (~1.33)."""
    gaussian = gate_mse["2^18", "gaussian"]
    # Seeds 0-2: SMM/Gaussian 1.29-1.35.
    assert 1.2 < gate_mse["2^18", "smm"] / gaussian < 1.45
    # Seeds 0-2: Skellam/Gaussian 0.987-1.005, DDG/Gaussian 1.000-1.017.
    assert abs(gate_mse["2^18", "skellam"] / gaussian - 1) < 0.05
    assert abs(gate_mse["2^18", "ddg"] / gaussian - 1) < 0.05
