"""Aggregation-tree throughput: composer and topology cost.

The hierarchy makes a privacy/cost trade explicit: the clear composer
adds one modular addition per interior node (free), while the secagg
composer runs a real outer Bonawitz round per interior node — pairwise
masking, Shamir sharing and unmasking over ``k`` virtual clients whose
vectors are full model-length sums.  This benchmark measures that
premium for the three shapes the docs discuss:

* ``8 flat-clear``   — the legacy sharded round (baseline);
* ``8 secagg``       — one outer Bonawitz round over 8 shard sums;
* ``4x4 secagg``     — a 3-level tree, five composition rounds
                       (4 region nodes + 1 root).

Every measured round is verified bit-exact against the survivors'
direct modular sum, so the numbers never come from a broken round.
Rows are printed, not persisted: the committed performance ledger is
``bench/`` (``python3 bench/run.py``).  The tier-1 smoke additionally bounds the secagg-compose premium so an
accidental quadratic blowup in the virtual-client layer fails fast.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.simulation import (
    BernoulliDropout,
    HierarchicalSecAggRound,
    Population,
    SimulatedClock,
)

DIMENSION = 64
MODULUS = 2**16
DROPOUT_RATE = 0.1
THRESHOLD_FRACTION = 0.6

#: (label, topology, composer) — the shapes compared throughout.
SHAPES = [
    ("8-flat-clear", "8", "clear"),
    ("8-secagg", "8", "secagg"),
    ("4x4-secagg", "4x4", "secagg"),
]


def _run_tree_rounds(
    population_size: int,
    cohort_cap: int,
    num_rounds: int,
    bench_rng: np.random.Generator,
    topology: str,
    composer: str,
    rebalance: bool = False,
) -> tuple[float, int]:
    """Run ``num_rounds`` tree rounds; return (rounds/sec, drops)."""
    population = Population(
        population_size,
        availability=BernoulliDropout(DROPOUT_RATE),
        seed=20220601,
    )
    clock = SimulatedClock()
    total_dropped = 0
    started = time.perf_counter()
    for round_index in range(num_rounds):
        cohort = population.sample_cohort(round_index, cohort_cap)
        if len(cohort) < 4:
            continue
        vectors = {
            u: bench_rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
            for u in cohort
        }
        tree_round = HierarchicalSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            clock=clock,
            rng=population.round_rng(round_index, purpose=2),
            topology=topology,
            threshold_fraction=THRESHOLD_FRACTION,
            composer=composer,
            plans=population.plans(round_index, cohort),
            phase_timeout=60.0,
            rebalance=rebalance,
        )
        outcome = tree_round.execute()
        expected = np.zeros(DIMENSION, dtype=np.int64)
        for u in outcome.included:
            expected = np.mod(expected + vectors[u], MODULUS)
        assert np.array_equal(outcome.modular_sum, expected)
        assert outcome.composer == composer
        total_dropped += len(outcome.dropped)
    elapsed = time.perf_counter() - started
    return num_rounds / elapsed, total_dropped


@pytest.mark.parametrize(
    "label, topology, composer",
    SHAPES,
    ids=[label for label, _, _ in SHAPES],
)
def test_tree_rounds_per_second(label, topology, composer, emit, bench_rng):
    """Bounded-cohort tree throughput across the three shapes."""
    population_size, cohort = 128, 48
    rounds_per_sec, dropped = _run_tree_rounds(
        population_size,
        cohort,
        num_rounds=2,
        bench_rng=bench_rng,
        topology=topology,
        composer=composer,
    )
    emit(
        f"tree_throughput population={population_size:4d} cohort<={cohort:3d} "
        f"dropout={DROPOUT_RATE} shape={label:>12s} "
        f"rounds_per_sec={rounds_per_sec:8.3f} dropped={dropped}",
    )
    assert rounds_per_sec > 0


def test_secagg_compose_premium_bounded(emit, bench_rng, interleaved_pairs):
    """Tier-1 smoke: the outer Bonawitz rounds must stay a bounded
    premium over the clear composition, not a blowup.

    The leaf sub-rounds dominate (cohort 48 across 8 shards), so the
    extra composition round should cost a modest fraction of a round.
    One clear-vs-secagg comparison has read +1%..+88% on a shared
    host, so the guard takes five interleaved pairs and fails only when
    secagg loses *every* pair by more than 2x — which anything
    catastrophically slower hiding in the composition-round hot path
    would, and scheduler jitter does not.
    """
    population_size, cohort = 128, 48

    def rounds_per_sec(composer):
        return _run_tree_rounds(
            population_size, cohort, num_rounds=2, bench_rng=bench_rng,
            topology="8", composer=composer,
        )[0]

    pairs = interleaved_pairs(
        5, lambda: rounds_per_sec("clear"), lambda: rounds_per_sec("secagg")
    )
    premiums = sorted(clear / secagg - 1 for clear, secagg in pairs)
    emit(
        f"tree_compose_premium population={population_size:4d} "
        f"cohort<={cohort:3d} pairs={len(pairs)} "
        f"clear_rps={max(clear for clear, _ in pairs):8.3f} "
        f"secagg_rps={max(secagg for _, secagg in pairs):8.3f} "
        f"premium={100 * premiums[0]:+.1f}%..{100 * premiums[-1]:+.1f}%",
    )
    assert premiums[0] <= 1.0


def test_rebalance_overhead(emit, bench_rng):
    """Rebalancing is a no-op on healthy rounds; its overhead when
    armed (but never triggered) must vanish into noise."""
    population_size, cohort = 128, 48
    plain_rps, _ = _run_tree_rounds(
        population_size, cohort, num_rounds=2, bench_rng=bench_rng,
        topology="8", composer="clear",
    )
    armed_rps, _ = _run_tree_rounds(
        population_size, cohort, num_rounds=2, bench_rng=bench_rng,
        topology="8", composer="clear", rebalance=True,
    )
    emit(
        f"tree_rebalance_overhead population={population_size:4d} "
        f"cohort<={cohort:3d} plain_rps={plain_rps:8.3f} "
        f"armed_rps={armed_rps:8.3f} "
        f"overhead={100 * (plain_rps / armed_rps - 1):+.1f}%",
    )
    assert armed_rps * 1.5 >= plain_rps


@pytest.mark.slow
@pytest.mark.parametrize(
    "label, topology, composer",
    SHAPES,
    ids=[label for label, _, _ in SHAPES],
)
def test_tree_rounds_per_second_full_cohort(
    label, topology, composer, emit, bench_rng
):
    """Full-cohort pop-512 tree throughput: the quadratic regime where
    the 8-way (and 16-leaf) trees earn their keep."""
    population_size = 512
    rounds_per_sec, dropped = _run_tree_rounds(
        population_size,
        population_size,
        num_rounds=1,
        bench_rng=bench_rng,
        topology=topology,
        composer=composer,
    )
    emit(
        f"tree_throughput_full population={population_size:4d} "
        f"dropout={DROPOUT_RATE} shape={label:>12s} "
        f"rounds_per_sec={rounds_per_sec:8.3f} dropped={dropped}",
    )
    assert rounds_per_sec > 0
