"""Multi-core scaling study: process-backend shards vs rounds/sec.

The sharding layer's parallel win was unproven while every committed
number came off a single-core runner.  This axis measures the same
full-cohort round at k ∈ {1, 2, 4, 8} process-backend shards and
records the speedup-vs-one-shard curve into
``benchmarks/results/scaling.txt``; the emission's environment header
(CPU count, model) makes single-core runs self-identifying, and CI runs
the study on a multi-core runner and uploads the file as an artifact.

Two effects compose in the curve: ``k`` shards cut the quadratic
protocol work to ``O(n^2 / k)`` even on one core, and the process pool
overlaps the shard sub-rounds across however many cores exist — so
speedup above 1 is expected even single-core, and the gap between the
1-core and multi-core curves isolates the parallel win.

Slow-marked: the study is a CI/workstation measurement, not a tier-1
smoke.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.simulation import (
    BernoulliDropout,
    Population,
    HierarchicalSecAggRound,
    SimulatedClock,
    get_execution_backend,
)

RESULTS_FILE = "scaling.txt"
POPULATION = 256
DIMENSION = 64
MODULUS = 2**16
DROPOUT_RATE = 0.1
SHARD_COUNTS = (1, 2, 4, 8)
NUM_ROUNDS = 2


def _rounds_per_sec(shards: int, bench_rng: np.random.Generator) -> float:
    population = Population(
        POPULATION,
        availability=BernoulliDropout(DROPOUT_RATE),
        seed=20220601,
    )
    clock = SimulatedClock()
    executor = get_execution_backend("process")
    executor.warm()  # Pool spawn stays outside the timed window.
    started = time.perf_counter()
    try:
        for round_index in range(NUM_ROUNDS):
            cohort = population.sample_cohort(round_index, POPULATION)
            vectors = {
                u: bench_rng.integers(
                    0, MODULUS, size=DIMENSION, dtype=np.int64
                )
                for u in cohort
            }
            sharded_round = HierarchicalSecAggRound(
                vectors=vectors,
                modulus=MODULUS,
                clock=clock,
                rng=population.round_rng(round_index, purpose=2),
                topology=str(shards),
                plans=population.plans(round_index, cohort),
                phase_timeout=60.0,
                backend=executor,
            )
            outcome = sharded_round.execute()
            expected = np.zeros(DIMENSION, dtype=np.int64)
            for u in outcome.included:
                expected = np.mod(expected + vectors[u], MODULUS)
            assert np.array_equal(outcome.modular_sum, expected)
        elapsed = time.perf_counter() - started
    finally:
        executor.close()
    return NUM_ROUNDS / elapsed


@pytest.mark.slow
def test_process_backend_scaling(emit, bench_rng):
    """Rounds/sec and speedup across the k ∈ {1, 2, 4, 8} shard sweep."""
    cpus = os.cpu_count() or 1
    curve: dict[int, float] = {}
    for shards in SHARD_COUNTS:
        curve[shards] = _rounds_per_sec(shards, bench_rng)
    base = curve[SHARD_COUNTS[0]]
    for shards in SHARD_COUNTS:
        emit(
            f"scaling backend=process population={POPULATION} "
            f"full-cohort shards={shards} cpus={cpus} "
            f"rounds_per_sec={curve[shards]:8.3f} "
            f"speedup={curve[shards] / base:5.2f}x",
            RESULTS_FILE,
        )
    assert all(value > 0 for value in curve.values())
    # Sharding cuts the quadratic work by k even before cores overlap,
    # so the 8-shard point must beat flat — on any machine.
    assert curve[8] > curve[1]
