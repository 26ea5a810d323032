"""Real-socket SecAgg service throughput: rounds/sec vs cohort size.

Unlike :mod:`benchmarks.test_sim_throughput` (simulated clock, in-memory
transport), every round here is a full localhost TCP round: ``n``
concurrent :func:`repro.net.run_client` tasks against one
:class:`repro.net.SecAggServer`, with a 10% deterministic dropout
schedule.  Each cohort's aggregate is verified bit-identical to
:func:`repro.secagg.bonawitz.run_bonawitz` before its row is recorded,
so the numbers can never come from a silently wrong round.

Reported per cohort: rounds/sec and the p50/p99 wall-clock latency of
each protocol phase, read from the *same*
``secagg_phase_wall_duration_seconds`` histogram family the simulator
meters into.  Cohorts 16 and 64 run in tier-1; 128 rides the slow tier.
Rows are printed, not persisted: the committed performance ledger is
``bench/`` (``python3 bench/run.py``).
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.net import (
    SecAggServer,
    ServerConfig,
    SwarmConfig,
    expected_digest,
    run_swarm,
)

DIMENSION = 64
MODULUS = 2**16
ROUNDS = 3
PHASES = ("advertise", "share-keys", "masked-input", "unmask")


def _run_cohort(cohort: int, rounds: int = ROUNDS):
    """``rounds`` localhost swarm rounds; returns (rounds/sec, snapshot).

    Every round is digest-checked against the in-memory reference
    before it counts.
    """
    dropouts = cohort // 10
    threshold = cohort // 2
    swarm_cfg = SwarmConfig(
        clients=cohort,
        dimension=DIMENSION,
        modulus=MODULUS,
        threshold=threshold,
        dropouts=dropouts,
        seed=20220601,
    )
    reference = expected_digest(swarm_cfg)

    async def scenario():
        server = SecAggServer(
            ServerConfig(
                cohort_size=cohort,
                dimension=DIMENSION,
                modulus=MODULUS,
                threshold=threshold,
                rounds=rounds,
                metrics_port=None,
            )
        )
        async with server:
            serve = asyncio.ensure_future(server.serve_rounds())
            started = time.perf_counter()
            for _ in range(rounds):
                await run_swarm("127.0.0.1", server.port, swarm_cfg)
            results = await asyncio.wait_for(serve, 600)
            elapsed = time.perf_counter() - started
        return results, elapsed, server.metrics.snapshot()

    results, elapsed, snapshot = asyncio.run(scenario())
    for result in results:
        assert result.aborted is None, result.aborted
        assert result.digest == reference, (
            f"cohort {cohort}: socket aggregate diverged from run_bonawitz"
        )
    return rounds / elapsed, snapshot


def _emit_rows(emit, cohort, rate, snapshot):
    emit(
        f"net cohort={cohort:4d} rounds/sec={rate:7.2f}",
    )
    for phase in PHASES:
        p50 = snapshot.quantile(
            "secagg_phase_wall_duration_seconds", 0.50, phase=phase
        )
        p99 = snapshot.quantile(
            "secagg_phase_wall_duration_seconds", 0.99, phase=phase
        )
        emit(
            f"net cohort={cohort:4d} phase={phase:<12s} "
            f"p50={p50 * 1e3:8.2f}ms p99={p99 * 1e3:8.2f}ms",
        )


@pytest.mark.parametrize("cohort", [16, 64])
def test_net_round_throughput(emit, cohort):
    rate, snapshot = _run_cohort(cohort)
    assert rate > 0
    _emit_rows(emit, cohort, rate, snapshot)


@pytest.mark.slow
def test_net_round_throughput_128(emit):
    rate, snapshot = _run_cohort(128)
    assert rate > 0
    _emit_rows(emit, 128, rate, snapshot)
