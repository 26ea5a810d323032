"""Dropout edge cases of the Bonawitz protocol, driven through the
asynchronous round driver.

These tests exercise the full four-round state machine under the
failure modes the protocol exists for: dropout during each phase,
stragglers past the server's deadline, survivor sets falling below the
Shamir threshold (which must raise, never mis-aggregate), and the
malicious same-peer-as-survivor-and-dropout request that clients are
required to refuse.
"""

import numpy as np
import pytest

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
    UnmaskRequest,
)
from repro.simulation import (
    AsyncSecAggRound,
    ClientPlan,
    SimulatedClock,
    SimulationTrace,
)

MODULUS = 2**12
DIMENSION = 16


def make_vectors(num_clients, seed=0):
    rng = np.random.default_rng(seed)
    return {
        u: rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
        for u in range(1, num_clients + 1)
    }


def run_round(vectors, threshold=None, plans=None, phase_timeout=60.0,
              tamper=None, trace=False, seed=1):
    clock = SimulatedClock()
    trace_log = SimulationTrace(clock) if trace else None
    secagg_round = AsyncSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        threshold=threshold or max(2, len(vectors) // 2 + 1),
        clock=clock,
        rng=np.random.default_rng(seed),
        plans=plans,
        phase_timeout=phase_timeout,
        trace=trace_log,
        tamper_unmask_request=tamper,
    )
    outcome = clock.run(secagg_round.run())
    return outcome, trace_log


def expected_sum(vectors, included):
    total = np.zeros(DIMENSION, dtype=np.int64)
    for u in included:
        total = np.mod(total + vectors[u], MODULUS)
    return total


class TestAllOnline:
    def test_sum_is_exact(self):
        vectors = make_vectors(8)
        outcome, _ = run_round(vectors, threshold=5)
        assert outcome.included == frozenset(vectors)
        assert outcome.dropped == frozenset()
        assert np.array_equal(
            outcome.modular_sum, expected_sum(vectors, vectors)
        )

    def test_latencies_shape_the_simulated_duration(self):
        vectors = make_vectors(4)
        plans = {
            u: ClientPlan(latencies=(0.5, 0.5, 0.5, 0.5)) for u in vectors
        }
        outcome, _ = run_round(vectors, threshold=3, plans=plans)
        # Four phases, each gated on the slowest (0.5s) client.
        assert outcome.duration == pytest.approx(2.0)

    def test_early_round_leaves_no_stale_timers_and_exact_duration(self):
        """Regression for the stale-deadline leak: a round whose phases
        all complete well before the phase deadlines must (a) report
        the exact message-driven duration — not drift toward the
        deadlines — and (b) leave zero pending timers on the clock, so
        nothing accumulates across a multi-round simulation."""
        vectors = make_vectors(8)
        plans = {
            u: ClientPlan(latencies=(0.25, 0.25, 0.25, 0.25))
            for u in vectors
        }
        clock = SimulatedClock()
        secagg_round = AsyncSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            threshold=5,
            clock=clock,
            rng=np.random.default_rng(1),
            plans=plans,
            phase_timeout=60.0,
        )
        outcome = clock.run(secagg_round.run())
        assert outcome.duration == 1.0  # 4 phases x 0.25s, exactly.
        assert clock.now == outcome.completed_at
        assert clock.pending_timers == 0

    def test_cancelled_straggler_leaves_no_pending_timers(self):
        """A straggler cancelled mid-sleep at round teardown must not
        leave its sleep timer counted (or hoarded) on the heap."""
        vectors = make_vectors(8)
        plans = {4: ClientPlan(latencies=(0.0, 0.0, 500.0, 0.0))}
        clock = SimulatedClock()
        secagg_round = AsyncSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            threshold=5,
            clock=clock,
            rng=np.random.default_rng(1),
            plans=plans,
            phase_timeout=10.0,
        )
        outcome = clock.run(secagg_round.run())
        assert 4 in outcome.dropped
        assert clock.pending_timers == 0


class TestDropoutPerPhase:
    @pytest.mark.parametrize(
        "phase",
        [ROUND_ADVERTISE, ROUND_SHARE_KEYS, ROUND_MASKED_INPUT, ROUND_UNMASK],
    )
    def test_single_dropout_survived(self, phase):
        vectors = make_vectors(8)
        plans = {3: ClientPlan(drop_phase=phase)}
        outcome, _ = run_round(vectors, threshold=5, plans=plans)
        if phase <= ROUND_MASKED_INPUT:
            # Crashed before contributing: excluded, masks cleaned up.
            assert 3 not in outcome.included
            assert 3 in outcome.dropped
        else:
            # Crashed after contributing: the self-mask seed is
            # reconstructed, so the input stays in the sum.
            assert 3 in outcome.included
        assert np.array_equal(
            outcome.modular_sum, expected_sum(vectors, outcome.included)
        )

    def test_simultaneous_dropouts_across_phases(self):
        vectors = make_vectors(10)
        plans = {
            2: ClientPlan(drop_phase=ROUND_ADVERTISE),
            5: ClientPlan(drop_phase=ROUND_SHARE_KEYS),
            7: ClientPlan(drop_phase=ROUND_MASKED_INPUT),
            9: ClientPlan(drop_phase=ROUND_UNMASK),
        }
        outcome, _ = run_round(vectors, threshold=5, plans=plans)
        assert outcome.included == frozenset(vectors) - {2, 5, 7}
        assert np.array_equal(
            outcome.modular_sum, expected_sum(vectors, outcome.included)
        )


class TestStragglers:
    def test_straggler_past_deadline_is_dropped(self):
        vectors = make_vectors(8)
        # Client 4's masked input lands at t=15, after the phase-2
        # deadline (t=10) but while the others' slow unmask responses
        # (t=18) keep the round alive — so the late arrival is observed
        # and ignored rather than never sent.
        plans = {
            u: ClientPlan(latencies=(0.0, 0.0, 0.0, 8.0)) for u in vectors
        }
        plans[4] = ClientPlan(latencies=(0.0, 0.0, 15.0, 0.0))
        outcome, trace = run_round(
            vectors, threshold=5, plans=plans, phase_timeout=10.0, trace=True
        )
        assert 4 in outcome.dropped
        assert np.array_equal(
            outcome.modular_sum, expected_sum(vectors, outcome.included)
        )
        assert trace.count("phase-timeout") >= 1
        # The late masked input arrived mid-unmask and was ignored.
        assert trace.count("message-ignored") >= 1

    def test_straggler_within_deadline_is_kept(self):
        vectors = make_vectors(6)
        plans = {4: ClientPlan(latencies=(0.0, 0.0, 9.0, 0.0))}
        outcome, _ = run_round(
            vectors, threshold=4, plans=plans, phase_timeout=10.0
        )
        assert 4 in outcome.included


class TestThresholdFailures:
    def test_dropout_below_threshold_raises(self):
        vectors = make_vectors(6)
        plans = {
            1: ClientPlan(drop_phase=ROUND_MASKED_INPUT),
            2: ClientPlan(drop_phase=ROUND_MASKED_INPUT),
        }
        with pytest.raises(AggregationError, match="threshold"):
            run_round(vectors, threshold=5, plans=plans)

    def test_unmask_dropouts_below_threshold_raise(self):
        vectors = make_vectors(6)
        plans = {
            u: ClientPlan(drop_phase=ROUND_UNMASK) for u in (1, 2, 3)
        }
        with pytest.raises(AggregationError, match="threshold"):
            run_round(vectors, threshold=4, plans=plans)

    def test_everyone_offline_raises(self):
        vectors = make_vectors(4)
        plans = {
            u: ClientPlan(drop_phase=ROUND_ADVERTISE) for u in vectors
        }
        with pytest.raises(AggregationError):
            run_round(vectors, threshold=3, plans=plans)


class TestMaliciousUnmaskRequest:
    def test_same_peer_as_survivor_and_dropout_is_refused(self):
        vectors = make_vectors(6)

        def tamper(request):
            victim = min(request.survivors)
            return UnmaskRequest(
                survivors=request.survivors,
                dropouts=request.dropouts | {victim},
            )

        with pytest.raises(
            AggregationError, match="both survivor and dropout"
        ):
            run_round(vectors, threshold=4, tamper=tamper)

    def test_overlap_refused_even_with_real_dropouts(self):
        vectors = make_vectors(8)
        plans = {2: ClientPlan(drop_phase=ROUND_MASKED_INPUT)}

        def tamper(request):
            victim = min(request.survivors)
            return UnmaskRequest(
                survivors=request.survivors,
                dropouts=request.dropouts | {victim},
            )

        with pytest.raises(
            AggregationError, match="both survivor and dropout"
        ):
            run_round(vectors, threshold=5, plans=plans, tamper=tamper)

    def test_refusal_landing_during_teardown_is_surfaced(self):
        """Regression: the root-cause scan used to inspect client tasks
        only *before* the cancellation sweep, so a refusal completing
        during teardown (its task already past its last await when
        cancel() arrived) was masked by the server's threshold error."""
        import asyncio

        refusal = AggregationError(
            "refusing unmask request: clients [1] named as both survivor "
            "and dropout"
        )

        class TeardownRefusalRound(AsyncSecAggRound):
            async def _server_task(self, started_at):
                await self._clock.sleep(1.0)
                raise AggregationError("only 2 unmask responses; threshold")

            async def _client_task(self, index):
                if index != 3:
                    return
                # Swallow the cancellation the teardown sweep delivers
                # and complete with the protocol rejection instead —
                # the shape of a refusal racing the server's failure.
                try:
                    await self._clock.sleep(30.0)
                except asyncio.CancelledError:
                    pass
                raise refusal

        clock = SimulatedClock()
        secagg_round = TeardownRefusalRound(
            vectors=make_vectors(6),
            modulus=MODULUS,
            threshold=4,
            clock=clock,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(
            AggregationError, match="both survivor and dropout"
        ) as excinfo:
            clock.run(secagg_round.run())
        # Chained from the server's own (downstream) threshold error.
        assert "threshold" in str(excinfo.value.__cause__)


class TestDeterminism:
    def test_identical_seeds_replay_identically(self):
        vectors = make_vectors(8)
        plans = {
            2: ClientPlan(drop_phase=ROUND_SHARE_KEYS),
            6: ClientPlan(latencies=(0.3, 4.0, 0.1, 0.2)),
        }

        def execute():
            outcome, _ = run_round(
                vectors, threshold=5, plans=plans, phase_timeout=2.0, seed=13
            )
            return outcome

        first, second = execute(), execute()
        assert np.array_equal(first.modular_sum, second.modular_sum)
        assert first.included == second.included
        assert first.completed_at == second.completed_at


class TestValidation:
    def test_empty_cohort_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncSecAggRound(
                vectors={},
                modulus=MODULUS,
                threshold=2,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
            )

    def test_threshold_above_cohort_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncSecAggRound(
                vectors=make_vectors(3),
                modulus=MODULUS,
                threshold=4,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
            )

    def test_mismatched_dimensions_rejected(self):
        vectors = make_vectors(3)
        vectors[2] = vectors[2][:-1]
        with pytest.raises(ConfigurationError):
            AsyncSecAggRound(
                vectors=vectors,
                modulus=MODULUS,
                threshold=2,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
            )

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncSecAggRound(
                vectors=make_vectors(3),
                modulus=MODULUS,
                threshold=2,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
                phase_timeout=0.0,
            )


class TestTraceObservability:
    def test_round_events_are_logged(self):
        vectors = make_vectors(6)
        plans = {5: ClientPlan(drop_phase=ROUND_SHARE_KEYS)}
        outcome, trace = run_round(
            vectors, threshold=4, plans=plans, trace=True
        )
        assert trace.count("client-dropped") == 1
        assert trace.count("round-complete") == 1
        # One received message per phase per participating client.
        assert trace.count("message-received") >= 4 * len(outcome.included)


class TestVersionNegotiation:
    def test_unknown_version_client_is_rejected_not_crashed(self):
        """A client proposing an unsupported protocol version is refused
        at Hello with a typed Reject: its task exits cleanly, the round
        completes without it, and the sum stays exact."""
        vectors = make_vectors(6)
        clock = SimulatedClock()
        trace = SimulationTrace(clock)
        secagg_round = AsyncSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            threshold=4,
            clock=clock,
            rng=np.random.default_rng(1),
            trace=trace,
            client_versions={2: 99},
        )
        outcome = clock.run(secagg_round.run())
        assert 2 in outcome.dropped
        assert outcome.included == frozenset(vectors) - {2}
        assert np.array_equal(
            outcome.modular_sum, expected_sum(vectors, outcome.included)
        )
        rejected = trace.of_kind("client-rejected")
        assert len(rejected) == 1
        assert rejected[0].details["client"] == 2
        assert "unsupported protocol version 99" in (
            rejected[0].details["reason"]
        )

    def test_rejections_below_threshold_abort_with_typed_error(self):
        from repro.errors import NegotiationError

        vectors = make_vectors(5)
        clock = SimulatedClock()
        secagg_round = AsyncSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            threshold=4,
            clock=clock,
            rng=np.random.default_rng(1),
            client_versions={1: 7, 3: 7},
        )
        with pytest.raises(NegotiationError, match="after rejecting"):
            clock.run(secagg_round.run())


class TestMaskPrgKnob:
    def test_sha256_ctr_round_sum_is_exact(self):
        vectors = make_vectors(6)
        clock = SimulatedClock()
        secagg_round = AsyncSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            threshold=4,
            clock=clock,
            rng=np.random.default_rng(3),
            plans={2: ClientPlan(drop_phase=ROUND_SHARE_KEYS)},
            phase_timeout=60.0,
            mask_prg="sha256-ctr",
        )
        outcome = clock.run(secagg_round.run())
        np.testing.assert_array_equal(
            outcome.modular_sum, expected_sum(vectors, outcome.included)
        )

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown mask PRG"):
            AsyncSecAggRound(
                vectors=make_vectors(3),
                modulus=MODULUS,
                threshold=2,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
                mask_prg="rot13",
            )
