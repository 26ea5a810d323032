"""Dropout edge cases of the Bonawitz protocol, driven through the
asynchronous round driver.

These tests exercise the full four-round state machine under the
failure modes the protocol exists for: dropout during each phase,
stragglers past the server's deadline, survivor sets falling below the
Shamir threshold (which must raise, never mis-aggregate), and the
malicious same-peer-as-survivor-and-dropout request that clients are
required to refuse.
"""

import hashlib

import numpy as np
import pytest

import repro.secagg.statemachine as statemachine_module
import repro.simulation.rounds as rounds_module
from repro.errors import AggregationError, ConfigurationError
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
    UnmaskRequest,
    run_bonawitz,
)
from repro.secagg.statemachine import ClientSession
from repro.secagg.wire import SealedUpload, decode_message, encode_message
from repro.simulation import (
    AsyncSecAggRound,
    ClientPlan,
    SimulatedClock,
    SimulationTrace,
)
from repro.telemetry import MetricsRegistry

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

    def test_early_round_has_the_exact_message_driven_duration(self):
        """A round whose phases all complete well before the phase
        deadlines reports the exact message-driven duration — it does
        not drift toward the deadlines."""
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

    def test_straggler_still_in_flight_at_the_end_is_dropped(self):
        """A masked input still in flight when the round ends neither
        makes the sum nor holds the round open until it lands."""
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
        assert outcome.completed_at == 10.0


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

    def test_upload_landing_at_the_deadline_is_on_time(self):
        """The tie rule: an upload landing exactly at the phase deadline
        makes the phase, whether or not another upload of the phase
        came first (every advertise lands at the deadline; client 4's
        masked input lands at it after the others')."""
        vectors = make_vectors(6)
        plans = {
            u: ClientPlan(latencies=(10.0, 0.0, 0.0, 0.0)) for u in vectors
        }
        plans[4] = ClientPlan(latencies=(10.0, 0.0, 10.0, 0.0))
        outcome, trace = run_round(
            vectors, threshold=4, plans=plans, phase_timeout=10.0, trace=True
        )
        assert outcome.included == frozenset(vectors)
        assert trace.count("phase-timeout") == 0
        assert outcome.completed_at == 20.0

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
        ) as excinfo:
            run_round(vectors, threshold=5, plans=plans, tamper=tamper)
        # The first refusal, chained from the server's own (downstream)
        # threshold failure at unmask.
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
    def test_round_fills_the_instance_it_is_handed(self):
        from repro.secagg.kernels import DEFAULT_MASK_PRG, MaskPrg

        vectors = make_vectors(6)
        prg = MaskPrg()
        DEFAULT_MASK_PRG.forget()
        clock = SimulatedClock()
        secagg_round = AsyncSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            threshold=4,
            clock=clock,
            rng=np.random.default_rng(3),
            plans={2: ClientPlan(drop_phase=ROUND_SHARE_KEYS)},
            phase_timeout=60.0,
            mask_prg=prg,
        )
        outcome = clock.run(secagg_round.run())
        np.testing.assert_array_equal(
            outcome.modular_sum, expected_sum(vectors, outcome.included)
        )
        assert len(prg._memo) > 0
        assert len(DEFAULT_MASK_PRG._memo) == 0

    @pytest.mark.parametrize("name", ["rot13", "sha256-ctr"])
    def test_unknown_backend_rejected_at_construction(self, name):
        with pytest.raises(ConfigurationError, match="unknown mask PRG"):
            AsyncSecAggRound(
                vectors=make_vectors(3),
                modulus=MODULUS,
                threshold=2,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
                mask_prg=name,
            )


class ShortSharer(ClientSession):
    """Client 9 uploads its share-keys datagram one envelope short, so
    the server session refuses it and the driver evicts the sender."""

    def handle(self, data):
        uploads = super().handle(data)
        if self.index != 9 or not uploads:
            return uploads
        header, message = decode_message(uploads[0])
        if isinstance(message, SealedUpload):
            short = SealedUpload(self.index, message.ciphertexts[:-1])
            uploads = [encode_message(short, header)]
        return uploads


class TestRecordedTrace:
    """A twelve-client round replays the trace, survivor set, finish
    time and metrics recorded from the asyncio event-loop simulator
    this phase schedule replaced, exactly."""

    #: SHA-256 of the round's trace, outcome and deterministic metrics.
    DIGEST = (
        "13ab12954111fb1b9a8de23ade1dc31a80e9a876ae9322a5a634916b9872c93b"
    )

    def test_round_replays_the_recorded_trace(self, monkeypatch):
        import repro.simulation.rounds as rounds_module

        monkeypatch.setattr(rounds_module, "ClientSession", ShortSharer)
        vectors = make_vectors(12)
        plans = {
            u: ClientPlan(
                latencies=(
                    0.5 + 0.25 * (u % 3), 1.0 + 0.5 * (u % 4),
                    0.75 * (u % 2), 8.0,
                )
            )
            for u in vectors
        }
        plans[2] = ClientPlan(drop_phase=ROUND_ADVERTISE)
        # Client 4's masked input lands at 27.5, mid-unmask.
        plans[4] = ClientPlan(latencies=(0.5, 1.0, 15.0, 0.0))
        clock = SimulatedClock()
        trace = SimulationTrace(clock)
        metrics = MetricsRegistry()
        outcome = clock.run(
            AsyncSecAggRound(
                vectors=vectors, modulus=MODULUS, threshold=7, clock=clock,
                rng=np.random.default_rng(5), plans=plans, phase_timeout=10.0,
                trace=trace, client_versions={6: 99}, metrics=metrics,
            ).run()
        )
        kinds = [event.kind for event in trace.events]
        for kind in (
            "client-dropped", "message-ignored", "client-rejected-ack",
            "client-evicted",
        ):
            assert kind in kinds
        assert outcome.included == frozenset({1, 3, 5, 7, 8, 10, 11, 12})
        assert outcome.completed_at == 30.5
        record = [
            [(e.time, e.kind, sorted(e.details.items())) for e in trace.events],
            sorted(outcome.included),
            outcome.completed_at,
            [
                # Wall-clock histograms keep only their observation count.
                (s.name, s.labels, s.value, s.count)
                if "wall" in s.name
                else (s.name, s.labels, s.value, s.count, s.sum, s.buckets)
                for s in metrics.snapshot().series
            ],
        ]
        digest = hashlib.sha256(repr(record).encode()).hexdigest()
        assert digest == self.DIGEST


def received(trace, phase):
    """Senders of the phase's accepted uploads, in the order offered."""
    return [
        event.details["sender"]
        for event in trace.of_kind("message-received")
        if event.details["phase"] == phase
    ]


class TestPhaseSchedule:
    """How the phase loop orders arrivals and stamps events."""

    def test_arrivals_are_offered_in_time_order(self):
        vectors = make_vectors(6)
        # Higher indices answer the advertise phase sooner.
        plans = {
            u: ClientPlan(latencies=(1.0 - 0.1 * u, 0.0, 0.0, 0.0))
            for u in vectors
        }
        _, trace = run_round(vectors, threshold=4, plans=plans, trace=True)
        assert received(trace, "advertise") == [6, 5, 4, 3, 2, 1]

    def test_same_instant_arrivals_are_offered_in_index_order(self):
        vectors = make_vectors(6)
        plans = {u: ClientPlan(latencies=(0.5,) * 4) for u in vectors}
        _, trace = run_round(vectors, threshold=4, plans=plans, trace=True)
        for phase in ("advertise", "share-keys", "masked-input", "unmask"):
            assert received(trace, phase) == sorted(vectors)

    def test_trace_time_never_decreases(self):
        vectors = make_vectors(8)
        plans = {
            u: ClientPlan(latencies=(0.1 * u, 2.0 - 0.2 * u, 0.3, 0.5 * u))
            for u in vectors
        }
        plans[3] = ClientPlan(latencies=(0.0, 0.0, 7.0, 0.0))
        _, trace = run_round(
            vectors, threshold=5, plans=plans, phase_timeout=5.0, trace=True
        )
        times = [event.time for event in trace.events]
        assert times == sorted(times)
        assert trace.count("message-ignored") == 1

    def test_upload_just_past_the_deadline_is_late(self):
        vectors = make_vectors(6)
        plans = {4: ClientPlan(latencies=(0.0, 0.0, 10.0 + 1e-9, 0.0))}
        outcome, trace = run_round(
            vectors, threshold=4, plans=plans, phase_timeout=10.0, trace=True
        )
        assert outcome.included == frozenset(vectors) - {4}
        [timeout] = trace.of_kind("phase-timeout")
        assert timeout.details == {"phase": "masked-input", "missing": [4]}
        assert timeout.time == 10.0

    def test_late_upload_is_ignored_by_the_phase_it_lands_in(self):
        vectors = make_vectors(6)
        plans = {
            u: ClientPlan(latencies=(0.0, 0.0, 0.0, 6.0)) for u in vectors
        }
        plans[4] = ClientPlan(latencies=(0.0, 0.0, 12.0, 0.0))
        outcome, trace = run_round(
            vectors, threshold=4, plans=plans, phase_timeout=10.0, trace=True
        )
        [ignored] = trace.of_kind("message-ignored")
        assert ignored.details == {"sender": 4, "during": "unmask"}
        # Masked input closes at its deadline (10), so 4 lands at 12.
        assert ignored.time == 12.0
        assert outcome.completed_at == 16.0

    def test_dropout_is_recorded_when_its_phase_opens(self):
        vectors = make_vectors(6)
        plans = {u: ClientPlan(latencies=(1.0,) * 4) for u in vectors}
        plans[5] = ClientPlan(
            drop_phase=ROUND_MASKED_INPUT, latencies=(1.0,) * 4
        )
        _, trace = run_round(
            vectors, threshold=4, plans=plans, phase_timeout=3.0, trace=True
        )
        [dropped] = trace.of_kind("client-dropped")
        assert dropped.details == {"client": 5, "phase": ROUND_MASKED_INPUT}
        assert dropped.time == 2.0
        [timeout] = trace.of_kind("phase-timeout")
        assert timeout.details["missing"] == [5]
        assert timeout.time == 5.0

    def test_rejection_ack_is_recorded_when_the_reject_arrives(self):
        vectors = make_vectors(6)
        clock = SimulatedClock(start=4.0)
        trace = SimulationTrace(clock)
        clock.run(
            AsyncSecAggRound(
                vectors=vectors, modulus=MODULUS, threshold=4, clock=clock,
                rng=np.random.default_rng(1), trace=trace,
                plans={u: ClientPlan(latencies=(1.0,) * 4) for u in vectors},
                client_versions={3: 99},
            ).run()
        )
        [ack] = trace.of_kind("client-rejected-ack")
        assert ack.details["client"] == 3
        # The Reject goes out when advertise closes, one second in.
        assert ack.time == 5.0

    def test_pool_members_sent_nothing_are_excluded(self):
        vectors = make_vectors(6)
        plans = {2: ClientPlan(latencies=(0.0, 20.0, 0.0, 0.0))}
        outcome, trace = run_round(
            vectors, threshold=4, plans=plans, phase_timeout=10.0, trace=True
        )
        assert [e.details["client"] for e in trace.of_kind(
            "client-excluded"
        )] == [2]
        assert 2 in outcome.dropped

    def test_round_starts_where_the_clock_stands(self):
        vectors = make_vectors(4)
        plans = {u: ClientPlan(latencies=(0.5,) * 4) for u in vectors}
        clock = SimulatedClock(start=100.0)
        outcome = clock.run(
            AsyncSecAggRound(
                vectors=vectors, modulus=MODULUS, threshold=3, clock=clock,
                rng=np.random.default_rng(1), plans=plans,
            ).run()
        )
        assert outcome.started_at == 100.0
        assert outcome.completed_at == clock.now == 102.0

    def test_zero_latency_round_takes_no_simulated_time(self):
        vectors = make_vectors(5)
        outcome, trace = run_round(vectors, threshold=3, trace=True)
        assert outcome.duration == 0.0
        assert {event.time for event in trace.events} == {0.0}


def random_plans(seed, num_clients):
    rng = np.random.default_rng(seed)
    plans = {}
    for u in range(1, num_clients + 1):
        drop = None if rng.random() < 0.85 else int(rng.integers(0, 4))
        latencies = np.round(rng.uniform(0.0, 1.2, 4), 1)
        plans[u] = ClientPlan(
            drop_phase=drop, latencies=tuple(float(x) for x in latencies)
        )
    return plans


def predict(plans, cohort, timeout, threshold):
    """The round as a pure function of the plans: ``(U2, finish time)``,
    or ``("abort", phase)`` when a phase falls under the threshold.

    A phase's recipients are the previous phase's on-time responders; it
    closes at its slowest recipient's arrival when all of them answer in
    time (an arrival at the deadline counts), else at the deadline."""
    recipients, now, delivered = sorted(cohort), 0.0, []
    for phase in (
        ROUND_ADVERTISE, ROUND_SHARE_KEYS, ROUND_MASKED_INPUT, ROUND_UNMASK
    ):
        on_time = [
            u for u in recipients
            if plans[u].responds_at(phase)
            and plans[u].latencies[phase] <= timeout
        ]
        if len(on_time) == len(recipients):
            now += max(plans[u].latencies[phase] for u in recipients)
        else:
            now += timeout
        if len(on_time) < threshold:
            return "abort", phase
        delivered.append(frozenset(on_time))
        recipients = on_time
    return delivered[ROUND_MASKED_INPUT], now


class TestOutcomeIsAFunctionOfThePlans:
    """Random plans: who makes the sum, when the round ends and where it
    aborts follow from the plans and the phase timeout alone."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_plans_match_the_phase_model(self, seed):
        vectors = make_vectors(10, seed=seed)
        plans = random_plans(seed, len(vectors))
        expected = predict(plans, vectors, timeout=1.0, threshold=4)
        clock = SimulatedClock()
        secagg_round = AsyncSecAggRound(
            vectors=vectors, modulus=MODULUS, threshold=4, clock=clock,
            rng=np.random.default_rng(seed), plans=plans, phase_timeout=1.0,
        )
        if expected[0] == "abort":
            with pytest.raises(AggregationError, match="threshold"):
                clock.run(secagg_round.run())
            assert secagg_round.abort_phase == expected[1]
            return
        outcome = clock.run(secagg_round.run())
        assert (outcome.included, outcome.completed_at) == pytest.approx(
            expected
        )
        assert np.array_equal(
            outcome.modular_sum, expected_sum(vectors, outcome.included)
        )


class TestChaosServerKill:
    @pytest.mark.parametrize(
        "phase",
        [ROUND_ADVERTISE, ROUND_SHARE_KEYS, ROUND_MASKED_INPUT, ROUND_UNMASK],
    )
    def test_server_dies_before_the_phase_commits(self, phase):
        from repro.errors import ChaosKillError

        vectors = make_vectors(5)
        clock = SimulatedClock()
        trace = SimulationTrace(clock)
        secagg_round = AsyncSecAggRound(
            vectors=vectors, modulus=MODULUS, threshold=3, clock=clock,
            rng=np.random.default_rng(2), trace=trace,
            plans={u: ClientPlan(latencies=(1.0,) * 4) for u in vectors},
            fail_at_phase=phase,
        )
        with pytest.raises(ChaosKillError, match="server killed"):
            clock.run(secagg_round.run())
        assert secagg_round.abort_phase == phase
        [kill] = trace.of_kind("chaos-server-kill")
        assert kill.time == clock.now == float(phase)
        assert trace.count("round-complete") == 0

    @pytest.mark.parametrize("phase", [-1, 4])
    def test_out_of_range_phase_rejected(self, phase):
        with pytest.raises(ConfigurationError, match="fail_at_phase"):
            AsyncSecAggRound(
                vectors=make_vectors(3), modulus=MODULUS, threshold=2,
                clock=SimulatedClock(), rng=np.random.default_rng(0),
                fail_at_phase=phase,
            )


class RefusingClient(ClientSession):
    """Clients 3 and 5 refuse the unmask request with their own error."""

    def handle(self, data):
        if self.index in (3, 5) and isinstance(
            decode_message(data)[1], UnmaskRequest
        ):
            raise AggregationError(f"client {self.index} refuses")
        return super().handle(data)


@pytest.fixture(params=["AsyncSecAggRound", "run_bonawitz"])
def refusing_round(request, monkeypatch):
    """``threshold -> None``: six clients, 3 and 5 refusing the unmask
    request, through either caller of the one phase loop."""
    vectors = make_vectors(6)
    if request.param == "AsyncSecAggRound":
        monkeypatch.setattr(rounds_module, "ClientSession", RefusingClient)
        return lambda threshold: run_round(vectors, threshold=threshold)
    monkeypatch.setattr(statemachine_module, "ClientSession", RefusingClient)
    inputs = np.stack([vectors[u] for u in sorted(vectors)])
    return lambda threshold: run_bonawitz(
        inputs, MODULUS, threshold, np.random.default_rng(1)
    )


class TestClientErrors:
    def test_lowest_index_refusal_is_raised_from_the_server_error(
        self, refusing_round
    ):
        with pytest.raises(AggregationError, match="client 3 refuses") as info:
            refusing_round(threshold=5)
        # Two of six silent at unmask leave four, under the threshold.
        assert "threshold" in str(info.value.__cause__)

    def test_refusal_raised_alone_when_the_server_completes(
        self, refusing_round
    ):
        with pytest.raises(AggregationError, match="client 3 refuses") as info:
            refusing_round(threshold=3)
        assert info.value.__cause__ is None
