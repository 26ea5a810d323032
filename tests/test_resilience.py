"""Crash-safe rounds: retry/backoff, durable journal, resume, chaos.

Four layers, bottom-up: the :class:`RetryPolicy` backoff math, the
append-only round journal (torn writes, idempotent charges, recovery
parsing), the chaos schedule DSL and its invariant checkers, and then
the load-bearing socket scenarios — transient disconnect + Resume is
digest-invisible, adversarial resumes are refused with typed Rejects,
the at-most-once guard evicts conflicting re-uploads, and an
in-process ``crash()`` + restart over the same journal finishes the
round bit-identically while charging epsilon exactly once.
"""

import asyncio
import contextlib
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net import (
    ClientPlan,
    SecAggServer,
    ServerConfig,
    SwarmConfig,
    expected_digest,
    run_client,
    run_swarm,
    write_datagram,
)
from repro.net.frames import read_datagram
from repro.net.swarm import client_plans, derive_population
from repro.resilience import (
    Blackout,
    DurableLedger,
    Partition,
    RetryPolicy,
    RoundJournal,
    ServerKill,
    check_invariants,
    parse_chaos,
    recover_journal,
)
from repro.resilience.chaos import survivors_after
from repro.secagg.bonawitz import (
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
)
from repro.secagg.keys import TOY_GROUP
from repro.secagg.statemachine import ClientSession
from repro.secagg.wire import (
    MaskedInput,
    Reject,
    Resume,
    Welcome,
    decode_frames,
    encode_message,
)
from repro.telemetry import MetricsRegistry, parse_prometheus, to_prometheus


def run_round(server_config, swarm_config, timeout=60.0, metrics=None):
    """One server round against one swarm on a single event loop."""

    async def scenario():
        server = SecAggServer(server_config)
        async with server:
            swarm_task = asyncio.ensure_future(
                run_swarm(
                    "127.0.0.1", server.port, swarm_config, metrics=metrics
                )
            )
            results = await asyncio.wait_for(server.serve_rounds(), timeout)
            swarm = await swarm_task
            server_text = to_prometheus(server.metrics.snapshot())
        return results, swarm, server_text

    return asyncio.run(scenario())


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            max_retries=5, base_delay=0.1, max_delay=0.5,
            multiplier=2.0, jitter=0.0,
        )
        assert policy.delays() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(
            max_retries=6, base_delay=0.2, max_delay=5.0, jitter=0.5
        )
        first = policy.delays(random.Random(7))
        second = policy.delays(random.Random(7))
        assert first == second
        for attempt, delay in enumerate(first):
            floor = min(5.0, 0.2 * 2.0**attempt)
            assert floor <= delay <= floor * 1.5

    def test_zero_retries_means_fail_fast(self):
        assert RetryPolicy(max_retries=0).delays() == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(base_delay=-0.1),
            dict(base_delay=2.0, max_delay=1.0),
            dict(multiplier=0.5),
            dict(jitter=1.5),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(-1)


class TestRoundJournal:
    def test_completed_round_recovers_as_closed(self, tmp_path):
        path = tmp_path / "rounds.journal"
        with RoundJournal(path) as journal:
            journal.round_start(0, [1, 2, 3], {"modulus": 65536})
            journal.phase_commit(0, "advertise", {1: b"a", 2: b"b"})
            journal.phase_commit(0, "share-keys", {1: b"\x00\xff", 2: b"d"})
            journal.charge(0, 0.5)
            journal.round_end(0, "completed", digest="abc123")
        recovery = recover_journal(path)
        assert recovery.next_round_id == 1
        assert recovery.completed == (0,)
        assert recovery.aborted == ()
        assert recovery.charged == {0: 0.5}
        assert recovery.cumulative_epsilon == 0.5
        assert recovery.interrupted is None

    def test_interrupted_round_surfaces_committed_phases(self, tmp_path):
        path = tmp_path / "rounds.journal"
        with RoundJournal(path) as journal:
            journal.round_start(3, [4, 7, 9], {"threshold": 2})
            journal.phase_commit(3, "advertise", {4: b"dgram", 9: b"\x01"})
        recovery = recover_journal(path)
        interrupted = recovery.interrupted
        assert interrupted is not None
        assert interrupted.round_id == 3
        assert interrupted.cohort == (4, 7, 9)
        assert interrupted.params == {"threshold": 2}
        # Byte-exact round trip through the base64 encoding.
        assert interrupted.phases == (
            ("advertise", {4: b"dgram", 9: b"\x01"}),
        )
        assert recovery.next_round_id == 4

    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "rounds.journal"
        with RoundJournal(path) as journal:
            journal.round_start(0, [1, 2], {})
            journal.round_end(0, "completed", digest="d")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "round-start", "rou')  # the kill -9
        recovery = recover_journal(path)
        assert recovery.completed == (0,)
        assert recovery.interrupted is None

    def test_corrupt_mid_file_record_raises(self, tmp_path):
        path = tmp_path / "rounds.journal"
        path.write_text('not json\n{"kind": "charge", "round": 0, '
                        '"epsilon": 1.0}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="corrupt journal"):
            recover_journal(path)

    def test_missing_journal_recovers_empty(self, tmp_path):
        recovery = recover_journal(tmp_path / "absent.journal")
        assert recovery.next_round_id == 0
        assert recovery.interrupted is None

    def test_duplicate_charge_records_count_once(self, tmp_path):
        path = tmp_path / "rounds.journal"
        with RoundJournal(path) as journal:
            journal.charge(0, 1.0)
            journal.charge(0, 1.0)  # a correct server never writes this
            journal.charge(1, 0.25)
        recovery = recover_journal(path)
        assert recovery.charged == {0: 1.0, 1: 0.25}
        assert recovery.cumulative_epsilon == 1.25

    def test_append_after_close_refused(self, tmp_path):
        journal = RoundJournal(tmp_path / "rounds.journal")
        journal.close()
        with pytest.raises(ConfigurationError, match="closed"):
            journal.charge(0, 1.0)


class TestDurableLedger:
    def test_charges_are_idempotent_by_round_id(self, tmp_path):
        with RoundJournal(tmp_path / "rounds.journal") as journal:
            ledger = DurableLedger(journal)
            assert ledger.charge(0, 1.0) is True
            assert ledger.charge(0, 1.0) is False  # restart replays
            assert ledger.charge(1, 0.5) is True
        assert ledger.epsilon == 1.5
        assert ledger.charges == {0: 1.0, 1: 0.5}
        # The refused duplicate never reached the journal either.
        recovery = recover_journal(tmp_path / "rounds.journal")
        lines = (tmp_path / "rounds.journal").read_text().splitlines()
        assert len(lines) == 2
        assert recovery.charged == {0: 1.0, 1: 0.5}

    def test_restart_seeds_from_recovered_charges(self):
        ledger = DurableLedger(charged={7: 2.0})
        assert ledger.charged(7)
        assert ledger.charge(7, 2.0) is False
        assert ledger.epsilon == 2.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ConfigurationError):
            DurableLedger().charge(0, -1.0)


class TestChaosSchedule:
    def test_full_syntax_round_trips(self):
        schedule = parse_chaos(
            "kill@masked-input:r2;partition:3@share-keys/1.5;"
            "blackout:2@unmask;abort@advertise:r5"
        )
        assert schedule.faults == (
            ServerKill(phase=ROUND_MASKED_INPUT, round_index=2, restart=True),
            Partition(
                phase=ROUND_SHARE_KEYS, clients=3, duration=1.5,
                round_index=None,
            ),
            Blackout(phase=ROUND_UNMASK, clients=2, round_index=None),
            ServerKill(phase=0, round_index=5, restart=False),
        )

    def test_round_scoping_is_one_based(self):
        schedule = parse_chaos("kill@unmask:r2;blackout:1@advertise")
        assert schedule.kill(1) is None
        assert schedule.kill(2) == ServerKill(
            phase=ROUND_UNMASK, round_index=2
        )
        # The unscoped blackout applies everywhere.
        assert len(schedule.blackouts(1)) == 1
        assert len(schedule.blackouts(2)) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "  ;  ",
            "explode@unmask",
            "kill@warmup",
            "blackout:x@unmask",
            "partition:2@unmask",
            "partition:2@unmask/soon",
            "kill@unmask;kill@advertise",  # both unscoped
            "kill@unmask:r1;abort@advertise:r1",  # both round 1
            "kill@unmask;abort@advertise:r3",  # unscoped overlaps r3
        ],
    )
    def test_malformed_schedules_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_chaos(spec)

    def test_kills_in_distinct_rounds_are_fine(self):
        schedule = parse_chaos("kill@unmask:r1;abort@unmask:r2")
        assert schedule.kill(1).restart is True
        assert schedule.kill(2).restart is False

    def test_survivors_after_blackouts(self):
        faults = parse_chaos("blackout:2@unmask;partition:9@advertise/5")
        assert survivors_after((1, 2, 3, 4), faults.for_round(1)) == (
            frozenset({1, 2})  # partitions heal; blackouts do not
        )


class _FakeRecord:
    def __init__(self, index, included, aborted, epsilon,
                 cohort=(), dropped=(), aggregate_matches=None):
        self.index = index
        self.included = frozenset(included)
        self.aborted = aborted
        self.epsilon = epsilon
        self.cohort = tuple(cohort)
        self.dropped = frozenset(dropped)
        self.aggregate_matches = aggregate_matches


class TestChaosInvariants:
    def test_clean_records_pass(self):
        records = [
            _FakeRecord(1, {1, 2}, None, 0.5, cohort=(1, 2)),
            _FakeRecord(2, (), "below threshold", 1.0, cohort=(3,)),
            _FakeRecord(3, {4}, None, 1.5, cohort=(4,)),
        ]
        assert check_invariants(records) == []

    def test_partial_release_on_abort_flagged(self):
        records = [_FakeRecord(1, {1}, "killed", 0.5)]
        assert any("partial" in v for v in check_invariants(records))

    def test_epsilon_rollback_flagged(self):
        records = [
            _FakeRecord(1, {1}, None, 1.0),
            _FakeRecord(2, {1}, None, 0.5),
        ]
        assert any("decreased" in v for v in check_invariants(records))

    def test_aggregate_mismatch_flagged(self):
        records = [
            _FakeRecord(1, {1}, None, 1.0, aggregate_matches=False)
        ]
        assert any("true sum" in v for v in check_invariants(records))

    def test_included_divergence_against_reference_flagged(self):
        faulty = [
            _FakeRecord(1, {1, 2}, None, 1.0, cohort=(1, 2, 3),
                        dropped={3}),
        ]
        reference = [
            _FakeRecord(1, {1, 2, 3}, None, 1.0, cohort=(1, 2, 3),
                        dropped={3}),
        ]
        assert any(
            "different" in v for v in check_invariants(faulty, reference)
        )
        assert check_invariants(reference, reference) == []


class TestSwarmConfigKnobs:
    def test_transients_require_retry_budget(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            SwarmConfig(clients=4, threshold=2, transient_disconnects=1)

    def test_transient_phase_bounds(self):
        with pytest.raises(ConfigurationError):
            SwarmConfig(
                clients=4, threshold=2, max_retries=2,
                transient_disconnects=1, transient_phase=0,
            )

    def test_connect_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SwarmConfig(clients=4, threshold=2, connect_timeout=0.0)

    def test_retry_policy_property(self):
        assert SwarmConfig(clients=4, threshold=2).retry_policy is None
        policy = SwarmConfig(
            clients=4, threshold=2, max_retries=3
        ).retry_policy
        assert policy is not None and policy.max_retries == 3


class TestClientRetry:
    def test_dead_port_fails_fast_with_counted_retries(self):
        async def scenario():
            return await run_client(
                "127.0.0.1",
                9,  # reserved port; nothing listens
                ClientPlan(index=1, seed=0),
                [0] * 4,
                2**16,
                2,
                connect_timeout=0.5,
                retry=RetryPolicy(
                    max_retries=2, base_delay=0.01, max_delay=0.02
                ),
            )

        report = asyncio.run(scenario())
        assert report.status == "disconnected"
        assert report.retries == 2

    def test_retries_are_reported_to_the_metrics_registry(self):
        metrics = MetricsRegistry()

        async def scenario():
            return await run_client(
                "127.0.0.1", 9,
                ClientPlan(index=1, seed=0),
                [0] * 4, 2**16, 2,
                connect_timeout=0.5,
                retry=RetryPolicy(
                    max_retries=1, base_delay=0.01, max_delay=0.02
                ),
                metrics=metrics,
            )

        asyncio.run(scenario())
        parsed = parse_prometheus(to_prometheus(metrics.snapshot()))
        assert "net_retries_total" in parsed.family_names()


class TestTransientResume:
    def test_two_transients_digest_identical_and_counted(self):
        config = SwarmConfig(
            clients=8, threshold=4, seed=21,
            max_retries=6, transient_disconnects=2,
        )
        metrics = MetricsRegistry()
        results, swarm, server_text = run_round(
            ServerConfig(cohort_size=8, threshold=4, resume_grace=5.0),
            config,
            metrics=metrics,
        )
        (result,) = results
        assert result.aborted is None
        assert result.digest == expected_digest(config)
        assert swarm.completed == 8
        assert swarm.resumes >= 2
        parsed = parse_prometheus(server_text)
        assert parsed.value("net_resume_total", outcome="accepted") >= 2
        client_side = parse_prometheus(to_prometheus(metrics.snapshot()))
        assert "net_retries_total" in client_side.family_names()

    def test_disconnect_after_upload_replays_cleanly(self):
        config = SwarmConfig(
            clients=6, threshold=3, seed=29,
            max_retries=6, transient_disconnects=1,
            transient_phase=ROUND_SHARE_KEYS, transient_after_upload=True,
        )
        results, swarm, _ = run_round(
            ServerConfig(cohort_size=6, threshold=3, resume_grace=5.0),
            config,
        )
        (result,) = results
        assert result.aborted is None
        assert result.digest == expected_digest(config)
        assert swarm.completed == 6

    @given(
        phase=st.sampled_from(
            [ROUND_SHARE_KEYS, ROUND_MASKED_INPUT, ROUND_UNMASK]
        ),
        after_upload=st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_single_transient_disconnect_is_digest_invisible(
        self, phase, after_upload
    ):
        """Satellite property: one transient disconnect + resume, at any
        phase, before or after the upload, never changes the aggregate."""
        config = SwarmConfig(
            clients=6, threshold=3, seed=33,
            max_retries=6, transient_disconnects=1,
            transient_phase=phase, transient_after_upload=after_upload,
        )
        results, swarm, _ = run_round(
            ServerConfig(cohort_size=6, threshold=3, resume_grace=5.0),
            config,
        )
        (result,) = results
        assert result.aborted is None
        assert result.digest == expected_digest(config)
        assert swarm.completed == 6


async def _scripted_join(port, plan, vector, modulus, threshold):
    """Handshake a raw client; returns (session, reader, writer, welcome)."""
    session = ClientSession(
        index=plan.index,
        vector=np.asarray(vector),
        modulus=modulus,
        threshold=threshold,
        rng=np.random.default_rng(plan.seed),
        group=TOY_GROUP,
    )
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await write_datagram(writer, b"".join(session.start()))
    raw = await asyncio.wait_for(read_datagram(reader), 10)
    ((_, welcome),) = decode_frames(raw)
    assert isinstance(welcome, Welcome)
    return session, reader, writer, welcome


def _abort_connection(writer):
    with contextlib.suppress(Exception):
        writer.transport.abort()


class TestAdversarialResume:
    def test_stale_round_id_resume_rejected(self):
        """A Resume naming a round the server is not running gets a
        typed Reject, never a replay of another round's frames."""
        config = SwarmConfig(clients=3, threshold=2, seed=37)
        inputs, _ = derive_population(config)
        plans = client_plans(config)

        async def scenario():
            server = SecAggServer(
                ServerConfig(
                    cohort_size=3, threshold=2,
                    resume_grace=1.0, phase_timeout=10.0,
                )
            )
            async with server:
                serve = asyncio.ensure_future(server.serve_rounds())
                honest = [
                    asyncio.ensure_future(
                        run_client(
                            "127.0.0.1", server.port,
                            dataclasses.replace(plans[i], delay=0.6),
                            inputs[i], config.modulus, 2,
                        )
                    )
                    for i in (0, 1)
                ]
                session, reader, writer, welcome = await _scripted_join(
                    server.port, plans[2], inputs[2], config.modulus, 2
                )
                await asyncio.wait_for(read_datagram(reader), 10)  # roster
                _abort_connection(writer)
                reader2, writer2 = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await write_datagram(
                    writer2,
                    encode_message(
                        Resume(
                            sender=3,
                            round_id=welcome.round_id + 7,
                            deliveries=0,
                        ),
                        session.header,
                    ),
                )
                answer = await asyncio.wait_for(read_datagram(reader2), 10)
                writer2.close()
                results = await asyncio.wait_for(serve, 30)
                await asyncio.gather(*honest)
            return answer, results

        answer, results = asyncio.run(scenario())
        ((_, reject),) = decode_frames(answer)
        assert isinstance(reject, Reject)
        assert "stale round id" in reject.reason
        # The impostor round id never contaminated the real round: the
        # two honest clients finish it (threshold 2) without client 3.
        (result,) = results
        assert result.aborted is None
        assert 3 not in result.included

    def test_resume_after_grace_expiry_rejected(self):
        """A client evicted at grace expiry cannot re-enter the round."""
        config = SwarmConfig(clients=6, threshold=3, seed=41)
        inputs, _ = derive_population(config)
        plans = client_plans(config)

        async def scenario():
            server = SecAggServer(
                ServerConfig(
                    cohort_size=6, threshold=3,
                    resume_grace=0.3, phase_timeout=15.0,
                )
            )
            async with server:
                serve = asyncio.ensure_future(server.serve_rounds())
                honest = [
                    asyncio.ensure_future(
                        run_client(
                            "127.0.0.1", server.port,
                            dataclasses.replace(plans[i], delay=0.8),
                            inputs[i], config.modulus, 3,
                        )
                    )
                    for i in range(5)
                ]
                session, reader, writer, welcome = await _scripted_join(
                    server.port, plans[5], inputs[5], config.modulus, 3
                )
                await asyncio.wait_for(read_datagram(reader), 10)  # roster
                _abort_connection(writer)
                await asyncio.sleep(1.2)  # well past the 0.3s grace
                reader2, writer2 = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await write_datagram(
                    writer2,
                    encode_message(
                        Resume(
                            sender=6,
                            round_id=welcome.round_id,
                            deliveries=1,
                        ),
                        session.header,
                    ),
                )
                answer = await asyncio.wait_for(read_datagram(reader2), 10)
                writer2.close()
                results = await asyncio.wait_for(serve, 30)
                await asyncio.gather(*honest)
                server_text = to_prometheus(server.metrics.snapshot())
            return answer, results, server_text

        answer, results, server_text = asyncio.run(scenario())
        ((_, reject),) = decode_frames(answer)
        assert isinstance(reject, Reject)
        assert "no longer a participant" in reject.reason
        (result,) = results
        assert result.aborted is None
        assert 6 in result.evicted and 6 not in result.included
        # Evicting at grace expiry during share-keys is exactly a
        # share-keys dropout: the digest must match that schedule.
        assert result.digest == expected_digest(
            SwarmConfig(
                clients=6, threshold=3, dropouts=1,
                dropout_phase=ROUND_SHARE_KEYS, seed=41,
            )
        )
        parsed = parse_prometheus(server_text)
        assert parsed.value("net_resume_total", outcome="expired") == 1.0


class TestAtMostOnce:
    def _scenario(self, conflicting):
        """Drive client 8 through share-keys and masked-input, then
        re-send its masked input — identical or tampered bytes."""
        config = SwarmConfig(clients=8, threshold=4, seed=47)
        inputs, _ = derive_population(config)
        plans = client_plans(config)

        async def run():
            server = SecAggServer(
                ServerConfig(
                    cohort_size=8, threshold=4, phase_timeout=15.0
                )
            )
            async with server:
                serve = asyncio.ensure_future(server.serve_rounds())
                honest = [
                    asyncio.ensure_future(
                        run_client(
                            "127.0.0.1", server.port,
                            dataclasses.replace(plans[i], delay=0.4),
                            inputs[i], config.modulus, 4,
                        )
                    )
                    for i in range(7)
                ]
                session, reader, writer, _ = await _scripted_join(
                    server.port, plans[7], inputs[7], config.modulus, 4
                )
                upload = b""
                for _phase in (ROUND_SHARE_KEYS, ROUND_MASKED_INPUT):
                    delivery = await asyncio.wait_for(
                        read_datagram(reader), 10
                    )
                    responses = session.handle(delivery)
                    upload = b"".join(responses)
                    await write_datagram(writer, upload)
                if conflicting:
                    tampered = np.asarray(inputs[7], dtype=np.int64) + 1
                    resend = encode_message(
                        MaskedInput(sender=8, vector=tampered),
                        session.header,
                    )
                else:
                    resend = upload
                await write_datagram(writer, resend)
                answer = await asyncio.wait_for(read_datagram(reader), 10)
                frames = decode_frames(answer) if answer else []
                if not conflicting and answer is not None:
                    # The duplicate was ignored; the next delivery is
                    # the unmask request — finish the round honestly.
                    responses = session.handle(answer)
                    await write_datagram(writer, b"".join(responses))
                writer.close()
                results = await asyncio.wait_for(serve, 30)
                await asyncio.gather(*honest)
            return frames, results

        return asyncio.run(run())

    def test_conflicting_resend_gets_typed_reject_and_eviction(self):
        frames, results = self._scenario(conflicting=True)
        assert frames, "expected a Reject before the connection closed"
        message = frames[0][1]
        assert isinstance(message, Reject)
        assert "different bytes" in message.reason
        (result,) = results
        assert result.aborted is None
        assert 8 in result.evicted and 8 not in result.included
        # The conflicting upload never replaced the original either:
        # the round's digest is a clean masked-input dropout schedule.
        assert result.digest == expected_digest(
            SwarmConfig(
                clients=8, threshold=4, dropouts=1,
                dropout_phase=ROUND_MASKED_INPUT, seed=47,
            )
        )

    def test_identical_resend_is_idempotent(self):
        frames, results = self._scenario(conflicting=False)
        (result,) = results
        assert result.aborted is None
        assert 8 in result.included
        assert len(result.included) == 8
        assert result.digest == expected_digest(
            SwarmConfig(clients=8, threshold=4, seed=47)
        )


class TestCrashRecovery:
    def test_crash_and_restart_finishes_the_round_once(self, tmp_path):
        """The CI chaos scenario, in-process: crash after the share-keys
        commit, restart over the same journal, same port — the round
        finishes digest-identical and epsilon is charged exactly once."""
        journal = tmp_path / "rounds.journal"
        config = SwarmConfig(
            clients=8, threshold=4, seed=42, delay=0.3, max_retries=8
        )
        base = dict(
            cohort_size=8, threshold=4, phase_timeout=30.0,
            journal_path=str(journal), resume_grace=15.0,
            round_epsilon=0.5,
        )

        async def scenario():
            first = SecAggServer(ServerConfig(**base))
            await first.start()
            port = first.port
            serve = asyncio.ensure_future(first.serve_rounds())
            swarm = asyncio.ensure_future(
                run_swarm("127.0.0.1", port, config)
            )
            for _ in range(600):
                if (
                    journal.exists()
                    and '"phase": "share-keys"'
                    in journal.read_text(encoding="utf-8")
                ):
                    break
                await asyncio.sleep(0.025)
            else:
                raise AssertionError("share-keys phase never committed")
            await first.crash()
            serve.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve
            second = SecAggServer(ServerConfig(**base, port=port))
            async with second:
                results = await asyncio.wait_for(second.serve_rounds(), 60)
                reports = await asyncio.wait_for(swarm, 60)
                server_text = to_prometheus(second.metrics.snapshot())
            return results, reports, server_text

        results, reports, server_text = asyncio.run(scenario())
        (result,) = results
        assert result.recovered is True
        assert result.round_id == 0
        assert result.aborted is None
        assert result.digest == expected_digest(config)
        assert reports.completed == 8
        assert reports.resumes >= 8  # every client crossed the crash
        charge_lines = [
            line
            for line in journal.read_text(encoding="utf-8").splitlines()
            if '"kind": "charge"' in line
        ]
        assert len(charge_lines) == 1
        recovery = recover_journal(journal)
        assert recovery.charged == {0: 0.5}
        assert recovery.completed == (0,)
        assert recovery.interrupted is None
        parsed = parse_prometheus(server_text)
        assert parsed.value(
            "round_recovery_total", outcome="resumed"
        ) == 1.0

    def test_unrecoverable_journal_aborts_without_charge(self, tmp_path):
        """A journalled round whose parameters no longer match the
        server's is cleanly abandoned: aborted round-end, no charge."""
        journal = tmp_path / "rounds.journal"
        with RoundJournal(journal) as writer:
            writer.round_start(
                0, [1, 2, 3, 4],
                {"modulus": 2**16, "dimension": 32, "threshold": 99,
                 "version": 1, "mask_prg": "sha256-ctr"},
            )
            writer.phase_commit(0, "advertise", {1: b"x"})

        async def scenario():
            server = SecAggServer(
                ServerConfig(
                    cohort_size=4, threshold=2,
                    journal_path=str(journal), round_epsilon=1.0,
                )
            )
            async with server:
                # Stop before the loop: only the journal recovery runs,
                # no fresh cohort is gathered.
                server.request_stop()
                return await asyncio.wait_for(server.serve_rounds(), 10)

        results = asyncio.run(scenario())
        assert results == []
        recovery = recover_journal(journal)
        assert recovery.interrupted is None
        assert recovery.aborted == (0,)
        assert recovery.charged == {}  # epsilon never double- or mischarged

    def test_graceful_stop_drains_inflight_round(self):
        config = SwarmConfig(clients=4, threshold=2, seed=3)

        async def scenario():
            server = SecAggServer(
                ServerConfig(cohort_size=4, threshold=2, rounds=5)
            )
            async with server:
                serve = asyncio.ensure_future(server.serve_rounds())
                swarm = await run_swarm("127.0.0.1", server.port, config)
                server.request_stop()
                results = await asyncio.wait_for(serve, 10)
            return results, swarm

        results, swarm = asyncio.run(scenario())
        # The stop landed while gathering round 2: round 1 completed,
        # nothing was abandoned mid-flight, and the call returned early
        # instead of serving the remaining budget.
        assert len(results) == 1
        assert results[0].aborted is None
        assert swarm.completed == 4


class TestSimulationChaos:
    """The same fault schedules, injected into the simulated engine."""

    CONFIG = dict(
        population_size=24,
        expected_cohort=10,
        rounds=2,
        modulus=2**16,
        gamma=16.0,
        epsilon=5.0,
        hidden=4,
        test_records=32,
        seed=17,
        verify_aggregate=True,
    )

    def _run(self, **overrides):
        import warnings

        from repro.simulation import SimulationConfig, SimulationEngine

        config = SimulationConfig(**{**self.CONFIG, **overrides})
        engine = SimulationEngine(config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return engine, engine.run()

    def test_kill_restart_round_is_digest_identical(self):
        _, reference = self._run()
        engine, result = self._run(chaos="kill@masked-input:r2")
        assert [r.recovered for r in result.records] == [False, True]
        # The restarted round releases the exact sum the fault-free run
        # does, so the trained model is bit-identical.
        assert result.parameters_digest == reference.parameters_digest
        assert check_invariants(result.records, reference.records) == []
        kinds = [event.kind for event in engine.trace.events]
        assert "chaos-server-kill" in kinds
        assert "chaos-server-restart" in kinds
        parsed = parse_prometheus(result.metrics.to_prometheus())
        assert parsed.value(
            "round_recovery_total", outcome="resumed"
        ) == 1.0

    def test_abort_kill_aborts_cleanly_without_release(self):
        _, result = self._run(chaos="abort@share-keys:r1", rounds=1)
        (record,) = result.records
        assert record.aborted
        assert not record.included
        # A clean abort still satisfies every chaos invariant.
        assert check_invariants(result.records) == []

    def test_blackout_drops_the_tail_cohort_members(self):
        _, result = self._run(chaos="blackout:2@share-keys:r1", rounds=1)
        (record,) = result.records
        assert not record.aborted
        assert set(record.cohort[-2:]) <= set(record.dropped)
        assert check_invariants(result.records) == []

    def test_kill_requires_flat_topology(self):
        from repro.simulation import SimulationConfig

        with pytest.raises(ConfigurationError, match="flat topology"):
            SimulationConfig(
                **{**self.CONFIG, "tree": "2", "chaos": "kill@unmask"}
            )

    def test_chaos_requires_the_secagg_path(self):
        from repro.simulation import SimulationConfig

        with pytest.raises(ConfigurationError, match="non-private"):
            SimulationConfig(
                **{
                    **self.CONFIG,
                    "epsilon": None,
                    "chaos": "blackout:1@unmask",
                }
            )
