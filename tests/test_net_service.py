"""The real-socket SecAgg service: server, client swarm, /metrics.

The load-bearing assertion is cross-transport: a localhost swarm round
— concurrent clients, real TCP, dropouts, rejections — produces an
aggregate **bit-identical** to :func:`repro.secagg.bonawitz.run_bonawitz`
for the same seeds and schedule.  Around it: transport-boundary
behaviour a simulator cannot exercise (mid-phase disconnects, spoofed
frames from a bound connection, duplicate-id handshakes, stragglers
against a wall-clock deadline) and the live Prometheus endpoint.
"""

import asyncio
import gc
import os
import pathlib
import signal
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.errors import AggregationError
from repro.net import (
    ClientPlan,
    SecAggServer,
    ServerConfig,
    SwarmConfig,
    expected_aggregate,
    expected_digest,
    run_client,
    run_swarm,
    scrape_metrics,
    write_datagram,
)
from repro.net.frames import read_datagram
from repro.secagg.bonawitz import (
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
)
from repro.secagg.kernels import DEFAULT_MASK_PRG
from repro.secagg.keys import TOY_GROUP
from repro.secagg.statemachine import ClientSession
from repro.secagg.wire import (
    Hello,
    Reject,
    SealedUpload,
    decode_frames,
    decode_message,
    encode_message,
)
from repro.telemetry import parse_prometheus
from tests.secagg_reference import memoised_pairs


def run_round(server_config, swarm_config, timeout=60.0):
    """One server round against one swarm on a single event loop."""

    async def scenario():
        server = SecAggServer(server_config)
        async with server:
            swarm_task = asyncio.ensure_future(
                run_swarm("127.0.0.1", server.port, swarm_config)
            )
            results = await asyncio.wait_for(server.serve_rounds(), timeout)
            swarm = await swarm_task
        return results, swarm

    return asyncio.run(scenario())


class TestSwarmEquivalence:
    def test_16_clients_with_dropouts_bit_identical(self):
        swarm_cfg = SwarmConfig(clients=16, threshold=8, dropouts=3, seed=42)
        results, swarm = run_round(
            ServerConfig(cohort_size=16, threshold=8), swarm_cfg
        )
        (result,) = results
        assert result.aborted is None
        assert result.digest == expected_digest(swarm_cfg)
        assert len(result.included) == 13
        assert swarm.completed == 13
        assert swarm.count("dropped") == 3

    def test_64_clients_with_dropouts_bit_identical(self):
        swarm_cfg = SwarmConfig(clients=64, threshold=32, dropouts=6, seed=3)
        results, swarm = run_round(
            ServerConfig(cohort_size=64, threshold=32), swarm_cfg,
            timeout=120.0,
        )
        (result,) = results
        assert result.aborted is None
        assert result.digest == expected_digest(swarm_cfg)
        assert len(result.included) == 58
        assert swarm.completed == 58

    def test_socket_swarm_shape_moves_pinned_bytes(self):
        """``socket_swarm``'s round over TCP: n = 64, t = 32, d = 64,
        m = 2^16, the last 6 clients gone before their masked input, so
        58 survivors answer for 6 dropouts.  The server's ledger and the
        in-memory replay count the same frames; ids 1..64 are one-byte
        gaps:

        ============= ==== ====================================== =====
        phase         dir  frames                                 bytes
        ============= ==== ====================================== =====
        advertise     up   64 x 63                                 4032
        advertise     down 64 x (24 + 64 x (1 + 2 x 8))           71168
        share-keys    up   64 x (31 + 64 x 16)                    67520
        share-keys    down 64 x (31 + 64 x (1 + 16))              71616
        masked-input  up   58 x (28 + 64 x 2)                      9048
        masked-input  down 58 x (19 + 4 + 58 + 4 + 6)              5278
        unmask        up   58 x (32 + 8 x 58 + 8 x 6)             31552
        ============= ==== ====================================== =====

        260 214 bytes, 4 065.8 a client.  Format 4's u32 ids were 3
        bytes more an id: 64 x 64 x 3 in the rosters and again in the
        deliveries, 58 x 64 x 3 in the requests (35 712 B), 4 623.8 a
        client."""
        swarm_cfg = SwarmConfig(
            clients=64, threshold=32, dropouts=6, seed=3, dimension=64
        )
        results, swarm = run_round(
            ServerConfig(cohort_size=64, threshold=32, dimension=64),
            swarm_cfg,
            timeout=120.0,
        )
        (result,) = results
        assert result.digest == expected_digest(swarm_cfg)
        assert swarm.completed == 58
        pinned = {
            "advertise": (4032, 71168),
            "share-keys": (67520, 71616),
            "masked-input": (9048, 5278),
            "unmask": (31552, 0),
        }
        for wire in (result.wire, expected_aggregate(swarm_cfg).wire):
            assert {
                phase: (totals["up_bytes"], totals["down_bytes"])
                for phase, totals in wire.phase_totals().items()
            } == pinned
            assert wire.total_bytes == 260214

    def test_dropout_at_every_phase_matches(self):
        for phase in (0, 1, 2, 3):
            swarm_cfg = SwarmConfig(
                clients=8, threshold=4, dropouts=2, dropout_phase=phase,
                seed=17,
            )
            cohort = 8 - (2 if phase == 0 else 0)  # Phase-0: never connect.
            results, _ = run_round(
                ServerConfig(cohort_size=cohort, threshold=4), swarm_cfg
            )
            (result,) = results
            assert result.aborted is None, f"phase {phase}: {result.aborted}"
            assert result.digest == expected_digest(swarm_cfg), (
                f"digest diverged for dropout_phase={phase}"
            )

    def test_two_rounds_back_to_back(self):
        swarm_cfg = SwarmConfig(clients=8, threshold=4, seed=5)

        async def scenario():
            server = SecAggServer(
                ServerConfig(cohort_size=8, threshold=4, rounds=2)
            )
            async with server:
                serve = asyncio.ensure_future(server.serve_rounds())
                first = await run_swarm("127.0.0.1", server.port, swarm_cfg)
                second = await run_swarm("127.0.0.1", server.port, swarm_cfg)
                results = await asyncio.wait_for(serve, 60)
            return results, first, second

        results, first, second = asyncio.run(scenario())
        assert [r.aborted for r in results] == [None, None]
        # Same seeds, same schedule -> same aggregate, both rounds.
        expected = expected_digest(swarm_cfg)
        assert [r.digest for r in results] == [expected, expected]
        assert first.completed == second.completed == 8


    def test_memos_hold_one_round_on_sockets(self):
        # Keys and seeds are fresh every round, so the swarm and the
        # server drop the last round's memo entries when they open the
        # next: five rounds leave what one round leaves.
        clients, rounds = 16, 5
        configs = [
            SwarmConfig(clients=clients, threshold=8, dropouts=3, seed=900 + k)
            for k in range(rounds)
        ]
        # Two key sets per unordered pair, each entry shared by both
        # endpoints and the recovering server; one word row per pairwise
        # mask and one per self mask.
        pair_entries = clients * (clients - 1)
        mask_rows = clients * (clients - 1) // 2 + clients

        async def scenario():
            server = SecAggServer(
                ServerConfig(cohort_size=clients, threshold=8, rounds=rounds)
            )
            sizes = []
            async with server:
                serve = asyncio.ensure_future(server.serve_rounds())
                for config in configs:
                    await run_swarm("127.0.0.1", server.port, config)
                    sizes.append(
                        (
                            memoised_pairs(TOY_GROUP),
                            len(DEFAULT_MASK_PRG._memo),
                        )
                    )
                results = await asyncio.wait_for(serve, 60)
            return results, sizes

        results, sizes = asyncio.run(scenario())
        for agreements, rows in sizes:
            assert 0 < agreements <= pair_entries
            assert 0 < rows <= mask_rows
        # The reference rounds run last: they warm (and so refill) the
        # same process-wide memos.
        assert [r.digest for r in results] == [
            expected_digest(config) for config in configs
        ]


class TestLongLivedServer:
    """A server process holds one round's state however many it serves."""

    def test_memory_retained_does_not_grow_with_rounds_served(self):
        # Each result is taken as its round ends and dropped, as
        # `repro serve` does.  Memory still held after round 50 stays
        # within a few KiB of that after round 10; a server that kept
        # its results would hold ~5.8 KiB more per round of 4 clients
        # (~230 KiB over the 40 rounds between the two readings).
        rounds, readings = 55, (10, 50)

        async def scenario():
            server = SecAggServer(
                ServerConfig(
                    cohort_size=4, threshold=2, dimension=8,
                    rounds=rounds, metrics_port=None,
                )
            )
            retained = {}
            async with server:
                async def swarm():
                    for seed in range(rounds):
                        await run_swarm(
                            "127.0.0.1", server.port,
                            SwarmConfig(
                                clients=4, threshold=2, dimension=8,
                                seed=seed,
                            ),
                        )

                clients = asyncio.ensure_future(swarm())
                async for result in server.rounds():
                    assert result.aborted is None, result.aborted
                    if result.index + 1 in readings:
                        gc.collect()
                        retained[result.index + 1] = (
                            tracemalloc.get_traced_memory()[0]
                        )
                await asyncio.wait_for(clients, 60)
            return retained

        tracemalloc.start()
        try:
            retained = asyncio.run(asyncio.wait_for(scenario(), 120))
        finally:
            tracemalloc.stop()
        first, last = (retained[reading] for reading in readings)
        assert last - first < 32 * 1024, (first, last)

    def test_cli_writes_each_digest_as_its_round_ends(self, tmp_path):
        configs = [
            SwarmConfig(clients=4, threshold=2, dimension=8, seed=seed)
            for seed in (31, 32)
        ]
        digests = tmp_path / "digests.txt"
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--metrics-port", "-1",
                "--cohort", "4", "--threshold", "2", "--dimension", "8",
                "--rounds", "2", "--digest-out", str(digests),
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = server.stdout.readline()
            port = int(banner.split("listening on ")[1].split(":")[1])
            asyncio.run(run_swarm("127.0.0.1", port, configs[0]))
            assert server.stderr.readline().startswith("round 0: 4 included")
            # A round's digest is on disk before its line is printed,
            # and before the next round is served.
            assert digests.read_text() == expected_digest(configs[0]) + "\n"
            asyncio.run(run_swarm("127.0.0.1", port, configs[1]))
            _, rest = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0
        assert rest.startswith("round 1: 4 included")
        assert digests.read_bytes() == b"".join(
            f"{expected_digest(config)}\n".encode() for config in configs
        )

    def test_sigterm_stops_a_server_whose_stdout_reader_is_gone(
        self, tmp_path
    ):
        """A parent that read the banner off a stdout pipe and closed it
        can still stop the server: the signal handler requests the stop
        before it writes its notice, and nothing after the banner —
        the notice, the files-written lines — goes to stdout."""
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--metrics-port", "-1",
                "--cohort", "4", "--threshold", "2", "--dimension", "8",
                "--rounds", "5",
                "--digest-out", str(tmp_path / "digests.txt"),
                "--metrics-out", str(tmp_path / "metrics.prom"),
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            assert "listening on" in server.stdout.readline()
            server.stdout.close()
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()


class TestNegotiationOverSockets:
    def test_reject_round_trip(self):
        """A bad-version client gets a typed Reject over a real socket
        and parks a NegotiationError; the round completes without it."""
        swarm_cfg = SwarmConfig(
            clients=8, threshold=4, bad_version=1, seed=11
        )
        results, swarm = run_round(
            ServerConfig(cohort_size=8, threshold=4), swarm_cfg
        )
        (result,) = results
        assert result.aborted is None
        assert result.rejected == {
            1: "unsupported protocol version 2 (round speaks 1)"
        }
        assert swarm.count("rejected") == 1
        report = next(r for r in swarm.reports if r.index == 1)
        assert "rejected at Hello" in report.detail
        assert result.digest == expected_digest(swarm_cfg)

    def test_duplicate_id_refused_with_typed_reject(self):
        async def scenario():
            server = SecAggServer(
                ServerConfig(cohort_size=2, threshold=2, join_timeout=5.0)
            )
            import numpy as np

            async with server:
                session = ClientSession(
                    index=1,
                    vector=np.zeros(32, dtype=np.int64),
                    modulus=2**16,
                    threshold=2,
                    rng=np.random.default_rng(0),
                    group=TOY_GROUP,
                )
                handshake = b"".join(session.start())
                r1, w1 = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await write_datagram(w1, handshake)
                # Second connection claiming the same id.
                r2, w2 = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await write_datagram(w2, handshake)
                answer = await asyncio.wait_for(read_datagram(r2), 10)
                frames = decode_frames(answer)
                w1.close()
                w2.close()
                return frames

        frames = asyncio.run(scenario())
        assert len(frames) == 1
        message = frames[0][1]
        assert isinstance(message, Reject)
        assert "already bound" in message.reason


class TestTransportBoundaries:
    def test_spoofed_frame_evicts_connection_not_victim(self):
        """A bound connection replaying another client's frames is
        evicted; the impersonated client still completes."""

        async def scenario():
            import numpy as np

            swarm_cfg = SwarmConfig(clients=8, threshold=4, seed=23)
            from repro.net.swarm import client_plans, derive_population

            inputs, _ = derive_population(swarm_cfg)
            plans = client_plans(swarm_cfg)

            async def spoofer(port):
                """Handshakes as client 9, then sends a frame claiming
                client 1 (who is also honestly connected)."""
                session = ClientSession(
                    index=9,
                    vector=np.zeros(
                        swarm_cfg.dimension, dtype=np.int64
                    ),
                    modulus=swarm_cfg.modulus,
                    threshold=4,
                    rng=np.random.default_rng(99),
                    group=TOY_GROUP,
                )
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    hello, advertise = session.start()
                    await write_datagram(writer, hello + advertise)
                    welcome = await asyncio.wait_for(
                        read_datagram(reader), 10
                    )
                    roster = await asyncio.wait_for(
                        read_datagram(reader), 10
                    )
                    # Phase 1: replay a frame claiming sender 1.
                    spoofed = encode_message(
                        Hello(sender=1), session.header
                    )
                    await write_datagram(writer, spoofed)
                    # The server evicts us: connection closes.
                    assert await asyncio.wait_for(
                        read_datagram(reader), 10
                    ) is None
                finally:
                    writer.close()

            server = SecAggServer(
                ServerConfig(cohort_size=9, threshold=4, phase_timeout=10.0)
            )
            async with server:
                clients = [
                    asyncio.ensure_future(
                        run_client(
                            "127.0.0.1",
                            server.port,
                            plan,
                            inputs[plan.index - 1],
                            swarm_cfg.modulus,
                            4,
                        )
                    )
                    for plan in plans
                ]
                spoof = asyncio.ensure_future(spoofer(server.port))
                results = await asyncio.wait_for(
                    server.serve_rounds(), 60
                )
                await spoof
                reports = await asyncio.gather(*clients)
            return results, reports

        results, reports = asyncio.run(scenario())
        (result,) = results
        assert result.aborted is None
        assert 9 in result.evicted
        # The victim (client 1) is untouched by the impersonation.
        assert 1 in result.included
        assert all(r.status == "completed" for r in reports)

    def test_mid_phase_disconnect_is_evicted_not_hung(self):
        """A client that vanishes after the roster broadcast is evicted
        well before the phase deadline; the round completes."""

        async def scenario():
            import numpy as np

            swarm_cfg = SwarmConfig(clients=8, threshold=4, seed=31)
            from repro.net.swarm import client_plans, derive_population

            inputs, _ = derive_population(swarm_cfg)
            plans = client_plans(swarm_cfg)

            async def vanisher(port, plan, vector):
                session = ClientSession(
                    index=plan.index,
                    vector=np.asarray(vector),
                    modulus=swarm_cfg.modulus,
                    threshold=4,
                    rng=np.random.default_rng(plan.seed),
                    group=TOY_GROUP,
                )
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                await write_datagram(writer, b"".join(session.start()))
                await asyncio.wait_for(read_datagram(reader), 10)
                writer.close()  # Gone mid share-keys, no upload.

            # A deliberately long deadline: if the disconnect were NOT
            # evicted eagerly, the round would sit out 60s per phase
            # and trip the scenario timeout.
            server = SecAggServer(
                ServerConfig(cohort_size=8, threshold=4, phase_timeout=60.0)
            )
            async with server:
                tasks = [
                    asyncio.ensure_future(
                        vanisher(
                            server.port, plan, inputs[plan.index - 1]
                        )
                        if plan.index == 8
                        else run_client(
                            "127.0.0.1",
                            server.port,
                            plan,
                            inputs[plan.index - 1],
                            swarm_cfg.modulus,
                            4,
                        )
                    )
                    for plan in plans
                ]
                results = await asyncio.wait_for(server.serve_rounds(), 15)
                await asyncio.gather(*tasks)
            return results

        results = asyncio.run(scenario())
        (result,) = results
        assert result.aborted is None
        assert 8 in result.evicted
        assert 8 not in result.included
        assert len(result.included) == 7
        # Evicting at phase start is equivalent to a share-keys dropout.
        assert result.digest == expected_digest(
            SwarmConfig(
                clients=8, threshold=4, dropouts=1,
                dropout_phase=ROUND_SHARE_KEYS, seed=31,
            )
        )

    def test_malformed_share_keys_upload_is_evicted_at_ingest(self):
        """One client of 16 uploads a truncated-roster share-keys
        datagram: the session refuses it at receive(), the transport
        evicts the offender in that phase, and the round completes as
        if the client had dropped at share-keys."""

        async def scenario():
            import numpy as np

            swarm_cfg = SwarmConfig(clients=16, threshold=8, seed=37)
            from repro.net.swarm import client_plans, derive_population

            inputs, _ = derive_population(swarm_cfg)
            plans = client_plans(swarm_cfg)

            async def truncator(port, plan, vector):
                session = ClientSession(
                    index=plan.index,
                    vector=np.asarray(vector),
                    modulus=swarm_cfg.modulus,
                    threshold=8,
                    rng=np.random.default_rng(plan.seed),
                    group=TOY_GROUP,
                )
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    await write_datagram(writer, b"".join(session.start()))
                    await asyncio.wait_for(read_datagram(reader), 10)
                    roster = await asyncio.wait_for(read_datagram(reader), 10)
                    (upload,) = session.handle(roster)
                    header, message = decode_message(upload)
                    short = SealedUpload(
                        message.sender, message.ciphertexts[:-1]
                    )
                    await write_datagram(
                        writer, encode_message(short, header)
                    )
                    # The server evicts us: connection closes.
                    assert await asyncio.wait_for(
                        read_datagram(reader), 10
                    ) is None
                finally:
                    writer.close()

            server = SecAggServer(
                ServerConfig(cohort_size=16, threshold=8, phase_timeout=60.0)
            )
            async with server:
                tasks = [
                    asyncio.ensure_future(
                        truncator(server.port, plan, inputs[plan.index - 1])
                        if plan.index == 16
                        else run_client(
                            "127.0.0.1",
                            server.port,
                            plan,
                            inputs[plan.index - 1],
                            swarm_cfg.modulus,
                            8,
                        )
                    )
                    for plan in plans
                ]
                results = await asyncio.wait_for(server.serve_rounds(), 30)
                await asyncio.gather(*tasks)
                dropped = server.metrics.snapshot().value(
                    "secagg_clients_dropped_total", phase="share-keys"
                )
            return results, dropped

        (result,), dropped = asyncio.run(scenario())
        assert result.aborted is None
        assert result.evicted == frozenset({16})
        assert dropped == 1
        assert len(result.included) == 15
        assert result.digest == expected_digest(
            SwarmConfig(
                clients=16, threshold=8, dropouts=1,
                dropout_phase=ROUND_SHARE_KEYS, seed=37,
            )
        )

    def test_malformed_unmask_response_is_evicted_at_ingest(self):
        """One quorum responder of 16 omits the dropout's key share.
        That used to reach recover_sum as a bare KeyError, escape the
        serve loop's ``except AggregationError`` and take the server
        down; now the session refuses it at receive(), the transport
        evicts the offender, and the round completes — the offender's
        masked input is already in, so the sum still counts it."""

        async def scenario():
            import dataclasses

            import numpy as np

            swarm_cfg = SwarmConfig(
                clients=16, threshold=8, dropouts=1,
                dropout_phase=ROUND_MASKED_INPUT, seed=37,
            )
            from repro.net.swarm import client_plans, derive_population

            inputs, _ = derive_population(swarm_cfg)
            plans = client_plans(swarm_cfg)
            assert plans[0].drop_at_phase is None

            async def withholder(port, plan, vector):
                session = ClientSession(
                    index=plan.index,
                    vector=np.asarray(vector),
                    modulus=swarm_cfg.modulus,
                    threshold=8,
                    rng=np.random.default_rng(plan.seed),
                    group=TOY_GROUP,
                )
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    await write_datagram(writer, b"".join(session.start()))
                    await asyncio.wait_for(read_datagram(reader), 10)
                    for _ in range(2):
                        delivery = await asyncio.wait_for(
                            read_datagram(reader), 10
                        )
                        await write_datagram(
                            writer, b"".join(session.handle(delivery))
                        )
                    request = await asyncio.wait_for(read_datagram(reader), 10)
                    (upload,) = session.handle(request)
                    header, response = decode_message(upload)
                    assert response.key_shares.shape[0] == 1
                    await write_datagram(
                        writer,
                        encode_message(
                            dataclasses.replace(
                                response, key_shares=response.key_shares[:0]
                            ),
                            header,
                        ),
                    )
                    # The server evicts us: connection closes.
                    assert await asyncio.wait_for(
                        read_datagram(reader), 10
                    ) is None
                finally:
                    writer.close()

            server = SecAggServer(
                ServerConfig(cohort_size=16, threshold=8, phase_timeout=60.0)
            )
            async with server:
                tasks = [
                    asyncio.ensure_future(
                        withholder(server.port, plan, inputs[plan.index - 1])
                        if plan.index == 1
                        else run_client(
                            "127.0.0.1",
                            server.port,
                            plan,
                            inputs[plan.index - 1],
                            swarm_cfg.modulus,
                            8,
                        )
                    )
                    for plan in plans
                ]
                results = await asyncio.wait_for(server.serve_rounds(), 30)
                await asyncio.gather(*tasks)
                evictions = server.metrics.snapshot().value(
                    "net_evictions_total", reason="protocol"
                )
            return results, evictions, swarm_cfg

        (result,), evictions, swarm_cfg = asyncio.run(scenario())
        assert result.aborted is None
        # 16 is the scheduled masked-input dropout (a disconnect); 1 is
        # the only protocol eviction.
        assert result.evicted == frozenset({1, 16})
        assert evictions == 1
        assert 1 in result.included and len(result.included) == 15
        assert result.digest == expected_digest(swarm_cfg)

    def test_straggler_evicted_at_wall_deadline(self):
        swarm_cfg = SwarmConfig(clients=6, threshold=3, seed=13)

        async def scenario():
            from repro.net.swarm import client_plans, derive_population
            import dataclasses

            inputs, _ = derive_population(swarm_cfg)
            plans = client_plans(swarm_cfg)
            # Client 6 sleeps past the 0.8s phase deadline before its
            # unmask response (delays apply from the share-keys send).
            plans[5] = dataclasses.replace(plans[5], delay=2.0)
            server = SecAggServer(
                ServerConfig(
                    cohort_size=6, threshold=3, phase_timeout=0.8,
                    join_timeout=10.0,
                )
            )
            async with server:
                tasks = [
                    asyncio.ensure_future(
                        run_client(
                            "127.0.0.1",
                            server.port,
                            plan,
                            inputs[plan.index - 1],
                            swarm_cfg.modulus,
                            3,
                        )
                    )
                    for plan in plans
                ]
                results = await asyncio.wait_for(server.serve_rounds(), 30)
                await asyncio.gather(*tasks)
            return results

        results = asyncio.run(scenario())
        (result,) = results
        assert result.aborted is None
        assert 6 not in result.included
        assert len(result.included) == 5

    def test_chaos_cancel_round_still_completes(self):
        # The delay keeps clients mid-round long enough for both
        # staggered cancels to land before their victims finish.
        swarm_cfg = SwarmConfig(
            clients=12, threshold=4, chaos_cancel=2, seed=29, delay=0.1
        )
        results, swarm = run_round(
            ServerConfig(cohort_size=12, threshold=4, phase_timeout=10.0),
            swarm_cfg,
        )
        (result,) = results
        assert result.aborted is None
        assert swarm.count("cancelled") == 2
        assert swarm.count("cancelled") + swarm.count("completed") == 12
        assert len(result.included) == 10


class TestMetricsEndpoint:
    def test_scrape_serves_phase_latency_histograms(self):
        async def scenario():
            swarm_cfg = SwarmConfig(clients=8, threshold=4, dropouts=2, seed=7)
            server = SecAggServer(
                ServerConfig(cohort_size=8, threshold=4)
            )
            async with server:
                swarm_task = asyncio.ensure_future(
                    run_swarm("127.0.0.1", server.port, swarm_cfg)
                )
                results = await asyncio.wait_for(server.serve_rounds(), 60)
                await swarm_task
                text = await scrape_metrics(
                    "127.0.0.1", server.metrics_port
                )
            return text, results

        text, (result,) = asyncio.run(scenario())
        parsed = parse_prometheus(text)
        families = parsed.family_names()
        # The very same families the simulator reports into.
        for family in (
            "secagg_phase_wall_duration_seconds",
            "secagg_rounds_total",
            "secagg_wire_bytes_total",
            "secagg_wire_messages_total",
            "secagg_clients_dropped_total",
            "net_connections_total",
            "net_round_wall_seconds",
        ):
            assert family in families, family
        for phase in ("advertise", "share-keys", "masked-input", "unmask"):
            count = parsed.value(
                "secagg_phase_wall_duration_seconds_count", phase=phase
            )
            assert count == 1.0, phase
        assert parsed.value(
            "secagg_rounds_total", outcome="completed"
        ) == 1.0
        # The wire counters are fed per phase from the session's own
        # ledger, so over a round they add up to it exactly.
        for family, total in (
            ("secagg_wire_bytes_total", result.wire.total_bytes),
            ("secagg_wire_messages_total", result.wire.total_messages),
        ):
            assert sum(
                value
                for (name, _), value in parsed.samples.items()
                if name == family
            ) == total

    def test_healthz_and_404(self):
        async def scenario():
            from repro.net.http import start_metrics_endpoint
            from repro.telemetry import MetricsRegistry

            endpoint = await start_metrics_endpoint(MetricsRegistry())
            port = endpoint.sockets[0].getsockname()[1]

            async def fetch(path):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii")
                )
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                return raw.split(b"\r\n", 1)[0]

            health = await fetch("/healthz")
            missing = await fetch("/nope")
            endpoint.close()
            await endpoint.wait_closed()
            return health, missing

        health, missing = asyncio.run(scenario())
        assert health == b"HTTP/1.1 200 OK"
        assert missing == b"HTTP/1.1 404 Not Found"


class TestClientReportEdges:
    def test_round0_dropout_never_connects(self):
        async def scenario():
            # No server at all: a phase-0 dropout must not even try.
            report = await run_client(
                "127.0.0.1",
                9,  # Reserved port; nothing listens.
                ClientPlan(index=1, seed=0, drop_at_phase=0),
                [0] * 4,
                2**16,
                2,
            )
            return report

        report = asyncio.run(scenario())
        assert report.status == "dropped"
        assert report.uploads_sent == 0

    def test_connection_refused_reports_disconnected(self):
        async def scenario():
            return await run_client(
                "127.0.0.1",
                9,
                ClientPlan(index=1, seed=0),
                [0] * 4,
                2**16,
                2,
            )

        report = asyncio.run(scenario())
        assert report.status == "disconnected"
