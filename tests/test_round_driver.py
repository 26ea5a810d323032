"""One round driver, three callers.

``drive_in_memory``, ``AsyncSecAggRound`` and ``SecAggServer`` all close
their phases through :class:`~repro.secagg.statemachine.RoundDriver`, so
the same offender must end the same way on each of them, the same
metered scenario must read the same in the ``secagg_*`` round families,
and nothing else in ``src/`` may feed or advance a ``ServerSession``.
"""

import ast
import asyncio
import dataclasses
import hashlib
import importlib
import pathlib

import numpy as np
import pytest

import repro
import repro.secagg.statemachine as statemachine_module
import repro.simulation.rounds as rounds_module
from repro.errors import AggregationError
from repro.net import SecAggServer, ServerConfig
from repro.net.frames import read_datagram, write_datagram
from repro.secagg.bonawitz import (
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
)
from repro.secagg.keys import TOY_GROUP
from repro.secagg.shamir import LimbShares
from repro.secagg.statemachine import (
    ClientSession,
    RoundDriver,
    ServerSession,
    drive_in_memory,
)
from repro.secagg.tree import run_composition_round
from repro.secagg.wire import (
    MaskedInput,
    SealedUpload,
    UnmaskResponse,
    decode_frames,
    encode_message,
)
from repro.simulation import (
    AsyncSecAggRound,
    ClientPlan,
    SimulatedClock,
    SimulationTrace,
)
from repro.telemetry import (
    SIM_PHASE_HISTOGRAM,
    WALL_PHASE_HISTOGRAM,
    MetricsRegistry,
)

#: Not a power of two: a coordinate of the round's width (16 bits) can
#: then lie outside the alphabet.
MODULUS = 2**16 - 15
DIMENSION = 16
CLIENTS = 8
THRESHOLD = 4
OFFENDER = 3
#: Stops answering at masked-input on every transport, so the unmask
#: phase has a key share to get wrong.
DROPOUT = 8
TRANSPORTS = ("in-memory", "simulator", "sockets")


def make_vectors(num_clients=CLIENTS, seed=5):
    rng = np.random.default_rng(seed)
    return {
        u: rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
        for u in range(1, num_clients + 1)
    }


def client_seeds(cohort, seed):
    """Per-client seeds drawn the way ``AsyncSecAggRound`` draws them,
    so every transport can run the very same client sessions."""
    rng = np.random.default_rng(seed)
    return {u: int(rng.integers(0, 2**63)) for u in sorted(cohort)}


def direct_sum(vectors, included):
    total = np.zeros(DIMENSION, dtype=np.int64)
    for u in included:
        total = np.mod(total + vectors[u], MODULUS)
    return total


def digest(vector):
    return hashlib.sha256(np.asarray(vector).tobytes()).hexdigest()


# -- the refusals -----------------------------------------------------------


def sole_frame(upload, kind):
    """``(header, message)`` if ``upload`` is one ``kind`` frame."""
    frames = decode_frames(upload)
    if len(frames) == 1 and isinstance(frames[0][1], kind):
        return frames[0]
    return None


def short_share_keys(session, upload):
    """A share-keys upload one envelope short."""
    frame = sole_frame(upload, SealedUpload)
    if frame is None:
        return upload
    header, message = frame
    return encode_message(
        SealedUpload(message.sender, message.ciphertexts[:-1]), header
    )


def spoofed_masked_input(session, upload):
    """A masked input whose frame claims another sender."""
    frame = sole_frame(upload, MaskedInput)
    if frame is None:
        return upload
    header, message = frame
    return encode_message(
        dataclasses.replace(message, sender=session.index + 1), header
    )


def doubled_masked_input(session, upload):
    """A masked input sent twice in one datagram: the first frame is
    valid on its own, the second is a duplicate."""
    if sole_frame(upload, MaskedInput) is None:
        return upload
    return upload + upload


def out_of_alphabet_masked_input(session, upload):
    """A masked input of the round's width and dimension with every
    coordinate ``m + 5``: what only the alphabet check can refuse."""
    frame = sole_frame(upload, MaskedInput)
    if frame is None:
        return upload
    header, message = frame
    beyond = np.full_like(message.vector, MODULUS + 5)
    return encode_message(dataclasses.replace(message, vector=beyond), header)


def wrong_width_masked_input(session, upload):
    """Half the honest vector at twice the round's coordinate width: a
    frame of the round's length, which only its stated width gives
    away."""
    frame = sole_frame(upload, MaskedInput)
    if frame is None:
        return upload
    header, message = frame
    wide = MaskedInput(
        message.sender, message.vector[: DIMENSION // 2], 2 * message.bits
    )
    corrupted = encode_message(wide, header)
    assert len(corrupted) == len(upload)
    return corrupted


def oversize_masked_input(session, upload):
    """64 KiB of one-bit coordinates, 4 MiB once unpacked: the server
    refuses the datagram by its length and never unpacks it."""
    frame = sole_frame(upload, MaskedInput)
    if frame is None:
        return upload
    header, message = frame
    flood = MaskedInput(message.sender, np.zeros(2**19, dtype=np.int64), 1)
    return encode_message(flood, header)


def key_share_at_the_wrong_point(session, upload):
    """An unmask response whose key share sits at a neighbour's point."""
    frame = sole_frame(upload, UnmaskResponse)
    if frame is None:
        return upload
    header, response = frame
    assert response.key_shares, "the scenario needs a dropout to recover"
    moved = {
        peer: LimbShares(x=share.x + 1, ys=share.ys)
        for peer, share in response.key_shares.items()
    }
    return encode_message(
        dataclasses.replace(response, key_shares=moved), header
    )


#: refusal -> (corruption, whether the offender's input still counts).
#: An unmask-phase offender already delivered its masked input, so the
#: aggregate keeps it; the earlier refusals leave it out — also the
#: doubled masked input, whose first frame a frame-by-frame ingest had
#: already stored when the second was refused.
REFUSALS = {
    "short-share-keys": (short_share_keys, False),
    "spoofed-sender": (spoofed_masked_input, False),
    "doubled-masked-input": (doubled_masked_input, False),
    "out-of-alphabet-masked-input": (out_of_alphabet_masked_input, False),
    "wrong-width-masked-input": (wrong_width_masked_input, False),
    "oversize-masked-input": (oversize_masked_input, False),
    "wrong-point-key-share": (key_share_at_the_wrong_point, True),
}


def session_factory(corrupt, offenders=(OFFENDER,)):
    """``ClientSession``, except that the offenders corrupt what they
    upload — a drop-in for the class wherever a transport builds its
    clients."""

    class Offender(ClientSession):
        def handle(self, data):
            responses = super().handle(data)
            if not responses:
                return responses
            return [corrupt(self, b"".join(responses))]

    def make(**kwargs):
        cls = Offender if kwargs["index"] in offenders else ClientSession
        return cls(**kwargs)

    return make


# -- the three callers ------------------------------------------------------


@dataclasses.dataclass
class Ended:
    """How one round ended, in the terms every transport can report."""

    included: frozenset
    modular_sum: np.ndarray | None
    evicted: dict  # offender -> reason, protocol refusals only
    wire: object
    aborted: str | None = None
    abort_phase: int | None = None
    survivors: frozenset = frozenset()


def run_in_memory(vectors, make, seeds, threshold, silent, metrics=None):
    """``silent``: client -> first phase it no longer answers."""
    clients = {
        u: make(
            index=u, vector=vectors[u], modulus=MODULUS, threshold=threshold,
            rng=np.random.default_rng(seeds[u]), group=TOY_GROUP,
        )
        for u in vectors
    }
    server = ServerSession(
        MODULUS, DIMENSION, threshold, group=TOY_GROUP, metrics=metrics
    )
    try:
        driver = drive_in_memory(
            server,
            clients,
            responds=lambda u, phase: silent.get(u, ROUND_UNMASK + 1) > phase,
            metrics=metrics,
        )
    except AggregationError as error:
        # The driver is the loop's own; what its abort record holds is
        # what the caller's session still shows.
        return Ended(
            frozenset(), None, {}, server.stats, aborted=str(error),
            abort_phase=server.phase, survivors=server.received(),
        )
    return Ended(
        server.included, server.modular_sum, dict(driver.evicted),
        server.stats,
    )


def run_simulator(
    vectors, make, seed, threshold, silent, monkeypatch,
    metrics=None, latencies=None, phase_timeout=60.0,
):
    monkeypatch.setattr(rounds_module, "ClientSession", make)
    clock = SimulatedClock()
    trace = SimulationTrace(clock)
    plans = {u: ClientPlan(drop_phase=phase) for u, phase in silent.items()}
    for u, latency in (latencies or {}).items():
        plans[u] = ClientPlan(latencies=latency)
    secagg_round = AsyncSecAggRound(
        vectors=vectors, modulus=MODULUS, threshold=threshold, clock=clock,
        rng=np.random.default_rng(seed), plans=plans, trace=trace,
        phase_timeout=phase_timeout, metrics=metrics,
    )

    def evicted():
        return {
            event.details["client"]: event.details["reason"]
            for event in trace.of_kind("client-evicted")
        }

    try:
        outcome = clock.run(secagg_round.run())
    except AggregationError as error:
        return Ended(
            frozenset(), None, evicted(), None, aborted=str(error),
            abort_phase=secagg_round.abort_phase,
            survivors=secagg_round.survivors_at_abort,
        )
    return Ended(
        outcome.included, outcome.modular_sum, evicted(), outcome.wire
    )


async def socket_client(port, session, done, silent_from, hang, stall):
    """One scripted peer: honest except for what its session corrupts,
    the phase it goes silent at (closing the socket, or with ``hang``
    keeping it open like a simulated dropout) and the phase it answers
    ``stall[1]`` seconds late."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_datagram(writer, b"".join(session.start()))
        await asyncio.wait_for(read_datagram(reader), 20)  # Welcome
        for phase in (ROUND_SHARE_KEYS, ROUND_MASKED_INPUT, ROUND_UNMASK):
            delivery = await asyncio.wait_for(read_datagram(reader), 30)
            if delivery is None:
                return  # evicted, or the round ended without us
            if silent_from == phase:
                if hang:
                    await asyncio.wait_for(done.wait(), 30)
                return
            upload = b"".join(session.handle(delivery))
            if stall is not None and stall[0] == phase:
                await asyncio.sleep(stall[1])
            await write_datagram(writer, upload)
        await asyncio.wait_for(done.wait(), 30)
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()


def run_sockets(
    vectors, make, seeds, threshold, silent,
    metrics=None, hang=False, stall=None, phase_timeout=20.0,
):
    """``stall``: client -> (phase, seconds late)."""

    async def scenario():
        server = SecAggServer(
            ServerConfig(
                cohort_size=len(vectors), threshold=threshold,
                modulus=MODULUS, dimension=DIMENSION, metrics_port=None,
                phase_timeout=phase_timeout,
            ),
            metrics=metrics,
        )
        done = asyncio.Event()
        async with server:
            peers = [
                asyncio.ensure_future(
                    socket_client(
                        server.port,
                        make(
                            index=u, vector=vectors[u], modulus=MODULUS,
                            threshold=threshold,
                            rng=np.random.default_rng(seeds[u]),
                            group=TOY_GROUP,
                        ),
                        done, silent.get(u), hang, (stall or {}).get(u),
                    )
                )
                for u in vectors
            ]
            (result,) = await asyncio.wait_for(server.serve_rounds(), 60)
            done.set()
            await asyncio.gather(*peers)
            snapshot = server.metrics.snapshot()
        return result, snapshot

    result, snapshot = asyncio.run(scenario())
    protocol = int(
        snapshot.value("net_evictions_total", reason="protocol") or 0
    )
    # The result names every transport eviction; a silent peer that
    # closed its socket is one too ("disconnect"), so the protocol
    # refusals are the ones that were not scripted to go silent.
    refused = {u: "protocol" for u in result.evicted if u not in silent}
    assert len(refused) == protocol
    return Ended(
        result.included, result.modular_sum, refused, result.wire,
        aborted=result.aborted,
    )


def run_on(transport, vectors, make, threshold, silent, monkeypatch, seed=9):
    seeds = client_seeds(vectors, seed)
    if transport == "in-memory":
        return run_in_memory(vectors, make, seeds, threshold, silent)
    if transport == "simulator":
        return run_simulator(
            vectors, make, seed, threshold, silent, monkeypatch
        )
    return run_sockets(vectors, make, seeds, threshold, silent)


class TestOneOffenderThreeTransports:
    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_refused_upload_evicts_its_sender_everywhere(
        self, refusal, monkeypatch
    ):
        """The same refused datagram ends the same way on every
        transport: the offender is named and evicted, the round
        completes above threshold, and the aggregate is the direct sum
        over exactly the clients whose input was in — identical bytes
        on all three."""
        corrupt, still_counted = REFUSALS[refusal]
        vectors = make_vectors()
        expected = frozenset(vectors) - {DROPOUT}
        if not still_counted:
            expected -= {OFFENDER}
        digests = set()
        for transport in TRANSPORTS:
            ended = run_on(
                transport, vectors, session_factory(corrupt), THRESHOLD,
                {DROPOUT: ROUND_MASKED_INPUT}, monkeypatch,
            )
            assert ended.aborted is None, (transport, ended.aborted)
            assert ended.evicted == {OFFENDER: "protocol"}, transport
            assert ended.included == expected, transport
            assert np.array_equal(
                ended.modular_sum, direct_sum(vectors, expected)
            ), transport
            digests.add(digest(ended.modular_sum))
        assert len(digests) == 1

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_evictions_below_threshold_abort_at_close(
        self, transport, monkeypatch
    ):
        """Two offenders of six at threshold five: both are evicted as
        their uploads arrive, and the round aborts only when the phase
        is closed under threshold — leaving behind which phase failed
        and who had delivered it."""
        vectors = make_vectors(6)
        ended = run_on(
            transport, vectors,
            session_factory(short_share_keys, offenders=(3, 4)),
            5, {}, monkeypatch,
        )
        assert ended.modular_sum is None
        assert "only 4 clients shared keys; threshold is 5" in ended.aborted
        if transport == "sockets":
            # A served round's abort record is its result.
            assert ended.evicted == {3: "protocol", 4: "protocol"}
        else:
            assert ended.abort_phase == ROUND_SHARE_KEYS
            assert ended.survivors == frozenset({1, 2, 5, 6})

    def test_abort_record_is_the_drivers(self):
        """What the callers report on abort is what ``close()`` wrote:
        the failing phase, who had delivered it, one aborted round."""
        vectors = make_vectors(4)
        seeds = client_seeds(vectors, 3)
        make = session_factory(short_share_keys, offenders=(2,))
        clients = {
            u: make(
                index=u, vector=vectors[u], modulus=MODULUS, threshold=4,
                rng=np.random.default_rng(seeds[u]), group=TOY_GROUP,
            )
            for u in vectors
        }
        metrics = MetricsRegistry()
        driver = RoundDriver(
            ServerSession(MODULUS, DIMENSION, 4, group=TOY_GROUP),
            clients, metrics=metrics,
        )
        for u in sorted(clients):
            assert driver.offer(u, b"".join(clients[u].start())) is None
        roster = driver.close()
        assert driver.waiting == set(clients)
        for u in sorted(roster):
            (upload,) = clients[u].handle(roster[u])
            assert driver.offer(u, upload) == (
                "protocol" if u == 2 else None
            )
        assert driver.evicted == {2: "protocol"} and not driver.waiting
        # An evicted client is no longer listened to.
        assert driver.offer(2, b"anything") == "ignored"
        with pytest.raises(AggregationError, match="threshold is 4"):
            driver.close()
        assert driver.abort_phase == ROUND_SHARE_KEYS
        assert driver.survivors_at_abort == frozenset({1, 3, 4})
        snapshot = metrics.snapshot()
        assert snapshot.value("secagg_rounds_total", outcome="aborted") == 1
        assert snapshot.value("secagg_messages_ignored_total") == 1

    def test_composition_round_still_fails_loudly(self, monkeypatch):
        """A composition round runs at threshold = n: evicting a virtual
        client takes the phase under threshold, so a protocol defect
        there is an error, never a silently smaller sum."""
        monkeypatch.setattr(
            statemachine_module,
            "ClientSession",
            session_factory(short_share_keys, offenders=(2,)),
        )
        child_sums = list(make_vectors(3).values())
        with pytest.raises(
            AggregationError, match="only 2 clients shared keys"
        ):
            run_composition_round(
                child_sums, MODULUS, np.random.default_rng(1)
            )


# -- one catalogue ----------------------------------------------------------

ROUND_FAMILIES = frozenset(
    {
        SIM_PHASE_HISTOGRAM,
        WALL_PHASE_HISTOGRAM,
        "secagg_rounds_total",
        "secagg_clients_dropped_total",
        "secagg_phase_timeouts_total",
        "secagg_messages_ignored_total",
        "secagg_wire_messages_total",
        "secagg_wire_bytes_total",
    }
)
PHASES = ("advertise", "share-keys", "masked-input", "unmask")


def by_phase(snapshot, family):
    return {
        phase: snapshot.value(family, phase=phase)
        for phase in PHASES
        if snapshot.value(family, phase=phase) is not None
    }


def wire_counters(snapshot):
    return {
        (family, phase, direction): snapshot.value(
            family, phase=phase, direction=direction
        )
        for family in ("secagg_wire_messages_total", "secagg_wire_bytes_total")
        for phase in PHASES
        for direction in ("up", "down")
    }


def wire_ledger(stats):
    totals = stats.phase_totals()
    return {
        (f"secagg_wire_{unit}_total", phase, direction): (
            totals[phase][f"{direction}_{unit}"] or None
        )
        for unit in ("messages", "bytes")
        for phase in PHASES
        for direction in ("up", "down")
    }


class TestOneCatalogue:
    def test_same_scenario_reads_the_same_on_every_transport(
        self, monkeypatch
    ):
        """n = 8, client 5 answers share-keys past the deadline, client
        8 goes silent at masked-input.  The simulator and the socket
        server report it in the same round families with the same
        dropped / timeout / wire counts, and on all three callers the
        wire counters are the session's own ledger."""
        vectors = make_vectors()
        seed = 21
        seeds = client_seeds(vectors, seed)
        silent = {DROPOUT: ROUND_MASKED_INPUT}
        honest = session_factory(lambda session, upload: upload, ())

        sim_metrics = MetricsRegistry()
        sim = run_simulator(
            vectors, honest, seed, THRESHOLD, silent, monkeypatch,
            metrics=sim_metrics, phase_timeout=10.0,
            latencies={5: (0.0, 15.0, 0.0, 0.0)},
        )
        net_metrics = MetricsRegistry()
        net = run_sockets(
            vectors, honest, seeds, THRESHOLD, silent, metrics=net_metrics,
            hang=True, stall={5: (ROUND_SHARE_KEYS, 3.0)}, phase_timeout=1.5,
        )
        mem_metrics = MetricsRegistry()
        # No deadline in memory: the straggler is a share-keys dropout.
        mem = run_in_memory(
            vectors, honest, seeds, THRESHOLD,
            {**silent, 5: ROUND_SHARE_KEYS}, metrics=mem_metrics,
        )
        expected = frozenset(vectors) - {5, DROPOUT}
        assert sim.included == net.included == mem.included == expected
        assert len({digest(r.modular_sum) for r in (sim, net, mem)}) == 1

        sim_snap, net_snap, mem_snap = (
            registry.snapshot()
            for registry in (sim_metrics, net_metrics, mem_metrics)
        )
        # Only a transport with a simulated clock has simulated seconds.
        assert ROUND_FAMILIES & set(sim_snap.names()) == ROUND_FAMILIES
        assert ROUND_FAMILIES & set(net_snap.names()) == (
            ROUND_FAMILIES - {SIM_PHASE_HISTOGRAM}
        )
        absent = {"share-keys": 1, "masked-input": 1}
        for family in (
            "secagg_clients_dropped_total", "secagg_phase_timeouts_total"
        ):
            assert by_phase(sim_snap, family) == absent, family
            assert by_phase(net_snap, family) == absent, family
        assert by_phase(mem_snap, "secagg_clients_dropped_total") == absent
        assert by_phase(mem_snap, "secagg_phase_timeouts_total") == {}
        assert wire_counters(sim_snap) == wire_counters(net_snap)
        for snapshot, ended in (
            (sim_snap, sim), (net_snap, net), (mem_snap, mem)
        ):
            assert wire_counters(snapshot) == wire_ledger(ended.wire)
            assert snapshot.value(
                "secagg_rounds_total", outcome="completed"
            ) == 1


# -- one loop ---------------------------------------------------------------

SRC = pathlib.Path(repro.__file__).parent


def walk_with_class(tree):
    """Yield ``(node, enclosing top-level class name or None)``."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            yield node, owner


class TestOneLoop:
    """Count guards, not timing guards."""

    def test_only_the_driver_feeds_and_advances_a_session(self):
        calls = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node, owner in walk_with_class(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("receive", "advance")
                ):
                    calls.append(
                        (str(path.relative_to(SRC)), owner, node.func.attr)
                    )
        assert calls, "the driver's own calls should have been found"
        assert {(path, owner) for path, owner, _ in calls} == {
            ("secagg/statemachine.py", "RoundDriver")
        }, calls

    def test_each_round_family_is_named_exactly_once(self):
        literals = dict.fromkeys(ROUND_FAMILIES, 0)
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and node.value in literals:
                    literals[node.value] += 1
        assert literals == dict.fromkeys(ROUND_FAMILIES, 1)

    def test_no_wide_field_fork_is_left(self):
        for path in sorted((SRC / "secagg").glob("*.py")):
            text = path.read_text()
            for fork in ("dtype=object", "width == 16", "_uses_kernels"):
                assert fork not in text, (path.name, fork)

    def test_there_is_no_second_secagg(self):
        """The paper pipeline sums through the ideal functionality
        (``sum_mod``); the black-box mask simulators are gone and
        nothing selects an aggregator any more."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.secagg.protocol")
        selectors = []
        for package in ("mechanisms", "core"):
            for path in sorted((SRC / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    arguments = node.args
                    for arg in (
                        arguments.posonlyargs
                        + arguments.args
                        + arguments.kwonlyargs
                    ):
                        if arg.arg in ("aggregator", "secagg_factory"):
                            selectors.append((path.name, node.name, arg.arg))
        assert selectors == []

    def test_an_unmask_response_has_one_representation(self):
        """One class, and ``encode_message`` / ``iter_frames`` its one
        encoder and decoder: the per-frame twins' names stay unused."""
        defined = {
            node.name
            for node in ast.walk(
                ast.parse((SRC / "secagg" / "wire.py").read_text())
            )
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
        }
        assert "UnmaskResponse" in defined and "encode_message" in defined
        assert not defined & {
            "UnmaskColumns",
            "to_response",
            "encode_unmask_columns",
            "decode_unmask_columns",
            "encode_masked_input",
        }
