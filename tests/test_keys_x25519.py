"""X25519 key agreement: unit behaviour, negotiation, and digests.

The native Curve25519 backend must be a drop-in peer of the toy
``DhGroup``: same ``agree``/``agree_batch``/``warm_agreement_cache``
surface, same session drivers, and — because pairwise masks cancel —
the same aggregate digest for the same inputs on every transport.  A
client built without the optional ``cryptography`` package must degrade
to the toy group *before* proposing a suite at Hello.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.secagg import keys as keys_module
from repro.secagg.bonawitz import run_bonawitz
from repro.secagg.kernels import DEFAULT_MASK_PRG
from repro.secagg.keys import (
    TOY_GROUP,
    X25519_GROUP,
    DhGroup,
    X25519Group,
    agree,
    agree_batch,
    generate_keypair,
    kex_name,
    key_bits,
    resolve_group,
    warm_agreement_cache,
    x25519_available,
)
from repro.secagg.statemachine import ClientSession, ServerSession
from repro.secagg.wire import split_suite
from repro.simulation.clock import SimulatedClock
from repro.simulation.rounds import AsyncSecAggRound

requires_x25519 = pytest.mark.skipif(
    not x25519_available(), reason="cryptography not installed"
)

MODULUS = 2**31 - 1


def _digest(vector):
    return hashlib.sha256(np.ascontiguousarray(vector).tobytes()).hexdigest()


class TestGroupSurface:
    def test_metadata(self):
        assert kex_name(X25519_GROUP) == "x25519"
        assert kex_name(TOY_GROUP) == "mod-dh"
        assert key_bits(X25519_GROUP) == 256
        assert key_bits(TOY_GROUP) == TOY_GROUP.prime.bit_length()

    def test_split_suite(self):
        assert split_suite("sha256-ctr") == ("sha256-ctr", "mod-dh")
        assert split_suite("shake256+x25519") == ("shake256", "x25519")

    def test_bad_group_name_rejected(self):
        with pytest.raises(ConfigurationError):
            X25519Group(name="p256")

    @requires_x25519
    def test_resolve_is_identity_when_available(self):
        assert resolve_group(X25519_GROUP) is X25519_GROUP
        assert resolve_group(TOY_GROUP) is TOY_GROUP

    def test_resolve_falls_back_without_cryptography(self, monkeypatch):
        monkeypatch.setattr(keys_module, "_x25519_module", False)
        assert resolve_group(X25519_GROUP) is TOY_GROUP
        assert resolve_group(TOY_GROUP) is TOY_GROUP


@requires_x25519
class TestAgreement:
    def test_agree_is_symmetric(self):
        rng = np.random.default_rng(5)
        alice = generate_keypair(rng, X25519_GROUP)
        bob = generate_keypair(rng, X25519_GROUP)
        shared_ab = agree(alice.private, bob.public, X25519_GROUP)
        shared_ba = agree(bob.private, alice.public, X25519_GROUP)
        assert shared_ab == shared_ba
        assert len(shared_ab) == 32
        assert shared_ab != agree(
            alice.private, generate_keypair(rng, X25519_GROUP).public,
            X25519_GROUP,
        )

    def test_matches_cryptography_directly(self):
        from cryptography.hazmat.primitives.asymmetric.x25519 import (
            X25519PrivateKey,
        )

        rng = np.random.default_rng(11)
        ours = generate_keypair(rng, X25519_GROUP)
        theirs = X25519PrivateKey.generate()
        their_public = int.from_bytes(
            theirs.public_key().public_bytes_raw(), "little"
        )
        expected = hashlib.sha256(
            theirs.exchange(
                keys_module._x25519_private(ours.private).public_key()
            )
        ).digest()
        assert agree(ours.private, their_public, X25519_GROUP) == expected

    def test_degenerate_peer_rejected(self):
        rng = np.random.default_rng(3)
        pair = generate_keypair(rng, X25519_GROUP)
        for bad in (0, 1 << 256):
            with pytest.raises(ConfigurationError, match="x25519"):
                agree(pair.private, bad, X25519_GROUP)

    def test_agree_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        me = generate_keypair(rng, X25519_GROUP)
        peers = [generate_keypair(rng, X25519_GROUP) for _ in range(6)]
        batched = agree_batch(
            me.private, [p.public for p in peers], X25519_GROUP,
            own_public=me.public,
        )
        assert batched == [
            agree(me.private, p.public, X25519_GROUP) for p in peers
        ]

    def test_warm_cache_feeds_agree(self):
        rng = np.random.default_rng(13)
        pairs = {
            u: generate_keypair(rng, X25519_GROUP) for u in range(1, 6)
        }
        warmed = warm_agreement_cache(
            {u: p.private for u, p in pairs.items()},
            {u: p.public for u, p in pairs.items()},
            X25519_GROUP,
        )
        assert warmed == 5 * 4 // 2
        assert agree(
            pairs[1].private, pairs[4].public, X25519_GROUP
        ) == agree(pairs[4].private, pairs[1].public, X25519_GROUP)

    def test_keypair_validates_public(self):
        rng = np.random.default_rng(21)
        pair = generate_keypair(rng, X25519_GROUP)
        keys_module.KeyPair(
            private=pair.private, public=pair.public, group=X25519_GROUP
        )
        with pytest.raises(ConfigurationError, match="does not match"):
            keys_module.KeyPair(
                private=pair.private, public=9, group=X25519_GROUP
            )


class TestNegotiation:
    @requires_x25519
    def test_suite_strings(self):
        rng = np.random.default_rng(1)
        vector = np.zeros(4, dtype=np.int64)
        toy = ClientSession(1, vector, MODULUS, 2, rng, TOY_GROUP)
        curve = ClientSession(2, vector, MODULUS, 2, rng, X25519_GROUP)
        assert toy.header.mask_prg == DEFAULT_MASK_PRG.name
        assert curve.header.mask_prg == f"{DEFAULT_MASK_PRG.name}+x25519"

    @requires_x25519
    def test_kex_mismatch_rejected_at_hello(self):
        rng = np.random.default_rng(2)
        vector = np.zeros(4, dtype=np.int64)
        server = ServerSession(MODULUS, 4, 2, group=TOY_GROUP)
        client = ClientSession(1, vector, MODULUS, 2, rng, X25519_GROUP)
        for frame in client.start():
            server.receive(frame, sender=1)
        assert "key-agreement backend 'x25519'" in server.rejections[1]

    def test_client_without_cryptography_falls_back(self, monkeypatch):
        monkeypatch.setattr(keys_module, "_x25519_module", False)
        rng = np.random.default_rng(3)
        vectors = rng.integers(0, 100, size=(5, 8))
        # Both sides configured for x25519 degrade to the toy group and
        # the round completes — no Reject, bare suite on the wire.
        outcome = run_bonawitz(
            vectors, modulus=MODULUS, threshold=3,
            rng=np.random.default_rng(4), group=X25519_GROUP,
        )
        assert len(outcome.included) == 5
        rng2 = np.random.default_rng(5)
        session = ClientSession(
            1, vectors[0], MODULUS, 3, rng2, X25519_GROUP
        )
        assert session.header.mask_prg == DEFAULT_MASK_PRG.name

    def test_requesting_x25519_explicitly_raises_without_lib(
        self, monkeypatch
    ):
        monkeypatch.setattr(keys_module, "_x25519_module", False)
        with pytest.raises(ConfigurationError, match="cryptography"):
            generate_keypair(np.random.default_rng(1), X25519_GROUP)


@requires_x25519
class TestCrossBackendDigests:
    """Same inputs, same dropout schedule → same aggregate digest."""

    def _vectors(self, n=10, d=16):
        rng = np.random.default_rng(20220601)
        return rng.integers(0, 1000, size=(n, d))

    @pytest.mark.parametrize("dropouts", [None, {3: 2, 7: 3}])
    def test_run_bonawitz(self, dropouts):
        digests = {}
        for group in (TOY_GROUP, DhGroup(), X25519_GROUP):
            outcome = run_bonawitz(
                self._vectors(), modulus=MODULUS, threshold=5,
                rng=np.random.default_rng(7), group=group,
                dropouts=dict(dropouts) if dropouts else None,
            )
            digests[kex_name(group), key_bits(group)] = (
                _digest(outcome.modular_sum), outcome.included
            )
        assert len(set(digests.values())) == 1

    def test_async_round(self):
        digests = {}
        for group in (TOY_GROUP, X25519_GROUP):
            clock = SimulatedClock()
            vectors = {
                u + 1: row for u, row in enumerate(self._vectors(8, 12))
            }
            secagg_round = AsyncSecAggRound(
                vectors=vectors, modulus=MODULUS, threshold=5,
                clock=clock, rng=np.random.default_rng(9), group=group,
            )
            outcome = clock.run(secagg_round.run())
            digests[kex_name(group)] = (
                _digest(outcome.modular_sum), outcome.included
            )
        assert digests["mod-dh"] == digests["x25519"]

    def test_net_swarm(self):
        from repro.net import (
            SecAggServer, ServerConfig, SwarmConfig, expected_digest,
            run_swarm,
        )

        swarm_cfg = SwarmConfig(clients=8, threshold=4, dropouts=2, seed=42)

        async def scenario():
            server = SecAggServer(
                ServerConfig(
                    cohort_size=8, threshold=4, group=X25519_GROUP
                )
            )
            async with server:
                swarm_task = asyncio.ensure_future(
                    run_swarm(
                        "127.0.0.1", server.port, swarm_cfg,
                        group=X25519_GROUP,
                    )
                )
                results = await asyncio.wait_for(server.serve_rounds(), 60.0)
                await swarm_task
            return results

        (result,) = asyncio.run(scenario())
        assert result.aborted is None
        # The toy-DH reference digest: masks cancel, so the aggregate is
        # backend-independent for the same seeds and schedule.
        assert result.digest == expected_digest(swarm_cfg)
