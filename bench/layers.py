"""The traced pass: every layer timed from outside, by module name.

Three kinds of measurement, all recorded as spans by :mod:`spans`:

* kernels — one public function per call on the shapes the workloads
  use, on fresh inputs every call so neither the mask-PRG memo nor the
  key-agreement cache can answer;
* decompositions — each workload's round rebuilt here from the layers'
  public pieces with a span around every stage, checked against the
  real driver, and timed beside it (``trace.overhead_ratio.*``);
* the socket service — one server subprocess, metered by itself.

It is one pass for all workloads: a per-layer number describes the
code, so it reads the same whichever workload the run was asked for.
"""

from __future__ import annotations

import asyncio
import math
import resource
import statistics
import time

import numpy as np

import workloads
from workloads import MODULUS, THRESHOLD_FRACTION, direct_sum, random_vectors

from repro.accounting.rdp import RdpAccountant
from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.core.client import skellam_encoder
from repro.core.clipping import clip_gradient
from repro.core.server import GradientDecoder
from repro.fl.data import mnist_surrogate
from repro.fl.model import MLPClassifier
from repro.linalg.hadamard import RandomRotation
from repro.linalg.modular import horner_mod, mul_mod
from repro.mechanisms.base import InputSpec
from repro.mechanisms.smm import SkellamMixtureMechanism
from repro.net import (
    SecAggServer,
    ServerConfig,
    encode_datagram,
    read_datagram,
    run_swarm,
)
from repro.resilience.journal import RoundJournal
from repro.sampling.fast import bernoulli_round, skellam_noise
from repro.secagg import (
    DEFAULT_FIELD,
    PHASE_TAGS,
    PROTOCOL_V1,
    TOY_GROUP,
    ClientSession,
    MaskedInput,
    ServerSession,
    TreeTopology,
    agree,
    decode_frames,
    encode_message,
    generate_keypair,
    get_mask_prg,
    reconstruct_secrets,
    run_bonawitz,
    run_composition_round,
    split_secrets,
    sum_signed_masks,
)
from repro.secagg.bonawitz import (
    ROUND_MASKED_INPUT,
    ROUND_UNMASK,
    warm_pairwise_agreements,
)
from repro.secagg.keys import X25519_GROUP, agree_batch
from repro.secagg.wire import intern_header
from repro.simulation import (
    AsyncSecAggRound,
    BernoulliDropout,
    HierarchicalSecAggRound,
    Population,
    SimulatedClock,
    SimulationConfig,
    get_execution_backend,
    shamir_threshold,
)
from repro.simulation.population import PURPOSE_ENCODING, PURPOSE_PROTOCOL
from repro.telemetry import MetricsRegistry

#: Phase tags as they appear in metric names.
PHASES = [PHASE_TAGS[phase].replace("-", "_") for phase in sorted(PHASE_TAGS)]
BACKENDS = ("inline", "process", "process-pickle")


def fresh_prg():
    """A new instance of the default mask PRG: same algorithm, empty memo."""
    return type(get_mask_prg(None))()


def timer(tracer, repeats):
    """``seconds(name, call, make)``: the median seconds of ``call(make())``
    over ``repeats`` calls, each on fresh inputs and under its own span."""

    def seconds(name, call, make=lambda: None, repeats=repeats):
        for _ in range(repeats):
            x = make()
            with tracer.span(name):
                call(x)
        return statistics.median(tracer.durations(name)[-repeats:])

    return seconds


# -- kernels ------------------------------------------------------------------


def kernel_metrics(tracer, sizes, seed: int, repeats: int, out) -> dict:
    seconds = timer(tracer, repeats)
    rng = np.random.default_rng(seed)
    prg = get_mask_prg(None)
    field = DEFAULT_FIELD
    prime = field.prime
    m = {}

    def seeds(count):
        return [rng.bytes(32) for _ in range(count)]

    m["kernels.expand_masks_per_s_d16"] = 2048 / seconds(
        "kernels.expand_batch_d16",
        lambda s: prg.expand_batch(s, 16, MODULUS),
        lambda: seeds(2048),
    )
    m["kernels.expand_mib_per_s_d8192"] = 32 * 8192 * 8 / 2**20 / seconds(
        "kernels.expand_batch_d8192",
        lambda s: prg.expand_batch(s, 8192, MODULUS),
        lambda: seeds(32),
    )
    signs = [1 if i % 2 else -1 for i in range(32)]
    m["kernels.sum_signed_masks_ms"] = 1e3 * seconds(
        "kernels.sum_signed_masks",
        lambda s: sum_signed_masks(s, signs, 8192, MODULUS),
        lambda: seeds(32),
    )

    def peers(group, count):
        own = generate_keypair(rng, group)
        return own.private, [
            generate_keypair(rng, group).public for _ in range(count)
        ]

    count = 256
    m["keys.keypair_us"] = 1e6 / count * seconds(
        "keys.generate_keypair",
        lambda _: [generate_keypair(rng, TOY_GROUP) for _ in range(count)],
    )
    # No own_public is passed, so the pair cache is never consulted.
    m["keys.agree_us"] = 1e6 / count * seconds(
        "keys.agree",
        lambda k: [agree(k[0], peer, TOY_GROUP) for peer in k[1]],
        lambda: peers(TOY_GROUP, count),
    )
    m["keys.agree_batch_pairs_per_s"] = count / seconds(
        "keys.agree_batch",
        lambda k: agree_batch(k[0], k[1], TOY_GROUP),
        lambda: peers(TOY_GROUP, count),
    )
    m["keys.x25519_agree_us"] = 1e6 / 64 * seconds(
        "keys.x25519_agree",
        lambda k: [agree(k[0], peer, X25519_GROUP) for peer in k[1]],
        lambda: peers(X25519_GROUP, 64),
    )

    # Shamir at the secagg_quadratic shape (split) and the
    # secagg_recovery shape (reconstruct: one secret per victim).
    def secrets(count):
        return [int(v) for v in rng.integers(0, prime, size=count)]

    shares = sizes["secagg_quadratic"]["clients"]
    threshold = shamir_threshold(THRESHOLD_FRACTION, shares)
    m["shamir.split_shares_per_s"] = 6 * shares / seconds(
        "shamir.split_secrets",
        lambda s: split_secrets(s, threshold, shares, rng, field),
        lambda: secrets(6),
    )
    recovery = sizes["secagg_recovery"]
    points = shamir_threshold(THRESHOLD_FRACTION, recovery["clients"])
    victims = int(recovery["victims"] * recovery["clients"])
    xs = list(range(1, points + 1))
    m["shamir.reconstruct_shares_per_s"] = victims * points / seconds(
        "shamir.reconstruct_secrets",
        lambda rows: reconstruct_secrets(xs, rows, field),
        lambda: [
            [int(y) for y in row]
            for row in split_secrets(secrets(victims), points, points, rng, field)
        ],
    )

    lanes = 1 << 20
    m["linalg.mul_mod_mops"] = lanes / 1e6 / seconds(
        "linalg.mul_mod",
        lambda ab: mul_mod(ab[0], ab[1], prime),
        lambda: rng.integers(0, prime, size=(2, lanes), dtype=np.uint64),
    )
    polys = 64
    at = np.arange(1, shares + 1, dtype=np.uint64)
    m["linalg.horner_mod_mops"] = polys * (threshold - 1) * shares / 1e6 / seconds(
        "linalg.horner_mod",
        lambda c: horner_mod(c, at, prime),
        lambda: rng.integers(0, prime, size=(polys, threshold), dtype=np.uint64),
    )

    header = intern_header(PROTOCOL_V1, prg.name)
    frames = 512
    encoded = []
    m["wire.encode_frames_per_s"] = frames / seconds(
        "wire.encode_message",
        lambda vectors: encoded.append(
            b"".join(
                encode_message(MaskedInput(u + 1, vector), header)
                for u, vector in enumerate(vectors)
            )
        ),
        lambda: rng.integers(0, MODULUS, size=(frames, 64), dtype=np.int64),
    )
    m["wire.decode_frames_per_s"] = frames / seconds(
        "wire.decode_frames", decode_frames, encoded.pop
    )

    async def through_stream(blobs):
        reader = asyncio.StreamReader()
        for blob in blobs:
            reader.feed_data(encode_datagram(blob))
        reader.feed_eof()
        for _ in blobs:
            await read_datagram(reader)

    payload = 64 * 1024
    m["net.datagram_mib_per_s"] = 64 * payload / 2**20 / seconds(
        "net.datagram",
        lambda blobs: asyncio.run(through_stream(blobs)),
        lambda: [rng.bytes(payload) for _ in range(64)],
    )

    with RoundJournal(out / "journal.jsonl") as journal:
        m["journal.append_us"] = 1e6 * seconds(
            "journal.append",
            journal.append,
            lambda: {"kind": "phase", "round": 1, "phase": "share-keys"},
            repeats=20 * repeats,
        )
    journal.path.unlink()

    population = Population(
        2048, BernoulliDropout(workloads.DROPOUT_RATE), seed=seed
    )
    rounds = iter(range(16 * repeats))
    m["population.sample_cohort_ms"] = 1e3 * seconds(
        "population.sample_cohort",
        lambda k: population.sample_cohort(k, 32),
        lambda: next(rounds),
        repeats=4 * repeats,
    )
    m["population.plans_ms"] = 1e3 * seconds(
        "population.plans",
        lambda k: population.plans(k, population.sample_cohort(k, 32)),
        lambda: next(rounds),
        repeats=4 * repeats,
    )
    return m


# -- the SMM pipeline, stage by stage -----------------------------------------


class Pipeline:
    """The smm_train_wide round rebuilt from public pieces, outside the
    engine, with the engine's own defaults."""

    STAGES = ("gradients", "encode", "secagg", "decode", "ledger")

    def __init__(self, tracer, sizes: dict, seed: int, rounds: int) -> None:
        defaults = SimulationConfig()
        self.tracer = tracer
        self.cohort = sizes["cohort"]
        self.delta = defaults.delta
        self.rate = self.cohort / sizes["population"]
        self.population = Population(
            sizes["population"],
            BernoulliDropout(workloads.DROPOUT_RATE),
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        self.train, test = mnist_surrogate(
            rng, sizes["population"], defaults.test_records
        )
        self.model = MLPClassifier(
            [
                self.train.num_features,
                sizes["hidden"],
                max(self.train.num_classes, test.num_classes),
            ],
            rng,
        )
        compression = CompressionConfig(
            modulus=MODULUS, gamma=defaults.gamma
        )
        budget = PrivacyBudget(epsilon=workloads.EPSILON, delta=self.delta)
        self.mechanism = SkellamMixtureMechanism(compression)
        with tracer.span("core.calibrate"):
            self.mechanism.calibrate(
                InputSpec(self.cohort, self.model.num_parameters),
                AccountingSpec(budget, rounds=rounds, sampling_rate=self.rate),
            )
        self.rotation = RandomRotation.create(self.model.num_parameters, rng)
        self.encoder = skellam_encoder(
            self.rotation, compression, self.mechanism.clip, self.mechanism.lam
        )
        self.decoder = GradientDecoder(
            self.rotation, compression, warn_on_saturation=False
        )
        self.ledger = RdpAccountant(orders=budget.orders)

    def round(self, index: int) -> bool:
        span = self.tracer.span
        population = self.population
        cohort = population.sample_cohort(index, self.cohort)
        batch = self.train.subset(np.asarray([u - 1 for u in cohort]))
        with span("engine.gradients"):
            gradients = self.model.per_example_gradients(
                batch.features, batch.labels
            )
        with span("engine.encode"):
            vectors = {
                client: self.encoder.encode(
                    gradients[position],
                    population.client_rng(index, client, PURPOSE_ENCODING),
                )
                for position, client in enumerate(cohort)
            }
        with span("engine.secagg"):
            clock = SimulatedClock()
            outcome = clock.run(
                AsyncSecAggRound(
                    vectors,
                    MODULUS,
                    shamir_threshold(THRESHOLD_FRACTION, len(cohort)),
                    clock,
                    population.round_rng(index, PURPOSE_PROTOCOL),
                    plans=population.plans(index, cohort),
                    mask_prg=fresh_prg(),
                ).run()
            )
        with span("engine.decode"):
            self.decoder.decode(outcome.modular_sum)
        with span("engine.ledger"):
            contributors = max(
                1,
                math.floor(self.cohort * len(outcome.included) / len(cohort)),
            )
            self.ledger.step_subsampled(
                self.mechanism.per_round_rdp_curve(contributors), self.rate
            )
            epsilon = self.ledger.epsilon(self.delta)
        return math.isfinite(epsilon) and np.array_equal(
            outcome.modular_sum, direct_sum(vectors, outcome.included)
        )


def pipeline_metrics(tracer, sizes, seed, rounds, repeats, check) -> dict:
    metrics = {}
    pipeline = Pipeline(tracer, sizes, seed, rounds)
    metrics["core.calibrate_s"] = tracer.durations("core.calibrate")[-1]

    # The rebuilt rounds run first, on their own PRG instance, so the
    # engine below expands every mask itself, as it does in the workload.
    for index in range(1, rounds + 1):
        tracer.round_id = index
        with tracer.span("round.smm_train_wide"):
            check(pipeline.round(index), "rebuilt SMM round")
    tracer.round_id = None
    rebuilt_round = statistics.median(tracer.durations("round.smm_train_wide"))
    engine = workloads.SmmTrainWide({**sizes, "rounds": rounds})
    samples = engine.step(seed)
    check(all(sample.ok for sample in samples), "engine rounds")
    engine_round = statistics.median(sample.seconds for sample in samples)
    stages = {
        stage: sum(tracer.durations(f"engine.{stage}"))
        for stage in Pipeline.STAGES
    }
    covered = sum(stages.values())
    for stage, spent in stages.items():
        metrics[f"engine.stage_share.{stage}"] = spent / covered
    metrics["trace.coverage"] = covered / rounds / engine_round
    metrics["trace.overhead_ratio.smm_train_wide"] = rebuilt_round / engine_round

    # The same stages as single calls, at the engine's shapes.
    seconds = timer(tracer, repeats)
    rng = np.random.default_rng(seed)
    model, encoder, mechanism = pipeline.model, pipeline.encoder, pipeline.mechanism
    batch = pipeline.train.subset(np.arange(pipeline.cohort))
    width, padded = model.num_parameters, pipeline.rotation.padded_dim
    draws = pipeline.cohort * padded

    def gradient():
        return rng.normal(size=width) / math.sqrt(width)

    metrics["fl.per_example_grad_ms"] = 1e3 * seconds(
        "fl.per_example_gradients",
        lambda _: model.per_example_gradients(batch.features, batch.labels),
    )
    metrics["linalg.fwht_ms_d8192"] = 1e3 * seconds(
        "linalg.rotation_forward", pipeline.rotation.forward, gradient
    )
    metrics["core.encode_vec_ms"] = 1e3 * seconds(
        "core.encode", lambda g: encoder.encode(g, rng), gradient
    )
    metrics["core.clip_ms"] = 1e3 * seconds(
        "core.clip_gradient",
        lambda v: clip_gradient(v, encoder.clip),
        lambda: encoder.compression.gamma * rng.normal(size=padded),
    )
    metrics["core.decode_ms"] = 1e3 * seconds(
        "core.decode",
        pipeline.decoder.decode,
        lambda: rng.integers(0, MODULUS, size=padded),
    )
    metrics["sampling.skellam_msamples_per_s"] = draws / 1e6 / seconds(
        "sampling.skellam_noise",
        lambda _: skellam_noise(mechanism.lam, (draws,), rng),
    )
    metrics["sampling.bernoulli_round_msamples_per_s"] = draws / 1e6 / seconds(
        "sampling.bernoulli_round",
        lambda v: bernoulli_round(v, rng),
        lambda: rng.normal(scale=8.0, size=draws),
    )

    # A survivor count the ledger has not seen: the curve is evaluated
    # at every order, which is what a round with new dropouts pays.
    def ledger_step(contributors):
        ledger = RdpAccountant(orders=pipeline.ledger.orders)
        ledger.step_subsampled(
            mechanism.per_round_rdp_curve(contributors), pipeline.rate
        )
        ledger.epsilon(pipeline.delta)

    survivors = iter(range(pipeline.cohort, 0, -1))
    metrics["accounting.ledger_step_ms"] = 1e3 * seconds(
        "accounting.ledger_step", ledger_step, lambda: next(survivors)
    )
    return metrics


# -- the Bonawitz round, driven by hand ---------------------------------------


def hand_driven_round(tracer, name, inputs, threshold, rng, dropouts=None):
    """``run_bonawitz``'s loop with a span around every session call.

    Per-client generators are drawn exactly as ``run_bonawitz`` draws
    them, so the same ``rng`` state gives the same aggregate.  Returns
    the server session, the seconds of each stage by span name, and the
    seconds of the whole round.
    """
    dropouts = dropouts or {}
    span = tracer.span
    clients, dimension = inputs.shape
    first = len(tracer.spans)

    def alive(index, phase):
        return dropouts.get(index, ROUND_UNMASK + 1) > phase

    with span(f"round.{name}"):
        with span("session.construct"):
            sessions = {
                index: ClientSession(
                    index=index,
                    vector=inputs[index - 1],
                    modulus=MODULUS,
                    threshold=threshold,
                    rng=np.random.default_rng(rng.integers(0, 2**63 - 1)),
                    group=TOY_GROUP,
                    field=DEFAULT_FIELD,
                )
                for index in range(1, clients + 1)
            }
            server = ServerSession(
                MODULUS, dimension, threshold, DEFAULT_FIELD, TOY_GROUP
            )
        deliveries: dict[int, bytes] = {}
        for phase, tag in enumerate(PHASES):
            with span(f"session.client.{tag}"):
                if phase == 0:
                    uploads = {
                        u: b"".join(sessions[u].start())
                        for u in sessions
                        if alive(u, phase)
                    }
                else:
                    uploads = {}
                    for u in sorted(deliveries):
                        if alive(u, phase):
                            responses = sessions[u].handle(deliveries[u])
                            if responses and sessions[u].rejected is None:
                                uploads[u] = b"".join(responses)
            with span(f"session.server.receive.{tag}"):
                for u, datagram in uploads.items():
                    server.receive(datagram, sender=u)
            with span(f"session.server.advance.{tag}"):
                deliveries = server.advance()
            if phase == 0:
                with span("keys.warm_pairwise_agreements"):
                    warm_pairwise_agreements(
                        [sessions[u].crypto for u in sorted(server.expected)]
                    )
    (_, started, ended, _, _), *stages = tracer.spans[first:]
    return (
        server,
        {stage: end - start for stage, start, end, _, _ in stages},
        ended - started,
    )


def session_metrics(tracer, sizes, seed, pairs, check) -> dict:
    """``pairs`` hand-driven rounds per shape, each beside one round of
    the real driver on another seed (so neither is served from the
    other's caches), alternating which of the two goes first."""
    metrics = {}
    median = statistics.median

    def paired(name, traced, untraced):
        stages, walls, reference = [], [], []

        def traced_side(pair):
            _, spent, wall = traced(seed + 2 * pair)
            stages.append(spent)
            walls.append(wall)

        def untraced_side(pair):
            reference.append(untraced(seed + 2 * pair + 1))

        for pair in range(pairs):
            tracer.round_id = pair
            order = (traced_side, untraced_side)
            for side in order if pair % 2 else reversed(order):
                side(pair)
        tracer.round_id = None
        metrics[f"session.span_coverage.{name}"] = median(
            sum(spent.values()) for spent in stages
        ) / median(reference)
        metrics[f"trace.overhead_ratio.{name}"] = median(walls) / median(
            reference
        )
        return (
            {stage: median(s[stage] for s in stages) for stage in stages[0]},
            median(walls),
            median(reference),
        )

    # secagg_quadratic: hand-driven against run_bonawitz.
    shape = sizes["secagg_quadratic"]
    clients = shape["clients"]
    threshold = shamir_threshold(THRESHOLD_FRACTION, clients)

    def quadratic_inputs(round_seed):
        rng = np.random.default_rng(round_seed)
        return rng, rng.integers(
            0, MODULUS, size=(clients, shape["dimension"]), dtype=np.int64
        )

    def hand_driven(round_seed):
        rng, inputs = quadratic_inputs(round_seed)
        return hand_driven_round(
            tracer, "secagg_quadratic", inputs, threshold, rng
        )

    def reference_driver(round_seed):
        sample = workloads.SecAggQuadratic(shape).step(round_seed)[0]
        check(sample.ok, "run_bonawitz round")
        return sample.seconds

    spent, _, _ = paired("secagg_quadratic", hand_driven, reference_driver)
    metrics["session.construct_s"] = spent["session.construct"]
    for tag in PHASES:
        metrics[f"session.client.{tag}_s"] = spent[f"session.client.{tag}"]
        for side in ("receive", "advance"):
            metrics[f"session.server.{side}_s.{tag}"] = spent[
                f"session.server.{side}.{tag}"
            ]
    # The same seed through both (memo-warm the second time, so not
    # timed): the hand-driven loop is the same protocol, byte for byte.
    server, _, _ = hand_driven(seed)
    rng, inputs = quadratic_inputs(seed)
    reference = run_bonawitz(inputs, MODULUS, threshold, rng)
    check(
        np.array_equal(server.modular_sum, reference.modular_sum)
        and np.array_equal(server.modular_sum, inputs.sum(axis=0) % MODULUS)
        and server.stats.total_bytes == reference.wire.total_bytes,
        "hand-driven round equals run_bonawitz",
    )
    totals = server.stats.phase_totals()
    for phase, tag in enumerate(PHASES):
        entry = totals[PHASE_TAGS[phase]]
        metrics[f"wire.bytes.{tag}"] = entry["up_bytes"] + entry["down_bytes"]

    # secagg_recovery: hand-driven against AsyncSecAggRound.
    shape = sizes["secagg_recovery"]
    clients = shape["clients"]

    def hand_driven_recovery(round_seed):
        rng = np.random.default_rng(round_seed)
        inputs = rng.integers(
            0, MODULUS, size=(clients, shape["dimension"]), dtype=np.int64
        )
        victims = workloads.victim_plans(rng, clients, shape["victims"])
        result = hand_driven_round(
            tracer, "secagg_recovery", inputs,
            shamir_threshold(THRESHOLD_FRACTION, clients), rng,
            dropouts={u: ROUND_MASKED_INPUT for u in victims},
        )
        survivors = [u - 1 for u in range(1, clients + 1) if u not in victims]
        check(
            np.array_equal(
                result[0].modular_sum,
                inputs[survivors].sum(axis=0) % MODULUS,
            ),
            "hand-driven recovery round",
        )
        return result

    def async_driver(round_seed):
        sample = workloads.SecAggRecovery(shape).step(round_seed)[0]
        check(sample.ok, "AsyncSecAggRound recovery round")
        return sample.seconds

    spent, traced, untraced = paired(
        "secagg_recovery", hand_driven_recovery, async_driver
    )
    metrics["bonawitz.recover_sum_s"] = spent["session.server.advance.unmask"]
    metrics["rounds.driver_overhead_s"] = untraced - traced

    # What metering costs the same driver, interleaved.
    small = {**shape, "clients": min(clients, 64)}
    walls = {True: [], False: []}
    for k in range(4 * pairs):
        metered = k % 4 in (1, 2)
        rng = np.random.default_rng(seed + 100 + k)
        vectors = random_vectors(
            rng, range(1, small["clients"] + 1), small["dimension"]
        )
        clock = SimulatedClock()
        started = time.perf_counter()
        clock.run(
            AsyncSecAggRound(
                vectors,
                MODULUS,
                shamir_threshold(THRESHOLD_FRACTION, small["clients"]),
                clock,
                rng,
                metrics=MetricsRegistry() if metered else None,
            ).run()
        )
        walls[metered].append(time.perf_counter() - started)
    metrics["telemetry.overhead_ratio"] = median(walls[True]) / median(walls[False])
    return metrics


# -- the aggregation tree ------------------------------------------------------


def tree_metrics(tracer, sizes, seed, rounds, check) -> dict:
    shape = sizes["tree_secagg"]
    metrics = {}

    def node_sum(node, vectors, plans, rng):
        """Leaf rounds, then one composition round per interior node."""
        if node.is_leaf:
            clock = SimulatedClock()
            with tracer.span("hierarchy.leaf_round"):
                return clock.run(
                    AsyncSecAggRound(
                        {u: vectors[u] for u in node.members},
                        MODULUS,
                        shamir_threshold(
                            THRESHOLD_FRACTION, len(node.members)
                        ),
                        clock,
                        rng,
                        plans={u: plans[u] for u in node.members},
                    ).run()
                ).modular_sum
        sums = [node_sum(child, vectors, plans, rng) for child in node.children]
        with tracer.span("tree.compose"):
            return run_composition_round(sums, MODULUS, rng)[0]

    rebuilt, real = [], []
    for index in range(rounds):
        tracer.round_id = index
        population = Population(
            shape["population"],
            BernoulliDropout(workloads.DROPOUT_RATE),
            seed=seed + index,
        )
        cohort = population.client_indices
        rng = np.random.default_rng(seed + index)
        vectors = random_vectors(rng, cohort, shape["dimension"])
        plans = population.plans(0, cohort)
        root = TreeTopology.parse(shape["topology"]).partition(cohort)
        with tracer.span("round.tree_secagg"):
            total = node_sum(root, vectors, plans, rng)
        rebuilt.append(tracer.durations("round.tree_secagg")[-1])
        survivors = [
            u for u in cohort if plans[u].responds_at(ROUND_MASKED_INPUT)
        ]
        check(
            np.array_equal(total, direct_sum(vectors, survivors)),
            "rebuilt tree round",
        )
        sample = workloads.TreeSecAgg(shape).step(seed + rounds + index)[0]
        check(sample.ok, "HierarchicalSecAggRound")
        real.append(sample.seconds)
    tracer.round_id = None
    metrics["hierarchy.leaf_rounds_s"] = statistics.median(
        tracer.per_round("hierarchy.leaf_round")
    )
    metrics["tree.compose_s"] = statistics.median(
        tracer.per_round("tree.compose")
    )
    metrics["trace.overhead_ratio.tree_secagg"] = statistics.median(
        rebuilt
    ) / statistics.median(real)

    # One level, two shards, clear composition: what each way of
    # executing the shards costs a round, pool already warm.
    members = range(1, shape["population"] // 2 + 1)
    for backend_name in BACKENDS:
        backend = get_execution_backend(backend_name)
        try:
            backend.warm()
            for index in range(rounds):
                rng = np.random.default_rng(seed + 100 + index)
                vectors = random_vectors(rng, members, shape["dimension"])
                with tracer.span(f"sharding.{backend_name}"):
                    outcome = HierarchicalSecAggRound(
                        vectors=vectors,
                        modulus=MODULUS,
                        clock=SimulatedClock(),
                        rng=rng,
                        topology="2",
                        threshold_fraction=THRESHOLD_FRACTION,
                        backend=backend,
                    ).execute()
                check(
                    np.array_equal(
                        outcome.modular_sum, direct_sum(vectors, members)
                    ),
                    f"sharded round on the {backend_name} backend",
                )
        finally:
            backend.close()
        metrics[f"sharding.{backend_name}_round_s"] = statistics.median(
            tracer.durations(f"sharding.{backend_name}")
        )
    return metrics


# -- the socket service --------------------------------------------------------


def replay_ratio(shape, seed, rounds, check) -> float:
    """Round time with one seed replayed ÷ with a fresh seed per round,
    server and swarm in one process (so the client side's memo and DH
    cache can answer the server side's work): how much a benchmark that
    replays its seed flatters the service."""

    def config(round_seed):
        return workloads.swarm_config(shape, round_seed)

    async def serve(seeds):
        server = SecAggServer(
            ServerConfig(
                cohort_size=shape["clients"],
                dimension=shape["dimension"],
                modulus=MODULUS,
                threshold=shape["threshold"],
                rounds=len(seeds),
                metrics_port=None,
            )
        )
        walls = []
        async with server:
            serving = asyncio.ensure_future(server.serve_rounds())
            for round_seed in seeds:
                started = time.perf_counter()
                await run_swarm("127.0.0.1", server.port, config(round_seed))
                walls.append(time.perf_counter() - started)
            results = await asyncio.wait_for(serving, 120)
        for result, round_seed in zip(results, seeds):
            check(
                result.digest == workloads.swarm_digest(config(round_seed)),
                "in-process socket round",
            )
        return statistics.median(walls)

    fresh = asyncio.run(serve([seed + 200 + k for k in range(rounds)]))
    replayed = asyncio.run(serve([seed + 300] * rounds))
    return replayed / fresh


def socket_metrics(tracer, sizes, seed, rounds, out, check) -> dict:
    shape = sizes["socket_swarm"]
    metrics = {}
    swarm = workloads.SocketSwarm(shape, out)
    try:
        swarm.setup(seed + 400)
        client_cpu = -workloads.cpu_seconds(resource.RUSAGE_SELF)
        server_cpu = -swarm.server_cpu_seconds()
        plain, spanned = [], []
        for index in range(2 * rounds):
            if index % 2:
                with tracer.span("round.socket_swarm"):
                    sample = swarm.step(seed + 401 + index)[0]
                spanned.append(sample.seconds)
            else:
                sample = swarm.step(seed + 401 + index)[0]
                plain.append(sample.seconds)
            check(sample.ok, "socket round")
        client_cpu += workloads.cpu_seconds(resource.RUSAGE_SELF)
        server_cpu += swarm.server_cpu_seconds()
    finally:
        wrong = swarm.close()
    check(wrong == 0, "socket digests")
    served = 2 * rounds
    metrics["net.spawn_to_listening_s"] = swarm.spawn_seconds[-1]
    metrics["net.server_cpu_s_per_round"] = server_cpu / served
    metrics["net.client_cpu_s_per_round"] = client_cpu / served
    metrics["net.server_busy_share"] = server_cpu / sum(plain + spanned)
    family = "secagg_phase_wall_duration_seconds"
    for phase, tag in enumerate(PHASES):
        label = ("phase", PHASE_TAGS[phase])
        total, count = (
            sum(
                value
                for (name, labels), value in swarm.metrics.samples.items()
                if name == f"{family}_{part}" and label in labels
            )
            for part in ("sum", "count")
        )
        metrics[f"net.phase_wall_mean_s.{tag}"] = total / count
    metrics["trace.overhead_ratio.socket_swarm"] = statistics.median(
        spanned
    ) / statistics.median(plain)
    metrics["kernels.cache_replay_ratio"] = replay_ratio(
        shape, seed, max(3, rounds), check
    )
    return metrics


def run(tracer, scale: str, seed: int, seconds: float, out) -> tuple[dict, int, int]:
    """The whole traced pass.  Returns the metrics by name (their units
    are BENCHMARK.json's) and how many correctness checks were made and
    how many failed.

    The decompositions run a few rounds each — two, or more when the
    untraced run length ``seconds`` is long — not the workloads' full
    length: their numbers carry no bound.
    """
    sizes = workloads.SIZES[scale]
    quick = scale == "quick"
    repeats = 2 if quick else 5
    rounds = 2 if quick else max(2, round(seconds / 6))
    checks = {"made": 0, "failed": 0}

    def check(ok, what):
        checks["made"] += 1
        if not ok:
            checks["failed"] += 1
            print(f"FAILED check: {what}", flush=True)

    metrics = kernel_metrics(tracer, sizes, seed, repeats, out)
    metrics.update(
        pipeline_metrics(
            tracer, sizes["smm_train_wide"], seed, rounds, repeats, check
        )
    )
    metrics.update(session_metrics(tracer, sizes, seed, rounds, check))
    metrics.update(tree_metrics(tracer, sizes, seed, rounds, check))
    metrics.update(socket_metrics(tracer, sizes, seed, rounds, out, check))
    return metrics, checks["made"], checks["failed"]
