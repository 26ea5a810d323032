"""The five benchmark workloads.

Every workload is closed-loop with one round in flight.  ``setup(seed)``
builds what the workload needs and runs one untimed warm-up round;
``step(seed)`` runs the next round(s) on inputs generated from ``seed``
alone, times only the call into the system under test, and checks the
result against the survivors' direct modular sum.  No two steps of a
run share a seed, so no round is served from the mask-PRG memo or the
key-agreement cache that a previous round filled.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import math
import os
import pathlib
import resource
import signal
import subprocess
import sys
import time

import numpy as np

from repro.net import SwarmConfig, expected_digest, run_swarm
from repro.net.swarm import derive_population, dropout_schedule
from repro.secagg import run_bonawitz
from repro.secagg.bonawitz import ROUND_MASKED_INPUT
from repro.simulation import (
    AsyncSecAggRound,
    BernoulliDropout,
    ClientPlan,
    HierarchicalSecAggRound,
    Population,
    SimulatedClock,
    SimulationConfig,
    SimulationEngine,
    shamir_threshold,
)
from repro.simulation.population import PURPOSE_PROTOCOL
from repro.telemetry import parse_prometheus

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULUS = 2**16
THRESHOLD_FRACTION = 0.6
DROPOUT_RATE = 0.1
EPSILON = 5.0
#: Calibration bisects the noise to 1e-4, so a dropout-free run spends
#: the budget to within that; dropouts only ever add to it.
EPSILON_FLOOR = EPSILON * (1 - 1e-3)

#: Workload shapes.  ``quick`` exists for bench/test_bench.py only.
SIZES = {
    "full": {
        # Everyone takes part in every round (sampling rate 1), so the
        # cohort, and with it the round's work, does not depend on the seed.
        # Cohorts and tree leaves of 32 keep a 10% dropout rate from ever
        # reaching the 40% that aborts a round (about 5e-6 per round).
        "smm_train_wide": dict(population=32, cohort=32, rounds=6, hidden=8),
        "secagg_quadratic": dict(clients=128, dimension=16),
        "secagg_recovery": dict(clients=96, dimension=64, victims=0.3),
        "tree_secagg": dict(population=256, topology="4x2", dimension=64),
        "socket_swarm": dict(clients=64, threshold=32, dimension=64, dropouts=6),
    },
    "quick": {
        "smm_train_wide": dict(population=16, cohort=16, rounds=2, hidden=2),
        "secagg_quadratic": dict(clients=12, dimension=8),
        "secagg_recovery": dict(clients=12, dimension=8, victims=0.3),
        "tree_secagg": dict(population=32, topology="2x2", dimension=8),
        "socket_swarm": dict(clients=8, threshold=4, dimension=8, dropouts=1),
    },
}


@dataclasses.dataclass
class Sample:
    """One round: wall seconds inside the system, verdict, traffic."""

    seconds: float
    ok: bool
    wire_bytes: int
    clients: int


def direct_sum(vectors, members) -> np.ndarray:
    """The oracle: ``Σ_{u ∈ members} x_u mod m`` computed in the clear."""
    return np.sum([vectors[member] for member in members], axis=0) % MODULUS


def random_vectors(rng, members, dimension) -> dict[int, np.ndarray]:
    return {
        u: rng.integers(0, MODULUS, size=dimension, dtype=np.int64)
        for u in members
    }


def victim_plans(rng, clients: int, share: float) -> dict[int, ClientPlan]:
    """A ``share`` of the cohort goes silent right after sharing keys."""
    victims = rng.permutation(np.arange(1, clients + 1))[: int(share * clients)]
    return {int(u): ClientPlan(drop_phase=ROUND_MASKED_INPUT) for u in victims}


def cpu_seconds(who: int) -> float:
    """User + system CPU seconds ``getrusage`` reports for ``who``."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Workload:
    name = ""

    def __init__(self, sizes: dict, out: pathlib.Path | None = None) -> None:
        self.sizes = sizes
        self.out = out
        self.info: dict = {}

    def setup(self, seed: int) -> None:
        self.step(seed)

    def step(self, seed: int) -> list[Sample]:
        raise NotImplementedError

    def close(self) -> int:
        """Release resources; returns rounds found wrong only now."""
        return 0

    def traffic(self, samples: list[Sample]) -> tuple[float, int]:
        """Wire bytes moved, and the client-rounds they were moved for."""
        return (
            sum(sample.wire_bytes for sample in samples),
            sum(sample.clients for sample in samples),
        )

    def cpu_seconds(self) -> float:
        """CPU seconds of this process and the children it has reaped."""
        return cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(
            resource.RUSAGE_CHILDREN
        )


class SmmTrainWide(Workload):
    """One step is a whole short training run through the engine."""

    name = "smm_train_wide"

    def engine(self, seed: int, rounds: int) -> SimulationEngine:
        config = SimulationConfig(
            population_size=self.sizes["population"],
            expected_cohort=self.sizes["cohort"],
            rounds=rounds,
            hidden=self.sizes["hidden"],
            epsilon=EPSILON,
            telemetry=False,
            verify_aggregate=True,
            seed=seed,
        )
        return SimulationEngine(
            config, availability=BernoulliDropout(DROPOUT_RATE)
        )

    def setup(self, seed: int) -> None:
        self._train(seed, rounds=1)

    def step(self, seed: int) -> list[Sample]:
        return self._train(seed, self.sizes["rounds"])

    def _train(self, seed: int, rounds: int) -> list[Sample]:
        engine = self.engine(seed, rounds)
        # The engine samples a cohort exactly once at the start of each
        # round, so stamping that public call delimits the rounds
        # without touching the engine (calibration falls before the
        # first stamp and is not round time).
        stamps: list[float] = []
        sample_cohort = engine.population.sample_cohort

        def stamped(round_index: int, expected_size: int):
            stamps.append(time.perf_counter())
            return sample_cohort(round_index, expected_size)

        engine.population.sample_cohort = stamped
        result = engine.run()
        stamps.append(time.perf_counter())
        epsilons = [record.epsilon for record in result.records]
        run_ok = (
            len(result.records) == rounds == len(stamps) - 1
            and math.isfinite(result.epsilon)
            and result.epsilon >= EPSILON_FLOOR
            and epsilons == sorted(epsilons)
        )
        if not self.info:
            self.info = {
                "epsilon_spent": result.epsilon,
                "final_accuracy": result.final_accuracy,
                "parameters_digest": result.parameters_digest,
            }
        return [
            Sample(
                seconds=end - start,
                ok=run_ok
                and not record.aborted
                and record.aggregate_matches is True,
                wire_bytes=record.wire_bytes,
                clients=len(record.cohort),
            )
            for record, start, end in zip(result.records, stamps, stamps[1:])
        ]


class SecAggQuadratic(Workload):
    name = "secagg_quadratic"

    def step(self, seed: int) -> list[Sample]:
        clients = self.sizes["clients"]
        rng = np.random.default_rng(seed)
        inputs = rng.integers(
            0, MODULUS, size=(clients, self.sizes["dimension"]), dtype=np.int64
        )
        threshold = shamir_threshold(THRESHOLD_FRACTION, clients)
        started = time.perf_counter()
        outcome = run_bonawitz(inputs, MODULUS, threshold, rng)
        seconds = time.perf_counter() - started
        ok = len(outcome.included) == clients and np.array_equal(
            outcome.modular_sum, inputs.sum(axis=0) % MODULUS
        )
        return [Sample(seconds, ok, outcome.wire.total_bytes, clients)]


class SecAggRecovery(Workload):
    name = "secagg_recovery"

    def step(self, seed: int) -> list[Sample]:
        clients = self.sizes["clients"]
        rng = np.random.default_rng(seed)
        cohort = range(1, clients + 1)
        vectors = random_vectors(rng, cohort, self.sizes["dimension"])
        plans = victim_plans(rng, clients, self.sizes["victims"])
        clock = SimulatedClock()
        started = time.perf_counter()
        outcome = clock.run(
            AsyncSecAggRound(
                vectors,
                MODULUS,
                shamir_threshold(THRESHOLD_FRACTION, clients),
                clock,
                rng,
                plans=plans,
            ).run()
        )
        seconds = time.perf_counter() - started
        survivors = frozenset(cohort) - frozenset(plans)
        ok = outcome.included == survivors and np.array_equal(
            outcome.modular_sum, direct_sum(vectors, survivors)
        )
        return [Sample(seconds, ok, outcome.wire.total_bytes, clients)]


class TreeSecAgg(Workload):
    name = "tree_secagg"

    def step(self, seed: int) -> list[Sample]:
        population = Population(
            self.sizes["population"],
            availability=BernoulliDropout(DROPOUT_RATE),
            seed=seed,
        )
        cohort = population.client_indices
        vectors = random_vectors(
            np.random.default_rng(seed), cohort, self.sizes["dimension"]
        )
        plans = population.plans(0, cohort)
        started = time.perf_counter()
        outcome = HierarchicalSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            clock=SimulatedClock(),
            rng=population.round_rng(0, PURPOSE_PROTOCOL),
            topology=self.sizes["topology"],
            threshold_fraction=THRESHOLD_FRACTION,
            composer="secagg",
            plans=plans,
            backend="inline",
        ).execute()
        seconds = time.perf_counter() - started
        survivors = frozenset(
            u for u in cohort if plans[u].responds_at(ROUND_MASKED_INPUT)
        )
        ok = (
            outcome.composer == "secagg"
            and outcome.included == survivors
            and np.array_equal(
                outcome.modular_sum, direct_sum(vectors, survivors)
            )
        )
        return [Sample(seconds, ok, outcome.wire.total_bytes, len(cohort))]


def swarm_config(sizes: dict, seed: int) -> SwarmConfig:
    return SwarmConfig(
        clients=sizes["clients"],
        dimension=sizes["dimension"],
        modulus=MODULUS,
        threshold=sizes["threshold"],
        dropouts=sizes["dropouts"],
        seed=seed,
        client_timeout=30.0,
    )


def swarm_digest(config: SwarmConfig) -> str:
    """Digest of the swarm survivors' direct modular sum."""
    inputs, _ = derive_population(config)
    gone = [index - 1 for index in dropout_schedule(config)]
    total = np.delete(inputs, gone, axis=0).sum(axis=0) % config.modulus
    return hashlib.sha256(total.astype(np.int64).tobytes()).hexdigest()


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class SocketSwarm(Workload):
    """``repro serve`` in its own process, the swarm in this one.

    Traffic crosses the host's loopback interface.  The sockets are one
    round's cohort, not generator parallelism: the next round's clients
    connect only after the previous round's have all finished.
    """

    name = "socket_swarm"

    def __init__(self, sizes: dict, out: pathlib.Path) -> None:
        super().__init__(sizes, out)
        self.info = {"transport": "TCP over the loopback interface"}
        self.digests_path = out / "digests.txt"
        self.metrics_path = out / "metrics.prom"
        self.loop = asyncio.new_event_loop()
        self.server: subprocess.Popen | None = None
        self.configs: list[SwarmConfig] = []
        self.spawn_seconds: list[float] = []
        self.metrics = None

    def setup(self, seed: int) -> None:
        self._stop_server()
        self.configs = []
        self.digests_path.unlink(missing_ok=True)
        self.metrics_path.unlink(missing_ok=True)
        sizes = self.sizes
        started = time.perf_counter()
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--cohort", str(sizes["clients"]),
                "--threshold", str(sizes["threshold"]),
                "--dimension", str(sizes["dimension"]),
                "--rounds", "1000000",
                "--digest-out", str(self.digests_path),
                "--metrics-out", str(self.metrics_path),
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.server.stdout.readline()
        self.spawn_seconds.append(time.perf_counter() - started)
        # "secagg server listening on 127.0.0.1:<port> (/metrics on ...)"
        self.port = int(banner.split("listening on ")[1].split()[0].split(":")[1])
        self.step(seed)

    def step(self, seed: int) -> list[Sample]:
        sizes = self.sizes
        config = swarm_config(sizes, seed)
        self.configs.append(config)
        started = time.perf_counter()
        result = self.loop.run_until_complete(
            run_swarm("127.0.0.1", self.port, config)
        )
        seconds = time.perf_counter() - started
        ok = result.completed == sizes["clients"] - sizes["dropouts"]
        # Bytes are metered by the server and read when it has exited.
        return [Sample(seconds, ok, 0, sizes["clients"])]

    def cpu_seconds(self) -> float:
        return super().cpu_seconds() + self.server_cpu_seconds()

    def server_cpu_seconds(self) -> float:
        return process_cpu_seconds(self.server.pid)

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()
        self.server = None

    def close(self) -> int:
        """Stop the server, then check every digest it wrote: all of
        them against the direct sum, the warm-up round's also against
        the in-memory protocol."""
        self._stop_server()
        self.loop.close()
        digests = self.digests_path.read_text().split()
        self.metrics = parse_prometheus(self.metrics_path.read_text())
        wrong = sum(
            digest != swarm_digest(config)
            for digest, config in zip(digests, self.configs)
        )
        wrong += abs(len(digests) - len(self.configs))
        if not digests or digests[0] != expected_digest(self.configs[0]):
            wrong += 1
        return wrong

    def traffic(self, samples: list[Sample]) -> tuple[float, int]:
        """What the server metered, over every round it served: the
        timed ones and the warm-up round before them."""
        metered = sum(
            value
            for (name, _), value in self.metrics.samples.items()
            if name == "secagg_wire_bytes_total"
        )
        return metered, (len(samples) + 1) * self.sizes["clients"]


WORKLOADS = {
    workload.name: workload
    for workload in (
        SmmTrainWide, SecAggQuadratic, SecAggRecovery, TreeSecAgg, SocketSwarm
    )
}
