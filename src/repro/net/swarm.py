"""A reproducible swarm of concurrent SecAgg clients.

The swarm is the load generator and the equivalence instrument in one:
``N`` concurrent :func:`~repro.net.client.run_client` coroutines with
configurable straggler delay, a deterministic dropout schedule, chaos
cancellation, and bad-version clients — and a population derived so the
server's aggregate is **bit-identical** to
:func:`~repro.secagg.bonawitz.run_bonawitz` fed the same seed.

The derivation contract (:func:`derive_population`) mirrors
``run_bonawitz`` exactly: one master generator seeded with
``config.seed`` draws the ``(n, d)`` input matrix first, then one
per-client session seed per client in index order.  The aggregate
depends only on those seeds and on *which* clients reach each phase —
never on network arrival order — so a deterministic dropout schedule
makes the real-socket sum reproducible, and
:func:`expected_aggregate` can compute the reference digest without
opening a single socket.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib

import numpy as np

from repro.errors import ConfigurationError
from repro.net.client import ClientPlan, ClientReport, run_client
from repro.resilience.retry import RetryPolicy
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
    AggregationOutcome,
    forget_round_memos,
    run_bonawitz,
)
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.keys import TOY_GROUP, KeyAgreementGroup
from repro.secagg.wire import PROTOCOL_V1
from repro.telemetry import MetricsRegistry


@dataclasses.dataclass(frozen=True)
class SwarmConfig:
    """Shape of one swarm run.

    Attributes:
        clients: Population size ``n`` (protocol indices 1..n).
        dimension: Input vector length ``d``.
        modulus: Aggregation modulus ``m``.
        threshold: Shamir threshold; default ``max(2, clients // 2)``.
        seed: Master seed for inputs and per-client session seeds.
        dropouts: How many clients drop (the *last* ``k`` indices — a
            deterministic schedule, so the run replays in-memory).
        dropout_phase: Phase (0-3) before whose upload the dropouts
            stop; default masked-input, the interesting case (their
            mask seeds must be reconstructed).
        bad_version: How many clients (the first ``k`` of the
            non-dropping prefix) propose an unsupported protocol
            version and get a typed Reject at Hello.
        delay: Fixed per-client sleep before each send, in seconds.
        jitter: Upper bound on a deterministic per-client extra delay
            (drawn from a side generator — never from the master, which
            would desynchronise the seed derivation).
        chaos_cancel: How many client tasks the swarm cancels at a
            deterministic mid-round delay — abnormal teardown injection;
            digests are not comparable in chaos mode.
        client_timeout: Per-delivery wall timeout for every client.
        connect_timeout: Per-dial wall timeout for every client — no
            client hangs forever against a dead address.
        max_retries: Reconnect budget per client; 0 (the default)
            disables retries *and* session resumption, the historical
            behaviour.
        transient_disconnects: How many clients (the first eligible
            indices after the chaos victims) abruptly drop their
            connection at ``transient_phase`` and resume via the Resume
            handshake.  They remain full round participants, so the
            reference digest is unchanged; requires ``max_retries > 0``
            and a server-side ``resume_grace > 0``.
        transient_phase: Phase (1-3) at which transient disconnects
            fire.
        transient_after_upload: Inject the disconnect after the phase's
            upload instead of before its delivery.
    """

    clients: int = 16
    dimension: int = 32
    modulus: int = 2**16
    threshold: int | None = None
    seed: int = 7
    dropouts: int = 0
    dropout_phase: int = ROUND_MASKED_INPUT
    bad_version: int = 0
    delay: float = 0.0
    jitter: float = 0.0
    chaos_cancel: int = 0
    client_timeout: float = 60.0
    connect_timeout: float = 10.0
    max_retries: int = 0
    transient_disconnects: int = 0
    transient_phase: int = ROUND_MASKED_INPUT
    transient_after_upload: bool = False

    def __post_init__(self) -> None:
        if self.clients < 2:
            raise ConfigurationError(
                f"a swarm needs >= 2 clients, got {self.clients}"
            )
        if not ROUND_ADVERTISE <= self.dropout_phase <= ROUND_UNMASK:
            raise ConfigurationError(
                f"dropout_phase must be in [0, 3], got {self.dropout_phase}"
            )
        if self.dropouts + self.bad_version >= self.clients:
            raise ConfigurationError(
                "dropouts + bad_version must leave at least one live client"
            )
        survivors = self.clients - self.dropouts - self.bad_version
        if self.resolved_threshold > survivors:
            raise ConfigurationError(
                f"threshold {self.resolved_threshold} exceeds the "
                f"{survivors} clients that reach the end of the round"
            )
        if not ROUND_SHARE_KEYS <= self.transient_phase <= ROUND_UNMASK:
            raise ConfigurationError(
                f"transient_phase must be in [1, 3], got "
                f"{self.transient_phase}"
            )
        if self.transient_disconnects:
            if self.max_retries <= 0:
                raise ConfigurationError(
                    "transient_disconnects requires max_retries > 0 — a "
                    "client cannot resume without a reconnect budget"
                )
            eligible = (
                self.clients
                - self.dropouts
                - self.bad_version
                - self.chaos_cancel
            )
            if self.transient_disconnects > eligible:
                raise ConfigurationError(
                    f"transient_disconnects {self.transient_disconnects} "
                    f"exceeds the {eligible} eligible clients"
                )
        if self.connect_timeout <= 0:
            raise ConfigurationError("connect_timeout must be > 0")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")

    @property
    def resolved_threshold(self) -> int:
        """The effective Shamir threshold."""
        if self.threshold is not None:
            return self.threshold
        return max(2, self.clients // 2)

    @property
    def retry_policy(self) -> RetryPolicy | None:
        """The clients' reconnect policy; ``None`` when retries are off."""
        if self.max_retries <= 0:
            return None
        # Short base delay: swarm rounds run on sub-second phase
        # budgets, so a resume must land well inside the grace window.
        return RetryPolicy(
            max_retries=self.max_retries, base_delay=0.05, max_delay=1.0
        )


@dataclasses.dataclass(frozen=True)
class SwarmResult:
    """Client-side view of one swarm round."""

    reports: list[ClientReport]

    def count(self, status: str) -> int:
        """How many clients finished with ``status``."""
        return sum(1 for report in self.reports if report.status == status)

    @property
    def completed(self) -> int:
        return self.count("completed")

    @property
    def retries(self) -> int:
        """Total reconnect attempts across the swarm."""
        return sum(report.retries for report in self.reports)

    @property
    def resumes(self) -> int:
        """Total accepted Resume handshakes across the swarm."""
        return sum(report.resumes for report in self.reports)


def derive_population(config: SwarmConfig) -> tuple[np.ndarray, list[int]]:
    """Inputs and per-client seeds, exactly as ``run_bonawitz`` draws
    them from one master generator (inputs first, then one session seed
    per client in index order)."""
    master = np.random.default_rng(config.seed)
    inputs = master.integers(
        0,
        config.modulus,
        size=(config.clients, config.dimension),
        dtype=np.int64,
    )
    seeds = [
        int(master.integers(0, 2**63 - 1)) for _ in range(config.clients)
    ]
    return inputs, seeds


def dropout_schedule(config: SwarmConfig) -> dict[int, int]:
    """Deterministic dropout map (1-based index -> first dropped phase):
    the last ``config.dropouts`` indices drop at ``dropout_phase``."""
    first = config.clients - config.dropouts + 1
    return {
        index: config.dropout_phase
        for index in range(first, config.clients + 1)
    }


def bad_version_indices(config: SwarmConfig) -> frozenset[int]:
    """Which clients propose an unsupported version: the first
    ``config.bad_version`` indices that are not scheduled dropouts."""
    return frozenset(range(1, config.bad_version + 1))


def _eligible_indices(config: SwarmConfig) -> list[int]:
    """Clients that neither drop out nor propose a bad version, in
    index order: the pool chaos victims and transient disconnects are
    drawn from."""
    immune = set(dropout_schedule(config)) | bad_version_indices(config)
    return [
        index
        for index in range(1, config.clients + 1)
        if index not in immune
    ]


def transient_indices(config: SwarmConfig) -> frozenset[int]:
    """Which clients inject a transient disconnect+resume: the first
    eligible indices after the chaos victims (so no client is both
    cancelled and resumed)."""
    if not config.transient_disconnects:
        return frozenset()
    eligible = _eligible_indices(config)
    start = config.chaos_cancel
    return frozenset(
        eligible[start:start + config.transient_disconnects]
    )


def client_plans(config: SwarmConfig) -> list[ClientPlan]:
    """The full per-client schedule for one round."""
    _, seeds = derive_population(config)
    dropouts = dropout_schedule(config)
    rejects = bad_version_indices(config)
    transients = transient_indices(config)
    side = np.random.default_rng((config.seed, 0xD3))
    plans = []
    for index in range(1, config.clients + 1):
        jitter = float(side.uniform(0, config.jitter)) if config.jitter else 0.0
        plans.append(
            ClientPlan(
                index=index,
                seed=seeds[index - 1],
                delay=config.delay + jitter,
                drop_at_phase=dropouts.get(index),
                version=PROTOCOL_V1 + 1
                if index in rejects
                else PROTOCOL_V1,
                disconnect_at_phase=config.transient_phase
                if index in transients
                else None,
                disconnect_after_upload=config.transient_after_upload,
            )
        )
    return plans


def expected_aggregate(
    config: SwarmConfig,
    group: KeyAgreementGroup = TOY_GROUP,
    field: PrimeField = DEFAULT_FIELD,
) -> AggregationOutcome:
    """The reference outcome, computed entirely in memory.

    Replays the swarm's schedule through ``run_bonawitz`` with the same
    master generator (so the same inputs and session seeds).  Clients
    rejected at Hello never enter the roster — exactly a round-0
    dropout — so they map to ``dropouts={index: 0}``.
    """
    master = np.random.default_rng(config.seed)
    inputs = master.integers(
        0,
        config.modulus,
        size=(config.clients, config.dimension),
        dtype=np.int64,
    )
    dropouts = dict(dropout_schedule(config))
    for index in bad_version_indices(config):
        dropouts[index] = ROUND_ADVERTISE
    return run_bonawitz(
        inputs,
        config.modulus,
        config.resolved_threshold,
        rng=master,
        group=group,
        dropouts=dropouts,
        field=field,
    )


def expected_digest(config: SwarmConfig) -> str:
    """SHA-256 digest of the reference aggregate — the value the
    server's :attr:`~repro.net.server.NetRoundResult.digest` must equal
    for the same seeds and schedule."""
    outcome = expected_aggregate(config)
    return hashlib.sha256(outcome.modular_sum.tobytes()).hexdigest()


async def run_swarm(
    host: str,
    port: int,
    config: SwarmConfig,
    group: KeyAgreementGroup = TOY_GROUP,
    field: PrimeField = DEFAULT_FIELD,
    metrics: MetricsRegistry | None = None,
) -> SwarmResult:
    """Run one full swarm round against a listening server.

    Every client runs as its own task on the current loop.  Chaos mode
    cancels ``config.chaos_cancel`` of the would-complete clients at
    staggered deterministic delays — the server must treat the
    vanishing connections as evictions and still finish the round
    (provided the threshold holds).  Transient-disconnect clients drop
    and resume mid-round but remain full participants, so the reference
    digest still applies.

    Opening the round drops what the previous one left in this process'
    key-agreement and mask-PRG memos, as every other round driver does
    (:func:`~repro.secagg.bonawitz.forget_round_memos`).
    """
    forget_round_memos(group)
    inputs, _ = derive_population(config)
    plans = client_plans(config)
    retry = config.retry_policy
    tasks = [
        asyncio.ensure_future(
            run_client(
                host,
                port,
                plan,
                inputs[plan.index - 1],
                config.modulus,
                config.resolved_threshold,
                group=group,
                field=field,
                timeout=config.client_timeout,
                connect_timeout=config.connect_timeout,
                retry=retry,
                metrics=metrics,
            )
        )
        for plan in plans
    ]
    if config.chaos_cancel:
        victims = _chaos_victims(config)
        asyncio.ensure_future(_chaos(tasks, victims))
    gathered = await asyncio.gather(*tasks, return_exceptions=True)
    reports = []
    for plan, outcome in zip(plans, gathered):
        if isinstance(outcome, asyncio.CancelledError):
            reports.append(
                ClientReport(
                    index=plan.index,
                    status="cancelled",
                    detail="chaos-cancelled mid-round",
                )
            )
        elif isinstance(outcome, BaseException):
            raise outcome
        else:
            reports.append(outcome)
    return SwarmResult(reports=reports)


def _chaos_victims(config: SwarmConfig) -> list[int]:
    """Deterministic choice of chaos targets: the first eligible
    (non-dropout, non-rejected) indices."""
    return _eligible_indices(config)[: config.chaos_cancel]


async def _chaos(tasks: list[asyncio.Task], victims: list[int]) -> None:
    # Stagger the cancellations so they land in different phases.
    for position, index in enumerate(sorted(victims)):
        await asyncio.sleep(0.02 * (position + 1))
        task = tasks[index - 1]
        if not task.done():
            task.cancel()
