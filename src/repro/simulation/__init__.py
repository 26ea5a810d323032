"""Event-driven federated orchestration over an unreliable population.

The paper evaluates its mechanisms under fully synchronous, all-online
aggregation; this subsystem supplies the production-shaped layer on top:
an asyncio engine that runs whole training rounds over a simulated
client population with dropouts, stragglers and churn, survives them via
the Bonawitz protocol's Shamir recovery, and charges a running privacy
ledger — all on a deterministic simulated clock, so every run is
bit-reproducible from its seed.

Layering (each module only depends on the ones above it):

* :mod:`~repro.simulation.clock` — deterministic discrete-event clock
  driving asyncio without wall time.
* :mod:`~repro.simulation.events` — clock-aware mailboxes and the trace.
* :mod:`~repro.simulation.population` — client registry, availability
  models, cohort sampling.
* :mod:`~repro.simulation.rounds` — dropout-tolerant async SecAgg round
  driver over the ``secagg.bonawitz`` state machines.
* :mod:`~repro.simulation.sharding` — level-agnostic sharding
  primitives: the threshold rule, picklable shard tasks, the
  inline/process execution backends.
* :mod:`~repro.simulation.hierarchy` — N-level aggregation-tree
  orchestration: leaf Bonawitz sub-rounds over
  :meth:`~repro.secagg.tree.TreeTopology.partition`, composed bottom-up
  by :func:`~repro.secagg.compose.compose`, with optional cross-shard
  straggler rebalancing.  ``tree="k"`` (one level) is the flat
  ``k``-shard round.
* :mod:`~repro.simulation.engine` — the training orchestrator wiring
  encoder/decoder, the Skellam mixture noise, the federated trainer and
  the accounting ledger into the round loop.
"""

from repro.simulation.clock import SimulatedClock, TimerHandle
from repro.simulation.engine import (
    RoundRecord,
    SimulationConfig,
    SimulationEngine,
    SimulationResult,
)
from repro.simulation.events import Mailbox, SimulationTrace, TraceEvent
from repro.simulation.hierarchy import HierarchicalSecAggRound
from repro.simulation.population import (
    AlwaysAvailable,
    AvailabilityModel,
    BernoulliDropout,
    ClientPlan,
    Population,
    RoundChurn,
    StragglerLatency,
)
from repro.simulation.rounds import AsyncSecAggRound, RoundOutcome
from repro.simulation.sharding import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    ShardReport,
    ShardTask,
    get_execution_backend,
    shamir_threshold,
    validate_threshold_fraction,
)

__all__ = [
    "AlwaysAvailable",
    "AsyncSecAggRound",
    "AvailabilityModel",
    "BernoulliDropout",
    "ClientPlan",
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "HierarchicalSecAggRound",
    "InlineBackend",
    "Mailbox",
    "Population",
    "ProcessBackend",
    "RoundChurn",
    "RoundOutcome",
    "RoundRecord",
    "ShardReport",
    "ShardTask",
    "SimulatedClock",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "SimulationTrace",
    "StragglerLatency",
    "TimerHandle",
    "TraceEvent",
    "get_execution_backend",
    "shamir_threshold",
    "validate_threshold_fraction",
]
