"""End-to-end tests of the asynchronous simulation engine.

The acceptance scenario: a seeded 32-client MNIST-surrogate run at 10%
and 30% dropout completes end-to-end, the decoded aggregate of every
round exactly matches the synchronous pipeline's aggregate over the
surviving cohort, a cumulative (epsilon, delta) is reported from the
accounting ledger, and the whole run is bit-reproducible from its seed.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fl.data import mnist_surrogate
from repro.secagg.bonawitz import ROUND_ADVERTISE
from repro.simulation import (
    AvailabilityModel,
    BernoulliDropout,
    ClientPlan,
    ProcessBackend,
    SimulationConfig,
    SimulationEngine,
    get_execution_backend,
)
from repro.simulation.population import PURPOSE_ENCODING

ACCEPTANCE_CONFIG = dict(
    population_size=32,
    expected_cohort=12,
    rounds=3,
    modulus=2**16,
    gamma=16.0,
    epsilon=5.0,
    hidden=4,
    test_records=64,
    dataset="mnist",
    seed=17,
    verify_aggregate=True,
)


def run_acceptance(dropout_rate, **overrides):
    config = SimulationConfig(**{**ACCEPTANCE_CONFIG, **overrides})
    engine = SimulationEngine(
        config, availability=BernoulliDropout(dropout_rate)
    )
    return engine, engine.run()


class TestAcceptanceRun:
    @pytest.mark.parametrize("dropout_rate", [0.1, 0.3])
    def test_end_to_end_with_dropouts(self, dropout_rate):
        engine, result = run_acceptance(dropout_rate)
        # Every scheduled round is accounted for.
        assert len(result.records) == engine.config.rounds
        executed = [r for r in result.records if r.cohort and not r.aborted]
        assert executed, "at least one round must aggregate"
        for record in executed:
            # The async round's output is exactly the surviving
            # cohort's modular sum — the synchronous pipeline's result.
            assert record.aggregate_matches is True
            assert record.included <= set(record.cohort)
            assert record.dropped == frozenset(record.cohort) - record.included
        # The ledger reports a cumulative epsilon that grows monotonically.
        # Dropout rounds carry less noise than calibration assumed, so the
        # honest charge may exceed the calibrated budget — but not wildly.
        epsilons = [r.epsilon for r in result.records]
        assert all(b >= a - 1e-12 for a, b in zip(epsilons, epsilons[1:]))
        assert 0 < result.epsilon <= engine.config.epsilon * 2.5
        assert result.delta == engine.config.delta
        assert result.mechanism_summary["name"] == "smm"
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_higher_dropout_loses_more_clients(self):
        _, light = run_acceptance(0.1)
        _, heavy = run_acceptance(0.3)
        dropped_light = sum(len(r.dropped) for r in light.records)
        dropped_heavy = sum(len(r.dropped) for r in heavy.records)
        assert dropped_heavy > dropped_light

    def test_ledger_is_honest_about_dropout(self):
        """A dropout-free run spends exactly the calibrated budget;
        dropout rounds carry less aggregate noise, so their honest
        charge is strictly larger."""
        engine, clean = run_acceptance(0.0)
        assert clean.epsilon == pytest.approx(engine.config.epsilon, rel=1e-3)
        _, dropped = run_acceptance(0.3)
        if any(r.dropped for r in dropped.records):
            assert dropped.epsilon > clean.epsilon

    @pytest.mark.parametrize("dropout_rate", [0.1, 0.3])
    def test_bit_reproducible(self, dropout_rate):
        _, first = run_acceptance(dropout_rate)
        _, second = run_acceptance(dropout_rate)
        assert first.parameters_digest == second.parameters_digest
        assert first.records == second.records
        assert first.epsilon == second.epsilon

    def test_different_seeds_diverge(self):
        _, first = run_acceptance(0.1)
        _, second = run_acceptance(0.1, seed=18)
        assert first.parameters_digest != second.parameters_digest


class TestAggregateMatchesSyncPipeline:
    def test_external_reencoding_reproduces_the_round(self):
        """The per-client encodings are reproducible outside the engine,
        so an auditor can recompute any round's expected aggregate."""
        engine, result = run_acceptance(0.1)
        record = next(
            r for r in result.records if r.cohort and not r.aborted
        )
        train, _ = mnist_surrogate(
            engine.population.setup_rng(10),  # _SETUP_DATA
            engine.config.population_size,
            engine.config.test_records,
        )
        assert record.aggregate_matches is True
        # Re-derive one client's encoding rng and check it is the
        # deterministic spawn-keyed stream the engine used.
        client = min(record.included)
        rng_a = engine.population.client_rng(
            record.index, client, PURPOSE_ENCODING
        )
        rng_b = engine.population.client_rng(
            record.index, client, PURPOSE_ENCODING
        )
        assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)


class TestShardedEngine:
    def test_sharded_rounds_pass_the_oracle(self):
        engine, result = run_acceptance(0.1, tree="3")
        executed = [r for r in result.records if r.cohort and not r.aborted]
        assert executed
        for record in executed:
            # The composed shard sums decode to exactly the survivors'
            # modular sum — the same oracle the flat rounds pass.
            assert record.aggregate_matches is True
        assert engine.trace.count("sharded-round-complete") == len(executed)

    def test_backends_are_bit_identical(self):
        _, inline = run_acceptance(0.1, rounds=2, tree="2")
        _, process = run_acceptance(0.1, rounds=2, tree="2", backend="process")
        assert inline.parameters_digest == process.parameters_digest
        assert inline.records == process.records
        assert inline.epsilon == process.epsilon

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(tree="0")
        with pytest.raises(ConfigurationError):
            SimulationConfig(backend="thread")

    def test_config_offers_the_cli_backends_only(self):
        """A config names what ``simulate --backend`` offers; the
        benchmark-only ``"process-pickle"`` alias resolves through
        ``get_execution_backend`` but no config accepts it."""
        for name in ("inline", "process"):
            assert SimulationConfig(backend=name).backend == name
        with pytest.raises(ConfigurationError, match="process-pickle"):
            SimulationConfig(backend="process-pickle")
        backend = get_execution_backend("process-pickle")
        try:
            assert isinstance(backend, ProcessBackend)
        finally:
            backend.close()


class _EveryoneOffline(AvailabilityModel):
    def plan(self, client_index, round_index, rng):
        return ClientPlan(drop_phase=ROUND_ADVERTISE)


class TestDegradedRegimes:
    def test_total_outage_aborts_rounds_without_crashing(self):
        config = SimulationConfig(
            **{**ACCEPTANCE_CONFIG, "rounds": 2, "verify_aggregate": False}
        )
        engine = SimulationEngine(config, availability=_EveryoneOffline())
        result = engine.run()
        executed = [r for r in result.records if r.cohort]
        assert executed
        assert all(r.aborted for r in executed)
        # Aborted rounds are still charged (conservative ledger).
        assert result.epsilon > 0

    def test_non_private_mode(self):
        config = SimulationConfig(
            **{**ACCEPTANCE_CONFIG, "epsilon": None, "verify_aggregate": False}
        )
        result = SimulationEngine(config).run()
        assert math.isnan(result.epsilon)
        assert result.mechanism_summary == {}
        assert len(result.records) == config.rounds

    def test_all_online_includes_whole_cohort(self):
        engine, result = run_acceptance(0.0)
        for record in result.records:
            if record.cohort:
                assert record.included == frozenset(record.cohort)


class TestValidation:
    def test_cohort_larger_than_population_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(population_size=8, expected_cohort=9)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(dataset="cifar")

    def test_dataset_population_mismatch_rejected(self):
        train, test = mnist_surrogate(np.random.default_rng(0), 16, 32)
        config = SimulationConfig(population_size=32, expected_cohort=8)
        with pytest.raises(ConfigurationError):
            SimulationEngine(config, train=train, test=test)

    def test_bad_threshold_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(threshold_fraction=0.0)
