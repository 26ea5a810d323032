"""Asynchronous federated orchestration over an unreliable population.

The paper's experiments assume every sampled participant is online and
instantaneous.  This example runs the same Skellam-mixture training
loop the way a production deployment would experience it: an engine
on a deterministic simulated clock, a 24-client population where
clients crash mid-protocol (20% per round, at a uniformly random phase
of the Bonawitz state machine) and upload over heavy-tailed log-normal
latencies, a server that closes each phase at a deadline and moves on,
and Shamir reconstruction cleaning up whatever masks the dropouts left
behind.

Three properties are demonstrated:

* **dropout tolerance** — every round completes and the decoded
  aggregate exactly matches the surviving cohort's direct modular sum;
* **online accounting** — a per-round RDP ledger reports the cumulative
  (epsilon, delta) spent so far, converging to the calibrated budget;
* **bit-reproducibility** — re-running with the same seed yields the
  same final model parameters, hash-for-hash.

Run:
    python examples/async_simulation.py
"""

import warnings

from repro.simulation import (
    BernoulliDropout,
    SimulationConfig,
    SimulationEngine,
    StragglerLatency,
)

CONFIG = SimulationConfig(
    population_size=24,
    expected_cohort=12,
    rounds=3,
    modulus=2**16,
    gamma=16.0,
    epsilon=5.0,
    hidden=4,
    test_records=64,
    phase_timeout=30.0,
    seed=11,
    verify_aggregate=True,
)


def build_engine() -> SimulationEngine:
    # 20% of each round's cohort crashes mid-protocol; everyone uploads
    # over log-normal latencies whose tail collides with the 30s phase
    # deadline, so stragglers are dropped by timeout too.
    availability = BernoulliDropout(
        0.2, base=StragglerLatency(median=2.0, sigma=1.5)
    )
    return SimulationEngine(CONFIG, availability=availability)


def main() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Overflow is part of the data.
        result = build_engine().run()

        print(f"population: {CONFIG.population_size} clients, "
              f"expected cohort {CONFIG.expected_cohort}, "
              f"{CONFIG.rounds} rounds")
        for record in result.records:
            print(f"  round {record.index}: cohort={len(record.cohort):2d} "
                  f"included={len(record.included):2d} "
                  f"dropped={len(record.dropped):2d} "
                  f"eps so far={record.epsilon:5.2f} "
                  f"aggregate exact={record.aggregate_matches}")
        print(f"simulated wall time: {result.sim_duration:.1f}s")
        print(f"cumulative privacy: eps={result.epsilon:.3f}, "
              f"delta={result.delta:g}")
        print(f"final test accuracy: {100 * result.final_accuracy:.1f}%")

        assert all(r.aggregate_matches for r in result.records if not r.aborted)

        # Same seed, same everything — the determinism contract.
        replay = build_engine().run()
        identical = replay.parameters_digest == result.parameters_digest
        print(f"bit-reproducible: {identical}")
        assert identical, "same seed must give identical parameters"


if __name__ == "__main__":
    main()
