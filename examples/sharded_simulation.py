"""Hierarchical sharded secure aggregation over a multi-process backend.

A flat Bonawitz round costs O(n^2) in pairwise masks and Shamir shares.
Production federations (DDP-SA; the Truex et al. hybrid) therefore run
*hierarchically*: the cohort is partitioned into k shards, each shard
runs its own dropout-tolerant secure-aggregation instance, and the
shard sums compose with one outer modular addition — bit-identical to
the flat sum over the same survivors, at O(n^2 / k) total work, with
the shards embarrassingly parallel.

This example trains the same Skellam-mixture pipeline as
``async_simulation.py`` but with ``tree="4"`` (a one-level tree of 4
shards), twice: once on the
``"inline"`` backend (shards run sequentially in this process) and once
on the ``"process"`` backend (shards fan out over an OS process pool).
It demonstrates:

* **exactness** — every round's composed aggregate equals the
  survivors' direct modular sum (the ``verify_aggregate`` oracle);
* **backend determinism** — inline and multi-process execution yield
  the same final model parameters, hash for hash, because every shard
  derives its randomness from spawn-keyed seeds fixed before dispatch.

Run:
    python examples/sharded_simulation.py
"""

import dataclasses
import warnings

from repro.simulation import (
    BernoulliDropout,
    SimulationConfig,
    SimulationEngine,
)

CONFIG = SimulationConfig(
    population_size=32,
    expected_cohort=16,
    rounds=2,
    modulus=2**16,
    gamma=16.0,
    epsilon=5.0,
    hidden=4,
    test_records=64,
    phase_timeout=30.0,
    seed=7,
    verify_aggregate=True,
    tree="4",
)


def run(backend: str):
    config = dataclasses.replace(CONFIG, backend=backend)
    engine = SimulationEngine(config, availability=BernoulliDropout(0.15))
    return engine.run()


def main() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Overflow is part of the data.

        print(f"population: {CONFIG.population_size} clients, "
              f"expected cohort {CONFIG.expected_cohort}, "
              f"{CONFIG.rounds} rounds, {CONFIG.tree} shards/round")
        inline = run("inline")
        for record in inline.records:
            print(f"  round {record.index}: cohort={len(record.cohort):2d} "
                  f"included={len(record.included):2d} "
                  f"dropped={len(record.dropped):2d} "
                  f"eps so far={record.epsilon:5.2f} "
                  f"aggregate exact={record.aggregate_matches}")
        assert all(
            r.aggregate_matches for r in inline.records if not r.aborted
        ), "composed shard sums must equal the survivors' modular sum"
        print(f"cumulative privacy: eps={inline.epsilon:.3f}, "
              f"delta={inline.delta:g}")

        multiproc = run("process")
        identical = multiproc.parameters_digest == inline.parameters_digest
        print(f"backend-identical: {identical}")
        assert identical, (
            "inline and process backends must produce identical parameters"
        )


if __name__ == "__main__":
    main()
