"""Command-line interface for the reproduction experiments.

Seven subcommands mirror the paper's evaluation and motivation sections,
plus the production-shaped simulation layer::

    python -m repro.cli sum       # Section 6.1 distributed sum estimation
    python -m repro.cli fl        # Section 6.2 federated learning
    python -m repro.cli calibrate # inspect a mechanism's calibration
    python -m repro.cli secagg    # run the Bonawitz protocol with dropouts
    python -m repro.cli account   # RDP (Theorem 5) vs tight PLD epsilon
    python -m repro.cli attack    # Mironov floating-point attack demo
    python -m repro.cli simulate  # async dropout-tolerant FL simulation

Each prints the paper-style series rows; the benchmark suite under
``benchmarks/`` drives the same code paths with pinned configurations.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections.abc import Sequence

import numpy as np

from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.errors import ConfigurationError
from repro.fl.data import fashion_mnist_surrogate, mnist_surrogate
from repro.fl.experiment import format_accuracy_table, run_fl_point
from repro.mechanisms import InputSpec, build_mechanism
from repro.sumestimation import (
    format_results_table,
    run_sum_estimation,
    sample_sphere,
)

MECHANISMS = ("gaussian", "smm", "skellam", "ddg", "dgm", "cpsgd")


def _mechanism(name: str, compression: CompressionConfig | None):
    """:func:`~repro.mechanisms.build_mechanism`, exiting with the
    refusal's own message (an unknown name, a compression the mechanism
    refuses)."""
    try:
        return build_mechanism(name, compression)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", type=int, default=14)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--epsilons", type=float, nargs="+",
                        default=[1.0, 3.0, 5.0])
    parser.add_argument("--delta", type=float, default=1e-5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mechanisms", nargs="+", choices=MECHANISMS,
        default=["gaussian", "smm", "skellam", "ddg"],
    )


def _compression(args) -> CompressionConfig:
    gamma = args.gamma if args.gamma is not None else 2**args.bits / 256.0
    return CompressionConfig(modulus=2**args.bits, gamma=gamma)


def command_sum(args) -> int:
    """Run the distributed sum estimation sweep (Figure 1 style)."""
    rng = np.random.default_rng(args.seed)
    values = sample_sphere(args.participants, args.dimension, rng)
    compression = _compression(args)
    results = []
    for epsilon in args.epsilons:
        for name in args.mechanisms:
            mechanism = _mechanism(name, compression)
            result = run_sum_estimation(
                mechanism,
                values,
                PrivacyBudget(epsilon=epsilon, delta=args.delta),
                rng,
                trials=args.trials,
            )
            results.append(result)
            print(f"eps={epsilon:4.1f}  {name:9s} mse={result.mse:12.4g}",
                  flush=True)
    print("\n" + format_results_table(results))
    return 0


def command_fl(args) -> int:
    """Run the federated-learning sweep (Figure 2/3 style)."""
    rng = np.random.default_rng(args.seed + 1000)
    maker = mnist_surrogate if args.dataset == "mnist" else fashion_mnist_surrogate
    train, test = maker(rng, args.participants, args.test_records)
    compression = _compression(args)
    results = []
    for epsilon in args.epsilons:
        for name in args.mechanisms:
            mechanism = _mechanism(name, compression)
            result = run_fl_point(
                mechanism,
                train,
                test,
                rounds=args.rounds,
                expected_batch=args.batch,
                epsilon=epsilon,
                seed=args.seed,
                hidden=args.hidden,
                learning_rate=args.learning_rate,
                delta=args.delta,
            )
            results.append(result)
            print(f"eps={epsilon:4.1f}  {name:9s} "
                  f"acc={100 * result.accuracy:5.1f}%", flush=True)
    print("\n" + format_accuracy_table(results))
    return 0


def command_calibrate(args) -> int:
    """Print one mechanism's calibration at the requested budget."""
    compression = _compression(args)
    mechanism = _mechanism(args.mechanism, compression)
    spec = InputSpec(
        num_participants=args.participants,
        dimension=args.dimension,
        l2_bound=args.l2_bound,
    )
    accounting = AccountingSpec(
        budget=PrivacyBudget(epsilon=args.epsilons[0], delta=args.delta),
        rounds=args.rounds,
        sampling_rate=args.sampling_rate,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mechanism.calibrate(spec, accounting)
    for key, value in mechanism.describe().items():
        print(f"{key}: {value}")
    return 0


def command_secagg(args) -> int:
    """Run the full Bonawitz protocol over random inputs with dropouts."""
    from repro.secagg import run_bonawitz

    rng = np.random.default_rng(args.seed)
    modulus = 2**args.bits
    inputs = rng.integers(
        0, modulus, size=(args.clients, args.dimension), dtype=np.int64
    )
    dropouts = {
        int(index): 2  # drop before sending the masked input
        for index in rng.choice(
            np.arange(1, args.clients + 1),
            size=args.dropouts,
            replace=False,
        )
    }
    outcome = run_bonawitz(
        inputs, modulus, threshold=args.threshold, rng=rng, dropouts=dropouts
    )
    expected = np.mod(
        inputs[[u - 1 for u in sorted(outcome.included)]].sum(axis=0), modulus
    )
    print(f"clients: {args.clients}  threshold: {args.threshold}  "
          f"dropped: {sorted(outcome.dropped) or 'none'}")
    print(f"included in sum: {len(outcome.included)} clients")
    print(f"sum correct: {bool(np.array_equal(outcome.modular_sum, expected))}")
    return 0


def command_simulate(args) -> int:
    """Run the async orchestration engine over an unreliable population."""
    from repro.simulation import (
        AlwaysAvailable,
        BernoulliDropout,
        SimulationConfig,
        SimulationEngine,
        StragglerLatency,
    )

    if args.no_telemetry and args.metrics_out:
        raise SystemExit(
            "simulate: --metrics-out needs the metrics registry; "
            "drop --no-telemetry"
        )
    try:
        availability = AlwaysAvailable(latency=args.latency)
        if args.straggler_sigma > 0:
            availability = StragglerLatency(
                median=args.latency, sigma=args.straggler_sigma
            )
        if args.dropout_rate > 0:
            availability = BernoulliDropout(
                args.dropout_rate, base=availability
            )
        config = SimulationConfig(
            population_size=args.clients,
            expected_cohort=args.cohort,
            rounds=args.rounds,
            modulus=2**args.bits,
            gamma=args.gamma if args.gamma is not None else 2**args.bits / 256.0,
            epsilon=args.epsilon if not args.no_privacy else None,
            delta=args.delta,
            threshold_fraction=args.threshold_fraction,
            phase_timeout=args.phase_timeout,
            hidden=args.hidden,
            test_records=args.test_records,
            learning_rate=args.learning_rate,
            eval_every=args.eval_every,
            dataset=args.dataset,
            seed=args.seed,
            verify_aggregate=args.verify,
            backend=args.backend,
            tree=args.tree,
            compose=args.compose,
            rebalance=args.rebalance,
            telemetry=not args.no_telemetry,
            trace_max_events=args.trace_max_events,
            chaos=args.chaos,
        )
        engine = SimulationEngine(config, availability=availability)
    except ConfigurationError as error:
        raise SystemExit(f"simulate: {error}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = engine.run()
    topology = config.aggregation_topology()
    if topology is not None:
        extras = f"{args.backend} backend, {config.compose} compose"
        if config.rebalance:
            extras += ", rebalance on"
        print(f"sharding: tree {topology.describe()} ({extras})", flush=True)
    for record in result.records:
        status = "aborted" if record.aborted else (
            f"included={len(record.included):3d} "
            f"dropped={len(record.dropped):3d}"
        )
        check = (
            "" if record.aggregate_matches is None
            else f"  exact={record.aggregate_matches}"
        )
        if record.recovered:
            check += "  recovered"
        print(f"round {record.index:3d}: cohort={len(record.cohort):3d} "
              f"{status}  eps={record.epsilon:6.3f}  "
              f"t={record.completed_at:8.1f}s{check}", flush=True)
    wire_messages = sum(record.wire_messages for record in result.records)
    wire_bytes = sum(record.wire_bytes for record in result.records)
    print(f"\nsimulated time: {result.sim_duration:.1f}s over "
          f"{len(result.records)} rounds")
    if wire_messages:
        rounds_with_traffic = sum(
            1 for record in result.records if record.wire_messages
        )
        print(f"wire traffic: {wire_messages} messages, "
              f"{wire_bytes / 1024:.1f} KiB total "
              f"({wire_bytes / rounds_with_traffic / 1024:.1f} KiB/round "
              f"over {rounds_with_traffic} aggregation rounds)")
    print(f"cumulative privacy: eps={result.epsilon:.4f} "
          f"delta={result.delta:g}")
    print(f"final test accuracy: {100 * result.final_accuracy:.1f}%")
    print(f"parameters digest: {result.parameters_digest}")
    if result.metrics is not None:
        rows = [
            row for row in result.metrics.phase_latency_rows()
            if row.get("sim_p50") is not None
        ]
        if rows:
            print("phase latency (simulated seconds):")
            for row in rows:
                print(f"  {row['phase']:>12s}: p50={row['sim_p50']:7.3f}s  "
                      f"p99={row['sim_p99']:7.3f}s  "
                      f"(wall p50={row['wall_p50'] * 1e3:.1f}ms)")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(result.metrics.to_prometheus())
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        from repro.telemetry import trace_to_json_lines

        with open(args.trace_out, "w", encoding="utf-8") as handle:
            for line in trace_to_json_lines(engine.trace.events):
                handle.write(line)
                handle.write("\n")
        print(f"trace written to {args.trace_out} "
              f"({len(engine.trace)} events, "
              f"{engine.trace.dropped_events} dropped)")
    return 0


def command_account(args) -> int:
    """Compare Theorem-5 RDP accounting against the tight PLD epsilon."""
    from repro.accounting.pld import smm_pair_pmfs, tight_epsilon
    from repro.accounting.rdp import best_epsilon
    from repro.accounting.divergences import smm_rdp
    from repro.core.clipping import mixture_sensitivity
    from repro.errors import PrivacyAccountingError
    import math

    value = args.value
    c = mixture_sensitivity(value)
    delta_inf = max(1, math.ceil(value))
    print(f"record value x = {value}, mixture sensitivity c = {c:.4f}")
    print(f"{'n*lambda':>10s} {'RDP eps':>10s} {'PLD eps':>10s} {'ratio':>7s}")
    for total_lambda in args.lambdas:
        p, q = smm_pair_pmfs(value, total_lambda)
        pld = tight_epsilon(p, q, args.delta)
        try:
            rdp, _ = best_epsilon(
                range(2, 101),
                lambda a: smm_rdp(a, c, total_lambda, delta_inf),
                args.delta,
            )
            ratio = f"{rdp / pld:7.2f}"
            rdp_text = f"{rdp:10.4f}"
        except (PrivacyAccountingError, ValueError, OverflowError) as error:
            # Expected accounting failures only (no finite RDP order
            # under delta, numeric overflow at extreme lambda); genuine
            # defects in the RDP path must propagate, not print "n/a".
            rdp_text, ratio = f"{'n/a':>10s}", f"{'-':>7s}"
            print(f"{total_lambda:10.1f} {rdp_text} {pld:10.4f} {ratio}"
                  f"  ({error})")
            continue
        print(f"{total_lambda:10.1f} {rdp_text} {pld:10.4f} {ratio}")
    return 0


def command_attack(args) -> int:
    """Demonstrate the Mironov floating-point attack and the defence."""
    from repro.attacks import attack_success_rate

    rng = np.random.default_rng(args.seed)
    report = attack_success_rate(
        scale=args.scale,
        rng=rng,
        trials=args.trials,
        answers=(0.0, args.sensitivity),
        uniform_points=args.uniform_points,
        bits=args.mantissa_bits,
    )
    print(f"floating-point Laplace at {args.mantissa_bits} mantissa bits:")
    print(f"  trials: {report.trials}")
    print(f"  answer identified outright: {report.identified} "
          f"({100 * report.success_rate:.1f}%)")
    print(f"  wrong identifications: {report.errors}")
    print("integer Skellam noise: support is all of Z for every answer -> "
          "the distinguisher never concludes (0.0%)")
    return 0


def command_serve(args) -> int:
    """Serve SecAgg rounds to real TCP clients (the repro.net server)."""
    import asyncio
    import contextlib
    import signal

    from repro.net import SecAggServer, ServerConfig
    from repro.telemetry import to_prometheus

    cohort = args.cohort
    threshold = (
        args.threshold if args.threshold is not None else max(2, cohort // 2)
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        metrics_port=None if args.metrics_port < 0 else args.metrics_port,
        modulus=1 << args.bits,
        dimension=args.dimension,
        threshold=threshold,
        cohort_size=cohort,
        rounds=args.rounds,
        phase_timeout=args.phase_timeout,
        join_timeout=args.join_timeout,
        resume_grace=args.resume_grace,
        journal_path=args.journal,
        round_epsilon=args.round_epsilon,
    )
    server = SecAggServer(config)

    async def run() -> bool:
        loop = asyncio.get_running_loop()

        def graceful(signame: str) -> None:
            # Stop first: the notice cannot be allowed to fail before the
            # stop is requested (a parent that read the banner may have
            # closed the stdout pipe).
            server.request_stop()
            with contextlib.suppress(OSError):
                print(f"{signame}: draining the in-flight round, then "
                      "exiting", file=sys.stderr, flush=True)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, graceful, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError):
                pass  # Platforms without loop signal handlers.
        async with server:
            banner = (
                f"secagg server listening on {config.host}:{server.port}"
            )
            if server.metrics_port is not None:
                banner += f" (/metrics on port {server.metrics_port})"
            print(banner)
            sys.stdout.flush()  # The CI smoke step tails this from a file.
            # Each round is reported, and then dropped, as it ends: a
            # long-lived server holds one round's state.  The digest is
            # on disk before the round's line is printed, so a reader
            # that sees the line can read the digest.  Everything after
            # the banner goes to stderr: a parent that reads only the
            # banner off a stdout pipe (as bench/ does) would otherwise
            # block the server once the pipe fills, ~430 rounds in, and
            # one that closed the pipe would fail the server's exit.
            all_completed = True
            with (
                open(args.digest_out, "w", encoding="utf-8")
                if args.digest_out
                else contextlib.nullcontext()
            ) as digests:
                async for result in server.rounds():
                    if digests is not None:
                        digests.write(f"{result.digest or 'aborted'}\n")
                        digests.flush()
                    if result.aborted is not None:
                        all_completed = False
                        print(f"round {result.index}: ABORTED: "
                              f"{result.aborted}", file=sys.stderr)
                    else:
                        print(f"round {result.index}: "
                              f"{len(result.included)} included, "
                              f"{len(result.dropped)} dropped "
                              f"({len(result.evicted)} evicted, "
                              f"{len(result.rejected)} rejected at Hello) "
                              f"in {result.wall_duration:.3f}s  "
                              f"digest={result.digest}", file=sys.stderr)
            return all_completed

    all_completed = asyncio.run(run())
    if args.digest_out:
        print(f"digests written to {args.digest_out}", file=sys.stderr)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(server.metrics.snapshot()))
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return 0 if all_completed else 1


def command_swarm(args) -> int:
    """Run a swarm of concurrent SecAgg clients against a server."""
    import asyncio

    from repro.net import SwarmConfig, expected_digest, run_swarm

    config = SwarmConfig(
        clients=args.clients,
        dimension=args.dimension,
        modulus=1 << args.bits,
        threshold=args.threshold,
        seed=args.seed,
        dropouts=args.dropouts,
        dropout_phase=args.dropout_phase,
        bad_version=args.bad_version,
        delay=args.delay,
        jitter=args.jitter,
        chaos_cancel=args.chaos_cancel,
        client_timeout=args.timeout,
        connect_timeout=args.connect_timeout,
        max_retries=args.max_retries,
        transient_disconnects=args.transient_disconnects,
        transient_phase=args.transient_phase,
    )
    result = asyncio.run(run_swarm(args.host, args.port, config))
    for status in ("completed", "dropped", "rejected", "disconnected",
                   "resume-rejected", "cancelled", "error"):
        count = result.count(status)
        if count:
            print(f"{status:>15s}: {count}")
    if result.retries or result.resumes:
        print(f"        retries: {result.retries}")
        print(f"        resumes: {result.resumes}")
    for report in result.reports:
        if report.status == "error":
            print(f"  client {report.index} error: {report.detail}")
    if args.show_expected_digest:
        if args.chaos_cancel:
            print("expected digest: n/a (chaos mode is not replayable "
                  "in memory)")
        else:
            print(f"expected digest: {expected_digest(config)}")
    return 0 if result.completed else 1


def command_chaos(args) -> int:
    """Kill -9 a live server mid-round, restart it, check recovery."""
    from repro.resilience.smoke import run_chaos_smoke

    result = run_chaos_smoke(
        clients=args.clients,
        threshold=args.threshold,
        dropouts=args.dropouts,
        transient_disconnects=args.transient_disconnects,
        dimension=args.dimension,
        bits=args.bits,
        seed=args.seed,
        delay=args.delay,
        timeout=args.timeout,
        work_dir=args.keep_dir,
        log=lambda line: print(line, flush=True),
    )
    for line in result.checks:
        print(f"   ok: {line}")
    for line in result.failures:
        print(f" FAIL: {line}")
    if not result.ok:
        print(f"artifacts kept in {result.work_dir}")
    print("chaos smoke: " + ("PASS" if result.ok else "FAIL"))
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sum_parser = subparsers.add_parser(
        "sum", help="distributed sum estimation sweep"
    )
    _add_common_arguments(sum_parser)
    sum_parser.add_argument("--participants", type=int, default=100)
    sum_parser.add_argument("--dimension", type=int, default=4096)
    sum_parser.add_argument("--trials", type=int, default=1)
    sum_parser.set_defaults(handler=command_sum)

    fl_parser = subparsers.add_parser("fl", help="federated learning sweep")
    _add_common_arguments(fl_parser)
    fl_parser.add_argument("--dataset", choices=["mnist", "fashion"],
                           default="mnist")
    fl_parser.add_argument("--participants", type=int, default=12_000)
    fl_parser.add_argument("--test-records", type=int, default=500)
    fl_parser.add_argument("--batch", type=int, default=100)
    fl_parser.add_argument("--rounds", type=int, default=80)
    fl_parser.add_argument("--hidden", type=int, default=16)
    fl_parser.add_argument("--learning-rate", type=float, default=0.01)
    fl_parser.set_defaults(handler=command_fl)

    calibrate_parser = subparsers.add_parser(
        "calibrate", help="inspect one mechanism's calibration"
    )
    _add_common_arguments(calibrate_parser)
    calibrate_parser.add_argument("--mechanism", choices=MECHANISMS,
                                  default="smm")
    calibrate_parser.add_argument("--participants", type=int, default=100)
    calibrate_parser.add_argument("--dimension", type=int, default=4096)
    calibrate_parser.add_argument("--l2-bound", type=float, default=1.0)
    calibrate_parser.add_argument("--rounds", type=int, default=1)
    calibrate_parser.add_argument("--sampling-rate", type=float, default=1.0)
    calibrate_parser.set_defaults(handler=command_calibrate)

    secagg_parser = subparsers.add_parser(
        "secagg", help="run the Bonawitz protocol with dropouts"
    )
    secagg_parser.add_argument("--clients", type=int, default=8)
    secagg_parser.add_argument("--dimension", type=int, default=64)
    secagg_parser.add_argument("--bits", type=int, default=10)
    secagg_parser.add_argument("--threshold", type=int, default=5)
    secagg_parser.add_argument("--dropouts", type=int, default=2)
    secagg_parser.add_argument("--seed", type=int, default=0)
    secagg_parser.set_defaults(handler=command_secagg)

    simulate_parser = subparsers.add_parser(
        "simulate",
        help="async dropout-tolerant federated simulation",
    )
    simulate_parser.add_argument("--clients", type=int, default=32)
    simulate_parser.add_argument("--cohort", type=int, default=16)
    simulate_parser.add_argument("--rounds", type=int, default=5)
    simulate_parser.add_argument("--bits", type=int, default=16)
    simulate_parser.add_argument("--gamma", type=float, default=None)
    simulate_parser.add_argument("--epsilon", type=float, default=5.0,
                                 help="privacy budget for the whole run")
    simulate_parser.add_argument("--delta", type=float, default=1e-5)
    simulate_parser.add_argument("--no-privacy", action="store_true",
                                 help="train without a mechanism")
    simulate_parser.add_argument("--dropout-rate", type=float, default=0.1,
                                 help="per-round Bernoulli dropout rate")
    simulate_parser.add_argument("--straggler-sigma", type=float, default=0.0,
                                 help="log-normal latency spread (0 = constant)")
    simulate_parser.add_argument("--latency", type=float, default=0.05,
                                 help="median per-phase upload latency (s)")
    simulate_parser.add_argument("--threshold-fraction", type=float,
                                 default=0.6)
    simulate_parser.add_argument("--phase-timeout", type=float, default=60.0)
    simulate_parser.add_argument("--hidden", type=int, default=8)
    simulate_parser.add_argument("--test-records", type=int, default=128)
    simulate_parser.add_argument("--learning-rate", type=float, default=0.01)
    simulate_parser.add_argument("--eval-every", type=int, default=0)
    simulate_parser.add_argument("--dataset", choices=["mnist", "fashion"],
                                 default="mnist")
    simulate_parser.add_argument("--seed", type=int, default=0)
    simulate_parser.add_argument("--verify", action="store_true",
                                 help="check each aggregate against the "
                                      "survivors' direct modular sum")
    simulate_parser.add_argument("--backend",
                                 choices=["inline", "process"],
                                 default="inline",
                                 help="shard execution backend (process = "
                                      "parallel OS process pool, shard "
                                      "vectors shipped in the task pickle)")
    simulate_parser.add_argument("--tree", metavar="SHAPE", default=None,
                                 help="aggregation-tree topology, root level "
                                      "first: '8' composes 8 Bonawitz "
                                      "sub-rounds, '4x4' is an N-level "
                                      "region-to-global tree (default: one "
                                      "flat round)")
    simulate_parser.add_argument("--compose", choices=["clear", "secagg"],
                                 default="clear",
                                 help="how interior tree nodes combine child "
                                      "sums: 'clear' adds them modularly "
                                      "(intermediate sums visible to the "
                                      "server), 'secagg' runs an outer "
                                      "Bonawitz round over them (intermediate "
                                      "sums stay masked); the result is "
                                      "bit-identical either way")
    simulate_parser.add_argument("--rebalance", action="store_true",
                                 help="re-home survivors of a below-threshold "
                                      "shard onto sibling shards before the "
                                      "masking phase commits, instead of "
                                      "dropping them with the shard")
    simulate_parser.add_argument("--metrics-out", metavar="PATH",
                                 default=None,
                                 help="write end-of-run metrics in "
                                      "Prometheus text exposition format")
    simulate_parser.add_argument("--trace-out", metavar="PATH", default=None,
                                 help="write the simulation trace as JSON "
                                      "lines")
    simulate_parser.add_argument("--no-telemetry", action="store_true",
                                 help="skip the metrics registry entirely "
                                      "(results are bit-identical either "
                                      "way)")
    simulate_parser.add_argument("--trace-max-events", type=int, default=None,
                                 help="ring-buffer cap on retained trace "
                                      "events (default: keep all)")
    simulate_parser.add_argument("--chaos", metavar="SCHEDULE", default=None,
                                 help="fault schedule, ';'-separated: "
                                      "kill@<phase>[:rN] (server crash, "
                                      "retried once), abort@<phase>[:rN] "
                                      "(crash, no restart), "
                                      "blackout:<K>@<phase>[:rN], "
                                      "partition:<K>@<phase>/<secs>[:rN]; "
                                      "phases by wire tag, e.g. "
                                      "'kill@masked-input:r2'")
    simulate_parser.set_defaults(handler=command_simulate)

    account_parser = subparsers.add_parser(
        "account", help="RDP vs tight PLD accounting for SMM"
    )
    account_parser.add_argument("--value", type=float, default=1.5)
    account_parser.add_argument("--delta", type=float, default=1e-5)
    account_parser.add_argument(
        "--lambdas", type=float, nargs="+",
        default=[50.0, 100.0, 200.0, 400.0, 800.0],
    )
    account_parser.set_defaults(handler=command_account)

    attack_parser = subparsers.add_parser(
        "attack", help="Mironov floating-point attack demonstration"
    )
    attack_parser.add_argument("--scale", type=float, default=1.0)
    attack_parser.add_argument("--sensitivity", type=float, default=1 / 3)
    attack_parser.add_argument("--trials", type=int, default=500)
    attack_parser.add_argument("--uniform-points", type=int, default=1024)
    attack_parser.add_argument("--mantissa-bits", type=int, default=12)
    attack_parser.add_argument("--seed", type=int, default=0)
    attack_parser.set_defaults(handler=command_attack)

    serve_parser = subparsers.add_parser(
        "serve", help="serve SecAgg rounds over TCP (real sockets)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (0 = ephemeral, printed at "
                                   "start-up)")
    serve_parser.add_argument("--metrics-port", type=int, default=0,
                              help="HTTP /metrics port (0 = ephemeral, "
                                   "-1 = disabled)")
    serve_parser.add_argument("--cohort", type=int, default=16,
                              help="clients admitted into each round")
    serve_parser.add_argument("--threshold", type=int, default=None,
                              help="Shamir threshold (default: cohort // 2)")
    serve_parser.add_argument("--dimension", type=int, default=32)
    serve_parser.add_argument("--bits", type=int, default=16,
                              help="aggregation modulus is 2**bits")
    serve_parser.add_argument("--rounds", type=int, default=1)
    serve_parser.add_argument("--phase-timeout", type=float, default=30.0,
                              help="wall seconds before stragglers are "
                                   "evicted from a phase")
    serve_parser.add_argument("--join-timeout", type=float, default=30.0)
    serve_parser.add_argument("--digest-out", metavar="PATH", default=None,
                              help="write one aggregate digest per round "
                                   "(CI compares against the in-memory "
                                   "transport)")
    serve_parser.add_argument("--metrics-out", metavar="PATH", default=None,
                              help="write final metrics in Prometheus text "
                                   "exposition format")
    serve_parser.add_argument("--journal", metavar="PATH", default=None,
                              help="durable round journal (JSON lines); a "
                                   "restarted server resumes the last "
                                   "committed phase from it")
    serve_parser.add_argument("--resume-grace", type=float, default=0.0,
                              help="seconds a dropped connection is parked "
                                   "awaiting a Resume before eviction "
                                   "(0 = evict immediately, the historical "
                                   "behaviour)")
    serve_parser.add_argument("--round-epsilon", type=float, default=0.0,
                              help="privacy-ledger charge per completed "
                                   "round (journalled idempotently by "
                                   "round id)")
    serve_parser.set_defaults(handler=command_serve)

    swarm_parser = subparsers.add_parser(
        "swarm", help="drive N concurrent SecAgg clients at a server"
    )
    swarm_parser.add_argument("--host", default="127.0.0.1")
    swarm_parser.add_argument("--port", type=int, required=True)
    swarm_parser.add_argument("--clients", type=int, default=16)
    swarm_parser.add_argument("--dimension", type=int, default=32)
    swarm_parser.add_argument("--bits", type=int, default=16)
    swarm_parser.add_argument("--threshold", type=int, default=None,
                              help="Shamir threshold (default: clients // 2;"
                                   " must match the server)")
    swarm_parser.add_argument("--seed", type=int, default=7)
    swarm_parser.add_argument("--dropouts", type=int, default=0,
                              help="deterministic dropouts: the last K "
                                   "indices stop at --dropout-phase")
    swarm_parser.add_argument("--dropout-phase", type=int, default=2,
                              choices=[0, 1, 2, 3])
    swarm_parser.add_argument("--bad-version", type=int, default=0,
                              help="clients proposing an unsupported "
                                   "protocol version (typed Reject)")
    swarm_parser.add_argument("--delay", type=float, default=0.0,
                              help="fixed sleep before every send (s)")
    swarm_parser.add_argument("--jitter", type=float, default=0.0,
                              help="max deterministic per-client extra "
                                   "delay (s)")
    swarm_parser.add_argument("--chaos-cancel", type=int, default=0,
                              help="client tasks cancelled mid-round")
    swarm_parser.add_argument("--timeout", type=float, default=60.0,
                              help="per-delivery client timeout (s)")
    swarm_parser.add_argument("--connect-timeout", type=float, default=10.0,
                              help="seconds before a dial attempt is "
                                   "abandoned (fixes the historical hang "
                                   "against a dead address)")
    swarm_parser.add_argument("--max-retries", type=int, default=0,
                              help="reconnect/resume attempts per client "
                                   "with capped exponential backoff "
                                   "(0 = fail fast, the historical "
                                   "behaviour)")
    swarm_parser.add_argument("--transient-disconnects", type=int, default=0,
                              help="clients that deliberately drop their "
                                   "TCP connection at --transient-phase and "
                                   "resume (requires --max-retries > 0)")
    swarm_parser.add_argument("--transient-phase", type=int, default=2,
                              choices=[1, 2, 3],
                              help="phase at which transient clients "
                                   "disconnect")
    swarm_parser.add_argument("--show-expected-digest", action="store_true",
                              help="also print the in-memory reference "
                                   "digest for this schedule")
    swarm_parser.set_defaults(handler=command_swarm)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="kill -9 a live server mid-round, restart it, and assert "
             "the recovered round's digest and ledger charge",
    )
    chaos_parser.add_argument("--clients", type=int, default=16)
    chaos_parser.add_argument("--threshold", type=int, default=None,
                              help="Shamir threshold (default: clients // 2)")
    chaos_parser.add_argument("--dropouts", type=int, default=3)
    chaos_parser.add_argument("--transient-disconnects", type=int, default=2)
    chaos_parser.add_argument("--dimension", type=int, default=32)
    chaos_parser.add_argument("--bits", type=int, default=16)
    chaos_parser.add_argument("--seed", type=int, default=7)
    chaos_parser.add_argument("--delay", type=float, default=0.25,
                              help="per-phase client delay; widens the "
                                   "mid-round window the kill lands in")
    chaos_parser.add_argument("--timeout", type=float, default=180.0,
                              help="overall smoke deadline (s)")
    chaos_parser.add_argument("--keep-dir", metavar="PATH", default=None,
                              help="run in PATH and keep the journal and "
                                   "server logs (default: temp dir, "
                                   "deleted on success)")
    chaos_parser.set_defaults(handler=command_chaos)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
