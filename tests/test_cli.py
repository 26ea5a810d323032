"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro import cli, mechanisms
from repro.cli import main
from repro.config import CompressionConfig
from repro.errors import ConfigurationError
from repro.mechanisms import (
    CpSgdMechanism,
    DiscreteGaussianMixtureMechanism,
    DistributedDiscreteGaussian,
    GaussianMechanism,
    SkellamMechanism,
    SkellamMixtureMechanism,
    build_mechanism,
)


class TestBuildMechanism:
    @pytest.mark.parametrize(
        "name, expected_type",
        [
            ("gaussian", GaussianMechanism),
            ("dpsgd", GaussianMechanism),
            ("smm", SkellamMixtureMechanism),
            ("skellam", SkellamMechanism),
            ("ddg", DistributedDiscreteGaussian),
            ("dgm", DiscreteGaussianMixtureMechanism),
            ("cpsgd", CpSgdMechanism),
        ],
    )
    def test_all_names(self, name, expected_type):
        compression = CompressionConfig(modulus=2**14, gamma=64.0)
        assert isinstance(build_mechanism(name, compression), expected_type)

    def test_distributed_mechanism_requires_compression(self):
        with pytest.raises(ConfigurationError, match="needs a compression"):
            build_mechanism("smm", None)
        with pytest.raises(SystemExit, match="'smm' needs a compression"):
            cli._mechanism("smm", None)

    def test_cli_exits_with_the_refusals_own_message(self, monkeypatch):
        """An unknown name and a constructor refusing its compression
        each exit with what was refused, not with a flag hint."""
        compression = CompressionConfig(2**14, 64.0)
        with pytest.raises(SystemExit, match="unknown mechanism 'laplace'"):
            cli._mechanism("laplace", compression)

        def refuse(compression):
            raise ConfigurationError(
                f"modulus {compression.modulus} is too wide for ddg"
            )

        monkeypatch.setitem(mechanisms._DISTRIBUTED, "ddg", refuse)
        with pytest.raises(SystemExit) as caught:
            cli._mechanism("ddg", compression)
        assert str(caught.value) == "modulus 16384 is too wide for ddg"

    def test_gaussian_needs_no_compression(self):
        assert isinstance(build_mechanism("gaussian"), GaussianMechanism)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown mechanism"):
            build_mechanism("laplace", CompressionConfig(2**14, 64.0))


class TestCommands:
    def test_calibrate_smm(self, capsys):
        exit_code = main(
            [
                "calibrate",
                "--mechanism", "smm",
                "--bits", "14",
                "--epsilons", "3",
                "--dimension", "256",
                "--participants", "50",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "lambda_per_participant" in captured.out
        assert "achieved_epsilon" in captured.out

    def test_calibrate_gaussian(self, capsys):
        exit_code = main(
            ["calibrate", "--mechanism", "gaussian", "--epsilons", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sigma" in captured.out

    def test_sum_command_small(self, capsys):
        exit_code = main(
            [
                "sum",
                "--dimension", "128",
                "--participants", "10",
                "--epsilons", "3",
                "--mechanisms", "gaussian", "smm",
                "--bits", "16",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "gaussian" in captured.out
        assert "smm" in captured.out
        assert "mse" in captured.out

    def test_fl_command_tiny(self, capsys):
        exit_code = main(
            [
                "fl",
                "--participants", "200",
                "--test-records", "50",
                "--batch", "20",
                "--rounds", "3",
                "--hidden", "4",
                "--epsilons", "5",
                "--mechanisms", "gaussian",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "acc=" in captured.out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestNewCommands:
    def test_secagg_command(self, capsys):
        exit_code = main(
            [
                "secagg",
                "--clients", "5",
                "--dimension", "16",
                "--bits", "8",
                "--threshold", "3",
                "--dropouts", "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sum correct: True" in captured.out

    def test_secagg_no_dropouts(self, capsys):
        exit_code = main(
            [
                "secagg",
                "--clients", "4",
                "--dimension", "8",
                "--threshold", "2",
                "--dropouts", "0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "dropped: none" in captured.out
        assert "included in sum: 4 clients" in captured.out

    def test_simulate_command(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--clients", "16",
                "--cohort", "8",
                "--rounds", "2",
                "--hidden", "2",
                "--test-records", "32",
                "--dropout-rate", "0.2",
                "--verify",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cumulative privacy: eps=" in captured.out
        assert "exact=True" in captured.out
        assert "parameters digest:" in captured.out
        assert "wire traffic:" in captured.out
        assert "KiB/round" in captured.out

    def test_simulate_sharded(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--clients", "16",
                "--cohort", "10",
                "--rounds", "1",
                "--hidden", "2",
                "--test-records", "32",
                "--dropout-rate", "0.1",
                "--tree", "2",
                "--verify",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert (
            "sharding: tree 2 (inline backend, clear compose)"
            in captured.out
        )
        assert "exact=True" in captured.out

    def test_simulate_tree(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--clients", "16",
                "--cohort", "10",
                "--rounds", "1",
                "--hidden", "2",
                "--test-records", "32",
                "--dropout-rate", "0.1",
                "--tree", "2x2",
                "--compose", "secagg",
                "--rebalance",
                "--verify",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert (
            "sharding: tree 2x2 (inline backend, secagg compose, "
            "rebalance on)"
            in captured.out
        )
        assert "exact=True" in captured.out

    def test_simulate_non_private(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--clients", "16",
                "--cohort", "6",
                "--rounds", "1",
                "--hidden", "2",
                "--test-records", "32",
                "--dropout-rate", "0",
                "--no-privacy",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "eps=nan" in captured.out

    def test_simulate_metrics_and_trace_out(self, capsys, tmp_path):
        import json

        from repro.telemetry import parse_prometheus

        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.jsonl"
        exit_code = main(
            [
                "simulate",
                "--clients", "16",
                "--cohort", "8",
                "--rounds", "2",
                "--hidden", "2",
                "--test-records", "32",
                "--dropout-rate", "0.1",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
                "--trace-max-events", "40",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "phase latency" in captured.out
        assert f"metrics written to {metrics_path}" in captured.out
        assert "trace written to" in captured.out
        parsed = parse_prometheus(metrics_path.read_text())
        assert parsed.types["sim_rounds_total"] == "counter"
        assert parsed.types["secagg_phase_sim_duration_seconds"] == (
            "histogram"
        )
        lines = trace_path.read_text().splitlines()
        assert 0 < len(lines) <= 40
        assert all("kind" in json.loads(line) for line in lines)

    def test_simulate_no_telemetry_conflicts_with_metrics_out(self, tmp_path):
        with pytest.raises(SystemExit, match="--no-telemetry"):
            main(
                [
                    "simulate",
                    "--clients", "16",
                    "--cohort", "8",
                    "--no-telemetry",
                    "--metrics-out", str(tmp_path / "m.prom"),
                ]
            )

    def test_simulate_no_telemetry_skips_latency_summary(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--clients", "16",
                "--cohort", "8",
                "--rounds", "1",
                "--hidden", "2",
                "--test-records", "32",
                "--dropout-rate", "0",
                "--no-telemetry",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "phase latency" not in captured.out

    def test_account_command(self, capsys):
        exit_code = main(["account", "--lambdas", "200", "--value", "1.5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "RDP eps" in captured.out
        assert "200.0" in captured.out

    def test_account_expected_failure_prints_reason(
        self, capsys, monkeypatch
    ):
        """An expected accounting failure (no finite RDP order) keeps
        the sweep going and says *why*, not a bare ``n/a``."""
        import repro.accounting.rdp as rdp
        from repro.errors import PrivacyAccountingError

        def no_order(orders, rdp_of, delta):
            raise PrivacyAccountingError(
                "no RDP order yields a finite epsilon"
            )

        monkeypatch.setattr(rdp, "best_epsilon", no_order)
        exit_code = main(["account", "--lambdas", "200", "--value", "1.5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "n/a" in captured.out
        assert "no RDP order yields a finite epsilon" in captured.out

    def test_account_unexpected_error_propagates(self, monkeypatch):
        """A genuine defect in the RDP path must crash the command,
        not be swallowed into an ``n/a`` row."""
        import repro.accounting.rdp as rdp

        def broken(orders, rdp_of, delta):
            raise RuntimeError("defect in the RDP path")

        monkeypatch.setattr(rdp, "best_epsilon", broken)
        with pytest.raises(RuntimeError, match="defect in the RDP path"):
            main(["account", "--lambdas", "200", "--value", "1.5"])

    def test_attack_command(self, capsys):
        exit_code = main(
            [
                "attack",
                "--trials", "100",
                "--uniform-points", "256",
                "--seed", "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "identified outright" in captured.out
        assert "wrong identifications: 0" in captured.out
