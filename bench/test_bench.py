"""Checks on the benchmark itself; run with ``python -m pytest bench -q``.

``bench/`` is outside the repo's ``testpaths``, so tier-1 does not
collect this file.  One ``--quick`` run of the whole command (tiny
cohorts, two rounds) is shared by the tests that read its report.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick",
         "--seconds", "0.1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((out / "bench-run.json").read_text()), done.stdout, out


def test_spec_is_within_the_contract_limits():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


def test_every_declared_metric_is_reported_finite_with_its_unit(report):
    data, stdout, _ = report
    assert list(data["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for runs in data["workloads"].values():
        for run in runs:
            assert run["correct"] and run["failed"] == 0 < run["attempted"]
            assert set(run["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
            for metric in SPEC["end_to_end"]:
                entry = run["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert math.isfinite(entry["value"]) and entry["value"] > 0
    layers = data["per_layer"]
    assert layers["correct"]
    assert set(layers["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        entry = layers["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        assert metric["name"] in stdout  # printed by name, not only written


def test_trace_file_has_one_closed_span_per_line(report):
    _, _, out = report
    lines = [
        json.loads(line)
        for line in next(out.glob("trace-*.jsonl")).read_text().splitlines()
    ]
    assert lines and all(line["end"] >= line["start"] for line in lines)
    assert all(
        line["parent"] is None or line["parent"] < line["id"] for line in lines
    )


def test_a_run_leaves_no_process_behind(tmp_path):
    """The traced pass starts a server, shard pools and, through
    ``multiprocessing``, a resource tracker that outlives its parent."""
    # Output goes to a file: waiting on a pipe would wait for whoever
    # else still holds it, which is the very thing under test.
    with open(tmp_path / "output.txt", "w") as output:
        run = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--quick",
             "--seconds", "0.1", "--workload", "tree_secagg", "--trace", "1",
             "--out", str(tmp_path)],
            stdout=output, stderr=output, start_new_session=True,
        )
        assert run.wait(timeout=120) == 0, (tmp_path / "output.txt").read_text()
    sessions = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            sessions.append(int(stat.read_text().rsplit(")", 1)[1].split()[3]))
        except OSError:
            pass  # ended while we were looking
    # The run led a session of its own, so its pid names the session.
    assert run.pid not in sessions


def test_hand_driven_round_is_run_bonawitz():
    import layers
    import spans
    from repro.secagg import run_bonawitz

    inputs = np.random.default_rng(3).integers(0, 2**16, size=(9, 5))
    dropouts = {2: 2, 7: 3}
    server, stages, _ = layers.hand_driven_round(
        spans.Tracer(), "test", inputs, 5, np.random.default_rng(4), dropouts
    )
    reference = run_bonawitz(
        inputs, 2**16, 5, np.random.default_rng(4), dropouts=dropouts
    )
    assert server.modular_sum.tobytes() == reference.modular_sum.tobytes()
    assert server.included == reference.included
    assert server.stats.total_bytes == reference.wire.total_bytes
    assert len(stages) == 14  # construct, key warm-up, 3 spans × 4 phases


def test_socket_oracle_is_the_in_memory_protocol():
    import workloads
    from repro.net import SwarmConfig, expected_digest

    config = SwarmConfig(clients=9, dimension=7, threshold=4, dropouts=2, seed=5)
    assert workloads.swarm_digest(config) == expected_digest(config)


def test_self_time_is_span_minus_children():
    import spans

    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (_, start, end, _, _), (_, inner_start, inner_end, parent, _) = tracer.spans
    assert parent == 0
    own = tracer.self_times()
    assert own["inner"] == inner_end - inner_start
    assert own["outer"] == pytest.approx((end - start) - own["inner"])


def test_compare_verdicts():
    import compare

    assert compare.verdict([10.0], [10.5], "lower", 0.1) == "within-bound"
    assert compare.verdict([10.0], [12.0], "lower", 0.1) == "worse"
    assert compare.verdict([10.0], [12.0], "higher", 0.1) == "improved"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, [11.0, 12.5, 13.0, 15.0], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [15.0, 16.0, 17.0, 18.0], "lower", 0.1) == "worse"
