"""Shared fixtures for the figure/table reproduction benchmarks.

Each benchmark regenerates one panel (or series) of a paper figure and
prints the measured rows through the ``emit`` fixture, which bypasses
pytest's output capture so the series tables appear in
``pytest benchmarks/ --benchmark-only`` output.  Results are also
appended to ``benchmarks/results/*.txt`` when a test names a file.

Scaled-down defaults (DESIGN.md §4): the accountant is exact at any
scale, so mechanism orderings and bitwidth crossovers match the paper;
absolute wall-clock-bounded quantities (rounds, dataset size) are
smaller.  Environment variable ``REPRO_BENCH_FULL=1`` switches the FL
benchmarks to the paper's full geometry (slow).
"""

from __future__ import annotations

import os
import pathlib
import platform

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Paper-scale toggle for the heavy FL benches.
FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Rolling window per results file: appends beyond this many lines drop
#: the oldest lines, so repeated benchmark runs stop growing the files
#: without bound (overridable for archival runs).
RESULTS_MAX_LINES = int(os.environ.get("REPRO_BENCH_MAX_LINES", "60"))


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


#: One-line environment stamp prefixed to each session's emission block
#: per results file — committed trajectories are only comparable when
#: the hardware behind them is visible.
ENV_HEADER = (
    f'# env cpus={os.cpu_count()} cpu="{_cpu_model()}" '
    f"python={platform.python_version()}"
)

#: Results files already stamped with :data:`ENV_HEADER` this session.
_env_stamped: set[str] = set()


def _persist(line: str, filename: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    lines = path.read_text().splitlines() if path.exists() else []
    lines = [prior for prior in lines if prior != line]
    lines.append(line)
    path.write_text("\n".join(lines[-RESULTS_MAX_LINES:]) + "\n")


@pytest.fixture
def emit(capsys):
    """Print a line through pytest's capture (and persist it to a file).

    Persisted files keep a rolling window of the most recent
    :data:`RESULTS_MAX_LINES` lines, and appends are idempotent: a line
    identical to one already in the file (a re-run of a deterministic
    benchmark, a doubled CI artifact merge, results re-committed on top
    of themselves) *moves* the existing line to the tail instead of
    double-appending it, so repeated runs can never grow the file with
    duplicates.  The session's first persisted line per file is preceded
    by the :data:`ENV_HEADER` stamp, so each run's block records the
    hardware it was measured on.
    """

    def _emit(line: str, filename: str | None = None) -> None:
        with capsys.disabled():
            print(line)
        if filename is not None:
            if filename not in _env_stamped:
                _env_stamped.add(filename)
                _persist(ENV_HEADER, filename)
            _persist(line, filename)

    return _emit


@pytest.fixture(scope="session")
def best_of():
    """Best-of-N sampler for noise-sensitive measurements.

    Calls ``func`` ``repeats`` times and returns the result whose
    ``key`` is highest (default: the result itself — suited to
    throughput figures, where the best run is the least-perturbed one).
    """

    def _best(repeats: int, func, key=lambda result: result):
        best = None
        for _ in range(repeats):
            result = func()
            if best is None or key(result) > key(best):
                best = result
        return best

    return _best


@pytest.fixture(scope="session")
def interleaved_pairs():
    """Spread-aware A/B sampler for relative-cost guards.

    Runs ``baseline`` and ``guarded`` alternately ``pairs`` times and
    returns the ``(baseline, guarded)`` results pair by pair.  Host
    speed drifts by more than the bounds these guards assert, but it
    drifts slowly, so the two runs of one pair see the same machine: a
    real regression loses *every* pair by more than the bound, jitter
    does not.  A guard should fail only on the former.
    """

    def _pairs(pairs: int, baseline, guarded) -> list[tuple]:
        return [(baseline(), guarded()) for _ in range(pairs)]

    return _pairs


@pytest.fixture(scope="session")
def bench_rng():
    """Session-wide deterministic generator for benchmark inputs."""
    return np.random.default_rng(20220601)
