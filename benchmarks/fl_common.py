"""Shared FL-benchmark configuration (Figures 2, 3 and 5).

Scaled-down geometry per DESIGN.md §4.  The scale map preserves the
regime ratio ``d / (4 gamma^2)`` that governs the conditional-rounding
penalty: the paper's (d = 63,610 -> padded 65,536, gamma = m/4) maps to
our (d = 12,730 -> padded 16,384, gamma = m/8), so each bitwidth sits in
the same sensitivity regime as the corresponding paper panel.

``REPRO_BENCH_FULL=1`` restores the paper's exact geometry (hidden=80,
60k participants, |B|=240, T=1000; hours of CPU time).
"""

from __future__ import annotations

import dataclasses
import time
import warnings

import numpy as np

from repro.config import CompressionConfig, PrivacyBudget
from repro.fl import (
    FederatedTrainer,
    MLPClassifier,
    TrainingConfig,
    fashion_mnist_surrogate,
    mnist_surrogate,
)
from repro.mechanisms import build_mechanism

from benchmarks.conftest import FULL_SCALE


@dataclasses.dataclass(frozen=True)
class FlBenchScale:
    """Geometry of one FL benchmark run."""

    participants: int
    test_records: int
    hidden: int
    batch: int
    rounds: int
    learning_rate: float


SCALE = (
    FlBenchScale(
        participants=60_000,
        test_records=10_000,
        hidden=80,
        batch=240,
        rounds=1000,
        learning_rate=0.005,
    )
    if FULL_SCALE
    else FlBenchScale(
        participants=12_000,
        test_records=500,
        hidden=16,
        batch=100,
        rounds=80,
        learning_rate=0.01,
    )
)

#: (modulus, gamma) per bitwidth; gamma = m/8 at bench scale preserves the
#: paper's d/(4 gamma^2) regime (gamma = m/4 at full scale).
GAMMA_DIVISOR = 4 if FULL_SCALE else 8
PANELS = {
    "2^6": (2**6, 2**6 / GAMMA_DIVISOR),
    "2^8": (2**8, 2**8 / GAMMA_DIVISOR),
    "2^10": (2**10, 2**10 / GAMMA_DIVISOR),
}

_DATASETS: dict[str, tuple] = {}


def load_dataset(name: str):
    """Build (and cache) the MNIST / Fashion-MNIST surrogate."""
    if name not in _DATASETS:
        rng = np.random.default_rng(20220602)
        maker = mnist_surrogate if name == "mnist" else fashion_mnist_surrogate
        _DATASETS[name] = maker(rng, SCALE.participants, SCALE.test_records)
    return _DATASETS[name]


def train_point(
    mechanism_name: str,
    panel: str | None,
    epsilon: float,
    batch: int | None = None,
    gamma: float | None = None,
    seed: int = 1,
) -> float:
    """Train one FL grid cell; returns final test accuracy (nan on
    infeasible calibration)."""
    from repro.errors import CalibrationError

    train, test = load_dataset(train_point.dataset)
    if panel is None:
        compression = None
    else:
        modulus, default_gamma = PANELS[panel]
        compression = CompressionConfig(
            modulus=modulus, gamma=gamma if gamma is not None else default_gamma
        )
    mechanism = build_mechanism(mechanism_name, compression)
    model = MLPClassifier(
        [train.num_features, SCALE.hidden, train.num_classes],
        np.random.default_rng(seed),
    )
    config = TrainingConfig(
        rounds=SCALE.rounds,
        expected_batch=batch if batch is not None else SCALE.batch,
        budget=PrivacyBudget(epsilon=epsilon),
        learning_rate=SCALE.learning_rate,
    )
    trainer = FederatedTrainer(model, mechanism, train, test, config)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            history = trainer.run(np.random.default_rng(seed + 1))
    except CalibrationError:
        return float("nan")
    return history.final_accuracy


#: Which surrogate the next train_point call uses (set per bench module).
train_point.dataset = "mnist"


def timed(fn):
    """Run ``fn`` returning (result, seconds)."""
    start = time.time()
    result = fn()
    return result, time.time() - start
