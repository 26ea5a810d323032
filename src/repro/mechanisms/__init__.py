"""Calibrated sum estimators: SMM, DGM and the paper's four baselines."""

from __future__ import annotations

from repro.config import CompressionConfig
from repro.errors import ConfigurationError
from repro.mechanisms.base import (
    DistributedSumEstimator,
    InputSpec,
    SumEstimator,
    clip_l2,
)
from repro.mechanisms.cpsgd import CpSgdMechanism
from repro.mechanisms.ddg import DistributedDiscreteGaussian
from repro.mechanisms.dgm import DiscreteGaussianMixtureMechanism
from repro.mechanisms.gaussian import GaussianMechanism
from repro.mechanisms.rounding import (
    DEFAULT_BETA,
    conditional_round,
    conditional_rounding_bound,
    stochastic_round,
)
from repro.mechanisms.skellam import SkellamMechanism
from repro.mechanisms.smm import SkellamMixtureMechanism

__all__ = [
    "CpSgdMechanism",
    "DEFAULT_BETA",
    "DiscreteGaussianMixtureMechanism",
    "DistributedDiscreteGaussian",
    "DistributedSumEstimator",
    "GaussianMechanism",
    "InputSpec",
    "SkellamMechanism",
    "SkellamMixtureMechanism",
    "SumEstimator",
    "build_mechanism",
    "clip_l2",
    "conditional_round",
    "conditional_rounding_bound",
    "stochastic_round",
]

_DISTRIBUTED = {
    kind.name: kind
    for kind in (
        SkellamMixtureMechanism,
        DiscreteGaussianMixtureMechanism,
        DistributedDiscreteGaussian,
        SkellamMechanism,
        CpSgdMechanism,
    )
}


def build_mechanism(
    name: str, compression: CompressionConfig | None = None
) -> SumEstimator:
    """The mechanism called ``name``: a distributed mechanism's
    :attr:`~repro.mechanisms.base.SumEstimator.name`, which needs
    ``compression``, or ``"gaussian"`` (the figures' ``"dpsgd"``), which
    ignores it.  Anything else is a :class:`ConfigurationError`."""
    if name in (GaussianMechanism.name, "dpsgd"):
        return GaussianMechanism()
    if name not in _DISTRIBUTED:
        raise ConfigurationError(f"unknown mechanism {name!r}")
    if compression is None:
        raise ConfigurationError(f"mechanism {name!r} needs a compression")
    return _DISTRIBUTED[name](compression)
