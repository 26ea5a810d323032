"""Participant-side gradient encoder (Algorithm 4 of the paper).

The encoder turns a private real-valued gradient into a bounded integer
message for SecAgg:

1. **rotate** — ``g <- H_d D_xi g`` with the shared public rotation
   (flattens the vector so no coordinate dominates; bounds overflow),
2. **scale** — ``g <- gamma * g`` (finer quantisation for larger gamma),
3. **integer step** — the mechanism's
   :meth:`~repro.mechanisms.base.DistributedSumEstimator._encode_integer`:
   for SMM, Algorithm 5's clip then the Skellam mixture; for the
   baselines their rounding step plus their noise,
4. **wrap** — reduce each coordinate modulo ``m``.

The one implementation of these steps: the simulation engine encodes
each participant with it, every distributed mechanism's ``estimate_sum``
its batch (one row per participant, each row as in Algorithm 4).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from repro.config import ClipConfig, CompressionConfig
from repro.core.clipping import clip_gradient
from repro.core.skellam_mixture import smm_perturb
from repro.errors import ConfigurationError
from repro.linalg.hadamard import RandomRotation
from repro.linalg.modular import encode_mod


@dataclasses.dataclass(frozen=True)
class GradientEncoder:
    """Algorithm 4: rotate, scale, integer step, wrap mod m.

    Attributes:
        rotation: The shared public random rotation (also held by the
            server for decoding).
        compression: Modulus ``m`` and scale ``gamma``.
        integer_step: ``(scaled, rng) -> ints``: maps the scaled rotated
            batch to integers before the wrap (a mechanism's
            ``_encode_integer``).
    """

    rotation: RandomRotation
    compression: CompressionConfig
    integer_step: Callable[[np.ndarray, np.random.Generator], np.ndarray]

    def encode(
        self, gradients: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Full Algorithm 4: produce SecAgg-ready messages in ``Z_m``.

        Args:
            gradients: ``(d,)`` or ``(n, d)`` real array.
            rng: Numpy random generator for the integer step's draws.

        Returns:
            Integer array of padded width with entries in ``[0, m)``.
        """
        rotated = self.rotation.forward(np.asarray(gradients, dtype=np.float64))
        integers = self.integer_step(self.compression.gamma * rotated, rng)
        return encode_mod(integers, self.compression.modulus)


@dataclasses.dataclass(frozen=True)
class _SkellamEncoder(GradientEncoder):
    """A :class:`GradientEncoder` with SMM's integer step, which keeps
    the Algorithm 5 thresholds that step clips to readable."""

    clip: ClipConfig


def skellam_encoder(
    rotation: RandomRotation,
    compression: CompressionConfig,
    clip: ClipConfig,
    lam: float,
) -> GradientEncoder:
    """The SMM participant encoder: Algorithm 5, then ``Sk(lam, lam)``
    (:class:`~repro.mechanisms.smm.SkellamMixtureMechanism`'s integer
    step at a given clip and ``lam``).

    Args:
        rotation: Shared public rotation.
        compression: Wire format (``m``, ``gamma``).
        clip: Mixture clipping thresholds.
        lam: Per-participant Skellam parameter.

    Returns:
        A ready-to-use :class:`GradientEncoder`.
    """
    if not lam > 0:
        raise ConfigurationError(f"lambda must be positive, got {lam}")
    return _SkellamEncoder(
        rotation=rotation,
        compression=compression,
        integer_step=lambda scaled, rng: smm_perturb(
            clip_gradient(scaled, clip), lam, rng
        ),
        clip=clip,
    )
