"""Composition of shard-level secure aggregates.

Hierarchical secure aggregation structures a large federation as ``k``
independent SecAgg instances — one per shard of the cohort — whose
outputs are combined at each interior node of the aggregation tree.
:func:`compose` does that one of two ways, selected by name
(:data:`COMPOSERS`):

* ``"clear"`` — the outer modular addition of the hybrid approach
  (Truex et al., DDP-SA): free, but the composing server sees every
  intermediate shard sum in plaintext.  Because modular addition over
  the same ``Z_m`` is associative and commutative,

  ``(Σ_{u ∈ S_1} x_u mod m) + ... + (Σ_{u ∈ S_k} x_u mod m)  mod m``

  is *bit-identical* to the flat sum over the union of the shards'
  survivor sets.  That identity is what the simulation's
  ``verify_aggregate`` oracle asserts round by round.
* ``"secagg"`` — an outer Bonawitz round over the child sums
  (:func:`repro.secagg.tree.run_composition_round`), each the private
  input of a virtual client, so the composing node only ever receives
  *masked* inputs and no intermediate aggregate is exposed.  Masks
  cancel over the (complete) virtual-client set, so the composed sum is
  bit-identical to the clear composition — the choice changes who can
  see what, never the sum.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.secagg.tree import run_composition_round
from repro.secagg.wire import WireStats
from repro.telemetry.registry import MetricsRegistry


def compose_shard_sums(
    shard_sums: Sequence[np.ndarray], modulus: int
) -> np.ndarray:
    """Outer modular addition of per-shard secure aggregates.

    Args:
        shard_sums: One modular sum per (successful) shard, all of the
            same 1-d shape over ``Z_m``.
        modulus: The shared aggregation modulus ``m``.

    Returns:
        ``Σ_shards shard_sum mod m`` as a length-``d`` int64 array —
        equal to the flat modular sum over the union of the shards'
        included clients.

    Raises:
        ConfigurationError: If no sums are given or shapes disagree.
    """
    if modulus < 2:
        raise ConfigurationError(f"modulus must be >= 2, got {modulus}")
    if not shard_sums:
        raise ConfigurationError("need at least one shard sum to compose")
    arrays = [np.asarray(shard_sum, dtype=np.int64) for shard_sum in shard_sums]
    shapes = {array.shape for array in arrays}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ConfigurationError(
            f"shard sums must share one 1-d shape, got {shapes}"
        )
    total = np.zeros_like(arrays[0])
    for array in arrays:
        total = np.mod(total + array, modulus)
    return total


#: How an interior node may combine its children's sums — the values
#: of the ``--compose`` / ``composer=`` / config knob.
COMPOSERS = ("clear", "secagg")


def compose(
    child_sums: Sequence[np.ndarray],
    modulus: int,
    how: str = "clear",
    rng: np.random.Generator | None = None,
    level: int = 0,
    metrics: MetricsRegistry | None = None,
) -> tuple[np.ndarray, WireStats | None]:
    """Combine one interior tree node's child sums into one modular sum.

    ``"clear"`` runs are deliberately *visible*: each increments
    ``compose_clear_total`` so privacy-relevant configuration shows up
    in ``/metrics``.  Under ``"secagg"`` a single child is passed
    through unchanged — there is nothing to hide from a node with one
    child; its "intermediate" sum *is* its output.

    Args:
        child_sums: At least one per-child modular sum, all of the
            same 1-d shape over ``Z_m``.
        modulus: The shared aggregation modulus ``m``.
        how: One of :data:`COMPOSERS`.
        rng: Node-local randomness (required by ``"secagg"`` with two
            or more children, ignored by ``"clear"``).
        level: Tree depth of the composing node (0 = root), used only
            for telemetry labels.
        metrics: Optional registry for composition-side instruments.

    Returns:
        ``(Σ child_sums mod m, wire)`` where ``wire`` accounts for the
        composition round itself and is ``None`` when composition
        needed no protocol (clear addition, single-child passthrough).

    Raises:
        ConfigurationError: For an unknown ``how``, no child sums,
            mismatched shapes, or ``"secagg"`` without ``rng``.
    """
    if how not in COMPOSERS:
        raise ConfigurationError(
            f"unknown composer {how!r}; expected one of {sorted(COMPOSERS)}"
        )
    if how == "clear":
        total = compose_shard_sums(child_sums, modulus)
        if metrics is not None:
            metrics.counter(
                "compose_clear_total",
                "Interior-node compositions performed in the clear "
                "(intermediate sums visible to the composing node).",
            ).labels(level=str(level)).inc()
        return total, None
    if not child_sums:
        raise ConfigurationError("need at least one shard sum to compose")
    if len(child_sums) == 1:
        only = np.asarray(child_sums[0], dtype=np.int64)
        return np.mod(only, modulus), None
    if rng is None:
        raise ConfigurationError(
            "the secagg composer needs node-local randomness (rng)"
        )
    return run_composition_round(child_sums, modulus, rng, metrics=metrics)
