"""Black-box SecAgg *contract* simulator over ``Z_m^d``.

The paper treats SecAgg (Bonawitz et al.) as a black box with one
behaviour: given one vector in ``Z_m^d`` per participant, it reveals *only*
the coordinate-wise modular sum — no party (server included) learns
anything else about an individual vector.  The DP analysis (Section 2.4)
relies exactly on this input/output contract, so the simulator reproduces
it faithfully:

* every participant's transmitted message is their input plus masks that
  are uniform over ``Z_m`` (individually, each message is marginally
  uniform — the confidentiality property), and
* the masks cancel in the aggregate, so the revealed modular sum equals
  the modular sum of the true inputs (the correctness property).

.. note::
   This module is **not** a protocol implementation — it has no rounds,
   no key agreement, no dropout story.  The protocol itself lives in the
   sans-I/O core (:mod:`repro.secagg.wire` typed messages +
   :mod:`repro.secagg.statemachine` sessions) and its transports
   (:func:`repro.secagg.bonawitz.run_bonawitz`,
   :class:`repro.simulation.rounds.AsyncSecAggRound`); reach it from
   here with ``secure_sum(..., scheme="bonawitz")``.  What remains here
   is the fast input/output contract the experiment pipelines batch
   against.

Two mask schemes are provided.  :class:`PairwiseMaskProtocol` mirrors the
real protocol's mask structure — each unordered pair of participants
expands a shared seed into a mask that one adds and the other subtracts
(``O(n^2 d)`` work) — and since the sans-I/O refactor it expands those
masks through the *same* kernel layer the Bonawitz core uses
(:func:`repro.secagg.kernels.sum_signed_masks`), so the repository has
exactly one pairwise-mask implementation.  :class:`ZeroSumMaskProtocol`
samples ``n - 1`` uniform masks and gives the last participant the
negated sum (``O(n d)`` work) — the same marginal-uniformity and
cancellation properties under the paper's honest-but-curious,
no-collusion threat model, used by the experiment pipelines for speed.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.kernels import MaskPrg, get_mask_prg, sum_signed_masks


def _validate_inputs(inputs: np.ndarray, modulus: int) -> np.ndarray:
    """Check that ``inputs`` is an ``(n, d)`` integer array over ``Z_m``."""
    inputs = np.asarray(inputs)
    if inputs.ndim != 2:
        raise AggregationError(
            f"expected a (participants, dimension) array, got ndim={inputs.ndim}"
        )
    if not np.issubdtype(inputs.dtype, np.integer):
        raise AggregationError(
            f"SecAgg inputs must be integers, got dtype={inputs.dtype}"
        )
    if inputs.size and (inputs.min() < 0 or inputs.max() >= modulus):
        raise AggregationError(
            f"SecAgg inputs must lie in [0, {modulus}), got range "
            f"[{inputs.min()}, {inputs.max()}]"
        )
    return inputs.astype(np.int64)


class SecureAggregator(abc.ABC):
    """Black-box secure aggregation of integer vectors over ``Z_m``.

    Args:
        modulus: The group modulus ``m``; must be an even integer >= 2.
        rng: Generator used to draw the (simulated) shared mask seeds.
    """

    def __init__(self, modulus: int, rng: np.random.Generator) -> None:
        if modulus < 2 or modulus % 2 != 0:
            raise ConfigurationError(
                f"modulus must be an even integer >= 2, got {modulus}"
            )
        self._modulus = modulus
        self._rng = rng

    @property
    def modulus(self) -> int:
        """The group modulus ``m``."""
        return self._modulus

    @abc.abstractmethod
    def _masks(self, num_participants: int, dimension: int) -> np.ndarray:
        """Return an ``(n, d)`` mask array whose modular column sums are 0."""

    def transmit(self, inputs: np.ndarray) -> np.ndarray:
        """Produce the masked messages each participant would send.

        Args:
            inputs: ``(n, d)`` integer array with entries in ``Z_m``.

        Returns:
            ``(n, d)`` array of masked messages, each entry in ``Z_m``.
        """
        inputs = _validate_inputs(inputs, self._modulus)
        masks = self._masks(inputs.shape[0], inputs.shape[1])
        return np.mod(inputs + masks, self._modulus)

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Aggregate: reveal only the coordinate-wise modular sum.

        Args:
            inputs: ``(n, d)`` integer array with entries in ``Z_m``.

        Returns:
            Length-``d`` int64 array equal to ``sum_i inputs[i] mod m``.
        """
        messages = self.transmit(inputs)
        return np.mod(messages.sum(axis=0, dtype=np.int64), self._modulus)


class PairwiseMaskProtocol(SecureAggregator):
    """Pairwise-mask structure of the real protocol, over the kernel core.

    Each unordered pair ``(i, j)`` with ``i < j`` shares a seed; the seed
    expands into a uniform vector over ``Z_m`` that participant ``i`` adds
    and participant ``j`` subtracts.  Masks therefore cancel exactly in
    the aggregate while each individual message is marginally uniform.

    The expansion runs on the same :class:`~repro.secagg.kernels.MaskPrg`
    backends the Bonawitz sessions negotiate on the wire — this class is
    a trivial no-dropout driver over that core, kept for the experiment
    pipelines; for protocol fidelity (key agreement, Shamir recovery,
    versioned wire messages) use ``secure_sum(scheme="bonawitz")``.

    Args:
        modulus: The group modulus ``m``; must be an even integer >= 2.
        rng: Generator the pairwise seeds are drawn from.
        mask_prg: Mask PRG suite name or instance (``"shake256"``
            default, ``"sha256-ctr"`` compatibility).
    """

    def __init__(
        self,
        modulus: int,
        rng: np.random.Generator,
        mask_prg: MaskPrg | str | None = None,
    ) -> None:
        super().__init__(modulus, rng)
        self._mask_prg = get_mask_prg(mask_prg)

    def _masks(self, num_participants: int, dimension: int) -> np.ndarray:
        masks = np.zeros((num_participants, dimension), dtype=np.int64)
        # One 16-byte seed per unordered pair, drawn in deterministic
        # (i, j) order; participant i carries +PRG(s_ij), j carries
        # -PRG(s_ij) — the Bonawitz sign convention.
        seeds_per_peer: list[list[bytes]] = [[] for _ in range(num_participants)]
        signs_per_peer: list[list[int]] = [[] for _ in range(num_participants)]
        for i in range(num_participants):
            for j in range(i + 1, num_participants):
                seed = self._rng.bytes(16)
                seeds_per_peer[i].append(seed)
                signs_per_peer[i].append(1)
                seeds_per_peer[j].append(seed)
                signs_per_peer[j].append(-1)
        for i in range(num_participants):
            if seeds_per_peer[i]:
                masks[i] = sum_signed_masks(
                    seeds_per_peer[i],
                    signs_per_peer[i],
                    dimension,
                    self._modulus,
                    self._mask_prg,
                )
        return masks


class ZeroSumMaskProtocol(SecureAggregator):
    """Efficient zero-sum mask SecAgg for large simulations.

    Samples ``n - 1`` uniform masks and assigns the last participant the
    negated modular sum.  Under the paper's threat model (honest-but-
    curious, no two parties collude) this presents the same view as the
    pairwise protocol: each message is marginally uniform and only the
    modular sum is revealed.
    """

    def _masks(self, num_participants: int, dimension: int) -> np.ndarray:
        if num_participants == 1:
            # A single participant's message is revealed as the sum by
            # definition; mask with zero.
            return np.zeros((1, dimension), dtype=np.int64)
        head = self._rng.integers(
            0, self._modulus, size=(num_participants - 1, dimension), dtype=np.int64
        )
        tail = np.mod(-head.sum(axis=0, dtype=np.int64), self._modulus)
        return np.concatenate([head, tail[np.newaxis, :]], axis=0)


def secure_sum(
    inputs: np.ndarray,
    modulus: int,
    rng: np.random.Generator,
    scheme: str = "zero-sum",
) -> np.ndarray:
    """Convenience wrapper: aggregate ``inputs`` with the chosen scheme.

    Args:
        inputs: ``(n, d)`` integer array with entries in ``Z_m``.
        modulus: The group modulus ``m``.
        rng: Generator for mask randomness.
        scheme: ``"zero-sum"`` (fast), ``"pairwise"`` (faithful masks), or
            ``"bonawitz"`` (the full four-round protocol of
            :mod:`repro.secagg.bonawitz` with a majority threshold —
            slowest, highest fidelity; requires ``n >= 2``).

    Returns:
        Length-``d`` modular sum.
    """
    if scheme == "bonawitz":
        from repro.secagg.bonawitz import run_bonawitz

        num_participants = np.asarray(inputs).shape[0]
        threshold = max(2, num_participants // 2 + 1)
        return run_bonawitz(inputs, modulus, threshold, rng).modular_sum
    protocols = {
        "zero-sum": ZeroSumMaskProtocol,
        "pairwise": PairwiseMaskProtocol,
    }
    if scheme not in protocols:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; expected one of "
            f"{sorted(protocols) + ['bonawitz']}"
        )
    return protocols[scheme](modulus, rng).run(inputs)
