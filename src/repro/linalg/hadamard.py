"""Randomised Walsh-Hadamard rotation (line 1 of Algorithm 4).

Every distributed mechanism in the paper first flattens each participant's
gradient with the map ``g -> H_d D_xi g`` where ``H_d`` is the normalised
``d x d`` Walsh-Hadamard matrix (``H^T H = I``) and ``D_xi`` is a diagonal
of public i.i.d. random signs.  After the rotation every coordinate is
sub-Gaussian with variance ``O(||g||_2^2 / d)``, which bounds the overflow
probability of the modular aggregation.

The transform is computed in ``O(d log d)`` with the iterative butterfly
(no ``d x d`` matrix is ever materialised) and operates on a batch of rows
at once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError


def is_power_of_two(value: int) -> bool:
    """Return True iff ``value`` is a positive integral power of two."""
    return value >= 1 and (value & (value - 1)) == 0


def next_power_of_two(value: int) -> int:
    """Smallest power of two that is >= ``value`` (``value`` must be >= 1)."""
    if value < 1:
        raise ConfigurationError(f"value must be >= 1, got {value}")
    return 1 << (value - 1).bit_length()


#: Stages that pair cells closer than this run on a transposed copy, where
#: each stage is a few long contiguous loops instead of many ``half``-long ones.
_SHORT_STRIDE = 64


def _butterfly_stage(source: np.ndarray, target: np.ndarray, width: int) -> None:
    """One butterfly stage: each pair of ``width``-long runs becomes its sum
    and difference in ``target`` (both flat buffers of the same size)."""
    pairs = source.reshape(-1, 2, width)
    out = target.reshape(-1, 2, width)
    np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0])
    np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1])


def fast_walsh_hadamard(matrix: np.ndarray) -> np.ndarray:
    """Apply the normalised Walsh-Hadamard transform to each row.

    The ``log2 d`` butterfly stages ping-pong between two flat buffers.
    Stages that pair cells fewer than 64 apart run on a transposed copy
    (cell ``j`` of every 64-cell block in one contiguous row), so every
    inner loop is long; the rest run on the rows.  Each stage is the
    same additions and subtractions whatever the layout, so the output is
    bit-for-bit that of the textbook in-place butterfly.

    Args:
        matrix: Array of shape ``(batch, d)`` or ``(d,)`` with ``d`` a
            power of two.

    Returns:
        ``matrix @ H_d^T`` (``H`` is symmetric, so equivalently
        ``H_d`` applied to each row), same shape, float64, normalised so
        the transform is orthonormal (applying it twice is the identity).
    """
    single_vector = matrix.ndim == 1
    if matrix.ndim not in (1, 2):
        raise ConfigurationError(
            f"expected a vector or a batch of rows, got ndim={matrix.ndim}"
        )
    rows = np.atleast_2d(matrix)
    batch, dimension = rows.shape
    if not is_power_of_two(dimension):
        raise ConfigurationError(
            f"Walsh-Hadamard dimension must be a power of two, got {dimension}"
        )
    block = min(dimension, _SHORT_STRIDE)
    columns = batch * dimension // block
    work = np.empty(batch * dimension)
    spare = np.empty_like(work)
    np.copyto(work.reshape(block, columns), rows.reshape(columns, block).T)
    half = 1
    while half < block:
        _butterfly_stage(work, spare, half * columns)
        work, spare = spare, work
        half *= 2
    np.copyto(spare.reshape(columns, block), work.reshape(block, columns).T)
    work, spare = spare, work
    while half < dimension:
        _butterfly_stage(work, spare, half)
        work, spare = spare, work
        half *= 2
    work /= np.sqrt(dimension)
    result = work.reshape(batch, dimension)
    return result[0] if single_vector else result


def naive_walsh_hadamard_matrix(dimension: int) -> np.ndarray:
    """Materialise the normalised ``H_d`` by Sylvester recursion (tests only)."""
    if not is_power_of_two(dimension):
        raise ConfigurationError(
            f"dimension must be a power of two, got {dimension}"
        )
    h = np.array([[1.0]])
    while h.shape[0] < dimension:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(dimension)


@dataclasses.dataclass(frozen=True)
class RandomRotation:
    """The shared public rotation ``x -> H_d D_xi x`` with padding.

    All participants and the server construct the same instance from the
    public random sign vector ``xi`` (in a deployment, derived from a
    shared seed).  Inputs of length ``input_dim`` are zero-padded to the
    next power of two before rotating.

    Attributes:
        signs: The public sign vector ``xi`` of padded length; entries
            in ``{-1, +1}``.
        input_dim: Length of un-padded inputs accepted by :meth:`forward`.
    """

    signs: np.ndarray
    input_dim: int

    def __post_init__(self) -> None:
        if self.signs.ndim != 1:
            raise ConfigurationError("signs must be a one-dimensional array")
        if not is_power_of_two(self.signs.shape[0]):
            raise ConfigurationError(
                f"padded dimension must be a power of two, got {self.signs.shape[0]}"
            )
        if not np.all(np.abs(self.signs) == 1):
            raise ConfigurationError("signs must contain only -1 and +1")
        if not 1 <= self.input_dim <= self.signs.shape[0]:
            raise ConfigurationError(
                f"input_dim must be in [1, {self.signs.shape[0]}], got {self.input_dim}"
            )

    @classmethod
    def create(cls, input_dim: int, rng: np.random.Generator) -> "RandomRotation":
        """Draw a fresh public sign vector for inputs of length ``input_dim``."""
        padded = next_power_of_two(input_dim)
        signs = rng.choice(np.array([-1.0, 1.0]), size=padded)
        return cls(signs=signs, input_dim=input_dim)

    @property
    def padded_dim(self) -> int:
        """The power-of-two dimension vectors are padded to."""
        return self.signs.shape[0]

    def forward(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate: zero-pad to ``padded_dim``, apply ``H D_xi``.

        Args:
            vectors: Shape ``(batch, input_dim)`` or ``(input_dim,)``.

        Returns:
            Rotated array of padded width (norms are preserved).
        """
        single_vector = vectors.ndim == 1
        batch = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if batch.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"expected input width {self.input_dim}, got {batch.shape[1]}"
            )
        padded = np.zeros((batch.shape[0], self.padded_dim))
        padded[:, : self.input_dim] = batch
        rotated = fast_walsh_hadamard(padded * self.signs)
        return rotated[0] if single_vector else rotated

    def inverse(self, vectors: np.ndarray) -> np.ndarray:
        """Un-rotate: apply ``D_xi H^T`` and strip the zero padding.

        Args:
            vectors: Shape ``(batch, padded_dim)`` or ``(padded_dim,)``.

        Returns:
            Array of width ``input_dim`` such that
            ``inverse(forward(x)) == x`` up to float rounding.
        """
        single_vector = vectors.ndim == 1
        batch = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if batch.shape[1] != self.padded_dim:
            raise ConfigurationError(
                f"expected padded width {self.padded_dim}, got {batch.shape[1]}"
            )
        unrotated = fast_walsh_hadamard(batch) * self.signs
        result = unrotated[:, : self.input_dim]
        return result[0] if single_vector else result
