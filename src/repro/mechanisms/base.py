"""Common interface for distributed-sum mechanisms (Section 3.1).

Every mechanism in the paper's evaluation — SMM, DGM, DDG, the Skellam
mechanism, cpSGD and the centralised continuous Gaussian — solves the same
problem: estimate ``sum_i x_i`` of ``n`` private vectors under a target
``(epsilon, delta)`` guarantee.  :class:`SumEstimator` fixes the two-phase
contract they all share:

1. :meth:`calibrate` — given the input geometry (:class:`InputSpec`) and
   the accounting regime (:class:`AccountingSpec`), solve for the noise
   parameter and freeze all derived thresholds; then
2. :meth:`estimate_sum` — run the full pipeline on a concrete batch.

The distributed mechanisms additionally share the SecAgg wire pipeline
(rotate -> scale -> mechanism-specific integer encode -> mod m -> secure
sum -> unwrap -> un-scale -> un-rotate), factored into
:class:`DistributedSumEstimator`.  The secure sum there is SecAgg's ideal
functionality, :func:`repro.linalg.modular.sum_mod` — what the paper's
analysis assumes of the black box; running the protocol that realises it
(:func:`repro.secagg.bonawitz.run_bonawitz`, or per round
:class:`repro.simulation.engine.SimulationEngine`) is a separate,
measured concern.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

from repro.config import CompressionConfig
from repro.core.calibration import AccountingSpec
from repro.errors import CalibrationError, ConfigurationError
from repro.linalg.hadamard import RandomRotation, next_power_of_two
from repro.linalg.modular import decode_centered, sum_mod


@dataclasses.dataclass(frozen=True)
class InputSpec:
    """Geometry of the private inputs, known publicly.

    Attributes:
        num_participants: Expected number of vectors per aggregation (the
            full population for one-shot sum estimation; the expected
            batch size ``|B|`` for FL).
        dimension: Width ``d`` of each input vector (un-padded).
        l2_bound: Public bound ``Delta_2`` on each vector's L2 norm
            (enforced by clipping where not already guaranteed).
    """

    num_participants: int
    dimension: int
    l2_bound: float = 1.0

    def __post_init__(self) -> None:
        if self.num_participants < 1:
            raise ConfigurationError(
                f"num_participants must be >= 1, got {self.num_participants}"
            )
        if self.dimension < 1:
            raise ConfigurationError(
                f"dimension must be >= 1, got {self.dimension}"
            )
        if not self.l2_bound > 0:
            raise ConfigurationError(
                f"l2_bound must be positive, got {self.l2_bound}"
            )

    @property
    def padded_dimension(self) -> int:
        """Power-of-two width after Walsh-Hadamard padding."""
        return next_power_of_two(self.dimension)


def clip_l2(values: np.ndarray, bound: float) -> np.ndarray:
    """Scale rows down so each has L2 norm at most ``bound`` (DPSGD clip)."""
    values = np.asarray(values, dtype=np.float64)
    single_vector = values.ndim == 1
    batch = np.atleast_2d(values)
    norms = np.linalg.norm(batch, axis=1, keepdims=True)
    scales = np.minimum(1.0, bound / np.maximum(norms, np.finfo(float).tiny))
    result = batch * scales
    return result[0] if single_vector else result


class SumEstimator(abc.ABC):
    """A differentially private estimator of vector sums."""

    #: Short identifier used in experiment tables (e.g. ``"smm"``).
    name: str = "base"

    def __init__(self) -> None:
        self._spec: InputSpec | None = None
        self._accounting: AccountingSpec | None = None

    @property
    def spec(self) -> InputSpec:
        """The input geometry this estimator was calibrated for."""
        if self._spec is None:
            raise CalibrationError(f"{type(self).__name__} is not calibrated")
        return self._spec

    @property
    def accounting(self) -> AccountingSpec:
        """The accounting regime this estimator was calibrated for."""
        if self._accounting is None:
            raise CalibrationError(f"{type(self).__name__} is not calibrated")
        return self._accounting

    def calibrate(self, spec: InputSpec, accounting: AccountingSpec) -> None:
        """Solve for the noise parameter meeting ``accounting.budget``."""
        self._spec = spec
        self._accounting = accounting
        self._calibrate(spec, accounting)

    @abc.abstractmethod
    def _calibrate(self, spec: InputSpec, accounting: AccountingSpec) -> None:
        """Mechanism-specific calibration (noise parameter + thresholds)."""

    @abc.abstractmethod
    def estimate_sum(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Estimate the column sum of ``values`` (shape ``(n, d)``).

        ``n`` may differ from ``spec.num_participants`` (FL batches vary);
        the noise each participant adds was fixed at calibration time.
        """

    def describe(self) -> dict[str, float | int | str]:
        """Human-readable calibration summary for experiment logs."""
        return {"name": self.name}

    def per_round_rdp_curve(self, num_participants: int | None = None):
        """RDP curve of one aggregation at the calibrated noise level.

        Used by running privacy ledgers (the simulation engine's
        :class:`~repro.accounting.rdp.RdpAccountant`) to charge each
        executed round and report a cumulative ``(epsilon, delta)``.

        Args:
            num_participants: Contributors whose noise actually reached
                the aggregate; ``None`` means the calibrated
                expectation.

        Returns:
            An ``alpha -> tau`` callable raising
            :class:`~repro.errors.PrivacyAccountingError` at infeasible
            orders.

        Raises:
            CalibrationError: If the mechanism is uncalibrated or does
                not expose an RDP curve (cpSGD accounts via
                ``(epsilon, delta)`` composition instead).
        """
        raise CalibrationError(
            f"{type(self).__name__} does not expose a per-round RDP curve"
        )


class DistributedSumEstimator(SumEstimator):
    """Shared SecAgg pipeline for the integer-noise mechanisms.

    Subclasses implement :meth:`_encode_integer` — everything from the
    scaled, rotated real batch to integer values (before the modular
    wrap) — and inherit the rotation, wrapping, modular sum and decoding
    steps.

    Subclasses relying on their own sensitivity control (SMM/DGM run
    Algorithm 5 on the scaled vector instead of a plain L2 clip — Section
    6.2 sets ``c = gamma^2 Delta_2^2`` *in lieu of* the L2 clip) set
    ``requires_l2_preclip = False``.

    Args:
        compression: Modulus ``m`` and scale ``gamma``.
    """

    #: Whether the raw input is L2-clipped to ``Delta_2`` before rotation.
    requires_l2_preclip: bool = True

    def __init__(self, compression: CompressionConfig) -> None:
        super().__init__()
        self.compression = compression

    @abc.abstractmethod
    def _encode_integer(
        self, scaled: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Map the scaled rotated batch to integer messages (pre-mod)."""

    def estimate_sum(
        self, values: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Run the full distributed pipeline on a concrete batch."""
        spec = self.spec
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != spec.dimension:
            raise ConfigurationError(
                f"expected width {spec.dimension}, got {values.shape[1]}"
            )
        clipped = (
            clip_l2(values, spec.l2_bound)
            if self.requires_l2_preclip
            else values
        )
        rotation = RandomRotation.create(spec.dimension, rng)
        rotated = rotation.forward(clipped)
        scaled = self.compression.gamma * rotated
        integer_messages = self._encode_integer(scaled, rng)
        wrapped = np.mod(integer_messages, self.compression.modulus)
        residue = sum_mod(wrapped, self.compression.modulus)
        centred = decode_centered(residue, self.compression.modulus)
        unscaled = centred.astype(np.float64) / self.compression.gamma
        return rotation.inverse(unscaled)
