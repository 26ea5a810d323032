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

Each RDP mechanism (SMM, DGM, DDG, Skellam, Gaussian) states its
accounting once, in :meth:`SumEstimator.rdp_curve`: the per-round curve
``alpha -> tau`` of Theorem 5 / Corollary 1 (or the mechanism's
counterpart) for a given geometry, noise level and contributor count.
The curve is a pure function of its arguments and the constructor's
public parameters — it reads nothing :meth:`calibrate` sets — so an
uncalibrated mechanism prices any noise level.  Everything else reads
that one method — calibration inverts it through
:func:`~repro.core.calibration.calibrate_noise`, a running ledger
composes it at the calibrated noise through
:meth:`SumEstimator.per_round_rdp_curve`, and analysis code converts it
with :func:`~repro.core.calibration.epsilon_for_curve`.  cpSGD, whose
binomial mechanism has no RDP curve, calibrates by ``(epsilon, delta)``
composition instead.

The distributed mechanisms additionally share the SecAgg wire pipeline
in :class:`DistributedSumEstimator`: Algorithm 4's
:class:`~repro.core.client.GradientEncoder` with the mechanism's integer
step, the secure sum, then Algorithm 6's
:class:`~repro.core.server.GradientDecoder`.  The secure sum there is
SecAgg's ideal functionality, :func:`repro.linalg.modular.sum_mod` —
what the paper's analysis assumes of the black box; running the protocol
that realises it
(:func:`repro.secagg.bonawitz.run_bonawitz`, or per round
:class:`repro.simulation.engine.SimulationEngine`) is a separate,
measured concern.
"""

from __future__ import annotations

import abc
import dataclasses
import operator

import numpy as np

from repro.accounting.rdp import RdpCurve
from repro.config import ClipConfig, CompressionConfig
from repro.core.calibration import AccountingSpec, calibrate_noise
from repro.core.client import GradientEncoder
from repro.core.server import GradientDecoder
from repro.errors import CalibrationError, ConfigurationError
from repro.linalg.hadamard import RandomRotation, next_power_of_two
from repro.linalg.modular import sum_mod


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

    #: Attribute the calibrated noise parameter is stored under —
    #: ``"lam"`` for the Skellam family, ``"sigma"`` for the Gaussian
    #: family — and :meth:`per_round_rdp_curve` reads back.
    noise_attribute: str = "sigma"

    #: Mixture clipping thresholds (SMM, DGM); ``None`` for mechanisms
    #: without an L-infinity clip.
    clip: ClipConfig | None = None

    #: ``(describe() key, attribute path)`` of the public parameters,
    #: and of every value calibration sets (``estimate_sum`` refuses to
    #: run until all of those are set).
    summary_fields: tuple[tuple[str, str], ...] = ()
    calibrated_fields: tuple[tuple[str, str], ...] = ()

    def __init__(self) -> None:
        self._spec: InputSpec | None = None
        self._accounting: AccountingSpec | None = None
        self.order: int | None = None
        self.achieved_epsilon: float | None = None

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

    def _calibrate(self, spec: InputSpec, accounting: AccountingSpec) -> None:
        """Invert :meth:`rdp_curve` at ``Delta_inf = 1`` and store the result.

        Stores the smallest noise parameter meeting the budget under
        :attr:`noise_attribute`, with the optimal order and the achieved
        epsilon, then lets the mechanism derive its thresholds.
        """
        result = calibrate_noise(
            lambda noise: self.rdp_curve(spec, noise, spec.num_participants),
            accounting,
        )
        setattr(self, self.noise_attribute, result.noise_parameter)
        self.order = result.order
        self.achieved_epsilon = result.epsilon
        self._derive_thresholds(spec)

    def _derive_thresholds(self, spec: InputSpec) -> None:
        """Freeze what the calibrated noise and order imply (default: none)."""

    def rdp_curve(
        self,
        spec: InputSpec,
        noise: float,
        contributors: int,
        delta_inf: float = 1.0,
    ) -> RdpCurve:
        """The mechanism's per-round RDP curve at a given noise level.

        The one place a mechanism states its accounting: a pure function
        of ``spec``, the arguments below and the constructor's public
        parameters (the compression, ``beta``).  It reads no calibrated
        state, so it needs no :meth:`calibrate` first.

        Args:
            spec: The input geometry (``Delta_2``, the padded width).
            noise: Per-participant noise parameter (``lambda`` or
                ``sigma``).
            contributors: Participants whose noise reaches the
                aggregate.
            delta_inf: The transmitted L-infinity ceiling.  SMM and DGM
                use it only to decide which orders Eq. (3) / Eq. (8)
                admit — ``tau`` itself does not depend on it — so
                calibration passes 1, the smallest ceiling that
                transmits anything, and a ledger the calibrated
                ``clip.delta_inf``.  The other mechanisms ignore it.

        Returns:
            An ``alpha -> tau`` callable raising
            :class:`~repro.errors.PrivacyAccountingError` at infeasible
            orders.

        Raises:
            CalibrationError: If the mechanism has no RDP curve (cpSGD
                accounts via ``(epsilon, delta)`` composition instead).
        """
        raise CalibrationError(
            f"{type(self).__name__} does not expose a per-round RDP curve"
        )

    @abc.abstractmethod
    def estimate_sum(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Estimate the column sum of ``values`` (shape ``(n, d)``).

        ``n`` may differ from ``spec.num_participants`` (FL batches vary);
        the noise each participant adds was fixed at calibration time.
        """

    def _is_calibrated(self) -> bool:
        return self._spec is not None and all(
            getattr(self, path.partition(".")[0]) is not None
            for _, path in self.calibrated_fields
        )

    def _require_calibrated(self) -> None:
        if not self._is_calibrated():
            raise CalibrationError(f"{type(self).__name__} is not calibrated")

    def describe(self) -> dict[str, float | int | str]:
        """Human-readable calibration summary for experiment logs: the
        name, the public parameters and, once calibrated, the calibrated
        values."""
        fields = self.summary_fields
        if self._is_calibrated():
            fields += self.calibrated_fields
        return {
            "name": self.name,
            **{key: operator.attrgetter(path)(self) for key, path in fields},
        }

    def per_round_rdp_curve(
        self, num_participants: int | None = None
    ) -> RdpCurve:
        """:meth:`rdp_curve` of one aggregation at the calibrated
        geometry and noise.

        Used by running privacy ledgers (the simulation engine's
        :class:`~repro.accounting.rdp.RdpAccountant`) to charge each
        executed round and report a cumulative ``(epsilon, delta)``.
        Every RDP mechanism has this curve; only cpSGD raises.

        Args:
            num_participants: Contributors whose noise actually reached
                the aggregate; ``None`` means the calibrated
                expectation.  A ledger passes the *realized* survivor
                count, so a dropout round — which carries less total
                noise than calibration assumed — is charged its true,
                higher cost.

        Returns:
            An ``alpha -> tau`` callable raising
            :class:`~repro.errors.PrivacyAccountingError` at infeasible
            orders.  Feasibility is judged at the transmitted
            ``clip.delta_inf``, so a ledger composing this curve drops
            exactly the orders the (possibly reduced) noise excludes.

        Raises:
            CalibrationError: If the mechanism is uncalibrated or does
                not expose an RDP curve.
        """
        if self.order is None:
            raise CalibrationError(
                f"{type(self).__name__} has no calibrated per-round RDP curve"
            )
        contributors = (
            num_participants
            if num_participants is not None
            else self.spec.num_participants
        )
        if contributors < 1:
            raise CalibrationError(
                f"num_participants must be >= 1, got {contributors}"
            )
        return self.rdp_curve(
            self.spec,
            getattr(self, self.noise_attribute),
            contributors,
            1.0 if self.clip is None else self.clip.delta_inf,
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

    summary_fields = (
        ("modulus", "compression.modulus"),
        ("gamma", "compression.gamma"),
    )

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
        self._require_calibrated()
        spec = self.spec
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if self.requires_l2_preclip:
            values = clip_l2(values, spec.l2_bound)
        rotation = RandomRotation.create(spec.dimension, rng)
        encoder = GradientEncoder(rotation, self.compression, self._encode_integer)
        residue = sum_mod(encoder.encode(values, rng), self.compression.modulus)
        decoder = GradientDecoder(
            rotation, self.compression, warn_on_saturation=False
        )
        return decoder.decode(residue)
