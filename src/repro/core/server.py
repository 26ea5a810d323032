"""Server-side gradient-sum decoder (Algorithm 6 of the paper).

The server receives the modular sum ``z = sum_i z_i mod m`` from SecAgg
and inverts the participant-side encoding:

1. **unwrap** — map residues to the centred interval ``[-m/2, m/2)``
   (line 1; exact as long as the true noisy sum did not overflow),
2. **un-scale / un-rotate** — ``g* <- (1/gamma) D_xi H^T z'`` (line 2).

The result is an unbiased estimate of the sum of the participants' clipped
gradients.  This is the one implementation of those steps, for every
distributed mechanism's ``estimate_sum`` and for the simulation engine.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from repro.config import CompressionConfig
from repro.errors import OverflowWarning
from repro.linalg.hadamard import RandomRotation
from repro.linalg.modular import decode_centered


@dataclasses.dataclass(frozen=True)
class GradientDecoder:
    """Algorithm 6: unwrap mod m, un-scale, un-rotate.

    Attributes:
        rotation: The same shared public rotation the encoder used.
        compression: The same wire format (``m``, ``gamma``).
        warn_on_saturation: When True, emit :class:`OverflowWarning` if the
            decoded residues saturate the centred range — a strong hint
            that the aggregate wrapped around (the baselines' small-``m``
            failure mode).
    """

    rotation: RandomRotation
    compression: CompressionConfig
    warn_on_saturation: bool = True

    def decode(self, aggregated: np.ndarray) -> np.ndarray:
        """Recover the estimated (un-padded) gradient sum.

        Args:
            aggregated: Length ``padded_dim`` residue vector in ``[0, m)``
                as released by SecAgg.

        Returns:
            Length ``input_dim`` float64 estimate of the gradient sum.
        """
        centred = decode_centered(aggregated, self.compression.modulus)
        if self.warn_on_saturation and centred.size:
            half = self.compression.modulus // 2
            saturation = np.abs(centred).max() / half
            if saturation >= 0.999:
                warnings.warn(
                    "decoded aggregate touches the modular boundary; the "
                    "true sum likely overflowed and wrapped around",
                    OverflowWarning,
                    stacklevel=2,
                )
        unscaled = centred.astype(np.float64) / self.compression.gamma
        return self.rotation.inverse(unscaled)
