"""The SecAgg contract: ideal functionality == real protocol.

The paper pipeline sums through SecAgg's ideal functionality
(:func:`repro.linalg.modular.sum_mod` — the modular sum and nothing
else); :func:`repro.secagg.run_bonawitz` is the protocol that realises
it.  These tests hold the two to the same vector on the messages the
mechanisms actually produce, and pin what the protocol refuses as
input.  That a transmitted message is marginally uniform is pinned on
the real protocol in
``tests/test_bonawitz.py::test_masked_messages_are_marginally_uniform``.
"""

import numpy as np
import pytest

from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.core.client import GradientEncoder, skellam_encoder
from repro.core.server import GradientDecoder
from repro.errors import AggregationError
from repro.linalg.hadamard import RandomRotation
from repro.linalg.modular import decode_centered, sum_mod
from repro.mechanisms import (
    CpSgdMechanism,
    DiscreteGaussianMixtureMechanism,
    DistributedDiscreteGaussian,
    InputSpec,
    SkellamMechanism,
    SkellamMixtureMechanism,
    clip_l2,
)
from repro.secagg import run_bonawitz

N = 12
DIMENSION = 64
COMPRESSION = CompressionConfig(modulus=2**10, gamma=8.0)


DISTRIBUTED = (
    SkellamMixtureMechanism,
    DiscreteGaussianMixtureMechanism,
    DistributedDiscreteGaussian,
    SkellamMechanism,
    CpSgdMechanism,
)


def calibrated(mechanism_type):
    mechanism = mechanism_type(COMPRESSION)
    mechanism.calibrate(
        InputSpec(num_participants=N, dimension=DIMENSION),
        AccountingSpec(budget=PrivacyBudget(3.0)),
    )
    return mechanism


@pytest.fixture(scope="module")
def smm():
    return calibrated(SkellamMixtureMechanism)


def unit_vectors(rng):
    values = rng.normal(size=(N, DIMENSION))
    return values / np.linalg.norm(values, axis=1, keepdims=True)


class TestIdealEqualsReal:
    def test_smm_batch_sums_identically_through_both(self, smm):
        """An SMM-encoded batch — rotated, clipped, Skellam-mixture
        perturbed, wrapped mod m with the mechanism's calibration —
        reveals the same vector through the ideal sum and through the
        full four-round protocol at threshold n."""
        rng = np.random.default_rng(11)
        rotation = RandomRotation.create(DIMENSION, rng)
        encoder = skellam_encoder(rotation, COMPRESSION, smm.clip, smm.lam)
        messages = encoder.encode(unit_vectors(rng), rng)
        assert messages.shape == (N, DIMENSION)
        # Noise makes the batch wrap: the sum is genuinely modular.
        assert messages.sum(axis=0).max() >= COMPRESSION.modulus
        ideal = sum_mod(messages, COMPRESSION.modulus)
        real = run_bonawitz(
            messages, COMPRESSION.modulus, threshold=N, rng=rng
        )
        assert real.included == frozenset(range(1, N + 1))
        np.testing.assert_array_equal(real.modular_sum, ideal)
        np.testing.assert_array_equal(
            decode_centered(real.modular_sum, COMPRESSION.modulus),
            decode_centered(ideal, COMPRESSION.modulus),
        )

    def test_dgm_batch_sums_identically_through_both(self):
        """The same holds for the other mixture the pipeline encodes."""
        dgm = calibrated(DiscreteGaussianMixtureMechanism)
        rng = np.random.default_rng(12)
        rotation = RandomRotation.create(DIMENSION, rng)
        encoder = GradientEncoder(rotation, COMPRESSION, dgm._encode_integer)
        messages = encoder.encode(unit_vectors(rng), rng)
        real = run_bonawitz(
            messages, COMPRESSION.modulus, threshold=N, rng=rng
        )
        np.testing.assert_array_equal(
            real.modular_sum, sum_mod(messages, COMPRESSION.modulus)
        )

    @pytest.mark.parametrize(
        "mechanism_type", DISTRIBUTED, ids=lambda kind: kind.name
    )
    def test_estimate_sum_decodes_the_ideal_sum_of_its_messages(
        self, mechanism_type
    ):
        """``estimate_sum`` draws the rotation and the integer step's
        randomness and nothing else: replaying its generator through the
        encoder, the ideal sum and the decoder reproduces it bit for
        bit."""
        mechanism = calibrated(mechanism_type)
        values = unit_vectors(np.random.default_rng(13))
        estimate = mechanism.estimate_sum(values, np.random.default_rng(14))
        if mechanism.requires_l2_preclip:
            values = clip_l2(values, mechanism.spec.l2_bound)
        replay = np.random.default_rng(14)
        rotation = RandomRotation.create(DIMENSION, replay)
        encoder = GradientEncoder(
            rotation, COMPRESSION, mechanism._encode_integer
        )
        residue = sum_mod(encoder.encode(values, replay), COMPRESSION.modulus)
        decoder = GradientDecoder(
            rotation, COMPRESSION, warn_on_saturation=False
        )
        np.testing.assert_array_equal(estimate, decoder.decode(residue))

    def test_smm_estimate_sum_is_the_per_client_encoder(self, smm):
        """The SMM integer step is the engine's per-client encoder: the
        batch ``estimate_sum`` encodes matches :func:`skellam_encoder`
        sample for sample."""
        values = unit_vectors(np.random.default_rng(13))
        estimate = smm.estimate_sum(values, np.random.default_rng(14))
        replay = np.random.default_rng(14)
        rotation = RandomRotation.create(DIMENSION, replay)
        encoder = skellam_encoder(rotation, COMPRESSION, smm.clip, smm.lam)
        residue = sum_mod(encoder.encode(values, replay), COMPRESSION.modulus)
        np.testing.assert_array_equal(
            estimate,
            rotation.inverse(
                decode_centered(residue, COMPRESSION.modulus)
                / COMPRESSION.gamma
            ),
        )

    def test_ideal_sum_does_not_overflow_where_int64_would(self):
        """Near-2^62 residues over a modulus that does not divide 2^64:
        a plain int64 column sum wraps to the wrong residue, the ideal
        sum and the protocol agree on the exact answer."""
        modulus = 2**62 - 2
        inputs = np.full((6, 3), modulus - 1, dtype=np.int64)
        expected = np.full(3, (6 * (modulus - 1)) % modulus, dtype=np.int64)
        with np.errstate(over="ignore"):
            assert not np.array_equal(
                inputs.sum(axis=0, dtype=np.int64) % modulus, expected
            )
        np.testing.assert_array_equal(sum_mod(inputs, modulus), expected)
        real = run_bonawitz(
            inputs, modulus, threshold=6, rng=np.random.default_rng(0)
        )
        np.testing.assert_array_equal(real.modular_sum, expected)


class TestInputValidation:
    """What :func:`run_bonawitz` refuses before a session is built."""

    @pytest.mark.parametrize(
        "inputs, complaint",
        [
            (np.zeros((2, 3), dtype=np.float64), "must be integers"),
            (np.full((2, 3), 256, dtype=np.int64), r"lie in \[0, 256\)"),
            (np.full((2, 3), -1, dtype=np.int64), r"lie in \[0, 256\)"),
            (np.zeros(3, dtype=np.int64), "ndim=1"),
        ],
        ids=["float-dtype", "above-range", "below-range", "one-dimensional"],
    )
    def test_refused(self, inputs, complaint):
        with pytest.raises(AggregationError, match=complaint):
            run_bonawitz(
                inputs, 256, threshold=2, rng=np.random.default_rng(0)
            )
