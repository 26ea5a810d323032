"""Tests for the Algorithm 4 encoder and Algorithm 6 decoder."""

import math
import warnings

import numpy as np
import pytest

from repro.config import ClipConfig, CompressionConfig, PrivacyBudget
from repro.core.calibration import AccountingSpec
from repro.core.client import GradientEncoder, skellam_encoder
from repro.core.clipping import clip_gradient
from repro.core.server import GradientDecoder
from repro.errors import ConfigurationError, OverflowWarning
from repro.linalg.hadamard import RandomRotation
from repro.mechanisms import DiscreteGaussianMixtureMechanism, InputSpec
from repro.sampling.fast import bernoulli_round


@pytest.fixture
def pipeline():
    rng = np.random.default_rng(0)
    rotation = RandomRotation.create(24, rng)
    compression = CompressionConfig(modulus=2**16, gamma=128.0)
    clip = ClipConfig(c=compression.gamma**2, delta_inf=1000.0)
    # Algorithm 5 and the Bernoulli rounding with no noise on top: the
    # deterministic part of the SMM integer step.
    encoder = GradientEncoder(
        rotation=rotation,
        compression=compression,
        integer_step=lambda scaled, rng: bernoulli_round(
            clip_gradient(scaled, clip), rng
        ),
    )
    decoder = GradientDecoder(rotation=rotation, compression=compression)
    return rng, rotation, compression, clip, encoder, decoder


class TestGradientEncoder:
    def test_messages_in_zm(self, pipeline):
        rng, _, compression, _, encoder, _ = pipeline
        gradients = rng.normal(size=(5, 24))
        gradients /= np.linalg.norm(gradients, axis=1, keepdims=True)
        messages = encoder.encode(gradients, rng)
        assert messages.min() >= 0
        assert messages.max() < compression.modulus

    def test_messages_are_padded_width(self, pipeline):
        rng, rotation, _, _, encoder, _ = pipeline
        gradients = rng.normal(size=(3, 24))
        assert encoder.encode(gradients, rng).shape == (3, rotation.padded_dim)

    def test_clipped_rotation_respects_clip(self, pipeline):
        from repro.core.clipping import mixture_sensitivity

        rng, rotation, compression, clip, _, _ = pipeline
        gradients = rng.normal(size=(4, 24)) * 100
        clipped = clip_gradient(
            compression.gamma * rotation.forward(gradients), clip
        )
        for row in clipped:
            assert mixture_sensitivity(row) <= clip.c * (1 + 1e-9)

    def test_clip_is_rotation_scale_for_small_inputs(self, pipeline):
        rng, rotation, compression, clip, _, _ = pipeline
        gradients = rng.normal(size=24) * 0.01
        scaled = compression.gamma * rotation.forward(gradients)
        assert np.allclose(clip_gradient(scaled, clip), scaled)

    def test_skellam_encoder_rejects_bad_lambda(self, pipeline):
        _, rotation, compression, clip, _, _ = pipeline
        with pytest.raises(ConfigurationError):
            skellam_encoder(rotation, compression, clip, lam=0.0)


class TestRoundtripWithoutNoise:
    def test_sum_recovered_exactly_up_to_quantisation(self, pipeline):
        rng, _, compression, _, encoder, decoder = pipeline
        gradients = rng.normal(size=(10, 24))
        gradients /= np.linalg.norm(gradients, axis=1, keepdims=True)
        messages = encoder.encode(gradients, rng)
        aggregated = messages.sum(axis=0) % compression.modulus
        decoded = decoder.decode(aggregated)
        # Zero noise: the only error is Bernoulli quantisation, whose
        # per-coordinate std is <= sqrt(n)/2 / gamma after unscaling.
        truth = gradients.sum(axis=0)
        tolerance = 4.0 * np.sqrt(10) / 2 / compression.gamma
        assert np.allclose(decoded, truth, atol=tolerance)

    def test_unbiasedness(self, pipeline):
        rng, _, compression, _, encoder, decoder = pipeline
        gradients = rng.normal(size=(6, 24))
        gradients /= np.linalg.norm(gradients, axis=1, keepdims=True)
        truth = gradients.sum(axis=0)
        estimates = []
        for _ in range(300):
            messages = encoder.encode(gradients, rng)
            aggregated = messages.sum(axis=0) % compression.modulus
            estimates.append(decoder.decode(aggregated))
        bias = np.abs(np.mean(estimates, axis=0) - truth).max()
        assert bias < 0.02


class TestSkellamAndDgmEncoders:
    def test_skellam_encoder_noise_variance(self):
        rng = np.random.default_rng(1)
        rotation = RandomRotation.create(16, rng)
        compression = CompressionConfig(modulus=2**20, gamma=32.0)
        clip = ClipConfig(c=compression.gamma**2, delta_inf=500.0)
        lam = 3.0
        encoder = skellam_encoder(rotation, compression, clip, lam)
        zeros = np.zeros((1, 16))
        samples = np.stack(
            [encoder.encode(zeros, rng)[0] for _ in range(800)]
        ).astype(float)
        centred = np.where(samples > 2**19, samples - 2**20, samples)
        assert abs(centred.var() - 2 * lam) < 0.5

    @pytest.mark.parametrize("integer_sigma", [True, False])
    def test_dgm_noise_variance_is_effective_sigma_squared(
        self, integer_sigma
    ):
        """Appendix B.3's rounding lives in the mechanism: the encoder
        built from its integer step adds ``N_Z(0, effective_sigma^2)``
        at zero input, where ``effective_sigma`` is ``ceil(sigma)`` when
        rounding and ``sigma`` otherwise."""
        rng = np.random.default_rng(2)
        compression = CompressionConfig(modulus=2**20, gamma=32.0)
        mechanism = DiscreteGaussianMixtureMechanism(
            compression, integer_sigma=integer_sigma
        )
        mechanism.calibrate(
            InputSpec(num_participants=100, dimension=16),
            AccountingSpec(budget=PrivacyBudget(20.0)),
        )
        sigma = mechanism.sigma
        assert sigma != math.ceil(sigma)
        expected = float(math.ceil(sigma)) if integer_sigma else sigma
        assert mechanism.effective_sigma == expected
        encoder = GradientEncoder(
            RandomRotation.create(16, rng),
            compression,
            mechanism._encode_integer,
        )
        zeros = np.zeros((800, 16))
        samples = encoder.encode(zeros, rng).astype(float)
        centred = np.where(samples > 2**19, samples - 2**20, samples)
        assert centred.var() == pytest.approx(expected**2, rel=0.05)


class TestGradientDecoder:
    def test_saturation_warning(self):
        rng = np.random.default_rng(4)
        rotation = RandomRotation.create(4, rng)
        compression = CompressionConfig(modulus=16, gamma=1.0)
        decoder = GradientDecoder(rotation=rotation, compression=compression)
        saturated = np.array([8, 0, 0, 0])  # decodes to -8 = -m/2
        with pytest.warns(OverflowWarning):
            decoder.decode(saturated)

    def test_no_warning_when_within_range(self):
        rng = np.random.default_rng(5)
        rotation = RandomRotation.create(4, rng)
        compression = CompressionConfig(modulus=16, gamma=1.0)
        decoder = GradientDecoder(rotation=rotation, compression=compression)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoder.decode(np.array([1, 2, 3, 4]))

    def test_warning_suppressible(self):
        rng = np.random.default_rng(6)
        rotation = RandomRotation.create(4, rng)
        compression = CompressionConfig(modulus=16, gamma=1.0)
        decoder = GradientDecoder(
            rotation=rotation, compression=compression, warn_on_saturation=False
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoder.decode(np.array([8, 0, 0, 0]))
