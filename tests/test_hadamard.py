"""Tests for the Walsh-Hadamard rotation substrate (repro.linalg.hadamard)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.linalg.hadamard import (
    RandomRotation,
    fast_walsh_hadamard,
    is_power_of_two,
    naive_walsh_hadamard_matrix,
    next_power_of_two,
)


def reference_walsh_hadamard(matrix):
    """The textbook in-place butterfly, one strided stage at a time (oracle)."""
    single_vector = matrix.ndim == 1
    work = np.array(matrix, dtype=np.float64, copy=True)
    if single_vector:
        work = work[np.newaxis, :]
    dimension = work.shape[1]
    half = 1
    while half < dimension:
        butterflies = work.reshape(work.shape[0], -1, 2, half)
        top = butterflies[:, :, 0, :]
        bottom = butterflies[:, :, 1, :]
        difference = top - bottom
        np.add(top, bottom, out=top)
        bottom[...] = difference
        half *= 2
    work /= np.sqrt(dimension)
    return work[0] if single_vector else work


class TestPowerOfTwoHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(2)
        assert is_power_of_two(64)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4
        assert next_power_of_two(63_610) == 65_536

    def test_next_power_of_two_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            next_power_of_two(0)


class TestFastWalshHadamard:
    @pytest.mark.parametrize("log_dim", range(15))
    def test_bit_identical_to_the_reference_butterfly(self, log_dim):
        rng = np.random.default_rng(log_dim)
        dimension = 2**log_dim
        for shape in [(dimension,), (3, dimension)]:
            values = rng.normal(size=shape)
            assert np.array_equal(
                fast_walsh_hadamard(values), reference_walsh_hadamard(values)
            )

    @pytest.mark.parametrize("dimension", [32, 1024])
    def test_bit_identical_on_non_contiguous_views(self, dimension):
        rng = np.random.default_rng(dimension)
        strided = rng.normal(size=(4, 2 * dimension))[:, ::2]
        transposed = rng.normal(size=(dimension, 5)).T
        for view in (strided, transposed, strided[1]):
            assert not view.flags.c_contiguous
            assert np.array_equal(
                fast_walsh_hadamard(view), reference_walsh_hadamard(view)
            )

    def test_integer_input_is_transformed_as_float(self):
        values = np.arange(16).reshape(2, 8)
        assert np.array_equal(
            fast_walsh_hadamard(values), reference_walsh_hadamard(values)
        )

    @pytest.mark.parametrize("dimension", [1, 2, 4, 8, 16, 64, 256])
    def test_matches_naive_matrix(self, dimension):
        rng = np.random.default_rng(dimension)
        matrix = naive_walsh_hadamard_matrix(dimension)
        vector = rng.normal(size=dimension)
        assert np.allclose(fast_walsh_hadamard(vector), matrix @ vector)

    def test_batch_rows_transform_independently(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(5, 32))
        transformed = fast_walsh_hadamard(batch)
        for row_in, row_out in zip(batch, transformed):
            assert np.allclose(fast_walsh_hadamard(row_in), row_out)

    def test_involution(self):
        rng = np.random.default_rng(1)
        vector = rng.normal(size=128)
        assert np.allclose(fast_walsh_hadamard(fast_walsh_hadamard(vector)), vector)

    def test_norm_preservation(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(4, 64))
        transformed = fast_walsh_hadamard(batch)
        assert np.allclose(
            np.linalg.norm(batch, axis=1), np.linalg.norm(transformed, axis=1)
        )

    def test_does_not_mutate_input(self):
        vector = np.ones(8)
        copy = vector.copy()
        fast_walsh_hadamard(vector)
        assert np.array_equal(vector, copy)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            fast_walsh_hadamard(np.ones(6))

    def test_rejects_3d_input(self):
        with pytest.raises(ConfigurationError):
            fast_walsh_hadamard(np.ones((2, 2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_property_orthonormal(self, log_dim, seed):
        dimension = 2**log_dim
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=dimension)
        transformed = fast_walsh_hadamard(vector)
        assert np.isclose(
            np.linalg.norm(transformed), np.linalg.norm(vector), rtol=1e-10
        )
        assert np.allclose(fast_walsh_hadamard(transformed), vector)


class TestRandomRotation:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        rotation = RandomRotation.create(37, rng)
        batch = rng.normal(size=(6, 37))
        assert np.allclose(rotation.inverse(rotation.forward(batch)), batch)

    def test_single_vector_roundtrip(self):
        rng = np.random.default_rng(1)
        rotation = RandomRotation.create(10, rng)
        vector = rng.normal(size=10)
        recovered = rotation.inverse(rotation.forward(vector))
        assert recovered.shape == (10,)
        assert np.allclose(recovered, vector)

    def test_padding_to_power_of_two(self):
        rng = np.random.default_rng(2)
        rotation = RandomRotation.create(100, rng)
        assert rotation.padded_dim == 128
        assert rotation.forward(np.ones(100)).shape == (128,)

    def test_norm_preserved_through_padding(self):
        rng = np.random.default_rng(3)
        rotation = RandomRotation.create(100, rng)
        vector = rng.normal(size=100)
        assert np.isclose(
            np.linalg.norm(rotation.forward(vector)), np.linalg.norm(vector)
        )

    def test_flattening_effect(self):
        # After rotation, the max coordinate should be much smaller than
        # the norm for a spiky input (the overflow-control property).
        rng = np.random.default_rng(4)
        rotation = RandomRotation.create(1024, rng)
        spike = np.zeros(1024)
        spike[3] = 1.0
        rotated = rotation.forward(spike)
        assert np.abs(rotated).max() < 0.2

    def test_wrong_width_rejected(self):
        rng = np.random.default_rng(5)
        rotation = RandomRotation.create(16, rng)
        with pytest.raises(ConfigurationError):
            rotation.forward(np.ones(17))
        with pytest.raises(ConfigurationError):
            rotation.inverse(np.ones(17))

    def test_invalid_signs_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomRotation(signs=np.array([1.0, 0.5]), input_dim=2)

    def test_non_power_of_two_signs_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomRotation(signs=np.ones(6), input_dim=6)

    def test_input_dim_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            RandomRotation(signs=np.ones(8), input_dim=9)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_property_roundtrip(self, dimension, seed):
        rng = np.random.default_rng(seed)
        rotation = RandomRotation.create(dimension, rng)
        vector = rng.normal(size=dimension)
        assert np.allclose(rotation.inverse(rotation.forward(vector)), vector)
