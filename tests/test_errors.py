"""The guards in errors.py: caps, positivity and finiteness."""

import math

import numpy as np
import pytest

from liequant.errors import DomainError, check_cap, check_finite, check_positive, finite


def raised(call):
    with pytest.raises(DomainError) as info:
        call()
    return info.value


class TestCheckCap:
    def test_at_and_below_the_cap_pass(self):
        assert check_cap(10, 10, "n") is None
        assert check_cap(0, 10, "n") is None

    def test_above_the_cap_gives_the_token_and_what(self):
        err = raised(lambda: check_cap(11, 10, "--points"))
        assert err.token == "size_cap"
        assert "--points" in str(err) and "10" in str(err)

    def test_token_can_be_named(self):
        assert raised(lambda: check_cap(65, 64, "the dimension", "dim_cap")).token == "dim_cap"

    def test_infinite_cap_admits_every_size(self):
        assert check_cap(10**12, math.inf, "rows") is None


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1e-300, 1.0, 1e308, 3, np.float64(2.0)])
    def test_positive_finite_passes(self, value):
        assert check_positive(value, "bad_hbar", "hbar") is None

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, np.nan])
    def test_rejects_zero_negative_nan_and_inf(self, value):
        err = raised(lambda: check_positive(value, "bad_beta", "beta"))
        assert err.token == "bad_beta"
        assert "beta" in str(err)


class TestCheckFinite:
    @pytest.mark.parametrize("value", [0.0, -1e308, 5, 1 + 2j, np.float32(3.0),
                                       np.complex128(1 - 1j), np.int64(7), np.array(2.5)])
    def test_finite_scalar_is_returned(self, value):
        assert check_finite(value, "x") is value

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(math.inf, 0),
                                       complex(0, math.nan), np.float64(np.inf),
                                       np.complex64(complex(0, -np.inf)), np.array(np.nan)])
    def test_non_finite_scalar_is_rejected(self, value):
        err = raised(lambda: check_finite(value, "the norm"))
        assert err.token == "not_finite"
        assert "the norm" in str(err)

    def test_finite_array_is_returned(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]]) * (1 + 1j)
        assert check_finite(a, "m") is a
        empty = np.zeros((0, 3))
        assert check_finite(empty, "m") is empty

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 1.0),
                                     complex(1.0, np.nan)])
    def test_one_bad_entry_rejects_the_array(self, bad):
        a = np.zeros((3, 3), dtype=complex)
        a[2, 1] = bad
        assert raised(lambda: check_finite(a, "an entry")).token == "not_finite"


class TestFinite:
    def test_returns_the_value(self):
        assert finite(lambda: 2.0 * np.arange(3), "x").tolist() == [0.0, 2.0, 4.0]

    @pytest.mark.parametrize("compute", [
        lambda: np.array([1e308]) * 10.0,  # overflow
        lambda: np.array([np.inf]) - np.inf,  # invalid
        lambda: np.float64(1e308) * 10.0,  # numpy scalar overflow
        lambda: 1.0 / np.array([0.0]),  # division by zero
    ])
    def test_overflow_becomes_the_token_without_a_warning(self, compute):
        # the suite runs with RuntimeWarning as an error, so a warning would fail here
        err = raised(lambda: finite(compute, "the image"))
        assert err.token == "not_finite"
        assert "the image" in str(err)

    def test_errors_in_compute_propagate(self):
        def compute():
            raise DomainError("shape", "bad")
        assert raised(lambda: finite(compute, "x")).token == "shape"
