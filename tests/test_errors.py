"""The guards in errors.py: caps, counts, spins, real numbers, arrays, positivity and finiteness."""

import copy
import math
import pathlib
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import liequant
from liequant import (fermion, fock, liealg, matrixcore, poisson, rotations, spectra, su2reps,
                      thermal)
from liequant.errors import (MAX_SAMPLES, DomainError, check_array, check_cap, check_count,
                             check_finite, check_positive, check_real, check_spin, finite)


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
        got = check_positive(value, "bad_hbar", "hbar")
        assert got == float(value) and type(got) is float

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, np.nan])
    def test_rejects_zero_negative_nan_and_inf(self, value):
        err = raised(lambda: check_positive(value, "bad_beta", "beta"))
        assert err.token == "bad_beta"
        assert "beta" in str(err)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1e308, 3, np.float32(0.1), np.int64(-7),
                                       True, Fraction(1, 3)],
                             ids=["0.0", "-0.0", "5e-324", "1e308", "3", "float32", "int64", "True",
                                  "1/3"])
    def test_a_finite_real_is_returned_as_a_float(self, value):
        got = check_real(value, "x")
        assert got == float(value) and type(got) is float
        assert math.copysign(1.0, got) == math.copysign(1.0, float(value))  # -0.0 stays -0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(np.inf), 10**400,
                                       -(10**400)],
                             ids=["nan", "inf", "-inf", "float64-inf", "10**400", "-10**400"])
    def test_nan_an_infinity_or_an_int_past_the_float_range_gives_the_token(self, value):
        assert raised(lambda: check_real(value, "dt", "bad_dt")).token == "bad_dt"
        err = raised(lambda: check_real(value, "the angle"))
        assert err.token == "not_finite"
        assert "the angle" in str(err)

    @pytest.mark.parametrize("value", ["3", 1 + 0j, np.complex128(1), None, [1.0]],
                             ids=["'3'", "1+0j", "complex128", "None", "[1.0]"])
    def test_a_value_of_another_kind_raises_type_error(self, value):
        with pytest.raises(TypeError):
            check_real(value, "x")


class TestCheckArray:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_an_array_of_the_dtype_is_not_copied(self, dtype):
        a = np.zeros((2, 3), dtype=dtype)
        assert check_array(a, "a", (2, 3), dtype) is a

    @pytest.mark.parametrize("value, dtype", [
        ([[1, 2], [3, 4]], float), (np.arange(4).reshape(2, 2), float), ([[True, 0], [0, 1]], float),
        (np.ones((2, 2), dtype=np.float32), float), ([[1.0, 2], [3, 4]], complex),
        ([[1j, 2], [3, 4]], complex), ([[Fraction(1, 3), 2], [3, 4]], float),
        ([[Fraction(1, 3), 2], [3, 4]], complex), ([[np.int64(1), 2.5], [3, 4]], float),
    ], ids=["int list", "int array", "bool", "float32", "real into complex", "complex",
            "Fraction", "Fraction into complex", "int64"])
    def test_numbers_are_read_into_the_dtype(self, value, dtype):
        got = check_array(value, "a", (2, 2), dtype)
        assert got.dtype == np.dtype(dtype) and got.shape == (2, 2)
        assert got.tolist() == np.array(value, dtype=object).astype(dtype).tolist()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_and_infinities_pass(self, dtype):
        got = check_array([math.nan, math.inf, -math.inf], "a", (3,), dtype)
        assert np.isnan(got[0]) and np.isinf(got[1:]).all()

    @pytest.mark.parametrize("value, shape", [([10**400, 1.0], (2,)), ([1.0, -(10**400)], (2,)),
                                              ([[10**400]] * 2, (2, 1))],
                             ids=["10**400", "-10**400", "nested"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_an_int_past_the_float_range_is_not_finite(self, value, shape, dtype):
        err = raised(lambda: check_array(value, "the levels", shape, dtype))
        assert err.token == "not_finite" and "the levels" in str(err)

    @pytest.mark.parametrize("value", ["1", "abc", b"1", None, [None, 1.0], ["1", 2.0],
                                       [Fraction(1, 2), "1"], [[1.0], [None]],
                                       np.array(["1.5"]), [1.0, Decimal(1)]],
                             ids=["str", "word", "bytes", "None", "[None]", "['1']",
                                  "Fraction and str", "nested None", "str array", "Decimal"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_an_entry_that_is_no_number_raises_type_error(self, value, dtype):
        with pytest.raises(TypeError):
            check_array(value, "a", (None,) * np.ndim(np.array(value, dtype=object)), dtype)

    @pytest.mark.parametrize("value", [[1j], np.array([1 + 0j]), [Fraction(1), 2j], [1.0, 1e400j]],
                             ids=["1j", "complex128", "object", "complex inf"])
    def test_a_complex_entry_in_a_real_array_raises_type_error(self, value):
        # np.asarray(..., dtype=float) dropped the imaginary part with only a ComplexWarning
        with pytest.raises(TypeError):
            check_array(value, "a", (None,))
        assert check_array(value, "a", (None,), complex).dtype == complex

    @pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], [1.0, [2.0, 3.0]], [[1.0], 2.0]],
                             ids=["short row", "list entry", "scalar row"])
    def test_a_ragged_list_is_shape(self, value):
        assert raised(lambda: check_array(value, "m", (None, None))).token == "shape"

    @pytest.mark.parametrize("value, shape", [
        ([1.0, 2.0], (3,)), ([1.0, 2.0, 3.0], (3, 3)), ([[1.0, 2.0, 3.0]], (3,)), (1.0, (None,)),
        ([[1.0, 2.0]], (2, None)), ([[1.0, 2.0]], (None, 3)), (np.zeros((2, 2, 2)), (None, None)),
    ], ids=["short", "1-d for 2-d", "2-d for 1-d", "scalar", "rows", "columns", "3-d for 2-d"])
    def test_another_shape_is_shape(self, value, shape):
        err = raised(lambda: check_array(value, "the vector", shape))
        assert err.token == "shape" and "the vector" in str(err)

    @pytest.mark.parametrize("shape", [(None, None), (None, 3), (2, None), (2, 3)])
    def test_none_matches_any_length(self, shape):
        assert check_array(np.ones((2, 3)), "m", shape).shape == (2, 3)
        assert check_array([], "v", (None,)).shape == (0,)


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

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    def test_an_int_past_the_float_range_is_not_finite(self, value):
        assert raised(lambda: check_finite(value, "x")).token == "not_finite"

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


class TestCheckCount:
    @pytest.mark.parametrize("value, expected", [(0, 0), (5, 5), (np.int64(7), 7), (True, 1),
                                                 (10**400, 10**400)],
                             ids=["0", "5", "int64", "True", "10**400"])
    def test_integers_are_returned_as_ints(self, value, expected):
        got = check_count(value, "n")
        assert got == expected and type(got) is int

    @pytest.mark.parametrize("least", [0, 1, 2])
    def test_least_passes_and_one_below_gives_the_token(self, least):
        assert check_count(least, "n", least, 10, "too_few") == least
        err = raised(lambda: check_count(least - 1, "n", least, 10, "too_few"))
        assert err.token == "too_few"
        assert "n" in str(err)

    def test_default_token_is_bad_argument(self):
        assert raised(lambda: check_count(-1, "--points")).token == "bad_argument"

    @pytest.mark.parametrize("cap", [1, 12, 100_000])
    def test_cap_passes_and_one_past_gives_size_cap(self, cap):
        assert check_count(cap, "n", 1, cap, "too_few") == cap
        assert raised(lambda: check_count(cap + 1, "n", 1, cap, "too_few")).token == "size_cap"

    @pytest.mark.parametrize("value, token", [(10**5000, "size_cap"), (-(10**5000), "too_few")],
                             ids=["10**5000", "-10**5000"])
    def test_ints_too_long_for_str_still_give_a_token(self, value, token):
        assert raised(lambda: check_count(value, "n", 1, 10, "too_few")).token == token

    @pytest.mark.parametrize("value", [2.5, 3.0, math.nan, math.inf, -0.0, np.float64(3.0), "3",
                                       Fraction(3, 1), None])
    def test_a_value_of_another_kind_raises_type_error(self, value):
        with pytest.raises(TypeError):
            check_count(value, "n")


class TestCheckSpin:
    @pytest.mark.parametrize("j, twoj", [(0, 0), (Fraction(1, 2), 1), (1.5, 3), ("3/2", 3),
                                         (np.float64(2.5), 5), (np.int64(2), 4), (True, 2),
                                         (-0.0, 0)])
    def test_half_integers_are_read_as_twice_the_spin(self, j, twoj):
        got = check_spin(j)
        assert got == twoj and type(got) is int

    @pytest.mark.parametrize("j", [0.3, -0.5, Fraction(-1, 2), -1, math.nan, math.inf, -math.inf,
                                   np.float64(np.nan), "1/3", "1/0", "x", -(10**5000)],
                             ids=["0.3", "-0.5", "-1/2", "-1", "nan", "inf", "-inf", "float64-nan",
                                  "'1/3'", "'1/0'", "'x'", "-10**5000"])
    def test_anything_else_is_bad_spin(self, j):
        assert raised(lambda: check_spin(j)).token == "bad_spin"

    def test_cap_bounds_the_dimension(self):
        assert check_spin(Fraction(899, 2), 900) == 899
        assert raised(lambda: check_spin(450, 900)).token == "size_cap"
        assert raised(lambda: check_spin(10**400, 900)).token == "size_cap"
        assert check_spin(10**400) == 2 * 10**400

    @pytest.mark.parametrize("j", [None, [1], 1j])
    def test_a_value_of_another_kind_raises_type_error(self, j):
        with pytest.raises(TypeError):
            check_spin(j)


# Every public count and spin parameter, each called with the other arguments valid
_LINES = spectra.SpectrumDataset([1.0, 2.0, 3.0])
_LEVELS = spectra.EnergyLevels([0.0, 1.0, 3.0])
_BODY = poisson.RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0))
COUNTS = {
    "build_fock(dim)": fock.build_fock,
    "CoherentState(dim)": lambda n: fock.CoherentState(1.0, 0.5, n),
    "oscillator_spectrum(count)": lambda n: fock.oscillator_spectrum(fock.build_fock(8), 1.0, n),
    "build_highest_weight(max_levels)":
        lambda n: fock.build_highest_weight(fock.HWData(-1.0, 2.0, 0.0), n),
    "case2_alpha(j_m)": lambda n: fock.case2_alpha(n, -1.0, 0.5),
    "build_fermion(n_modes)": fermion.build_fermion,
    "number_spectrum(j)": lambda n: fermion.number_spectrum(fermion.build_fermion(3), n),
    "rydberg_lines(k_max)": spectra.rydberg_lines,
    "assign_lines(max_iters)": lambda n: spectra.assign_lines(_LINES, _LEVELS, max_iters=n),
    "assign_lines_multistart(n_starts)":
        lambda n: spectra.assign_lines_multistart(_LINES, _LEVELS, n_starts=n),
    "integrate_rigid_body(steps)": lambda n: poisson.integrate_rigid_body(_BODY, 1e-3, n),
    "cover_check(samples)": lambda n: rotations.cover_check(n, 0),  # capped at MAX_SAMPLES
    "cover_check(seed)": lambda n: rotations.cover_check(1, n),
}
SPINS = {
    "build_irrep(j)": su2reps.build_irrep,
    "clebsch_gordan(k)": lambda j: su2reps.clebsch_gordan(j, 1),
    "clebsch_gordan(l)": lambda j: su2reps.clebsch_gordan(Fraction(1, 2), j),
    "spinor_inner(s)": lambda j: su2reps.spinor_inner([1.0, 0.0], [0.6, 0.8j], j),
    "spinor_norm_constant(s)": su2reps.spinor_norm_constant,
    "spinor_metric(s)": su2reps.spinor_metric,
}
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 2.5, 3.0, -1, 0, 10**400, np.int64(3), True]
SPECIAL_IDS = ["nan", "inf", "-inf", "0.0", "-0.0", "2.5", "3.0", "-1", "0", "10**400", "int64",
               "True"]
REAL_VALUES = SPECIAL + [1e308, 5e-324]
REAL_IDS = SPECIAL_IDS + ["1e308", "5e-324"]

# Every public real parameter, each called with the other arguments valid, and its outcome on
# each of REAL_VALUES in order: "v" a value, "d" a DomainError
_STATE = thermal.GibbsState([[0.0, 0.0], [0.0, 1.0]], 1.0)
_COHERENT = fock.CoherentState(1.0, 0.5, 4)
_VACUUM = fock.CoherentState(1.0, 0.0, 4)  # no truncation test fails for any hbar
_NAT = thermal.NATURAL_CONSTANTS
#                     nan inf -inf 0.0 -0.0 2.5 3.0 -1 0 10**400 int64 True 1e308 5e-324
POSITIVE, FINITE = "dddddvvdddvvvv", "dddvvvvvvdvvvv"
REALS = {
    "PhysicalConstants(kbar)": (lambda x: thermal.PhysicalConstants(kbar=x), POSITIVE),
    "PhysicalConstants(hbar)": (lambda x: thermal.PhysicalConstants(hbar=x), POSITIVE),
    "PhysicalConstants(c)": (lambda x: thermal.PhysicalConstants(c=x), POSITIVE),
    "GibbsState(beta)": (lambda x: thermal.GibbsState([[0.0, 0.0], [0.0, 1.0]], x), POSITIVE),
    "entropy_value(kbar)": (lambda x: thermal.entropy_value(_STATE, x), FINITE),
    "schottky_capacity(e_gap)": (lambda x: thermal.schottky_capacity(x, 1.0), FINITE),
    "schottky_capacity(temperature)": (lambda x: thermal.schottky_capacity(1.0, x), POSITIVE),
    "planck_density(omega)": (lambda x: thermal.planck_density(x, 1.0, 1.0, _NAT), POSITIVE),
    "planck_density(temperature)": (lambda x: thermal.planck_density(1.0, x, 1.0, _NAT), POSITIVE),
    "planck_density(volume)": (lambda x: thermal.planck_density(1.0, 1.0, x, _NAT), FINITE),
    "entropy_of_mixing(n_moles)": (lambda x: thermal.entropy_of_mixing([0.5, 0.5], x), FINITE),
    # R T / V past the float range is not_finite
    "ideal_gas_pressure(temperature)":
        (lambda x: thermal.ideal_gas_pressure(x, 1.0, _NAT), "dddddvvdddvvdv"),
    "ideal_gas_pressure(volume)":
        (lambda x: thermal.ideal_gas_pressure(1.0, x, _NAT), "dddddvvdddvvvd"),
    "build_fock(hbar)": (lambda x: fock.build_fock(4, x), POSITIVE),
    # hbar k past the float range is not_finite
    "oscillator_spectrum(omega)":
        (lambda x: fock.oscillator_spectrum(fock.build_fock(4), x, 2), "dddvvvvvvdvvdv"),
    # the metric hbar^k past the float range is not_finite
    "coherent_inner(hbar)": (lambda x: fock.coherent_inner(_VACUUM, _VACUUM, x), "dddddvvdddvvdv"),
    "CoherentState(lam)": (lambda x: fock.CoherentState(x, 0.5, 4), FINITE),
    "CoherentState(z)": (lambda x: fock.CoherentState(1.0, x, 4), FINITE),
    "evolve_coherent(omega)": (lambda x: fock.evolve_coherent(_COHERENT, x, 1.0), FINITE),
    "evolve_coherent(t)": (lambda x: fock.evolve_coherent(_COHERENT, 1.0, x), FINITE),
    "HWData(u)": (lambda x: fock.HWData(x, 0.0, 0.0), FINITE),
    "HWData(v)": (lambda x: fock.HWData(-1.0, x, 0.0), FINITE),
    "HWData(alpha)": (lambda x: fock.HWData(-1.0, 0.0, x), FINITE),
    "HWData(hbar)": (lambda x: fock.HWData(-1.0, 0.0, 0.0, x), POSITIVE),
    "case2_alpha(u)": (lambda x: fock.case2_alpha(1, x, 0.5), "dddddddvdddddd"),  # u < 0 only
    "case2_alpha(v)": (lambda x: fock.case2_alpha(1, -1.0, x), FINITE),
    # hbar u underflowing to 0 makes alpha not_finite
    "case2_alpha(hbar)": (lambda x: fock.case2_alpha(1, -1.0, 0.5, x), "dddddvvdddvvvd"),
    "build_fermion(hbar)": (lambda x: fermion.build_fermion(2, x), POSITIVE),
    "RigidBodyState(J)": (lambda x: poisson.RigidBodyState((x, 0.5, 0.2), (1.0, 2.0, 3.0)), FINITE),
    "RigidBodyState(I)":
        (lambda x: poisson.RigidBodyState((1.0, 0.5, 0.2), (x, 2.0, 3.0)), POSITIVE),
    "RigidBodyState(t)":
        (lambda x: poisson.RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0), x), FINITE),
    # a negative dt runs backwards; dt = 1e308 takes the trajectory past the float range
    "integrate_rigid_body(dt)":
        (lambda x: poisson.integrate_rigid_body(_BODY, x, 2), "dddddvvvddvvdv"),
    "elementary(angle)": (lambda x: rotations.elementary("z", x), FINITE),
    "SU2Element(x)": (lambda x: rotations.SU2Element(x, 0.0), "dddddddvdddvdd"),  # |x| = 1 only
    "SU2Element(y)": (lambda x: rotations.SU2Element(0.0, x), "dddddddvdddvdd"),
    "rydberg_lines(r_h)": (lambda x: spectra.rydberg_lines(3, x), FINITE),
    # |F|^2 past the float range is not_finite
    "lorentz_response(force)": (lambda x: spectra.lorentz_response(x, 1.0, 1.0, 1.0, 1.0),
                                "dddvvvvvvdvvdv"),
    "lorentz_response(omega)": (lambda x: spectra.lorentz_response(1.0, x, 1.0, 1.0, 1.0), FINITE),
    "lorentz_response(m)": (lambda x: spectra.lorentz_response(1.0, 1.0, x, 1.0, 1.0), FINITE),
    # k = m w^2 here, so c = 0, or (c w)^2 underflowing to 0, is undamped_resonance
    "lorentz_response(c)": (lambda x: spectra.lorentz_response(1.0, 1.0, 1.0, x, 1.0),
                            "dddddvvvddvvvd"),
    "lorentz_response(k)": (lambda x: spectra.lorentz_response(1.0, 1.0, 1.0, 1.0, x), FINITE),
    "assign_lines_multistart(scale)": (lambda x: spectra.assign_lines_multistart(
        _LINES, _LEVELS, n_starts=2, scale=x), "dddvvvvdvdvvvv"),  # scale >= 0
}


# Every public array parameter, each called with the other arguments valid: the call, a valid
# value as a nested list, and whether the parameter is real, so that a complex entry is a TypeError
_EYE2 = [[1.0, 0.0], [0.0, 1.0]]
_H2 = [[0.0, 0.5], [0.5, 1.0]]
_SO3, _SO3_MATS = liealg.builtin_algebra("so3")
_T3 = su2reps.build_irrep(1).t3.real.tolist()
_F3 = fock.build_fock(3)
_FERMI = fermion.build_fermion(2)
_ROT = rotations.elementary("z", 0.3)
_TWO_LINES = spectra.SpectrumDataset([1.0, 2.0])
ARRAYS = {
    "as_square(a)": (matrixcore.as_square, _EYE2, False),
    "commutator(a)": (lambda x: matrixcore.commutator(x, _H2), _EYE2, False),
    "commutator(b)": (lambda x: matrixcore.commutator(_H2, x), _EYE2, False),
    "anticommutator(a)": (lambda x: matrixcore.anticommutator(x, _H2), _EYE2, False),
    "anticommutator(b)": (lambda x: matrixcore.anticommutator(_H2, x), _EYE2, False),
    "kron_embed(op)": (lambda x: matrixcore.kron_embed(x, 1, [3, 2]), _H2, False),
    "expm(a)": (matrixcore.expm, _H2, False),
    "is_hermitian(a)": (matrixcore.is_hermitian, _H2, False),
    "is_antihermitian(a)": (matrixcore.is_antihermitian, _H2, False),
    "is_unitary(a)": (matrixcore.is_unitary, _EYE2, False),
    "is_special_orthogonal(a)": (matrixcore.is_special_orthogonal, _EYE2, False),
    "eig_hermitian(a)": (matrixcore.eig_hermitian, _H2, False),
    "LieAlgebraBasis(c)": (lambda x: liealg.LieAlgebraBasis("so3", _SO3.names, x), _SO3.c.tolist(),
                           False),
    "bracket_coords(x)": (lambda x: _SO3.bracket_coords(x, [0.0, 1.0, 0.0]), [1.0, 0.0, 0.5], True),
    "bracket_coords(y)": (lambda x: _SO3.bracket_coords([1.0, 0.0, 0.0], x), [1.0, 0.0, 0.5], True),
    "MatrixRealization(mats)": (lambda x: liealg.MatrixRealization(_SO3, x),
                                [m.real.tolist() for m in _SO3_MATS.mats], False),
    "element(coords)": (_SO3_MATS.element, [1.0, 0.0, 0.5], False),
    "weyl_check(a)": (lambda x: liealg.weyl_check(x, [[0.0, 0.0], [0.0, 0.0]]), _H2, False),
    "weyl_check(b)": (lambda x: liealg.weyl_check([[0.0, 0.0], [0.0, 0.0]], x), _H2, False),
    "hat(omega)": (rotations.hat, [1.0, 2.0, 3.0], True),
    "vee(m)": (rotations.vee, rotations.hat([1.0, 2.0, 3.0]).tolist(), True),
    "rodrigues(a)": (rotations.rodrigues, [0.1, 0.2, 0.3], True),
    "Rotation(m)": (rotations.Rotation, _ROT.m.tolist(), True),
    "Rotation.apply(v)": (_ROT.apply, [1.0, 0.0, 0.5], True),
    "EnergyLevels(values)": (spectra.EnergyLevels, [0.0, 1.0, 3.0], True),
    "SpectrumDataset(omegas)": (spectra.SpectrumDataset, [1.0, 2.0], True),
    "SpectrumDataset(weights)": (lambda x: spectra.SpectrumDataset([1.0, 2.0], x), [1.0, 0.5],
                                 True),
    "objective(levels)": (lambda x: spectra.objective(x, [2, 3], [1, 1], _TWO_LINES, 1.0),
                          [0.0, 1.0, 3.0], True),
    "objective(upper)": (lambda x: spectra.objective([0.0, 1.0, 3.0], x, [1, 1], _TWO_LINES, 1.0),
                         [2, 3], True),
    "objective(lower)": (lambda x: spectra.objective([0.0, 1.0, 3.0], [2, 3], x, _TWO_LINES, 1.0),
                         [1, 1], True),
    "GibbsState(h)": (lambda x: thermal.GibbsState(x, 1.0), _H2, False),
    "GibbsState.value(g)": (_STATE.value, _H2, False),
    "partition_function(h)": (lambda x: thermal.partition_function(x, 1.0), _H2, False),
    "generating_functional(f)": (thermal.generating_functional, _H2, False),
    "kubo_inner(f)": (lambda x: thermal.kubo_inner(x, _H2, _EYE2), _H2, False),
    "kubo_inner(g)": (lambda x: thermal.kubo_inner(_H2, x, _EYE2), _H2, False),
    "kubo_inner(h)": (lambda x: thermal.kubo_inner(_H2, _EYE2, x), _H2, False),
    "gibbs_bogoliubov_gap(f)": (lambda x: thermal.gibbs_bogoliubov_gap(x, _EYE2), _H2, False),
    "gibbs_bogoliubov_gap(g)": (lambda x: thermal.gibbs_bogoliubov_gap(_EYE2, x), _H2, False),
    "limit_resolution(g)": (lambda x: thermal.limit_resolution(_STATE, x), _H2, False),
    "entropy_of_mixing(fractions)": (lambda x: thermal.entropy_of_mixing(x, 1.0), [0.25, 0.75],
                                     True),
    "BosonFock.inner(phi)": (lambda x: _F3.inner(x, [1.0, 0.5, 0.0]), [1.0, 0.0, 0.5], False),
    "BosonFock.inner(psi)": (lambda x: _F3.inner([1.0, 0.5, 0.0], x), [1.0, 0.0, 0.5], False),
    "BosonFock.orthonormal_view(op)": (_F3.orthonormal_view, np.eye(3).tolist(), False),
    "BosonFock.expectation(op)": (lambda x: _F3.expectation(x, [1.0, 0.5, 0.0]),
                                  np.eye(3).tolist(), False),
    "BosonFock.expectation(psi)": (lambda x: _F3.expectation(np.eye(3), x), [1.0, 0.5, 0.0],
                                   False),
    "FermionFock.smeared(u)": (_FERMI.smeared, [1.0, 0.5], False),
    "spinor_inner(x)": (lambda x: su2reps.spinor_inner(x, [0.6, 0.8j], 1), [1.0, 0.0], False),
    "spinor_inner(y)": (lambda x: su2reps.spinor_inner([1.0, 0.0], x, 1), [0.6, 0.8], False),
    "decompose_restriction(sub_mats)": (su2reps.decompose_restriction, [_T3], False),
}
ARRAY_ENTRIES = [math.nan, math.inf, -math.inf, 10**400, 1j, "1", None, 1e200, 1e308]
ARRAY_ENTRY_IDS = ["nan", "inf", "-inf", "10**400", "1j", "'1'", "None", "1e200", "1e308"]


def _leaves(value, path=()):
    """Index paths of the numbers in a nested list."""
    if isinstance(value, list):
        return [leaf for i, x in enumerate(value) for leaf in _leaves(x, path + (i,))]
    return [path]


def _replaced(value, path, new):
    """A deep copy of the nested list ``value`` with the entry at ``path`` set to ``new``."""
    value = copy.deepcopy(value)
    *head, last = path
    inner = value
    for i in head:
        inner = inner[i]
    inner[last] = new
    return value


def _array_outcome(name, value, entry=0.0):
    """The outcome of ARRAYS[name] on ``value``, asserted to be a value, a DomainError, or a
    TypeError for an ``entry`` that is a str, None, or complex in a real array."""
    call, _, real = ARRAYS[name]
    outcome = _outcome(call, value)
    kind_error = entry is None or isinstance(entry, str) or (isinstance(entry, complex) and real)
    assert outcome != "type" or kind_error, (name, value)
    return outcome


def _outcome(call, value):
    """"value", "domain" or "type" for a call that returns, raises DomainError or raises
    TypeError; any other exception, or a RuntimeWarning, escapes and fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call(value)
        except DomainError:
            return "domain"
        except TypeError:
            return "type"
    return "value"


def test_every_count_and_spin_gives_a_value_or_a_token():
    """No count, spin or real parameter raises ValueError, OverflowError or ZeroDivisionError,
    warns, or runs unbounded; a count of another kind than int is the only TypeError."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.one_of(st.sampled_from(SPECIAL), st.integers(-3, 12), st.integers(-3, 24).map(
        lambda n: n / 2), st.floats(), st.sampled_from([10**400, -(10**400), np.int64(-2)]))

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        for name, call in COUNTS.items():
            v = data.draw(value, label=name)
            outcome = _outcome(call, v)
            integral = isinstance(v, (int, np.integer))
            assert outcome != "type" or not integral, (name, v)
        for name, call in SPINS.items():
            v = data.draw(value, label=name)
            assert _outcome(call, v) != "type", (name, v)
        for name, (call, _) in REALS.items():
            v = data.draw(value, label=name)
            assert _outcome(call, v) != "type", (name, v)

    check()


def test_every_array_gives_a_value_or_a_token():
    """No array parameter raises ValueError, OverflowError or IndexError, warns, or takes a
    complex entry into a real array: each bad entry, shape or ragged list gives a value, a
    DomainError, or a TypeError for a str, None or complex-into-real entry."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        for name, (_, base, _) in ARRAYS.items():
            path = data.draw(st.sampled_from(_leaves(base)), label=f"{name} entry")
            kind = data.draw(st.sampled_from(["entry", "axis", "short", "ragged"]), label=name)
            entry = 0.0
            if kind == "entry":
                entry = data.draw(st.sampled_from(ARRAY_ENTRIES), label=f"{name} value")
                value = _replaced(base, path, entry)
            elif kind == "axis":  # one axis too many
                value = [base]
            elif kind == "short":  # the outer list one entry short
                value = base[:-1]
            else:  # one entry replaced by a list of two
                value = _replaced(base, path, [1.0, 1.0])
            outcome = _array_outcome(name, value, entry)
            assert kind not in ("axis", "ragged") or outcome == "domain", (name, value)

    check()


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_each_array_on_its_valid_value_returns(name):
    call, base, _ = ARRAYS[name]
    assert _outcome(call, base) == "value"
    assert _outcome(call, np.array(base)) == "value"


@pytest.mark.parametrize("name", sorted(ARRAYS))
@pytest.mark.parametrize("index", range(len(ARRAY_ENTRIES)), ids=ARRAY_ENTRY_IDS)
def test_each_array_with_a_special_entry(name, index):
    _, base, real = ARRAYS[name]
    entry = ARRAY_ENTRIES[index]
    outcome = _array_outcome(name, _replaced(base, _leaves(base)[0], entry), entry)
    if entry is None or isinstance(entry, str) or (entry == 1j and real):
        assert outcome == "type"
    elif entry != 1j and entry not in (1e200, 1e308):  # a value or a token, with no warning
        assert outcome == "domain"  # NaN, an infinity or 10**400 is never accepted


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_each_array_of_another_shape_or_ragged_is_a_token(name):
    _, base, _ = ARRAYS[name]
    assert _array_outcome(name, [base]) == "domain"
    assert _array_outcome(name, _replaced(base, _leaves(base)[-1], [1.0, 1.0])) == "domain"


@pytest.mark.parametrize("name", sorted(COUNTS))
@pytest.mark.parametrize("value", SPECIAL, ids=SPECIAL_IDS)
def test_each_count_on_each_special_value(name, value):
    outcome = _outcome(COUNTS[name], value)
    if isinstance(value, float):
        assert outcome == "type"
    else:
        assert outcome in ("value", "domain")


@pytest.mark.parametrize("name", sorted(SPINS))
@pytest.mark.parametrize("value", SPECIAL, ids=SPECIAL_IDS)
def test_each_spin_on_each_special_value(name, value):
    # -1, NaN and +-inf are bad_spin and 10**400 is size_cap; 2.5, 3.0 and True are spins
    bad = value == 10**400 or value < 0 or not math.isfinite(value)
    assert _outcome(SPINS[name], value) == ("domain" if bad else "value")


@pytest.mark.parametrize("name", sorted(REALS))
@pytest.mark.parametrize("index", range(len(REAL_VALUES)), ids=REAL_IDS)
def test_each_real_on_each_special_value(name, index):
    call, outcomes = REALS[name]
    expected = {"v": "value", "d": "domain"}[outcomes[index]]
    assert _outcome(call, REAL_VALUES[index]) == expected


@pytest.mark.parametrize("name", sorted(REALS))
@pytest.mark.parametrize("value", ["1", 1j, None], ids=["'1'", "1j", "None"])
def test_a_real_of_another_kind_raises_type_error(name, value):
    # these are complex parameters, which check_finite reads
    complex_ok = value == 1j and name in ("CoherentState(lam)", "CoherentState(z)", "SU2Element(x)",
                                          "SU2Element(y)", "lorentz_response(force)")
    assert _outcome(REALS[name][0], value) == ("value" if complex_ok else "type")


def test_no_module_reads_a_real_number_its_own_way():
    """Outside errors.py no module compares with an infinity or imports cmath: a real
    parameter is read by check_real, check_positive or check_finite."""
    for path in sorted(pathlib.Path(liequant.__file__).parent.glob("*.py")):
        if path.name != "errors.py":
            text = path.read_text()
            assert "< math.inf" not in text and "< np.inf" not in text, path.name
            assert not re.search(r"^\s*(import|from)\s.*\bcmath\b", text, re.M), path.name


def test_no_module_reads_an_array_its_own_way():
    """Outside errors.py no module calls np.asarray: an array argument is read by check_array."""
    for path in sorted(pathlib.Path(liealg.__file__).parent.glob("*.py")):
        if path.name != "errors.py":
            assert "np.asarray(" not in path.read_text(), path.name


class TestFoundCountsAndSpins:
    """Each case raised a traceback, returned a bad object or never returned before the readers."""

    @pytest.mark.parametrize("j", [math.nan, math.inf])
    def test_build_irrep_of_nan_or_inf_is_bad_spin(self, j):
        assert raised(lambda: su2reps.build_irrep(j)).token == "bad_spin"  # was ValueError

    def test_clebsch_gordan_of_inf_is_bad_spin(self):
        assert raised(lambda: su2reps.clebsch_gordan(math.inf, 1)).token == "bad_spin"

    @pytest.mark.parametrize("call", [
        lambda: spectra.rydberg_lines(math.nan),  # ValueError from arange
        lambda: fermion.build_fermion(math.nan),  # ValueError from arange
        lambda: fock.build_highest_weight(fock.HWData(-1.0, 2.0, 0.0), math.nan),  # ValueError
        lambda: fock.build_fock(math.nan),  # returned BosonFock(dim=nan)
        lambda: fock.CoherentState(1.0, 0.5, math.nan),  # returned CoherentState(dim=nan)
        lambda: fermion.number_spectrum(fermion.build_fermion(3), 1.0),  # IndexError
    ], ids=["rydberg_lines", "build_fermion", "build_highest_weight", "build_fock",
            "CoherentState", "number_spectrum"])
    def test_a_nan_or_float_count_is_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_rydberg_lines_takes_no_integral_float(self):
        with pytest.raises(TypeError):  # ran as k_max = 3
            spectra.rydberg_lines(3.0)

    def test_integrate_rigid_body_caps_steps(self):
        # never returned: only the CLI capped --steps
        err = raised(lambda: poisson.integrate_rigid_body(_BODY, 1e-3, 10**400))
        assert err.token == "size_cap"
        assert raised(lambda: poisson.integrate_rigid_body(_BODY, 1e-3, MAX_SAMPLES + 1)).token \
            == "size_cap"
        assert raised(lambda: poisson.integrate_rigid_body(_BODY, 1e-3, -1)).token == "bad_steps"

    def test_assign_lines_multistart_caps_starts(self):
        # never returned: only the CLI capped --starts
        err = raised(lambda: spectra.assign_lines_multistart(_LINES, _LEVELS, n_starts=10**400))
        assert err.token == "size_cap"

    @pytest.mark.parametrize("call", [
        lambda: su2reps.spinor_norm_constant(10**400),  # OverflowError
        lambda: su2reps.spinor_metric(10**400),  # OverflowError
        lambda: su2reps.spinor_inner([1.0, 0.0], [1.0, 0.0], 10**400),  # OverflowError
        lambda: fock.case2_alpha(10**400, -1.0, 0.5),  # OverflowError
    ], ids=["spinor_norm_constant", "spinor_metric", "spinor_inner", "case2_alpha"])
    def test_a_huge_spin_or_count_is_size_cap(self, call):
        assert raised(call).token == "size_cap"


class TestFoundReals:
    """Each case raised a traceback, or returned or accepted a non-finite value, before the
    real parameters were read by check_real, check_positive and check_finite."""

    @pytest.mark.parametrize("call, token", [
        (lambda: rotations.elementary("x", 10**400), "not_finite"),
        (lambda: thermal.schottky_capacity(10**400, 1.0), "not_finite"),
        (lambda: fock.build_fock(4, 10**400), "bad_hbar"),
        (lambda: fermion.build_fermion(2, 10**400), "bad_hbar"),
        (lambda: thermal.GibbsState([[1.0]], 10**400), "bad_beta"),
        (lambda: thermal.ideal_gas_pressure(10**400, 1.0), "bad_argument"),
        (lambda: fock.HWData(10**400, 0, 0), "bad_argument"),
        (lambda: poisson.RigidBodyState((10**400, 0, 0), (1, 2, 3)), "not_finite"),
        (lambda: poisson.integrate_rigid_body(_BODY, 10**400, 1), "bad_dt"),
        (lambda: fock.case2_alpha(1, -1.0, 10**400), "not_finite"),
        (lambda: fock.evolve_coherent(_COHERENT, 10**400, 1), "not_finite"),
        (lambda: fock.CoherentState(10**400, 0.5, 4), "not_finite"),
        (lambda: spectra.assign_lines_multistart(_LINES, _LEVELS, scale=10**400, n_starts=2),
         "bad_argument"),
        (lambda: rotations.SU2Element(10**400, 0), "not_finite"),
        (lambda: fock.oscillator_spectrum(fock.build_fock(4), 10**400, 2), "not_finite"),
        (lambda: fock.coherent_inner(_VACUUM, _VACUUM, 10**400), "bad_hbar"),
    ], ids=["elementary", "schottky_capacity", "build_fock", "build_fermion", "GibbsState",
            "ideal_gas_pressure", "HWData", "RigidBodyState", "integrate_rigid_body", "case2_alpha",
            "evolve_coherent", "CoherentState", "assign_lines_multistart", "SU2Element",
            "oscillator_spectrum", "coherent_inner"])
    def test_an_int_past_the_float_range_gives_the_token(self, call, token):
        assert raised(call).token == token  # was OverflowError: int too large to convert to float

    @pytest.mark.parametrize("call, token", [
        (lambda: rotations.SU2Element(1e308, 0), "not_unit"),
        (lambda: spectra.lorentz_response(1e308, 1, 1, 1, 1), "not_finite"),
    ], ids=["SU2Element", "lorentz_response"])
    def test_a_square_past_the_float_range_gives_the_token(self, call, token):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert raised(call).token == token  # was OverflowError from a float power

    def test_rydberg_lines_of_an_int_past_the_float_range_is_bad_argument(self):
        # was TypeError from np.isfinite
        assert raised(lambda: spectra.rydberg_lines(3, 10**400)).token == "bad_argument"

    @pytest.mark.parametrize("call", [
        lambda: spectra.lorentz_response(1, math.nan, 1, 1, 1),
        lambda: thermal.entropy_of_mixing([0.5, 0.5], math.nan),
        lambda: thermal.entropy_value(_STATE, math.nan),
    ], ids=["lorentz_response", "entropy_of_mixing", "entropy_value"])
    def test_a_nan_parameter_is_not_finite(self, call):
        assert raised(call).token == "not_finite"  # returned nan

    @pytest.mark.parametrize("call, token", [
        (lambda: spectra.lorentz_response(1, 10**400, 1, 1, 1), "not_finite"),  # returned 0.0
        (lambda: rotations.hat([math.nan, 0, 0]), "not_finite"),  # returned a NaN matrix
        (lambda: thermal.PhysicalConstants(kbar=10**400), "bad_constants"),  # constructed
    ], ids=["lorentz_response", "hat", "PhysicalConstants"])
    def test_a_non_finite_parameter_is_not_accepted(self, call, token):
        assert raised(call).token == token

    def test_a_scale_of_minus_zero_perturbs_nothing(self):
        # numpy's normal() raised ValueError for a scale of -0.0
        got = spectra.assign_lines_multistart(_LINES, _LEVELS, n_starts=2, scale=-0.0)
        assert got.objective == spectra.assign_lines(_LINES, _LEVELS).objective


_BIG = 10**400


class TestFoundArrays:
    """Each case raised a traceback of another kind, returned a value, or cut its argument before
    every array argument was read by check_array."""

    @pytest.mark.parametrize("call", [
        lambda: matrixcore.as_square([[_BIG]]),
        lambda: matrixcore.expm([[_BIG]]),
        lambda: liealg.weyl_check([[_BIG]], [[0.0]]),
        lambda: rotations.hat([_BIG, 0, 0]),
        lambda: rotations.vee([[0, _BIG, 0], [-_BIG, 0, 0], [0, 0, 0]]),
        lambda: rotations.rodrigues([_BIG, 0, 0]),
        lambda: rotations.Rotation([[_BIG, 0, 0], [0, 1, 0], [0, 0, 1]]),
        lambda: _ROT.apply([_BIG, 0, 0]),
        lambda: spectra.EnergyLevels([0.0, _BIG]),
        lambda: spectra.SpectrumDataset([_BIG]),
        lambda: thermal.entropy_of_mixing([_BIG, 0.5], 1.0),
        lambda: _F3.inner([_BIG, 0, 0], [1, 0, 0]),
        lambda: _FERMI.smeared([_BIG, 0]),
        lambda: su2reps.spinor_inner([_BIG, 0], [1, 0], 1),
        lambda: _SO3_MATS.element([_BIG, 0, 0]),
        lambda: liealg.LieAlgebraBasis("x", ("x",), [[[_BIG]]]),  # was TypeError from isfinite
    ], ids=["as_square", "expm", "weyl_check", "hat", "vee", "rodrigues", "Rotation", "apply",
            "EnergyLevels", "SpectrumDataset", "entropy_of_mixing", "inner", "smeared",
            "spinor_inner", "element", "LieAlgebraBasis"])
    def test_an_int_past_the_float_range_is_not_finite(self, call):
        assert raised(call).token == "not_finite"  # was OverflowError: int too large to convert

    def test_a_complex_rotation_is_type_error(self):
        # Rotation(np.eye(3) + 1e-3j) returned the identity after a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError):
                rotations.Rotation(np.eye(3) + 1e-3j)

    @pytest.mark.parametrize("call", [
        lambda: rotations.vee(np.diag([math.nan] * 3)),  # returned [0, 0, 0]
        lambda: _F3.inner([math.nan, 0, 0], [1, 0, 0]),  # returned nan
        lambda: _FERMI.smeared([math.nan, 0]),  # returned a NaN matrix
        lambda: su2reps.spinor_inner([math.nan, 0], [1, 0], 1),  # returned nan
        lambda: _SO3_MATS.element([math.nan, 0, 0]),  # returned a NaN matrix
    ], ids=["vee", "inner", "smeared", "spinor_inner", "element"])
    def test_a_nan_entry_is_not_finite(self, call):
        assert raised(call).token == "not_finite"

    @pytest.mark.parametrize("call", [
        lambda: _ROT.apply([1, 0]),
        lambda: _F3.expectation(np.eye(2), [1, 0, 0]),
        lambda: _SO3_MATS.element([1, 0]),
        lambda: matrixcore.as_square([[1, 2], [3]]),
        lambda: _F3.orthonormal_view([[1]]),  # returned a 3 x 3 matrix
    ], ids=["apply", "expectation", "element", "as_square", "orthonormal_view"])
    def test_a_wrong_or_ragged_shape_is_shape(self, call):
        assert raised(call).token == "shape"  # was ValueError from numpy

    def test_as_square_does_not_parse_a_string(self):
        with pytest.raises(TypeError):
            matrixcore.as_square([["1"]])  # was the matrix [[1]]

    @pytest.mark.parametrize("call, token", [
        (lambda: rotations.vee(np.diag([1e308] * 3)), "not_antisymmetric"),  # a + a.T
        (lambda: thermal.limit_resolution(_STATE, np.diag([1e200, 1.0])), "not_finite"),  # g @ g
        (lambda: su2reps.spinor_inner([1e200, 0], [1, 0], 1), "not_finite"),  # (y* x)^2s
        (lambda: su2reps.decompose_restriction([np.diag([1e200, -1e200])]), "not_finite"),
    ], ids=["vee", "limit_resolution", "spinor_inner", "decompose_restriction"])
    def test_an_overflow_gives_a_token_without_a_warning(self, call, token):
        # overflowed with a RuntimeWarning and, with warnings off, went on with inf or NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert raised(call).token == token

    def test_expectation_of_the_zero_state_is_bad_argument(self):
        # raised ZeroDivisionError
        assert raised(lambda: _F3.expectation(np.eye(3), [0, 0, 0])).token == "bad_argument"


_HEISENBERG = liealg.builtin_algebra("heisenberg_t3")[1].mats
_SL3 = liealg.builtin_algebra("sl(3)")[1]
_SPIN1 = su2reps.build_irrep(1)


class TestReadsPerCall:
    """Each public call reads each matrix argument once, and the code below it works on the
    array already read; only the public eig_hermitian, GibbsState.value, commutator and expm
    calls, which the benchmark's tracer counts, read again."""

    @pytest.mark.parametrize("call, reads", [
        (lambda: matrixcore.eig_hermitian(_H2), 1),
        (lambda: thermal.GibbsState(_H2, 1.0), 2),  # as_square and eig_hermitian
        (lambda: thermal.partition_function(_H2, 1.0), 2),
        (lambda: thermal.generating_functional(_H2), 2),
        (lambda: thermal.kubo_inner(_H2, _H2, _EYE2), 4),  # the state, g and h
        (lambda: thermal.gibbs_bogoliubov_gap(_H2, _EYE2), 6),  # two states, g and g - f
        (lambda: thermal.limit_resolution(_STATE, _H2), 3),  # g, and value of g and of g @ g
        (lambda: liealg.MatrixRealization(_SL3.basis, _SL3.mats), 1),  # the stack of 8
        (lambda: su2reps.decompose_restriction([_SPIN1.t1, _SPIN1.t2, _SPIN1.t3]), 2),
        (lambda: liealg.weyl_check(_HEISENBERG[0], _HEISENBERG[1]), 12),  # a, b, 3 commutators, 4 expm
    ], ids=["eig_hermitian", "GibbsState", "partition_function", "generating_functional",
            "kubo_inner", "gibbs_bogoliubov_gap", "limit_resolution", "MatrixRealization",
            "decompose_restriction", "weyl_check"])
    def test_check_array_calls(self, call, reads, monkeypatch):
        count = []

        def counted(*args, **kwargs):
            count.append(args[1])
            return check_array(*args, **kwargs)

        for module in (liequant.errors, fermion, fock, liealg, matrixcore, poisson, rotations,
                       spectra, su2reps, thermal):
            if getattr(module, "check_array", None) is check_array:
                monkeypatch.setattr(module, "check_array", counted)
        call()
        assert len(count) == reads, count
