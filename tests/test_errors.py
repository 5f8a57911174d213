"""The guards in errors.py: caps, counts, spins, real numbers, positivity and finiteness."""

import math
import pathlib
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import liequant
from liequant import fermion, fock, matrixcore, poisson, rotations, spectra, su2reps, thermal
from liequant.errors import (MAX_SAMPLES, DomainError, check_cap, check_count, check_finite,
                             check_positive, check_real, check_spin, finite)


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
    "Tolerance(abs_eps)": (lambda x: matrixcore.Tolerance(x), "dddvvvvdvdvvvv"),  # eps >= 0
    "Tolerance(rel_eps)": (lambda x: matrixcore.Tolerance(1e-10, x), "dddvvvvdvdvvvv"),
}


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
        (lambda: matrixcore.Tolerance(math.inf), "bad_tolerance"),  # constructed
        (lambda: matrixcore.Tolerance(1e-10, 10**400), "bad_tolerance"),  # constructed
        (lambda: thermal.PhysicalConstants(kbar=10**400), "bad_constants"),  # constructed
    ], ids=["lorentz_response", "hat", "Tolerance(abs_eps)", "Tolerance(rel_eps)",
            "PhysicalConstants"])
    def test_a_non_finite_parameter_is_not_accepted(self, call, token):
        assert raised(call).token == token

    def test_a_scale_of_minus_zero_perturbs_nothing(self):
        # numpy's normal() raised ValueError for a scale of -0.0
        got = spectra.assign_lines_multistart(_LINES, _LEVELS, n_starts=2, scale=-0.0)
        assert got.objective == spectra.assign_lines(_LINES, _LEVELS).objective
