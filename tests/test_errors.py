"""The guards in errors.py: caps, counts, spins, positivity and finiteness."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from liequant import fermion, fock, poisson, spectra, su2reps
from liequant.errors import (MAX_SAMPLES, DomainError, check_cap, check_count, check_finite,
                             check_positive, check_spin, finite)


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
    """No count or spin parameter raises ValueError, OverflowError or ZeroDivisionError, warns,
    or runs unbounded; a count of another kind than int is the only TypeError."""
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
