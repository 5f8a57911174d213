"""Gibbs states, generating functional, Kubo product, black-body numbers."""

import math
import warnings

import numpy as np
import pytest

from liequant import thermal
from liequant.cli import main
from liequant.errors import DomainError, check_positive
from liequant.matrixcore import eig_hermitian, expm
from liequant.thermal import (
    GibbsState,
    PhysicalConstants,
    SI_CONSTANTS,
    entropy_of_mixing,
    entropy_value,
    generating_functional,
    gibbs_bogoliubov_gap,
    gibbs_value,
    ideal_gas_pressure,
    kubo_inner,
    limit_resolution,
    partition_function,
    planck_density,
    schottky_capacity,
    stefan_constant,
    wien_displacement_x,
)

NATURAL = PhysicalConstants(1.0, 1.0, 1.0)


def random_hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x + x.conj().T


def gauss_legendre_01(nodes=80):
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (xs + 1.0), 0.5 * ws


class TestPartitionFunction:
    def test_two_level(self):
        for beta, gap in ((0.5, 1.0), (2.0, 0.3)):
            z = partition_function(np.diag([0.0, gap]), beta)
            assert abs(z - (1 + math.exp(-beta * gap))) <= 1e-12

    def test_zero_hamiltonian(self):
        assert partition_function(np.zeros((7, 7)), 1.3) == pytest.approx(7.0, abs=1e-12)

    def test_truncated_oscillator_limit(self):
        # geometric series: Z -> (1 - e^{-beta E})^{-1}
        beta, gap = 1.0, 1.0
        z = partition_function(np.diag([n * gap for n in range(40)]), beta)
        assert abs(z - 1.0 / (1.0 - math.exp(-beta * gap))) <= 1e-10

    def test_deep_tail_underflows_benignly(self):
        z = partition_function(np.diag([0.0, 2000.0]), 1.0)
        assert abs(z - 1.0) <= 1e-15

    def test_overflow_guard(self):
        with pytest.raises(DomainError, match="range"):
            partition_function(np.diag([-2000.0, 0.0]), 1.0)

    def test_beta_times_energy_past_float_range(self):
        h = np.diag([2047.0])
        with pytest.raises(DomainError, match="range"):
            partition_function(h, 1e308)
        with pytest.raises(DomainError, match="range"):
            GibbsState(h, 1e308)

    def test_excited_weight_past_float_range_vanishes(self):
        # beta (E_1 - E_0) is about 2e303: within range, and its weight underflows
        h = np.diag([0.0, 2047.0])
        assert partition_function(h, 1e300) == 1.0
        assert entropy_value(GibbsState(h, 1e300)) == 0.0

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_beta_must_be_positive_and_finite(self, beta):
        h = np.diag([0.0, 1.0])
        with pytest.raises(DomainError, match="bad_beta"):
            partition_function(h, beta)
        with pytest.raises(DomainError, match="bad_beta"):
            GibbsState(h, beta)


class TestGibbsValue:
    def test_unit_observable(self):
        rng = np.random.default_rng(71)
        state = GibbsState(random_hermitian(rng, 5), 0.7)
        assert abs(state.value(np.eye(5)) - 1.0) <= 1e-12

    def test_two_level_mean_energy(self):
        gap, kbar_t = 1.0, 0.5
        state = GibbsState(np.diag([0.0, gap]), 1.0 / kbar_t)
        expected = gap / (math.exp(gap / kbar_t) + 1.0)
        assert abs(gibbs_value(state, np.diag([0.0, gap])).real - expected) <= 1e-12

    def test_energy_from_log_partition_derivative(self):
        rng = np.random.default_rng(72)
        h = random_hermitian(rng, 4)
        beta, db = 0.9, 1e-5
        fd = -(math.log(partition_function(h, beta + db))
               - math.log(partition_function(h, beta - db))) / (2 * db)
        mean = GibbsState(h, beta).value(h).real
        assert abs(fd - mean) <= 1e-6 * abs(mean)

    def test_density_matrix_invariants(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            state = GibbsState(random_hermitian(rng, 5), rng.uniform(0.1, 10.0))
            rho = state.rho
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            eigs = np.linalg.eigvalsh(rho)
            assert np.min(eigs) >= -1e-12

    def test_shape_error(self):
        state = GibbsState(np.diag([0.0, 1.0]), 1.0)
        with pytest.raises(DomainError, match="shape"):
            state.value(np.eye(3))


def reference_partition_function(h, beta):
    """Z with its own eigensolve, as computed before ``GibbsState`` owned Z."""
    check_positive(beta, "bad_beta", "beta")
    w, _ = eig_hermitian(h)
    if not math.isfinite(beta * (abs(float(w[0])) + abs(float(w[-1])))):
        raise DomainError("range", "beta times an energy leaves the float range")
    weights = np.exp(-beta * (w - w[0]))
    if -beta * w[0] > 700.0:
        raise DomainError("range", "ground-state weight overflows")
    return float(np.sum(weights) * math.exp(-beta * w[0]))


def token_or_value(fn, *args):
    try:
        return fn(*args)
    except DomainError as err:
        return err.token


class TestOneEigensolve:
    """``GibbsState`` alone turns H into weights; Z and <H> are read from it."""

    def test_z_bits_match_the_reference(self):
        rng = np.random.default_rng(76)
        for n in range(1, 25):
            for _ in range(4):
                h = random_hermitian(rng, n) * 10.0 ** rng.uniform(-3, 2)
                beta = 10.0 ** rng.uniform(-3, 1)
                ground = np.linalg.eigvalsh(h)[0]
                h -= np.eye(n) * (ground + rng.uniform(0.0, 690.0) / beta)  # -beta E_0 below 700
                expected = reference_partition_function(h, beta)
                assert partition_function(h, beta).hex() == expected.hex()
                assert GibbsState(h, beta).z.hex() == expected.hex()

    @pytest.mark.parametrize("h, beta", [
        (np.diag([-2000.0, 0.0]), 1.0),             # the ground-state weight overflows
        (np.diag([-700.0, 0.0]), 1.0 + 2**-52),     # just past the guard
        (np.diag([-700.0, 0.0]), 1.0),              # at the guard, which admits it
        (np.diag([2047.0]), 1e308),                 # beta E leaves the float range
        (np.diag([0.0, 2047.0]), 1e300),            # only the excited weight underflows
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0),  # not_hermitian
        (np.diag([0.0, 1.0]), math.nan),            # bad_beta
        (np.zeros((2, 3)), 1.0),                    # shape
    ])
    def test_tokens_match_the_reference(self, h, beta):
        expected = token_or_value(reference_partition_function, h, beta)
        assert token_or_value(partition_function, h, beta) == expected
        assert token_or_value(lambda: GibbsState(h, beta).z) == expected

    def test_z_is_lazy(self):
        state = GibbsState(np.diag([-2000.0, 0.0]), 1.0)
        assert state.log_z == 2000.0
        with pytest.raises(DomainError, match="range"):
            state.z

    def test_mean_energy_is_the_value_of_h(self):
        rng = np.random.default_rng(77)
        h = random_hermitian(rng, 6)
        state = GibbsState(h, 0.8)
        assert state.mean_energy == state.value(h).real
        assert state.mean_energy is state.mean_energy
        assert entropy_value(state) == state.beta * state.mean_energy + state.log_z

    def test_partition_function_runs_one_eigensolve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(thermal, "eig_hermitian", lambda h: calls.append(h) or eig_hermitian(h))
        partition_function(np.diag([0.0, 1.0, 3.0]), 0.5)
        assert len(calls) == 1

    @pytest.mark.parametrize("source", ["--levels", "--in"])
    def test_gibbs_runs_one_eigensolve(self, source, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(thermal, "eig_hermitian", lambda h: calls.append(h) or eig_hermitian(h))
        if source == "--levels":
            argv = ["gibbs", "--levels", "0,1,2.5", "--beta", "0.7"]
        else:
            (tmp_path / "h.json").write_text('{"matrix": [[0, 1], [1, 2]]}')
            argv = ["gibbs", "--in", str(tmp_path / "h.json"), "--beta", "0.7"]
        assert main(argv) == 0
        assert len(calls) == 1
        assert '"partition_function"' in capsys.readouterr().out


class TestSchottky:
    def test_limits_vanish(self):
        assert schottky_capacity(1.0, 1e-8, NATURAL) == 0.0
        assert schottky_capacity(1.0, 1e8, NATURAL) <= 1e-15

    def test_matches_derivative_of_mean_energy(self):
        gap = 1.0
        t = 0.5  # E / (kbar T) = 2
        dt = 1e-5

        def mean_energy(temp):
            return gap / (math.exp(gap / temp) + 1.0)

        fd = (mean_energy(t + dt) - mean_energy(t - dt)) / (2 * dt)
        got = schottky_capacity(gap, t, NATURAL)
        assert abs(got - fd) <= 1e-6 * abs(fd)

    def test_bump_location(self):
        # golden-section search oracle for the interior maximum
        gap = 1.0
        lo, hi = 0.05, 2.0
        invphi = (math.sqrt(5) - 1) / 2
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        for _ in range(80):
            if schottky_capacity(gap, c, NATURAL) > schottky_capacity(gap, d, NATURAL):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        t_star = 0.5 * (a + b)
        assert 0.3 < t_star < 0.5

    def test_nan_temperature_is_rejected(self):
        with pytest.raises(DomainError, match="bad_temperature"):
            schottky_capacity(1.0, math.nan, NATURAL)

    @pytest.mark.parametrize("e_gap, t", [(1.0, 1e-320), (1e308, 1.0), (1e150, 1e-160),
                                          (np.float64(1e308), np.float64(1.0))])
    def test_far_past_the_bump_is_zero(self, e_gap, t):
        # raised ZeroDivisionError, OverflowError, and returned inf * 0 = nan
        assert schottky_capacity(e_gap, t, NATURAL) == 0.0

    def test_e_squared_past_the_float_range_scales(self):
        # (1e160)^2 overflowed; C depends on x = E / kbar T alone once kbar = 1 is fixed
        got = schottky_capacity(1e160, 1e159, NATURAL)
        want = schottky_capacity(10.0, 1.0, NATURAL)
        assert abs(got - want) <= 1e-14 * want

    def test_kbar_t_underflow_keeps_the_value(self):
        # kbar T = 1e-23 * 1e-301 underflows to 0, while x = E / kbar T is 10
        consts = PhysicalConstants(kbar=1e-23, hbar=1.0, c=1.0)
        got = schottky_capacity(1e-323, 1e-301, consts)
        x = 1e-323 / 1e-23 / 1e-301
        want = 1e-23 * x**2 * math.exp(x) / (math.exp(x) + 1.0) ** 2
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("e_gap", [math.nan, math.inf, -math.inf])
    def test_non_finite_gap_is_rejected(self, e_gap):
        # NaN returned nan
        with pytest.raises(DomainError, match="not_finite"):
            schottky_capacity(e_gap, 1.0, NATURAL)


class TestGeneratingFunctional:
    def test_zero_matrix(self):
        assert abs(generating_functional(np.zeros((5, 5))) + math.log(5)) <= 1e-12

    def test_single_zero_level_is_positive_zero(self):
        assert math.copysign(1.0, generating_functional([[0.0]])) == 1.0

    def test_is_minus_log_z_of_the_unit_beta_state(self):
        rng = np.random.default_rng(73)
        f = random_hermitian(rng, 5)
        assert generating_functional(f) == -GibbsState(f, 1.0).log_z
        assert abs(GibbsState(f, 1.0).log_z - math.log(partition_function(f, 1.0))) <= 1e-12

    def test_constant_shift(self):
        rng = np.random.default_rng(74)
        f = random_hermitian(rng, 4)
        shift = 2.7
        lhs = generating_functional(f + shift * np.eye(4))
        assert abs(lhs - (generating_functional(f) + shift)) <= 1e-10

    def test_directional_derivative_is_mean(self):
        rng = np.random.default_rng(75)
        f, g = random_hermitian(rng, 4), random_hermitian(rng, 4)
        tau = 1e-5
        fd = (generating_functional(f + tau * g)
              - generating_functional(f - tau * g)) / (2 * tau)
        mean = GibbsState(f, 1.0).value(g).real
        assert abs(fd - mean) <= 1e-6 * max(1.0, abs(mean))


class TestKubo:
    def test_commuting_reduces_to_plain_product(self):
        f = np.diag([0.0, 0.4, 1.1])
        g = np.diag([2.0, -1.0, 0.5])
        h = np.diag([0.3, 0.3, -0.2])
        state = GibbsState(f, 1.0)
        assert abs(kubo_inner(f, g, h) - state.value(g @ h)) <= 1e-12

    def test_unit_second_slot(self):
        rng = np.random.default_rng(76)
        f, g = random_hermitian(rng, 4), random_hermitian(rng, 4)
        assert abs(kubo_inner(f, g, np.eye(4)) - GibbsState(f, 1.0).value(g)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_positive_definite(self, n):
        rng = np.random.default_rng(77 + n)
        f = random_hermitian(rng, n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert kubo_inner(f, g.conj().T, g).real > 0.0

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(78)
        xs, ws = gauss_legendre_01()
        for _ in range(5):
            f = random_hermitian(rng, 4)
            g = random_hermitian(rng, 4)
            h = random_hermitian(rng, 4)
            smoothed = sum(w * (expm(-s * f) @ h @ expm(s * f)) for s, w in zip(xs, ws))
            want = GibbsState(f, 1.0).value(g @ smoothed)
            assert abs(kubo_inner(f, g, h) - want) <= 1e-9

    @pytest.mark.parametrize("spread, want", [(800.0, 2 * -math.expm1(-800.0) / 800.0),
                                              (1e6, 2e-6)])
    def test_eigenvalue_spread_past_exp_range(self, spread, want):
        # p_1 underflows to 0 while phi(spread) overflows; the kernel must not form 0 * inf
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kubo_inner(np.diag([0.0, spread]), sx, sx)
        assert abs(got - want) <= 1e-15 * want

    def test_past_the_float_range_is_not_finite(self):
        # the final sum overflowed with a RuntimeWarning and returned (inf+nanj)
        f, big = np.array([[0.0, 0.3], [0.3, 1.0]]), np.full((2, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not_finite"):
                kubo_inner(f, big, big)

    def test_degenerate_kernel_stability(self):
        # equal eigenvalues hit the phi(x) ~ 1 + x/2 series branch
        f = np.diag([1.0, 1.0, 1.0 + 5e-5])
        rng = np.random.default_rng(79)
        g, h = random_hermitian(rng, 3), random_hermitian(rng, 3)
        state = GibbsState(f, 1.0)
        xs, ws = gauss_legendre_01()
        smoothed = sum(w * (expm(-s * f) @ h @ expm(s * f)) for s, w in zip(xs, ws))
        assert abs(kubo_inner(f, g, h) - state.value(g @ smoothed)) <= 1e-10


class TestGibbsBogoliubov:
    def test_equal_arguments(self):
        rng = np.random.default_rng(80)
        f = random_hermitian(rng, 4)
        assert abs(gibbs_bogoliubov_gap(f, f)) <= 1e-10

    def test_constant_shift_is_equality_case(self):
        rng = np.random.default_rng(81)
        f = random_hermitian(rng, 4)
        assert abs(gibbs_bogoliubov_gap(f, f + 3.0 * np.eye(4))) <= 1e-10

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            f, g = random_hermitian(rng, 4), random_hermitian(rng, 4)
            assert gibbs_bogoliubov_gap(f, g) >= -1e-10

    def test_two_eigensolves(self, monkeypatch):
        # one decomposition of f serves both the state and W(f); one of g gives W(g)
        from liequant import thermal

        calls = []
        real_eig = thermal.eig_hermitian
        monkeypatch.setattr(thermal, "eig_hermitian", lambda h: calls.append(h) or real_eig(h))
        rng = np.random.default_rng(84)
        f, g = random_hermitian(rng, 5), random_hermitian(rng, 5)
        gap = gibbs_bogoliubov_gap(f, g)
        assert len(calls) == 2
        expected = (generating_functional(f) + GibbsState(f, 1.0).value(g - f).real
                    - generating_functional(g))
        assert gap == expected


class TestCumulantAndKMS:
    def test_second_order_cumulant_remainder(self):
        rng = np.random.default_rng(83)
        for _ in range(5):
            f, g = random_hermitian(rng, 4), random_hermitian(rng, 4)

            def remainder(tau):
                mean = GibbsState(f, 1.0).value(g).real
                second = kubo_inner(f, g, g).real
                model = generating_functional(f) + tau * mean \
                    + 0.5 * tau**2 * (mean**2 - second)
                return abs(generating_functional(f + tau * g) - model)

            assert remainder(1e-2) / remainder(5e-3) >= 6.0

    def test_kms_identity(self):
        rng = np.random.default_rng(84)
        for _ in range(10):
            f = random_hermitian(rng, 4)
            g = random_hermitian(rng, 4)
            h = random_hermitian(rng, 4)
            state = GibbsState(f, 1.0)
            lhs = state.value(g @ h)
            rhs = state.value(h @ expm(-f) @ g @ expm(f))
            assert abs(lhs - rhs) <= 1e-9

    def test_entropy_nonnegative_and_third_law(self):
        h = np.diag([0.0, 1.0, 3.0])
        for beta in (0.1, 1.0, 10.0):
            assert entropy_value(GibbsState(h, beta)) >= -1e-10
        assert entropy_value(GibbsState(h, 500.0)) <= 1e-10


class TestLimitResolution:
    def test_constant_observable(self):
        state = GibbsState(np.diag([0.0, 1.0]), 1.0)
        assert limit_resolution(state, 2.5 * np.eye(2)) == 0.0

    def test_traceless_observable_rejected(self):
        state = GibbsState(np.zeros((2, 2)), 1.0)
        with pytest.raises(DomainError, match="zero_mean"):
            limit_resolution(state, np.diag([1.0, -1.0]))

    def test_hand_computed_value(self):
        # H = 0: <g> = 3/2, <g^2> = 5/2, res = sqrt(5/2 / (9/4) - 1) = 1/3
        state = GibbsState(np.zeros((2, 2)), 1.0)
        assert abs(limit_resolution(state, np.diag([1.0, 2.0])) - 1 / 3) <= 1e-12


class TestBlackBody:
    def test_rayleigh_regime(self):
        omega, temp, vol = 1e-6, 1.0, 1.0
        got = planck_density(omega, temp, vol, NATURAL)
        rayleigh = vol * temp * omega**2 / math.pi**2
        assert abs(got - rayleigh) <= 1e-5 * rayleigh

    def test_positive(self):
        for omega in np.geomspace(1e10, 1e16, 20):
            assert planck_density(float(omega), 300.0, 1.0, SI_CONSTANTS) > 0.0

    def test_exponential_tail(self):
        # far past the peak the density follows A w^3 e^{-w/T} (natural units)
        temp, vol = 1.0, 1.0
        for omega in (30.0, 40.0):
            got = planck_density(omega, temp, vol, NATURAL)
            tail = omega**3 * math.exp(-omega / temp) / math.pi**2
            assert abs(got - tail) <= 1e-10 * tail

    def test_quarter_power_integral(self):
        # adaptive-free quadrature oracle: int_0^inf x^3/(e^x - 1) dx = pi^4/15
        xs, ws = np.polynomial.legendre.leggauss(400)
        a, b = 1e-12, 100.0
        xs = 0.5 * (xs + 1) * (b - a) + a
        ws = 0.5 * (b - a) * ws
        integral = float(np.sum(ws * xs**3 / np.expm1(xs)))
        # tail above x = 100 is below 1e-37, entirely negligible
        assert abs(integral - math.pi**4 / 15.0) <= 1e-8

    def test_wien_root(self):
        x = wien_displacement_x()
        assert 2.81 < x < 2.83
        assert abs(3.0 - x - 3.0 * math.exp(-x)) <= 1e-14

    def test_wien_peak_scales_linearly(self):
        x = wien_displacement_x()
        w1 = x * SI_CONSTANTS.kbar * 300.0 / SI_CONSTANTS.hbar
        w2 = x * SI_CONSTANTS.kbar * 600.0 / SI_CONSTANTS.hbar
        assert abs(w2 / w1 - 2.0) <= 1e-14

    def test_stefan_value_and_scaling(self):
        sigma = stefan_constant(SI_CONSTANTS)
        assert 5.6e-8 < sigma < 5.8e-8
        doubled = stefan_constant(PhysicalConstants(
            2 * SI_CONSTANTS.kbar, SI_CONSTANTS.hbar, SI_CONSTANTS.c))
        assert abs(doubled / sigma - 16.0) <= 1e-12

    def test_flux_power_law(self):
        sigma = stefan_constant(SI_CONSTANTS)
        assert abs(sigma * (4 * 300.0)**4 / (sigma * 300.0**4) - 256.0) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_constants_must_be_positive_and_finite(self, slot, bad):
        values = [1.0, 1.0, 1.0]
        values[slot] = bad
        with pytest.raises(DomainError, match="bad_constants"):
            PhysicalConstants(*values)

    @pytest.mark.parametrize("omega, temp, vol", [
        (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0),
        (1.0, math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
        (1.0, 1.0, -math.inf), (0.0, 1.0, 1.0), (1.0, -1.0, 1.0),
    ])
    def test_planck_density_rejects_bad_arguments(self, omega, temp, vol):
        with pytest.raises(DomainError, match="bad_argument"):
            planck_density(omega, temp, vol, NATURAL)


class TestMixing:
    def test_single_component(self):
        assert entropy_of_mixing([1.0], 2.0, NATURAL) == 0.0

    def test_fifty_fifty(self):
        got = entropy_of_mixing([0.5, 0.5], 1.0, NATURAL)
        assert abs(got + math.log(2)) <= 1e-14

    def test_permutation_symmetry(self):
        a = entropy_of_mixing([0.2, 0.3, 0.5], 1.0, NATURAL)
        b = entropy_of_mixing([0.5, 0.2, 0.3], 1.0, NATURAL)
        assert a == b

    def test_bad_fractions(self):
        with pytest.raises(DomainError, match="bad_fractions"):
            entropy_of_mixing([0.5, 0.6], 1.0, NATURAL)

    @pytest.mark.parametrize("fractions", [[math.nan, 1.0], [0.5, math.nan], [math.inf, -math.inf],
                                           [[0.5, 0.5]], []],
                             ids=["nan first", "nan second", "infinities", "2-d", "empty"])
    def test_non_finite_or_misshapen_fractions_are_rejected(self, fractions):
        with pytest.raises(DomainError, match="bad_fractions|shape"):
            entropy_of_mixing(fractions, 1.0, NATURAL)

    def test_entropy_past_the_float_range_is_not_finite(self):
        # kbar and N are each finite, but kbar N sum x log x returned -inf
        with pytest.raises(DomainError, match="not_finite"):
            entropy_of_mixing([0.5, 0.5], 1e308, thermal.PhysicalConstants(kbar=10.0))

    def test_ideal_gas_helper(self):
        p = ideal_gas_pressure(273.15, 0.0224, SI_CONSTANTS)
        assert 1.0e5 < p < 1.03e5

    def test_ideal_gas_nan_temperature_is_rejected(self):
        with pytest.raises(DomainError, match="bad_argument"):
            ideal_gas_pressure(math.nan, 1.0, SI_CONSTANTS)
