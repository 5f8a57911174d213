"""Bosonic ladder matrices, coherent states, highest-weight ladders."""

import math

import numpy as np
import pytest

from liequant.errors import DomainError
from liequant.fock import (
    CoherentState,
    FiniteVerdict,
    HWData,
    InfiniteVerdict,
    build_fock,
    build_highest_weight,
    case2_alpha,
    coherent_inner,
    evolve_coherent,
    oscillator_spectrum,
    tensor_modes,
)
from liequant.matrixcore import commutator, eig_hermitian


class TestLadderRelations:
    def test_number_diagonal(self):
        f = build_fock(9)
        assert np.array_equal(np.diag(f.n).real, np.arange(9.0))

    def test_ladder_action_entrywise(self):
        hbar = 0.7
        f = build_fock(6, hbar)
        for k in range(1, 6):
            e_k = np.zeros(6)
            e_k[k] = 1.0
            assert np.array_equal(f.a @ e_k, hbar * np.eye(6)[k - 1])
            e_km1 = np.eye(6)[k - 1]
            assert np.array_equal(f.a_dag @ e_km1, k * np.eye(6)[k])

    def test_ccr_away_from_boundary(self):
        f = build_fock(10, 1.0)
        c = commutator(f.a, f.a_dag)
        assert np.max(np.abs(c[:9, :9] - np.eye(9))) == 0.0
        # non-unit hbar: hbar(k+1) - hbar k is exact only to roundoff
        f = build_fock(10, 0.3)
        c = commutator(f.a, f.a_dag)
        assert np.max(np.abs(c[:9, :9] - 0.3 * np.eye(9))) <= 1e-15

    def test_metric_values(self):
        f = build_fock(8)
        expected = [1.0, 1.0, 0.5, 1 / 6, 1 / 24, 1 / 120, 1 / 720]
        assert np.allclose(f.metric[:7], expected, atol=0)

    def test_number_identity(self):
        f = build_fock(12, 0.5)
        assert np.max(np.abs(f.a_dag @ f.a / 0.5 - f.n)) <= 1e-14

    def test_adjointness_under_metric(self):
        rng = np.random.default_rng(41)
        f = build_fock(10, 0.8)
        for _ in range(20):
            phi = np.zeros(10, dtype=complex)
            psi = np.zeros(10, dtype=complex)
            phi[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            psi[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            lhs = f.inner(f.a_dag @ phi, psi)
            rhs = f.inner(phi, f.a @ psi)
            assert abs(lhs - rhs) <= 1e-10

    def test_orthonormal_view_entries(self):
        hbar = 0.6
        f = build_fock(7, hbar)
        a_on = f.orthonormal_view(f.a)
        expected = [np.sqrt(hbar * k) for k in range(1, 7)]
        assert np.allclose(np.diag(a_on, 1).real, expected, atol=1e-14)
        a_dag_on = f.orthonormal_view(f.a_dag)
        assert np.allclose(a_dag_on, a_on.conj().T, atol=1e-14)

    def test_too_small(self):
        with pytest.raises(DomainError, match="too_small"):
            build_fock(1)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        with pytest.raises(DomainError, match="bad_hbar"):
            build_fock(4, hbar)


class TestSpectrum:
    def test_harmonic_ladder(self):
        f = build_fock(12)
        assert np.allclose(oscillator_spectrum(f, 1.0, 4), [0, 1, 2, 3], atol=1e-10)

    def test_zero_frequency(self):
        f = build_fock(8)
        assert np.allclose(oscillator_spectrum(f, 0.0, 6), np.zeros(6), atol=0)

    def test_matches_dense_eigensolver(self):
        f = build_fock(15, 0.9)
        h = 1.3 * f.orthonormal_view(f.a_dag @ f.a)
        w, _ = eig_hermitian(h)
        assert np.allclose(oscillator_spectrum(f, 1.3, 14), w[:14], atol=1e-12)

    def test_relative_accuracy(self):
        f = build_fock(30, 2.0)
        got = oscillator_spectrum(f, 0.7, 20)
        expected = 0.7 * 2.0 * np.arange(20)
        scale = np.maximum(1.0, np.abs(expected))
        assert np.max(np.abs(got - expected) / scale) <= 1e-10

    def test_truncation_guard(self):
        with pytest.raises(DomainError, match="truncation"):
            oscillator_spectrum(build_fock(5), 1.0, 5)


class TestCoherent:
    def test_vacuum_overlap(self):
        s = CoherentState(1.0, 0.0, 10)
        assert coherent_inner(s, s, 1.0) == 1.0

    def test_exponential_value(self):
        s = CoherentState(1.0, 1.0, 40)
        assert abs(coherent_inner(s, s, 1.0) - math.e) <= 1e-10

    def test_general_overlap_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            lam1, z1, lam2, z2 = (complex(*rng.uniform(-1, 1, 2)) for _ in range(4))
            s1, s2 = CoherentState(lam1, z1, 50), CoherentState(lam2, z2, 50)
            got = coherent_inner(s1, s2, 1.0)
            want = lam1 * np.conj(lam2) * np.exp(np.conj(z2) * z1)
            assert abs(got - want) <= 1e-10

    def test_insufficient_truncation(self):
        s = CoherentState(1.0, 3.0, 5)
        with pytest.raises(DomainError, match="truncation"):
            coherent_inner(s, s, 1.0)

    @pytest.mark.parametrize("lam, z", [
        (math.nan, 0.5), (complex(1.0, math.inf), 0.5), (1.0, complex(math.nan, 0.0)),
        (1.0, -math.inf),
    ])
    def test_parameters_must_be_finite(self, lam, z):
        with pytest.raises(DomainError, match="not_finite"):
            CoherentState(lam, z, 10)

    @pytest.mark.parametrize("omega, t", [(1.0, math.inf), (math.nan, 1.0), (0.0, math.inf)])
    def test_evolution_needs_finite_phase(self, omega, t):
        with pytest.raises(DomainError, match="not_finite"):
            evolve_coherent(CoherentState(1.0, 0.5, 10), omega, t)

    def test_evolution_coefficientwise(self):
        s = CoherentState(0.5 - 0.1j, 0.8 + 0.3j, 25)
        omega, t = 1.7, 0.9
        evolved = evolve_coherent(s, omega, t)
        expected = CoherentState(s.lam, s.z * np.exp(-1j * omega * t), 25)
        assert np.allclose(evolved.coeffs, expected.coeffs, atol=1e-15)

    def test_uncertainty_saturation(self):
        # q, p from the normal-mode reconstruction at m = k = omega = hbar = 1
        dim = 60
        f = build_fock(dim, 1.0)
        q = (f.a + f.a_dag) / np.sqrt(2)
        p = (f.a - f.a_dag) / (1j * np.sqrt(2))
        rng = np.random.default_rng(43)
        for _ in range(5):
            z = complex(*rng.uniform(-0.8, 0.8, 2))
            psi = CoherentState(1.0, z, dim).coeffs
            var_q = (f.expectation(q @ q, psi) - f.expectation(q, psi) ** 2).real
            var_p = (f.expectation(p @ p, psi) - f.expectation(p, psi) ** 2).real
            assert abs(math.sqrt(var_q) * math.sqrt(var_p) - 0.5) <= 1e-8


class TestTensorModes:
    def test_two_mode_relations(self):
        hbar = 1.0
        pairs = tensor_modes([build_fock(5, hbar), build_fock(4, hbar)])
        (a1, a1d), (a2, a2d) = pairs
        assert a1.shape == (20, 20)
        # different modes commute exactly
        assert np.all(commutator(a1, a2) == 0)
        assert np.all(commutator(a1, a2d) == 0)
        # own-mode relation holds away from that factor's top level
        com = commutator(a2, a2d).reshape(5, 4, 5, 4)
        for k in range(5):
            block = com[k, :, k, :]
            assert np.max(np.abs(block[:3, :3] - hbar * np.eye(3))) == 0.0

    def test_mode_cap(self):
        f = build_fock(3)
        with pytest.raises(DomainError, match="mode_cap"):
            tensor_modes([f, f, f, f])


def hw_bracket_residual(a, a_dag, h, d: HWData) -> float:
    dim = a.shape[0]
    res = max(
        np.max(np.abs(commutator(a, h) - d.hbar * a)),
        np.max(np.abs(commutator(a_dag, h) + d.hbar * a_dag)),
        np.max(np.abs(commutator(a, a_dag) - d.hbar * (d.u * h + d.v * np.eye(dim)))),
    )
    return float(res)


class TestHighestWeight:
    def test_oscillator_case(self):
        d = HWData(0.0, 1.0, 0.0, hbar=1.0)
        a, a_dag, h, verdict = build_highest_weight(d, 30)
        assert isinstance(verdict, InfiniteVerdict)
        f = build_fock(30, 1.0)
        assert np.max(np.abs(a - f.a.real)) == 0.0
        assert np.max(np.abs(a_dag - f.a_dag.real)) == 0.0

    @pytest.mark.parametrize("j_m", range(7))
    def test_finite_case_dimension(self, j_m):
        alpha = case2_alpha(j_m, -1.0, 0.0)
        a, a_dag, h, verdict = build_highest_weight(HWData(-1.0, 0.0, alpha), 100)
        assert verdict == FiniteVerdict(j_m + 1)
        assert a.shape == (j_m + 1, j_m + 1)
        # the stated alpha satisfies (j_m + 1) + 2 (alpha + v/(hbar u)) = 0
        assert (j_m + 1) + 2 * (alpha + 0.0 / (1.0 * -1.0)) == 0.0

    def test_finite_case_brackets_exact(self):
        for j_m in range(7):
            d = HWData(-1.0, 0.0, case2_alpha(j_m, -1.0, 0.0))
            a, a_dag, h, _ = build_highest_weight(d, 100)
            assert hw_bracket_residual(a, a_dag, h, d) == 0.0

    def test_weight_spacing(self):
        for j_m in (2, 5):
            d = HWData(-1.0, 0.0, case2_alpha(j_m, -1.0, 0.0), hbar=0.5)
            a, a_dag, h, verdict = build_highest_weight(d, 100)
            assert verdict.dim == j_m + 1
            weights = np.diag(h)
            assert np.allclose(np.diff(weights), 0.5, atol=1e-14)
            assert hw_bracket_residual(a, a_dag, h, d) <= 1e-12

    def test_noncompact_case_runs_forever(self):
        _, _, _, verdict = build_highest_weight(HWData(1.0, 0.0, 0.0), 200)
        assert isinstance(verdict, InfiniteVerdict)
        assert verdict.levels_checked == 200

    def test_norm_recursion_positive(self):
        # N_j stays positive for the noncompact case: j hbar N_j = c_j N_{j-1}
        d = HWData(1.0, 0.0, 0.25, hbar=1.0)
        n_j = 1.0
        for j in range(1, 201):
            c_j = d.u * d.hbar * d.alpha + d.v + 0.5 * d.u * d.hbar * j
            n_j = c_j * n_j / (j * d.hbar)
            assert n_j > 0.0

    def test_invalid_mixture(self):
        with pytest.raises(DomainError, match="no_unitary_rep"):
            build_highest_weight(HWData(1.0, 0.0, -5.0), 50)

    @pytest.mark.parametrize("u, v, alpha", [
        (math.nan, 0.0, 0.0), (1.0, math.inf, 0.0), (1.0, 0.0, -math.inf), (1.0, 0.0, math.nan),
    ])
    def test_bracket_data_must_be_finite(self, u, v, alpha):
        with pytest.raises(DomainError, match="bad_argument"):
            HWData(u, v, alpha)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        with pytest.raises(DomainError, match="bad_hbar"):
            HWData(1.0, 0.0, 0.0, hbar)

    def test_interior_brackets_in_truncation(self):
        # infinite case: all three relations hold away from the top level
        d = HWData(1.0, 0.3, 0.2, hbar=0.7)
        a, a_dag, h, _ = build_highest_weight(d, 12)
        sub = slice(0, 11)
        c1 = commutator(a, h) - d.hbar * a
        c3 = commutator(a, a_dag) - d.hbar * (d.u * h + d.v * np.eye(12))
        assert np.max(np.abs(c1[sub, sub])) <= 1e-12
        assert np.max(np.abs(c3[sub, sub])) <= 1e-12
