"""Matrix arithmetic: commutators, the exponential, predicates, eigensolver."""

import inspect
import warnings

import numpy as np
import pytest

from liequant import liealg, matrixcore
from liequant.errors import DomainError
from liequant.matrixcore import (
    anticommutator,
    commutator,
    eig_hermitian,
    expm,
    is_antihermitian,
    is_hermitian,
    is_special_orthogonal,
    is_unitary,
    kron_embed,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]])
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def taylor_expm(a, terms=60):
    """Independent oracle: plain truncated power series, no scaling."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def hat(w):
    return np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]], dtype=float)


class TestCommutator:
    def test_pauli(self):
        assert np.allclose(commutator(SIGMA1, SIGMA2), 2j * SIGMA3, atol=1e-15)

    def test_self_is_zero(self):
        a = np.arange(9.0).reshape(3, 3)
        assert np.all(commutator(a, a) == 0)

    def test_elementary_units(self):
        # [E12, E21] computed by hand: E12 E21 = E11, E21 E12 = E22
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        e21 = np.array([[0, 0], [1, 0]], dtype=complex)
        assert np.array_equal(commutator(e12, e21), np.diag([1.0 + 0j, -1.0]))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert np.all(commutator(a, b) + commutator(b, a) == 0)

    def test_shape_error(self):
        with pytest.raises(DomainError, match="shape"):
            commutator(np.eye(2), np.eye(3))


class TestExpm:
    def test_zero(self):
        assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent_closed_form(self):
        # strictly upper triangular 3x3: cube vanishes, series is quadratic
        a = np.array([[0, 1.3, -0.4], [0, 0, 2.1], [0, 0, 0]], dtype=complex)
        exact = np.eye(3) + a + a @ a / 2
        assert np.max(np.abs(expm(a) - exact)) < 1e-15

    def test_matches_rodrigues_axis(self):
        a = np.array([0.3, -1.1, 0.7])
        theta = np.linalg.norm(a)
        x = hat(a)
        rod = np.eye(3) + np.sin(theta) / theta * x + (1 - np.cos(theta)) / theta**2 * (x @ x)
        assert np.max(np.abs(expm(x) - rod)) < 1e-13
        assert np.max(np.abs(taylor_expm(x.astype(complex)) - rod)) < 1e-13

    def test_inverse_property(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            a *= rng.uniform(0, 5) / np.linalg.norm(a)
            defect = expm(a) @ expm(-a) - np.eye(5)
            assert np.max(np.abs(defect)) < 1e-10

    def test_commuting_factorization(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m *= 1.5 / np.linalg.norm(m)
            a = 0.3 * np.eye(4) + 0.9 * m - 0.5 * m @ m
            b = -0.2 * np.eye(4) + 1.1 * m
            lhs = expm(a + b)
            rhs = expm(a) @ expm(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_accuracy_at_norm_20(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a *= 20.0 / np.linalg.norm(a)
        # squared-down oracle: series at norm 20/32 is fully converged
        b = a / 32
        ref = taylor_expm(b)
        for _ in range(5):
            ref = ref @ ref
        assert np.linalg.norm(expm(a) - ref) / np.linalg.norm(ref) < 1e-12

    def test_result_past_float_range_is_not_finite(self):
        # e^1000 overflows; this returned inf after a RuntimeWarning
        with pytest.raises(DomainError, match="not_finite"):
            expm([[1000.0]])

    def test_norm_past_float_range_is_not_finite(self):
        # the norm is inf; this raised OverflowError from int(np.ceil(inf))
        with pytest.raises(DomainError, match="not_finite"):
            expm(np.diag([1e308, 0.0]))


class TestPredicates:
    def test_identity_is_special_orthogonal(self):
        assert is_special_orthogonal(np.eye(3))

    def test_reflection_is_not(self):
        assert not is_special_orthogonal(np.diag([1.0, 1.0, -1.0]))

    def test_su2_parametrization_is_unitary(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        x, y = complex(v[0], v[1]), complex(v[2], v[3])
        u = np.array([[x, y], [-np.conj(y), np.conj(x)]])
        assert is_unitary(u)

    def test_hermitian_flags(self):
        assert is_hermitian(SIGMA2)
        assert not is_hermitian(1j * SIGMA2)
        assert is_antihermitian(1j * SIGMA1)

    @pytest.mark.parametrize("predicate", [is_hermitian, is_antihermitian, is_unitary,
                                           is_special_orthogonal])
    def test_overflowing_defect_is_false_without_a_warning(self, predicate):
        # a* a, a^T a and a - a* of entries 1e200 overflowed with a RuntimeWarning
        assert not predicate(np.array([[1e200, 1e200], [-1e200, 1e200]]))

    def test_infinite_defect_fails_an_infinite_bound(self):
        # |z| = 2.1e308 made the bound infinite, and a defect of 3e308i passed it
        z = 1.5e308 + 1.5e308j
        assert not is_hermitian(np.array([[0, z], [z, 0]]))
        assert not is_antihermitian(np.array([[0, z], [z.conjugate(), 0]]))
        assert is_hermitian(np.array([[0, z], [z.conjugate(), 0]]))


class TestFixedBound:
    def test_no_predicate_takes_a_tolerance(self):
        for f in (is_hermitian, is_antihermitian, is_unitary, is_special_orthogonal, eig_hermitian,
                  liealg.is_semisimple, liealg.weyl_check):
            assert "tol" not in inspect.signature(f).parameters, f.__name__
        assert not hasattr(matrixcore, "Tolerance") and not hasattr(matrixcore, "DEFAULT_TOL")

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_the_bound_is_1e_10_plus_1e_10_times_the_scale(self, scale):
        bound = 1e-10 + 1e-10 * scale
        for defect, expected in ((bound, True), (np.nextafter(bound, 1.0), False)):
            assert is_hermitian(np.array([[scale, defect], [0.0, 0.0]])) is expected
            assert is_antihermitian(np.array([[1j * scale, defect], [0.0, 0.0]])) is expected

    def test_unitary_and_special_orthogonal_use_the_bound_at_scale_1(self):
        for defect, expected in ((2e-10, True), (np.nextafter(2e-10, 1.0), False)):
            shear = np.eye(3)
            shear[0, 1] = defect  # shear^T shear - 1 has the entries defect and defect^2
            assert is_unitary(shear) is expected
            assert is_special_orthogonal(shear) is expected
            assert is_special_orthogonal(np.eye(3) + 1j * defect * np.eye(3)[0]) is expected


class TestEigHermitian:
    def test_sigma3(self):
        w, _ = eig_hermitian(SIGMA3)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_identity(self):
        w, v = eig_hermitian(np.eye(5))
        assert np.allclose(w, np.ones(5))
        assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)

    def test_sigma1_eigenvectors(self):
        # characteristic polynomial by hand: eigenpairs (-1, (1,-1)/sqrt2), (1, (1,1)/sqrt2)
        w, v = eig_hermitian(SIGMA1)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(abs(minus @ v[:, 0]) - 1) < 1e-12
        assert abs(abs(plus @ v[:, 1]) - 1) < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 7, 12, 30):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = x + x.conj().T
            w, v = eig_hermitian(h)
            err = np.linalg.norm(v @ np.diag(w) @ v.conj().T - h)
            assert err <= 1e-10 * (1 + np.linalg.norm(h))
            assert np.all(np.diff(w) >= -1e-12)

    def test_degenerate_cluster_orthonormal(self):
        h = np.diag([2.0, 2.0, 2.0, 5.0])
        w, v = eig_hermitian(h)
        assert np.allclose(sorted(w), [2, 2, 2, 5])
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError, match="not_hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [1e200, 1e308, -1e308])
    def test_norm_past_float_range_is_not_finite(self, entry):
        """No certificate bound exists once ||H||_F overflows; no warning escapes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not_finite"):
                eig_hermitian(np.diag([entry, 0.0]))


def _oracle_case(kind, n):
    rng = np.random.default_rng(1000 + n)
    if kind == "dense":
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (x + x.conj().T) / 2
    if kind == "degenerate":
        # three-fold clusters hidden by a random unitary
        levels = np.repeat(rng.standard_normal((n + 2) // 3), 3)[:n]
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q @ np.diag(levels) @ q.conj().T
    return np.diag(rng.standard_normal(n))


class TestEigHermitianOracle:
    @pytest.mark.parametrize("kind", ["dense", "degenerate", "diagonal"])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_eigenvalues_match_scipy(self, kind, n):
        linalg = pytest.importorskip("scipy.linalg")
        h = _oracle_case(kind, n)
        w, v = eig_hermitian(h)
        ref = linalg.eigvalsh(0.5 * (h + h.conj().T))
        scale = 1.0 + np.linalg.norm(h)
        assert np.max(np.abs(w - ref)) <= 1e-12 * scale
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(h @ v - v * w) <= 1e-12 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12

    def test_certificate_rejects_bad_eigenvectors(self, monkeypatch):
        h = _oracle_case("dense", 7)
        real_eigh = np.linalg.eigh

        def perturbed(a):
            w, v = real_eigh(a)
            return w, v + 1e-6 * np.ones_like(v)

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(DomainError, match="eig_certificate"):
            eig_hermitian(h)

    def test_certificate_rejects_bad_eigenvalues(self, monkeypatch):
        h = _oracle_case("dense", 7)
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (real_eigh(a)[0] + 1e-6, real_eigh(a)[1]))
        with pytest.raises(DomainError, match="eig_certificate"):
            eig_hermitian(h)

    @pytest.mark.parametrize("kind", ["dense", "degenerate"])
    def test_bitwise_repeatable(self, kind):
        h = _oracle_case(kind, 40)
        w1, v1 = eig_hermitian(h)
        w2, v2 = eig_hermitian(h.copy())
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


class TestOverflow:
    @pytest.mark.parametrize("product", [commutator, anticommutator])
    def test_product_past_the_float_range_is_not_finite(self, product):
        # a @ b of entries 1e200 overflowed with a RuntimeWarning and returned inf
        big = np.full((3, 3), 1e200)
        with pytest.raises(DomainError, match="not_finite"):
            product(big, big.T)


class TestKronEmbed:
    def test_places_op_on_its_factor(self):
        op = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(kron_embed(op, 0, [2, 3]), np.kron(op, np.eye(3)))
        assert np.array_equal(kron_embed(op, 1, [3, 2]), np.kron(np.eye(3), op))

    @pytest.mark.parametrize("slot, token", [(2, "size_cap"), (5, "size_cap"), (-1, "bad_argument")])
    def test_a_slot_outside_the_factors_is_rejected(self, slot, token):
        # slot 5 or -1 on [2, 2] dropped op and returned the identity
        with pytest.raises(DomainError, match=token):
            kron_embed(np.eye(2), slot, [2, 2])

    def test_a_float_slot_is_type_error(self):
        with pytest.raises(TypeError):
            kron_embed(np.eye(2), 0.0, [2, 2])

    @pytest.mark.parametrize("op", [np.eye(3), np.eye(1), np.ones((2, 3)), np.ones(2)],
                             ids=["3x3", "1x1", "2x3", "vector"])
    def test_op_of_another_size_than_its_factor_is_shape(self, op):
        # a 3 x 3 op on [2, 2] returned a 6 x 6 matrix
        with pytest.raises(DomainError, match="shape"):
            kron_embed(op, 0, [2, 2])

    def test_a_non_finite_op_is_not_finite(self):
        with pytest.raises(DomainError, match="not_finite"):
            kron_embed([[np.nan, 0.0], [0.0, 1.0]], 1, [2, 2])
