"""Structure constants, builtin algebras, Killing form, Weyl relation."""

import tracemalloc

import numpy as np
import pytest

from liequant import liealg
from liequant.errors import DomainError
from liequant.liealg import (
    DIM_CAP,
    LieAlgebraBasis,
    MatrixRealization,
    builtin_algebra,
    is_semisimple,
    killing_form,
    verify_jacobi,
    weyl_check,
)

ALL_BUILTINS = ["so3", "su2", "heisenberg_t3", "oscillator_os1",
                "gl(2)", "gl(3)", "sl(2)", "sl(3)", "so(3,0)", "so(3,1)",
                "so(2,1)", "sp(2)", "sp(4)"]


# every family at every size up to DIM_CAP; so(p,q) compact and split
UP_TO_CAP = (["so3", "su2", "heisenberg_t3", "oscillator_os1"]
             + [f"gl({n})" for n in range(1, 9)] + [f"sl({n})" for n in range(2, 9)]
             + [f"so({p},{n - p})" for n in range(2, 12) for p in sorted({n, n // 2})]
             + [f"sp({n})" for n in range(2, 11, 2)])


def pairwise_constants(mats):
    """Oracle: one least-squares expansion of [M_j, M_k] per pair j < k."""
    d = len(mats)
    a = np.stack([m.ravel() for m in mats], axis=1)
    c = np.zeros((d, d, d), dtype=complex)
    for j in range(d):
        for k in range(j + 1, d):
            com = (mats[j] @ mats[k] - mats[k] @ mats[j]).ravel()
            coef = np.linalg.lstsq(a, com, rcond=None)[0]
            c[j, k, :] = coef
            c[k, j, :] = -coef
    return c


def pairwise_consistency(real):
    """Oracle: realized bracket of each pair against sum_l c[j,k,l] M_l."""
    c, mats, d = real.basis.c, real.mats, real.basis.dim
    worst = 0.0
    for j in range(d):
        for k in range(d):
            lhs = real.bracket(mats[j], mats[k])
            rhs = sum(c[j, k, l] * mats[l] for l in range(d))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def brute_killing(basis):
    """Oracle: build each ad matrix entry by entry, multiply, trace."""
    d = basis.dim
    ad = np.zeros((d, d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            for l in range(d):
                ad[j][l, k] = basis.c[j, k, l]
    return np.array([[np.trace(ad[j] @ ad[k]) for k in range(d)] for j in range(d)])


def brute_jacobi(c):
    """Oracle: four explicit loops over the contraction."""
    d = c.shape[0]
    worst = 0.0
    for j in range(d):
        for k in range(d):
            for l in range(d):
                for n in range(d):
                    total = sum(c[j, k, m] * c[m, l, n] + c[k, l, m] * c[m, j, n]
                                + c[l, j, m] * c[m, k, n] for m in range(d))
                    worst = max(worst, abs(total))
    return worst


def einsum_jacobi(c):
    """Oracle: the three unoptimised 5-index contractions over all quadruples."""
    term = np.einsum("jkm,mln->jkln", c, c)
    total = term + np.einsum("klm,mjn->jkln", c, c) + np.einsum("ljm,mkn->jkln", c, c)
    return float(np.max(np.abs(total)))


class TestBuiltins:
    def test_so3_constants(self):
        basis, _ = builtin_algebra("so3")
        c = basis.c
        assert c[0, 1, 2] == 1 and c[1, 2, 0] == 1 and c[2, 0, 1] == 1
        assert c[1, 0, 2] == -1
        assert np.count_nonzero(c) == 6

    def test_heisenberg_ccr(self):
        basis, real = builtin_algebra("heisenberg_t3")
        p, q, one = basis.names.index("p"), basis.names.index("q"), basis.names.index("one")
        assert basis.c[p, q, one] == 1
        assert np.all(basis.c[p, one, :] == 0)
        assert np.all(basis.c[q, one, :] == 0)
        # the central element really is central in the realization
        for m in real.mats:
            assert np.all(m @ real.mats[one] - real.mats[one] @ m == 0)

    def test_sp2_dimension_and_killing(self):
        basis, _ = builtin_algebra("sp(2)")
        assert basis.dim == 3
        kf = brute_killing(basis)
        assert abs(np.linalg.det(kf)) > 1.0
        assert is_semisimple(basis)

    def test_su2_shares_so3_constants(self):
        su2, _ = builtin_algebra("su2")
        so3, _ = builtin_algebra("so3")
        assert np.array_equal(su2.c, so3.c)

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown_algebra"):
            builtin_algebra("e8")

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_invariants_hold(self, name):
        basis, real = builtin_algebra(name)
        assert basis.antisymmetry_residual() == 0.0
        assert verify_jacobi(basis) <= 1e-12
        assert real.consistency_residual() <= 1e-10

    @pytest.mark.parametrize("name", UP_TO_CAP)
    def test_batched_against_pairwise_oracles(self, name):
        basis, real = builtin_algebra(name)
        assert basis.dim <= DIM_CAP
        assert np.max(np.abs(basis.c - pairwise_constants(real.mats))) <= 1e-12
        assert abs(real.consistency_residual() - pairwise_consistency(real)) <= 1e-12
        coords = np.arange(1.0, basis.dim + 1) / basis.dim
        loop = sum(coords[j] * real.mats[j] for j in range(basis.dim))
        assert np.max(np.abs(real.element(coords) - loop)) <= 1e-12

    def test_realization_needs_square_matrices_of_one_size(self):
        basis, _ = builtin_algebra("so3")
        for mats in ([np.ones((2, 3))] * 3, [np.eye(2), np.eye(2), np.eye(3)], [np.eye(2)] * 2):
            with pytest.raises(DomainError, match="shape"):
                MatrixRealization(basis, mats)

    @pytest.mark.parametrize("convention", ["commutator", "quantum"])
    def test_consistency_of_a_wrong_tensor(self, convention):
        # a perturbed tensor gives a residual of order one in both computations
        basis, real = builtin_algebra("sl(3)")
        rng = np.random.default_rng(5)
        wrong = LieAlgebraBasis("wrong", basis.names, basis.c + rng.standard_normal(basis.c.shape))
        wrong_real = MatrixRealization(wrong, real.mats, convention, hbar=0.7)
        got = wrong_real.consistency_residual()
        assert got > 0.1
        assert abs(got - pairwise_consistency(wrong_real)) <= 1e-12 * got

    @pytest.mark.parametrize("name", ["gl(9)", "gl(1000)", "sl(9)", "so(6,6)", "sp(12)"])
    def test_dim_cap_before_building(self, name, monkeypatch):
        def refuse(n, *rest):
            raise AssertionError("generators built before the dimension check")
        for builder in ("_gl_basis", "_sl_basis", "_so_pq_basis", "_sp_basis"):
            monkeypatch.setattr(liealg, builder, refuse)
        with pytest.raises(DomainError, match="dim_cap"):
            builtin_algebra(name)

    def test_rejects_dim_zero(self):
        with pytest.raises(DomainError, match="shape"):
            LieAlgebraBasis("empty", (), np.zeros((0, 0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_constants(self, bad):
        c = np.zeros((2, 2, 2), dtype=type(bad))
        c[0, 1, 1] = bad
        with pytest.raises(DomainError, match="not_finite"):
            LieAlgebraBasis("bad", ("x", "y"), c)
        with pytest.raises(DomainError, match="not_finite"):
            LieAlgebraBasis("bad", ("x",), [[[bad]]])

    def test_from_json_rejects_non_finite_constants(self):
        with pytest.raises(DomainError, match="not_finite"):
            LieAlgebraBasis.from_json('{"name": "bad", "names": ["x"], "c": [[[NaN]]]}')

    def test_json_round_trip(self):
        basis, _ = builtin_algebra("sp(4)")
        again = LieAlgebraBasis.from_json(basis.to_json())
        assert again.names == basis.names
        assert np.allclose(again.c, basis.c, atol=0)

    def test_json_round_trip_complex(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 1, 0] = 2j
        c[1, 0, 0] = -2j
        basis = LieAlgebraBasis("toy", ("x", "y"), c)
        again = LieAlgebraBasis.from_json(basis.to_json())
        assert np.array_equal(again.c, c)

    def test_quantum_convention_realization(self):
        # (i/hbar)[X_j, X_k] = eps_jkl X_l holds for X_j = -hbar sigma_j / 2
        from liequant.liealg import MatrixRealization
        basis, _ = builtin_algebra("so3")
        hbar = 0.7
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]])
        s3 = np.array([[1, 0], [0, -1]], dtype=complex)
        mats = tuple(-hbar * s / 2 for s in (s1, s2, s3))
        real = MatrixRealization(basis, mats, product_convention="quantum", hbar=hbar)
        assert real.consistency_residual() <= 1e-10

    def test_nan_hbar_is_rejected(self):
        # hbar <= 0 let NaN through, and consistency_residual() returned nan
        basis, real = builtin_algebra("su2")
        with pytest.raises(DomainError, match="bad_hbar"):
            MatrixRealization(basis, real.mats, "quantum", hbar=float("nan"))


class TestJacobi:
    def test_so3_exact(self):
        basis, _ = builtin_algebra("so3")
        assert verify_jacobi(basis) <= 1e-15

    def test_perturbed_so3(self):
        # note: scaling a full antisymmetric epsilon-triple still satisfies
        # Jacobi, so only the single stored entry is bumped here
        basis, _ = builtin_algebra("so3")
        c = basis.c.copy()
        c[0, 1, 2] = 1.01
        residual = verify_jacobi(LieAlgebraBasis("bad", basis.names, c))
        assert residual >= 0.005
        assert abs(residual - brute_jacobi(c)) < 1e-14

    def test_abelian(self):
        basis = LieAlgebraBasis("abelian", ("x", "y"), np.zeros((2, 2, 2)))
        assert verify_jacobi(basis) == 0.0

    def test_matches_brute_force(self):
        for name in ("su2", "sl(2)", "oscillator_os1"):
            basis, _ = builtin_algebra(name)
            assert abs(verify_jacobi(basis) - brute_jacobi(basis.c)) < 1e-14

    @pytest.mark.parametrize("name", UP_TO_CAP)
    def test_builtins_against_einsum_oracle(self, name):
        # exact sums agree bitwise; lstsq-built constants off the integers
        # may differ in the last bit of a residual near 1e-15
        basis = builtin_algebra(name)[0]
        got, want = verify_jacobi(basis), einsum_jacobi(basis.c)
        if np.array_equal(basis.c, np.round(basis.c)):
            assert got == want
        else:
            assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("kind", ["real", "complex", "antisymmetric", "integer"])
    def test_random_tensors_against_einsum_oracle(self, kind):
        rng = np.random.default_rng(29)
        for d in range(1, 13):
            if kind == "integer":
                c = rng.integers(-3, 4, (d, d, d))
            else:
                c = rng.standard_normal((d, d, d))
            if kind == "complex":
                c = c + 1j * rng.standard_normal((d, d, d))
            if kind == "antisymmetric":
                c = c - c.swapaxes(0, 1)
            got = verify_jacobi(LieAlgebraBasis("random", tuple(map(str, range(d))), c))
            want = einsum_jacobi(c)
            if kind == "integer":
                assert got == want
            else:
                assert abs(got - want) <= 1e-14 * want

    def test_allocation_bound_at_cap(self):
        # a deterministic memory bound, not a timing gate: the einsum oracle
        # holds 3 d^4 entries at once, the GEMM about 1.7 d^4
        basis = builtin_algebra("gl(8)")[0]
        assert basis.dim == DIM_CAP
        tracemalloc.start()
        try:
            verify_jacobi(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * basis.dim ** 4 * basis.c.itemsize


class TestKillingForm:
    def test_so3_is_minus_two_identity(self):
        basis, _ = builtin_algebra("so3")
        kf = killing_form(basis)
        assert np.array_equal(np.real(kf), -2.0 * np.eye(3))
        assert np.allclose(kf, brute_killing(basis), atol=0)

    def test_abelian_vanishes(self):
        basis = LieAlgebraBasis("abelian", ("x", "y", "z"), np.zeros((3, 3, 3)))
        assert np.all(killing_form(basis) == 0)

    def test_heisenberg_singular(self):
        basis, _ = builtin_algebra("heisenberg_t3")
        assert abs(np.linalg.det(brute_killing(basis))) < 1e-14
        assert abs(np.linalg.det(killing_form(basis))) < 1e-14

    @pytest.mark.parametrize("name", UP_TO_CAP)
    def test_equals_einsum(self, name):
        # a GEMM form of B changes its last bits, and algebra-verify prints B
        basis = builtin_algebra(name)[0]
        assert np.array_equal(killing_form(basis), np.einsum("jba,mab->jm", basis.c, basis.c))

    def test_symmetry(self):
        for name in ALL_BUILTINS:
            kf = killing_form(builtin_algebra(name)[0])
            assert np.allclose(kf, kf.T, atol=1e-12)

    def test_invariance_identity(self):
        # B([x,z], y) = B(x, [z,y]) on random coordinate triples
        rng = np.random.default_rng(17)
        for name in ("so3", "sl(3)", "sp(4)", "heisenberg_t3"):
            basis, _ = builtin_algebra(name)
            b = killing_form(basis)
            for _ in range(40):
                x, y, z = (rng.uniform(-1, 1, basis.dim) for _ in range(3))
                lhs = basis.bracket_coords(x, z) @ b @ y
                rhs = x @ b @ basis.bracket_coords(z, y)
                assert abs(lhs - rhs) <= 1e-9


class TestSemisimple:
    def test_so3_true(self):
        assert is_semisimple(builtin_algebra("so3")[0])

    def test_heisenberg_false(self):
        assert not is_semisimple(builtin_algebra("heisenberg_t3")[0])

    def test_abelian_false(self):
        basis = LieAlgebraBasis("abelian", ("x", "y"), np.zeros((2, 2, 2)))
        assert not is_semisimple(basis)

    # gl(n) has a centre; sl, so (p+q >= 3) and sp are simple or a sum of simples
    @pytest.mark.parametrize("name, expected", [
        *((f"gl({n})", False) for n in range(1, 7)),
        ("heisenberg_t3", False),
        ("oscillator_os1", False),
        *((f"sl({n})", True) for n in range(2, 7)),
        *((f"so({p},{n - p})", True) for n in range(3, 7) for p in range(n + 1)),
        *((f"sp({n})", True) for n in (2, 4, 6, 8)),
    ])
    def test_builtin_verdicts(self, name, expected):
        assert is_semisimple(builtin_algebra(name)[0]) is expected


class TestWeyl:
    def test_heisenberg_pair(self):
        a = np.array([[0, 0.7, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        b = np.array([[0, 0, 0], [0, 0, -1.2], [0, 0, 0]], dtype=complex)
        assert weyl_check(a, b)

    def test_equal_arguments(self):
        a = np.array([[0, 1.0], [0, 0]], dtype=complex)
        assert weyl_check(a, a)

    def test_pauli_not_central(self):
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]])
        with pytest.raises(DomainError, match="not_central"):
            weyl_check(s1, s2)

    def test_random_heisenberg_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            alpha, beta, gamma, delta = rng.uniform(-2, 2, 4)
            a = np.array([[0, alpha, gamma], [0, 0, beta], [0, 0, 0]], dtype=complex)
            b = np.array([[0, delta, gamma], [0, 0, -alpha], [0, 0, 0]], dtype=complex)
            assert weyl_check(a, b)
