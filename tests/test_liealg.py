"""Structure constants, builtin algebras, Killing form, Weyl relation."""

import json
import re
import tracemalloc
import warnings

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
# UP_TO_CAP and every signature p + q = n of so(p,q) up to DIM_CAP: 99 names
EVERY_SPLIT = list(dict.fromkeys(
    UP_TO_CAP + [f"so({p},{n - p})" for n in range(2, 12) for p in range(n + 1)]))


def reference_unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def reference_epsilon():
    c = np.zeros((3, 3, 3))
    c[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0   # cyclic (j, k, l)
    c[[1, 2, 0], [0, 1, 2], [2, 0, 1]] = -1.0  # anticyclic
    return c


def reference_named(key):
    """Oracle: the named algebras' matrices and constants, written out entry by entry."""
    if key == "so3":
        mats = [np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=complex),
                np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=complex),
                np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)]
        return ["J1", "J2", "J3"], mats, reference_epsilon()
    if key == "su2":
        pauli = [np.array([[0, 1], [1, 0]], dtype=complex),
                 np.array([[0, -1j], [1j, 0]], dtype=complex),
                 np.array([[1, 0], [0, -1]], dtype=complex)]
        return ["t1", "t2", "t3"], [s / 2j for s in pauli], reference_epsilon()
    if key == "heisenberg_t3":
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = -1.0
        mats = [reference_unit(3, 0, 1), reference_unit(3, 1, 2), reference_unit(3, 0, 2)]
        return ["p", "q", "one"], mats, c
    c = np.zeros((4, 4, 4))  # oscillator_os1
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    c[1, 3, 1] = 1.0
    c[3, 1, 1] = -1.0
    c[2, 3, 2] = -1.0
    c[3, 2, 2] = 1.0
    mats = [reference_unit(3, 0, 2), reference_unit(3, 0, 1), reference_unit(3, 1, 2),
            np.diag([0.0, 1.0, 0.0]).astype(complex)]
    return ["one", "a", "a_dag", "n"], mats, c


def reference_family(key):
    """Oracle: the loop builders of gl(n), sl(n), so(p,q) and sp(2n), one matrix at a time."""
    family, args = key[:2], [int(x) for x in key[3:-1].split(",")]
    n = sum(args)
    names, mats = [], []
    if family in ("gl", "sl"):
        for a in range(n):
            for b in range(n):
                if family == "gl" or a != b:
                    names.append(f"E{a + 1}{b + 1}")
                    mats.append(reference_unit(n, a, b))
        for i in range(n - 1 if family == "sl" else 0):
            names.append(f"H{i + 1}")
            mats.append(reference_unit(n, i, i) - reference_unit(n, i + 1, i + 1))
    elif family == "so":
        eta = np.diag([1.0] * args[0] + [-1.0] * args[1])
        for a in range(n):
            for b in range(a + 1, n):
                names.append(f"M{a + 1}{b + 1}")
                mats.append(eta[b, b] * reference_unit(n, a, b)
                            - eta[a, a] * reference_unit(n, b, a))
    else:
        n //= 2
        for i in range(n):
            for j in range(n):
                m = np.zeros((2 * n, 2 * n), dtype=complex)
                m[i, j] = 1.0
                m[n + j, n + i] = -1.0
                names.append(f"A{i + 1}{j + 1}")
                mats.append(m)
        for block, rows, cols in (("B", 0, n), ("C", n, 0)):
            for i in range(n):
                for j in range(i, n):
                    m = np.zeros((2 * n, 2 * n), dtype=complex)
                    m[rows + i, cols + j] = 1.0
                    m[rows + j, cols + i] = 1.0
                    names.append(f"{block}{i + 1}{j + 1}")
                    mats.append(m)
    c = pairwise_constants(mats)
    return names, mats, np.rint(c.real) + 0.0  # integer constants, and no -0.0


def reference_to_json(basis):
    """Oracle: the complex payload written entry by entry."""
    c = basis.c
    if np.iscomplexobj(c) and np.max(np.abs(c.imag)) > 0:
        payload = [[[[float(v.real), float(v.imag)] for v in row]
                    for row in plane] for plane in c]
    else:
        payload = np.real(c).tolist()
    return json.dumps(
        {"name": basis.name, "dim": basis.dim, "names": list(basis.names), "c": payload})


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


def jacobi_join(c):
    """The join branch of verify_jacobi, whatever the rule would choose."""
    return liealg._jacobi_join(c, np.flatnonzero(c))


# both branches of verify_jacobi, each called directly
BRANCHES = pytest.mark.parametrize("branch", [jacobi_join, liealg._jacobi_gemm],
                                   ids=["join", "gemm"])


def join_rule(c):
    """Oracle for verify_jacobi's rule: the join's products against the GEMM's buffer."""
    nonzero = c != 0
    products = np.count_nonzero(nonzero, axis=(0, 1)) @ np.count_nonzero(nonzero, axis=(1, 2))
    return 8 * products <= np.count_nonzero(nonzero.any(axis=2)) * len(c) ** 2


def counted(monkeypatch, name):
    """The dimensions of the tensors that liealg's function ``name`` is called with."""
    calls, fn = [], getattr(liealg, name)
    monkeypatch.setattr(liealg, name, lambda c, *rest: calls.append(len(c)) or fn(c, *rest))
    return calls


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

    @pytest.mark.parametrize("name", EVERY_SPLIT)
    def test_bits_of_the_loop_builders(self, name):
        # tobytes, so that every signed zero of the matrices and constants counts
        basis, real = builtin_algebra(name)
        names, mats, c = (reference_family if "(" in name else reference_named)(name)
        assert basis.names == tuple(names)
        assert (basis.c.dtype, basis.c.shape, basis.c.tobytes()) == (c.dtype, c.shape, c.tobytes())
        assert [(m.dtype, m.shape, m.tobytes()) for m in real.mats] == [
            (m.dtype, m.shape, m.tobytes()) for m in mats]

    @pytest.mark.parametrize("name", [n for n in EVERY_SPLIT if "(" in n])
    def test_family_constants_are_exact_integers(self, name):
        basis, real = builtin_algebra(name)
        assert np.array_equal(basis.c, np.rint(pairwise_constants(real.mats)))
        assert basis.c.dtype == np.float64
        assert not np.signbit(basis.c[basis.c == 0]).any()
        assert real.consistency_residual() == 0.0

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
        def refuse(*args):
            raise AssertionError("generators built before the dimension check")
        for builder in ("_generators", "_units"):
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

    @pytest.mark.parametrize("text", [
        "x", "{}", "[1]", "3", '{"name": "a", "names": ["x"]}', '{"names": ["x"], "c": [[[0]]]}',
        '{"name": "a", "names": 3, "c": [[[0]]]}', '{"name": "a", "names": ["x"], "c": [[[0], []]]}',
        '{"name": "a", "names": ["x"], "c": [[[["a", "b"]]]]}',
    ], ids=["not json", "no fields", "a list", "a number", "no c", "no name", "names not a list",
            "ragged c", "str c"])
    def test_from_json_of_text_that_is_no_basis_is_bad_input(self, text):
        # "x" raised JSONDecodeError and "{}" KeyError
        with pytest.raises(DomainError, match="bad_input"):
            LieAlgebraBasis.from_json(text)

    def test_from_json_reads_a_huge_integer_as_inf(self):
        with pytest.raises(DomainError, match="not_finite"):
            LieAlgebraBasis.from_json('{"name": "a", "names": ["x"], "c": [[[1%s]]]}' % ("0" * 400))

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

    def test_json_bytes_against_entrywise_payload(self):
        rng = np.random.default_rng(41)
        special = np.array([0.0, -0.0, 1e-320, -1e-320, 1e300, -1e300])
        for trial in range(300):
            d = 1 + trial % 6
            parts = rng.standard_normal((2, d, d, d))
            planted = rng.random((2, d, d, d)) < 0.3
            parts[planted] = rng.choice(special, planted.sum())
            c = np.empty((d, d, d), dtype=complex)
            c.real, c.imag = parts[0], parts[1] if trial % 10 else 0.0
            basis = LieAlgebraBasis("toy", tuple(map(str, range(d))), c)
            assert basis.to_json() == reference_to_json(basis)

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


def batched_commutators(mats):
    """Oracle: d^2 small batched matmuls, [M_j, M_k] = M_j M_k - M_k M_j."""
    prod = mats[:, None] @ mats[None, :]
    return prod - prod.swapaxes(0, 1)


def random_stack(rng, d, n):
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


def traced_peak(step, bound):
    """Run step() under tracemalloc, check its peak allocation, and return its result."""
    tracemalloc.start()
    try:
        result = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
    return result


class TestClosure:
    @pytest.mark.parametrize("name, alter, resid", [
        # gl(3) without E12, which [E13, E32] needs: that pair has no constant at all
        ("gl(3)", lambda names, mats: (names[:1] + names[2:], np.delete(mats, 1, axis=0)),
         "1.00e+00"),
        # so(4) with M12 halved: [M12/2, M13] = M23/2 up to sign, which rounds to 0
        ("so(4,0)", lambda names, mats: (names, mats * np.r_[0.5, [1.0] * 5][:, None, None]),
         "5.00e-01"),
    ])
    def test_not_closed(self, name, alter, resid, monkeypatch):
        generators = liealg._generators
        monkeypatch.setattr(liealg, "_generators", lambda *args: alter(*generators(*args)))
        with pytest.raises(DomainError, match=f"not_closed.*residual {re.escape(resid)}"):
            builtin_algebra(name)

    def test_builtins_need_no_least_squares(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lstsq called")
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for name in EVERY_SPLIT:
            assert builtin_algebra(name)[1].consistency_residual() == 0.0

    @pytest.mark.parametrize("name", EVERY_SPLIT)
    def test_commutators_against_batched_matmuls(self, name):
        # equal values; the signs of zeros may differ, so no tobytes.  The families'
        # constants are read from the real stack, the residual from the complex one
        stacks = [builtin_algebra(name)[1]._stack]
        if "(" in name:
            stacks.append(liealg._family_basis(name)[1])
        for stack in stacks:
            assert np.array_equal(liealg._commutators(stack), batched_commutators(stack))

    def test_commutators_of_random_complex_stacks(self):
        rng = np.random.default_rng(43)
        for d, n in ((1, 1), (1, 5), (3, 2), (3, 40), (7, 3), (20, 6)):
            mats = random_stack(rng, d, n)
            got = liealg._commutators(mats)
            assert got.shape == (d, d, n, n)
            assert np.max(np.abs(got - batched_commutators(mats))) <= 1e-13

    def test_complex_constants_from_json(self):
        # [sigma_j, sigma_k] = 2i eps_jkl sigma_l: exact complex constants, and a
        # random complex tensor on random matrices, each read back from JSON
        pauli = np.stack(liealg._pauli())
        rng = np.random.default_rng(47)
        for c, mats in ((2j * reference_epsilon(), pauli),
                        (rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4)),
                         random_stack(rng, 4, 3))):
            basis = LieAlgebraBasis.from_json(
                LieAlgebraBasis("toy", tuple(map(str, range(len(c)))), c).to_json())
            assert np.iscomplexobj(basis.c)
            real = MatrixRealization(basis, tuple(mats))
            assert abs(real.consistency_residual() - pairwise_consistency(real)) <= 1e-12

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.5])
    def test_quantum_convention_against_oracle(self, hbar):
        basis, _ = builtin_algebra("so3")
        pauli = [-hbar * s / 2 for s in liealg._pauli()]
        real = MatrixRealization(basis, pauli, product_convention="quantum", hbar=hbar)
        assert real.consistency_residual() <= 1e-12
        wrong = MatrixRealization(basis, random_stack(np.random.default_rng(53), 3, 4),
                                  product_convention="quantum", hbar=hbar)
        got = wrong.consistency_residual()
        assert got > 0.1
        assert abs(got - pairwise_consistency(wrong)) <= 1e-12 * got

    def test_zeroed_pair_that_does_not_commute(self):
        # c says [J1, J2] = 0, yet the realized bracket is J3
        basis, real = builtin_algebra("so3")
        c = basis.c.copy()
        c[0, 1] = c[1, 0] = 0.0
        zeroed = MatrixRealization(LieAlgebraBasis("zeroed", basis.names, c), real.mats)
        assert zeroed.consistency_residual() == pairwise_consistency(zeroed) == 1.0

    def test_allocation_bounds_at_cap(self):
        # deterministic memory bounds, not timing gates, in units of one complex
        # (d, d, n, n) commutator tensor: the constants need the real commutators and
        # one dual-basis read; the residual needs the complex commutators
        unit = DIM_CAP ** 2 * 8 ** 2 * 16
        builtin_algebra("gl(8)")  # warm caches
        basis, real = traced_peak(lambda: builtin_algebra("gl(8)"), 2 * unit)
        assert basis.dim == DIM_CAP
        traced_peak(real.consistency_residual, 2.5 * unit)


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
        # every builtin has integer constants, so the sums of both branches are exact
        basis = builtin_algebra(name)[0]
        want = einsum_jacobi(basis.c)
        assert verify_jacobi(basis) == jacobi_join(basis.c) == liealg._jacobi_gemm(basis.c) == want

    def test_every_split_matches_the_gemm(self):
        for name in EVERY_SPLIT:
            basis = builtin_algebra(name)[0]
            assert verify_jacobi(basis) == liealg._jacobi_gemm(basis.c), name

    @BRANCHES
    def test_live_triple_row(self, branch):
        # (0, 0, 0) is its own three rotations: c[0,0,0] c[0,0,0] counts three times,
        # so J[0,0,0,0] = 3 * 2 * 2; the other entries give sums of at most 3
        c = np.zeros((3, 3, 3))
        c[0, 0, 0], c[0, 1, 2], c[2, 0, 1], c[1, 2, 0] = 2.0, 1.0, 1.5, -0.5
        assert brute_jacobi(c) == 12.0
        assert branch(c) == 12.0

    @BRANCHES
    def test_heisenberg_has_no_join_products(self, branch):
        # [p, q] = one, and one is central: no constant c[j,k,m] meets a nonzero row m
        c = builtin_algebra("heisenberg_t3")[0].c
        flat = np.flatnonzero(c)
        assert np.bincount(flat // 9, minlength=3)[flat % 3].sum() == 0
        assert branch(c) == 0.0

    def test_rule_sends_builtins_to_the_join_and_dense_tensors_to_the_gemm(self, monkeypatch):
        # a count of calls, not a timing: the join for every builtin of dimension >= 8,
        # the GEMM for dense antisymmetric tensors
        joins = counted(monkeypatch, "_jacobi_join")
        for name in UP_TO_CAP:
            basis, before = builtin_algebra(name)[0], len(joins)
            verify_jacobi(basis)
            assert len(joins) - before == join_rule(basis.c), name
            assert join_rule(basis.c) or basis.dim < 8, name
        rng = np.random.default_rng(59)
        for d in (2, 5, 12, 20):
            c = rng.standard_normal((d, d, d))
            c = c - c.swapaxes(0, 1)
            before = len(joins)
            verify_jacobi(LieAlgebraBasis("dense", tuple(map(str, range(d))), c))
            assert len(joins) == before and not join_rule(c)

    @pytest.mark.parametrize("kind", ["real", "complex", "antisymmetric", "integer", "sparse"])
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
            tensors = [c]
            if kind == "sparse":
                # most pairs (j, k) zero; about 2d nonzero entries, so that most
                # rotation classes have one live row; one live pair, where j = k
                # gives the tied rows (j, j, j); and no live pair at all
                one = np.zeros((d, d, d))
                j, k = rng.integers(0, d, 2)
                one[j, k] = c[j, k]
                tensors = [c * (rng.random((d, d, 1)) < 0.2),
                           c * (rng.random((d, d, d)) < 2 / d ** 2), one, np.zeros((d, d, d))]
            for c in tensors:
                want = einsum_jacobi(c)
                basis = LieAlgebraBasis("random", tuple(map(str, range(d))), c)
                c = basis.c  # as float or complex
                for got in (verify_jacobi(basis), jacobi_join(c), liealg._jacobi_gemm(c)):
                    if kind == "integer":
                        assert got == want
                    else:
                        assert abs(got - want) <= 1e-14 * want

    def test_allocation_bound_at_cap(self, monkeypatch):
        # a deterministic memory bound, not a timing gate: the einsum oracle holds
        # 3 d^4 entries at once; the join holds a few arrays of its products, and the
        # GEMM over live pairs about 1.7 d^4 for a dense tensor, where every pair is live.
        # The join's worst case is a tensor just inside the rule: its first n entries of
        # a random order take the join, and its first n + 1 the GEMM
        rng = np.random.default_rng(31)
        dense = rng.standard_normal((DIM_CAP,) * 3)
        dense = LieAlgebraBasis("dense", tuple(map(str, range(DIM_CAP))),
                                dense - dense.swapaxes(0, 1))
        basis = builtin_algebra("gl(8)")[0]
        assert basis.dim == DIM_CAP
        order, values = rng.permutation(DIM_CAP ** 3), rng.standard_normal(DIM_CAP ** 3)

        def first(n):
            c = np.zeros(DIM_CAP ** 3)
            c[order[:n]] = values[:n]
            return c.reshape((DIM_CAP,) * 3)

        inside, outside = 0, DIM_CAP ** 3  # join_rule holds at inside and fails at outside
        while outside - inside > 1:
            mid = (inside + outside) // 2
            inside, outside = (mid, outside) if join_rule(first(mid)) else (inside, mid)
        edge = LieAlgebraBasis("edge", tuple(map(str, range(DIM_CAP))), first(inside))
        joins = counted(monkeypatch, "_jacobi_join")
        for algebra, bound in ((basis, 0.5), (dense, 2), (edge, 2)):
            tracemalloc.start()
            try:
                verify_jacobi(algebra)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * DIM_CAP ** 4 * algebra.c.itemsize
        assert joins == [DIM_CAP, DIM_CAP]  # gl(8) and the edge


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
        # the constants are exact, so the GEMM sums are too: every bit, signed zeros
        # included, matches the einsum (algebra-verify prints B)
        basis = builtin_algebra(name)[0]
        want = np.einsum("jba,mab->jm", basis.c, basis.c)
        assert killing_form(basis).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_random_tensors_against_einsum(self, kind):
        rng = np.random.default_rng(37)
        for d in range(1, 25):
            c = rng.standard_normal((d, d, d))
            if kind == "complex":
                c = c + 1j * rng.standard_normal((d, d, d))
            got = killing_form(LieAlgebraBasis("random", tuple(map(str, range(d))), c))
            want = np.einsum("jba,mab->jm", c, c)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

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


def scaled(name, factor):
    """The builtin basis ``name`` with its constants times ``factor``."""
    basis = builtin_algebra(name)[0]
    return LieAlgebraBasis(name, basis.names, basis.c * factor)


# each overflowed with a RuntimeWarning and returned nan or an infinity
@pytest.mark.parametrize("name, branch", [("so3", "_jacobi_gemm"), ("sl(3)", "_jacobi_join")])
def test_jacobi_past_the_float_range_is_not_finite(name, branch, monkeypatch):
    calls = counted(monkeypatch, branch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not_finite"):
            verify_jacobi(scaled(name, 1e200))
    assert len(calls) == 1


@pytest.mark.parametrize("invariant", [killing_form, is_semisimple])
def test_killing_form_past_the_float_range_is_not_finite(invariant):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not_finite"):
            invariant(scaled("so3", 1e200))


def test_consistency_residual_past_the_float_range_is_not_finite():
    basis, real = builtin_algebra("so3")
    big = MatrixRealization(basis, tuple(m * 1e200 for m in real.mats))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not_finite"):
            big.consistency_residual()


def test_weyl_check_past_the_float_range_is_not_finite():
    # the commutator of entries 1e200 overflowed with a RuntimeWarning
    big = np.full((3, 3), 1e200)
    with pytest.raises(DomainError, match="not_finite"):
        weyl_check(big, big.T)
