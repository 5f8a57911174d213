"""Spin-j irreducibles, tensor decomposition, spinor overlaps, branching."""

import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from liequant.errors import MAX_DIM, DomainError
from liequant.liealg import builtin_algebra
from liequant.matrixcore import commutator, expm, is_unitary
from liequant import su2reps
from liequant.su2reps import (
    build_irrep,
    casimir,
    clebsch_gordan,
    decompose_restriction,
    spinor_inner,
    spinor_metric,
    spinor_norm_constant,
)

HALF = Fraction(1, 2)


def racah_table(twok, twol):
    """Condon-Shortley coefficients from Racah's formula, exact until the last sqrt.

    Rows are |k m1> (x) |l m2> with m1, m2 descending; columns run over
    j = k+l .. |k-l| and m = j .. -j, the isometry's order.  In twice-spin
    integers every factorial argument below is an integer.
    """
    f = [math.factorial(n) for n in range(twok + twol + 2)]
    table = np.zeros(((twok + 1) * (twol + 1),) * 2)
    col = 0
    for twoj in range(twok + twol, abs(twok - twol) - 1, -2):
        a, b, c = (twoj + twok - twol) // 2, (twoj - twok + twol) // 2, (twok + twol - twoj) // 2
        pre = Fraction((twoj + 1) * f[a] * f[b] * f[c], f[(twok + twol + twoj) // 2 + 1])
        for twom in range(twoj, -twoj - 1, -2):
            for i in range(twok + 1):
                t1, t2 = twok - 2 * i, twom - twok + 2 * i  # m1 = k - i, m2 = m - m1
                if abs(t2) > twol or (twol - t2) % 2:
                    continue
                p, q = (twok - t1) // 2, (twol + t2) // 2
                r, t = (twoj - twol + t1) // 2, (twoj - twok - t2) // 2
                total = sum(Fraction((-1) ** z, f[z] * f[c - z] * f[p - z] * f[q - z]
                                     * f[r + z] * f[t + z])
                            for z in range(max(0, -r, -t), min(c, p, q) + 1))
                square = pre * total * total * (f[(twoj + twom) // 2] * f[(twoj - twom) // 2] * f[p]
                                                 * f[(twok + t1) // 2] * f[(twol - t2) // 2] * f[q])
                table[i * (twol + 1) + (twol - t2) // 2, col] = math.copysign(
                    math.sqrt(square), total)
            col += 1
    return table


def coupled_operators(twok, twol):
    """t3 and J^2 of D_k (x) D_l as dense real matrices, from Kronecker products."""
    rk, rl = build_irrep(Fraction(twok, 2)), build_irrep(Fraction(twol, 2))
    t3 = np.kron(rk.t3.real, np.eye(rl.dim)) + np.kron(np.eye(rk.dim), rl.t3.real)
    lp = np.kron(rk.lplus.real, np.eye(rl.dim)) + np.kron(np.eye(rk.dim), rl.lplus.real)
    return t3, lp @ lp.T - t3 + t3 @ t3


def coupled_labels(twok, twol):
    """(j, m) of each isometry column, in its order."""
    return [(twoj / 2, twoj / 2 - i) for twoj in range(twok + twol, abs(twok - twol) - 1, -2)
            for i in range(twoj + 1)]


def ladder_entry_by_hand(j, m):
    """Recursion oracle: |L+|j,m>|^2 = j(j+1) - m(m+1) from adjointness."""
    return math.sqrt(j * (j + 1) - m * (m + 1))


class TestBuildIrrep:
    def test_spin_half_is_half_pauli(self):
        rep = build_irrep(HALF)
        assert np.array_equal(rep.t3.real, np.diag([0.5, -0.5]))
        sigma1 = np.array([[0, 1], [1, 0]])
        sigma2 = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(rep.t1, sigma1 / 2, atol=1e-15)
        assert np.allclose(rep.t2, sigma2 / 2, atol=1e-15)

    def test_spin_zero(self):
        rep = build_irrep(0)
        assert rep.dim == 1
        assert np.all(rep.t3 == 0) and np.all(rep.lplus == 0)

    def test_spin_one_ladder(self):
        rep = build_irrep(1)
        diag = np.diag(rep.lplus, 1).real
        assert np.allclose(diag, [math.sqrt(2), math.sqrt(2)], atol=1e-15)
        assert np.allclose(diag, [ladder_entry_by_hand(1, 0), ladder_entry_by_hand(1, -1)])

    def test_ladder_matches_entry_loop_bitwise(self):
        for twoj in (1, 2, 7, 40, 899):
            jj = twoj / 2.0
            want = np.zeros((twoj + 1, twoj + 1), dtype=complex)
            for i in range(1, twoj + 1):
                m = jj - i
                want[i - 1, i] = math.sqrt(jj * (jj + 1) - m * (m + 1))
            got = build_irrep(Fraction(twoj, 2)).lplus
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_commutation_relations(self):
        for j in (HALF, 1, Fraction(3, 2), 3, 5):
            rep = build_irrep(j)
            assert np.max(np.abs(commutator(rep.t3, rep.lplus) - rep.lplus)) <= 1e-12
            assert np.max(np.abs(commutator(rep.t3, rep.lminus) + rep.lminus)) <= 1e-12
            assert np.max(np.abs(commutator(rep.lplus, rep.lminus) - 2 * rep.t3)) <= 1e-12
            assert np.array_equal(rep.lminus, rep.lplus.conj().T)
            assert abs(np.trace(rep.t3)) <= 1e-14

    def test_bad_spin(self):
        with pytest.raises(DomainError, match="bad_spin"):
            build_irrep(0.3)


class TestCasimir:
    def test_spin_half(self):
        assert np.allclose(casimir(build_irrep(HALF)), 0.75 * np.eye(2), atol=1e-14)

    def test_spin_zero(self):
        assert np.all(casimir(build_irrep(0)) == 0)

    def test_spin_three_halves(self):
        assert np.allclose(casimir(build_irrep(Fraction(3, 2))), 3.75 * np.eye(4), atol=1e-13)

    def test_scalar_on_every_irrep(self):
        for twoj in range(11):
            j = Fraction(twoj, 2)
            rep = build_irrep(j)
            value = float(j * (j + 1))
            assert np.max(np.abs(casimir(rep) - value * np.eye(rep.dim))) <= 1e-12

    def test_commutes_with_generators(self):
        for j in (1, Fraction(5, 2)):
            rep = build_irrep(j)
            cas = casimir(rep)
            for gen in (rep.t1, rep.t2, rep.t3):
                assert np.max(np.abs(commutator(cas, gen))) <= 1e-12


class TestClebschGordan:
    def test_half_times_half(self):
        summands, iso = clebsch_gordan(HALF, HALF)
        assert summands == [(1.0, 1), (0.0, 1)]
        assert iso.shape == (4, 4)

    def test_coupling_with_scalar(self):
        for k in (0, 1, Fraction(3, 2)):
            summands, _ = clebsch_gordan(k, 0)
            assert summands == [(float(k), 1)]

    def test_one_times_half(self):
        summands, _ = clebsch_gordan(1, HALF)
        assert summands == [(1.5, 1), (0.5, 1)]
        assert sum(int(2 * j) + 1 for j, _ in summands) == 6

    def test_singlet_state_known_form(self):
        # j=0 inside 1/2 x 1/2 is (|ud> - |du>)/sqrt(2) up to phase
        _, iso = clebsch_gordan(HALF, HALF)
        singlet = iso[:, 3]
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        assert abs(abs(expected @ singlet) - 1.0) <= 1e-12

    @pytest.mark.parametrize("twok", range(7))
    @pytest.mark.parametrize("twol", range(7))
    def test_dimension_sum_and_block_diagonalization(self, twok, twol):
        k, l = Fraction(twok, 2), Fraction(twol, 2)
        summands, iso = clebsch_gordan(k, l)
        dims = [int(2 * j) + 1 for j, _ in summands]
        assert sum(dims) == (twok + 1) * (twol + 1)
        assert all(m == 1 for _, m in summands)
        # the isometry turns J^2 and t3 into direct sums
        rk, rl = build_irrep(k), build_irrep(l)
        t3 = np.kron(rk.t3, np.eye(rl.dim)) + np.kron(np.eye(rk.dim), rl.t3)
        lp = np.kron(rk.lplus, np.eye(rl.dim)) + np.kron(np.eye(rk.dim), rl.lplus)
        jsq = lp @ lp.conj().T - t3 + t3 @ t3
        assert np.max(np.abs(iso.conj().T @ iso - np.eye(iso.shape[0]))) <= 1e-10
        for op in (jsq, t3):
            moved = iso.conj().T @ op @ iso
            assert np.max(np.abs(moved - np.diag(np.diag(moved)))) <= 1e-10

    def test_deterministic_phases(self):
        _, iso1 = clebsch_gordan(1, 1)
        _, iso2 = clebsch_gordan(1, 1)
        assert np.array_equal(iso1, iso2)

    @pytest.mark.parametrize("twok", range(7))
    @pytest.mark.parametrize("twol", range(7))
    def test_condon_shortley_against_sympy(self, twok, twol):
        cg_module = pytest.importorskip("sympy.physics.quantum.cg")
        k, l = Fraction(twok, 2), Fraction(twol, 2)
        _, iso = clebsch_gordan(k, l)
        # rows: product basis |k m1> (x) |l m2>, m1 and m2 descending;
        # columns: coupled |j m>, j descending, m descending inside each block
        coupled = [(Fraction(twoj, 2), Fraction(twoj, 2) - i)
                   for twoj in range(twok + twol, abs(twok - twol) - 1, -2)
                   for i in range(twoj + 1)]
        product = [(k - a, l - b) for a in range(twok + 1) for b in range(twol + 1)]
        ref = np.array([[float(cg_module.CG(k, m1, l, m2, j, m).doit()) for j, m in coupled]
                        for m1, m2 in product])
        assert np.max(np.abs(iso - ref)) <= 1e-12

    @pytest.mark.parametrize("twok, twol", [(29, 29), (59, 13), (449, 1)])
    def test_cap_cases_against_racah(self, twok, twol):
        assert (twok + 1) * (twol + 1) <= MAX_DIM
        _, iso = clebsch_gordan(Fraction(twok, 2), Fraction(twol, 2))
        assert iso.dtype == complex and not iso.imag.any()
        assert np.abs(iso.real - racah_table(twok, twol)).max() <= 1e-10
        assert np.abs(iso.real.T @ iso.real - np.eye(len(iso))).max() <= 1e-10

    def test_racah_table_matches_sympy(self):
        cg_module = pytest.importorskip("sympy.physics.quantum.cg")
        for twok, twol in ((1, 1), (2, 1), (3, 4)):
            k, l = Fraction(twok, 2), Fraction(twol, 2)
            product = [(k - a, l - b) for a in range(twok + 1) for b in range(twol + 1)]
            ref = [[float(cg_module.CG(k, m1, l, m2, Fraction(j), Fraction(m)).doit())
                    for j, m in coupled_labels(twok, twol)] for m1, m2 in product]
            assert np.abs(racah_table(twok, twol) - ref).max() <= 1e-15

    def test_isometry_property(self):
        """Unitary, and t3 and J^2 diagonal with the block labels, up to MAX_DIM."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        pairs = st.integers(0, MAX_DIM - 1).flatmap(
            lambda twok: st.tuples(st.just(twok), st.integers(0, MAX_DIM // (twok + 1) - 1)))

        @hypothesis.settings(max_examples=25, derandomize=True, deadline=None, database=None)
        @hypothesis.given(pairs)
        def check(pair):
            twok, twol = pair
            _, iso = clebsch_gordan(Fraction(twok, 2), Fraction(twol, 2))
            assert not iso.imag.any()
            u = iso.real
            assert np.abs(u.T @ u - np.eye(len(u))).max() <= 1e-10
            j, m = np.array(coupled_labels(twok, twol)).T
            t3, jsq = coupled_operators(twok, twol)
            # the tolerance scales with the largest eigenvalue, as the rounding of U* op U does
            for op, want in ((t3, m), (jsq, j * (j + 1))):
                moved = u.T @ op @ u - np.diag(want)
                assert np.abs(moved).max() <= 1e-10 * max(1.0, np.abs(want).max())

        check()

    def test_no_svd_and_no_dense_ladder(self, monkeypatch):
        from liequant import su2reps

        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra in clebsch_gordan")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        assert not hasattr(su2reps, "kron_embed")
        for twok, twol in ((0, 0), (1, 1), (6, 5), (29, 29), (449, 1)):
            clebsch_gordan(Fraction(twok, 2), Fraction(twol, 2))

    def test_collapse_check_is_live(self, monkeypatch):
        # with every ladder number zero, the first lowering step gives the zero vector
        from liequant import su2reps
        monkeypatch.setattr(su2reps, "_raising", lambda twoj: np.zeros(twoj))
        with pytest.raises(DomainError, match="cascade_collapse"):
            clebsch_gordan(0, 1)

    def test_no_eigensolves(self, monkeypatch):
        # top states come from the kernel of L+, not from a Casimir eigensolve
        from liequant import matrixcore, su2reps

        calls = []
        real_eig = matrixcore.eig_hermitian
        counting = lambda h, *rest: calls.append(h) or real_eig(h, *rest)  # noqa: E731
        monkeypatch.setattr(matrixcore, "eig_hermitian", counting)
        monkeypatch.setattr(su2reps, "eig_hermitian", counting)
        for twok in range(7):
            for twol in range(7):
                clebsch_gordan(Fraction(twok, 2), Fraction(twol, 2))
        assert calls == []
        decompose_restriction([build_irrep(1).t1, build_irrep(1).t2, build_irrep(1).t3])
        assert len(calls) == 1  # the patch does see the eigensolves that remain


class TestExponentials:
    def test_unitarity_of_hermitian_exponentials(self):
        rng = np.random.default_rng(61)
        for j in (HALF, 1, 2):
            rep = build_irrep(j)
            for _ in range(10):
                a, b, c = rng.standard_normal(3)
                h = a * rep.t1 + b * rep.t2 + c * rep.t3
                assert is_unitary(expm(1j * h))

    def test_center_lifting_criterion(self):
        for twoj in range(9):
            rep = build_irrep(Fraction(twoj, 2))
            sign = 1.0 if twoj % 2 == 0 else -1.0
            defect = expm(2j * np.pi * rep.t3) - sign * np.eye(rep.dim)
            assert np.max(np.abs(defect)) <= 1e-9


class TestSpinor:
    def test_unit_vector(self):
        for s in (0, HALF, 1, Fraction(5, 2)):
            assert spinor_inner([1, 0], [1, 0], s) == 1.0

    def test_parity_under_negation(self):
        rng = np.random.default_rng(62)
        for twos in range(5):
            s = Fraction(twos, 2)
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = spinor_inner(-x, y, s)
            rhs = (-1.0) ** twos * spinor_inner(x, y, s)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_norm_constant(self):
        assert abs(spinor_norm_constant(1) - math.pi**2 / 12) <= 1e-15
        assert abs(spinor_norm_constant(HALF) - math.pi**2 / 6) <= 1e-15

    def test_monomial_metric(self):
        from liequant.su2reps import spinor_metric
        assert np.array_equal(spinor_metric(1), [1.0, 0.5, 1.0])
        assert np.array_equal(spinor_metric(Fraction(3, 2)), [1.0, 1 / 3, 1 / 3, 1.0])

    def test_closed_form_vs_metric_expansion(self):
        # spinor_inner cross-checks internally; exercise it on random data
        rng = np.random.default_rng(63)
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            got = spinor_inner(x, y, Fraction(3, 2))
            assert abs(got - (np.conj(y) @ x) ** 3) <= 1e-10 * max(1.0, abs(got))

    def test_metric_and_inner_run_to_the_end_of_the_float_range(self):
        # 1/binom(1030, 515) would divide by an int past the float range
        assert math.comb(1029, 514) <= sys.float_info.max < math.comb(1030, 515)
        last = Fraction(1029, 2)
        assert spinor_metric(last)[514] == 1.0 / math.comb(1029, 514)
        assert spinor_inner([1, 0], [1, 0], last) == 1.0
        for call in (spinor_metric, lambda s: spinor_inner([1, 0], [1, 0], s)):
            with pytest.raises(DomainError, match="size_cap"):
                call(last + HALF)

    def test_norm_constant_runs_to_the_end_of_the_float_range(self):
        # the spin caps of build_irrep and the metric do not apply to the closed form
        assert spinor_norm_constant(1000) == math.pi**2 / (2001 * 2002)
        assert spinor_norm_constant(10**153) == math.pi**2 / ((2 * 10**153 + 1) * (2 * 10**153 + 2))
        with pytest.raises(DomainError, match="size_cap"):
            spinor_norm_constant(10**154)  # (2s+1)(2s+2) is past the float range


class TestRestriction:
    def test_sl3_defining_to_su2(self):
        _, su2 = builtin_algebra("su2")
        embedded = []
        for m in su2.mats:
            big = np.zeros((3, 3), dtype=complex)
            big[:2, :2] = m
            embedded.append(big)
        assert decompose_restriction(embedded) == [2, 1]

    def test_irrep_to_itself(self):
        for j in (HALF, 1, Fraction(3, 2)):
            rep = build_irrep(j)
            assert decompose_restriction([rep.t1, rep.t2, rep.t3]) == [rep.dim]

    def test_tensor_square_diagonal(self):
        rep = build_irrep(HALF)
        diag = [np.kron(m, np.eye(2)) + np.kron(np.eye(2), m)
                for m in (rep.t1, rep.t2, rep.t3)]
        assert decompose_restriction(diag) == [3, 1]

    def test_blocks_sum_to_ambient_dimension(self):
        rep = build_irrep(1)
        diag = [np.kron(m, np.eye(3)) + np.kron(np.eye(3), m)
                for m in (rep.t1, rep.t2, rep.t3)]
        blocks = decompose_restriction(diag)
        assert sum(blocks) == 9
        assert blocks == [5, 3, 1]
        assert all(type(size) is int for size in blocks)

    def test_rejects_non_closing_set(self):
        bad = [np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]) ]
        with pytest.raises(DomainError, match="not_subalgebra"):
            decompose_restriction(bad)

    def test_closure_tolerance_is_a_constant(self):
        # tol=nan or tol=inf skipped the closure test, since residual > nan is False
        assert "tol" not in inspect.signature(decompose_restriction).parameters
        assert su2reps._CLOSURE_TOL == 1e-8
        with pytest.raises(TypeError):
            decompose_restriction([build_irrep(1).t3], tol=math.nan)

    def test_generators_of_different_sizes_are_shape(self):
        # np.stack raised ValueError
        with pytest.raises(DomainError, match="shape"):
            decompose_restriction([build_irrep(HALF).t3, build_irrep(1).t3])
