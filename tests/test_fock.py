"""Bosonic ladder matrices, coherent states, highest-weight ladders."""

import ast
import inspect
import math
import warnings

import numpy as np
import pytest

from liequant import fock
from liequant.errors import DomainError
from liequant.fock import (
    MAX_LEVELS,
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


# ---------------------------------------------------------------------------
# The dense, loop-built construction the module started from, kept as
# test-only oracles: per-entry ladder matrices, the factorial metric, the
# certified dense eigensolve for the spectrum and the level-by-level verdict.


def loop_fock(dim, hbar):
    a = np.zeros((dim, dim), dtype=complex)
    a_dag = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        a[k - 1, k] = hbar
        a_dag[k, k - 1] = k
    n = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return a, a_dag, n


def loop_weight(hbar, k):
    """hbar^k / k! as the seed wrote it, or None where that raises OverflowError."""
    try:
        return hbar**k / math.factorial(k)
    except OverflowError:
        return None


def dense_spectrum(dim, hbar, omega, count):
    """eig_hermitian of omega times the orthonormal view of a* a, or None where that failed."""
    a, a_dag, _ = loop_fock(dim, hbar)
    weights = [loop_weight(hbar, k) for k in range(dim)]
    if None in weights:
        return None
    s = np.sqrt(np.array(weights))
    with np.errstate(all="ignore"):
        view = ((a_dag @ a) * (s[:, np.newaxis] / s[np.newaxis, :])).astype(complex)
    if not np.isfinite(view).all():
        return None
    w, _ = eig_hermitian(omega * view)
    return w[:count]


def loop_highest_weight(d, max_levels):
    if max_levels < 1:
        raise DomainError("bad_levels", "max_levels must be at least 1")
    verdict = None
    dim = max_levels
    for j in range(1, max_levels + 1):
        c_j = d.u * d.hbar * d.alpha + d.v + 0.5 * d.u * d.hbar * j
        scale = abs(d.v) + abs(d.u * d.hbar * d.alpha) + 0.5 * abs(d.u * d.hbar) * j
        if abs(c_j) <= 1e-12 * max(1.0, scale):
            verdict = FiniteVerdict(j)
            dim = j
            break
        if c_j < 0:
            raise DomainError("no_unitary_rep", f"norm turns negative at level {j}")
    if verdict is None:
        verdict = InfiniteVerdict(max_levels)
    a = np.zeros((dim, dim))
    a_dag = np.zeros((dim, dim))
    for k in range(1, dim):
        a[k - 1, k] = d.u * d.hbar * d.alpha + d.v + 0.5 * d.u * d.hbar * k
        a_dag[k, k - 1] = d.hbar * k
    h = np.diag([d.hbar * (k + d.alpha + 0.5) for k in range(dim)])
    return a, a_dag, h, verdict


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y) \
        and np.array_equal(np.signbit(x.real), np.signbit(y.real))


class TestAgainstLoopOracles:
    @pytest.mark.parametrize("hbar", [0.01, 0.3, 0.5, 1.0, 1.7, 2.0, 65.0, 1000.0])
    @pytest.mark.parametrize("dim", [2, 3, 7, 24, 60, 171])
    def test_dense_views_and_metric(self, dim, hbar):
        f = build_fock(dim, hbar)
        for got, want in zip((f.a, f.a_dag, f.n), loop_fock(dim, hbar)):
            assert same_bits(got, want)
            assert not got.flags.writeable
        weights = [loop_weight(hbar, k) for k in range(dim)]
        finite = [w for w in weights if w is not None]
        assert same_bits(f.metric[:len(finite)], np.array(finite))
        assert np.isfinite(f.metric).all() and not f.metric.flags.writeable

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0, 50.0])
    def test_metric_past_the_factorial(self, hbar):
        # seed expression while it is a float, then w_k = w_{k-1} hbar / k
        f = build_fock(MAX_LEVELS, hbar)
        k = np.arange(MAX_LEVELS)
        head = [w for w in (loop_weight(hbar, j) for j in range(172)) if w is not None]
        assert np.array_equal(f.metric[:len(head)], head)
        log_w = k * math.log(hbar) - np.array([math.lgamma(j + 1) for j in k])
        normal = log_w > math.log(np.finfo(float).tiny)
        assert np.allclose(f.metric[normal], np.exp(log_w[normal]), rtol=1e-11, atol=0)
        assert np.all(f.metric[log_w < math.log(5e-324) - 1] == 0.0)

    @pytest.mark.parametrize("hbar", [0.3, 0.5, 0.9, 1.0, 2.0])
    def test_spectrum_matches_dense_eigh(self, hbar):
        omegas = [0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0, 1.3, 1.7, 2.0, 3.75, 10.0]
        compared = 0
        for dim in range(2, 171):
            # every omega on small dims and at 100 and 170; one omega, in turn, elsewhere
            full = dim < 60 or dim in (100, 170)
            for omega in omegas if full else [omegas[dim % len(omegas)]]:
                want = dense_spectrum(dim, hbar, omega, dim - 1)
                if want is None:  # the seed's metric underflowed: no reference
                    continue
                assert same_bits(oscillator_spectrum(build_fock(dim, hbar), omega, dim - 1), want)
                compared += 1
        assert compared >= 750

    @pytest.mark.parametrize("max_levels", [1, 5, 100])
    def test_highest_weight_matches_loop(self, max_levels):
        alphas = [-5.0, -2.5, -1.5, -1.0, -0.5, 0.0, 0.25, 1.5]
        vs = [-1.0, -1e-11, -1e-13, 0.0, 1e-13, 1e-11, 0.3, 1.0]
        outcomes = set()
        for u in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            for v in vs:
                for alpha in alphas:
                    for hbar in (0.5, 1.0, 2.0):
                        d = HWData(u, v, alpha, hbar)
                        outcomes.add(self._agree(d, max_levels))
        assert outcomes == {"finite", "infinite", "no_unitary_rep"}

    @staticmethod
    def _agree(d, max_levels):
        try:
            want = loop_highest_weight(d, max_levels)
        except DomainError as err:
            with pytest.raises(DomainError) as got:
                build_highest_weight(d, max_levels)
            assert str(got.value) == str(err)
            return err.token
        got = build_highest_weight(d, max_levels)
        for x, y in zip(got[:3], want[:3]):
            assert same_bits(x, y)
        assert got[3] == want[3]
        return "finite" if isinstance(want[3], FiniteVerdict) else "infinite"

    def test_case2_ladders_match_loop(self):
        for j_m in range(40):
            for u in (-1.0, -0.5, -2.0):
                for v in (0.0, 0.3, -0.7):
                    for hbar in (0.5, 1.0, 2.0):
                        d = HWData(u, v, case2_alpha(j_m, u, v, hbar), hbar)
                        self._agree(d, 100)

    def test_truncation_verdict_matches_factorial_form(self):
        rng = np.random.default_rng(606)
        verdicts = []
        for _ in range(3000):
            dim = int(rng.integers(1, 171))
            hbar = float(rng.choice([0.5, 1.0, 2.0]))
            z1 = 10 ** rng.uniform(-3, 2) / hbar * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z2 = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
            with np.errstate(all="ignore"):
                tail = abs(hbar * z1 * np.conj(z2)) ** dim / math.factorial(dim)
            try:
                fock._check_truncation(dim, hbar, complex(z1), z2)
                verdicts.append(False)
            except DomainError as err:
                assert err.token == "truncation"
                verdicts.append(True)
            assert verdicts[-1] == (tail > 1e-14)
        assert 300 < sum(verdicts) < 2700


def _loops(fn):
    loop_nodes = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    tree = ast.parse(inspect.getsource(fn))
    return [type(node).__name__ for node in ast.walk(tree) if isinstance(node, loop_nodes)]


class TestDenseOnDemand:
    def test_no_dense_view_at_the_cap(self, monkeypatch):
        built = []

        def spy(dim, hbar=1.0):
            built.append(build_fock(dim, hbar))
            return built[-1]

        f = build_fock(MAX_LEVELS, 1.0)
        levels = oscillator_spectrum(f, 1.0, MAX_LEVELS - 1)
        assert np.array_equal(levels, np.arange(MAX_LEVELS - 1.0))
        monkeypatch.setattr(fock, "build_fock", spy)
        s = CoherentState(1.0, 0.5, MAX_LEVELS)
        assert abs(coherent_inner(s, s, 1.0) - math.exp(0.25)) <= 1e-14
        assert len(built) == 1
        for space in (f, *built):
            assert not {"a", "a_dag", "n"} & set(vars(space))

    def test_spectrum_needs_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert np.array_equal(oscillator_spectrum(build_fock(50, 0.5), 2.0, 49), np.arange(49.0))

    @pytest.mark.parametrize("fn", [build_fock, oscillator_spectrum, build_highest_weight])
    def test_no_python_loop_over_levels(self, fn):
        assert _loops(fn) == []

    def test_views_are_cached(self):
        f = build_fock(5, 0.5)
        assert f.a is f.a and f.metric is f.metric


class TestRangeAndCaps:
    def test_size_cap(self):
        assert build_fock(MAX_LEVELS).dim == MAX_LEVELS
        for call in (lambda: build_fock(MAX_LEVELS + 1),
                     lambda: CoherentState(1.0, 0.0, MAX_LEVELS + 1),
                     lambda: build_highest_weight(HWData(1.0, 0.0, 0.0), MAX_LEVELS + 1),
                     lambda: build_highest_weight(HWData(-1.0, 0.0, -1.5), 10**9)):
            with pytest.raises(DomainError, match="size_cap"):
                call()

    def test_tensor_product_cap_before_any_view(self):
        focks = [build_fock(64), build_fock(33)]
        with pytest.raises(DomainError, match="size_cap"):
            tensor_modes(focks)
        assert not any("a" in vars(f) for f in focks)
        assert len(tensor_modes([build_fock(64), build_fock(32)])) == 2

    def test_negative_count(self):
        with pytest.raises(DomainError, match="bad_argument"):
            oscillator_spectrum(build_fock(5), 1.0, -2)

    def test_negative_frequency_excludes_the_top_level(self):
        got = oscillator_spectrum(build_fock(7), -1.5, 6)
        assert np.array_equal(got, np.sort(-1.5 * np.arange(6.0)))

    @pytest.mark.parametrize("omega, hbar", [(math.inf, 1.0), (math.nan, 1.0), (1e308, 10.0),
                                             (1.0, 1e308)])
    def test_spectrum_out_of_range(self, omega, hbar):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not_finite"):
                oscillator_spectrum(build_fock(10, hbar), omega, 3)

    @pytest.mark.parametrize("dim, hbar", [(170, 0.3), (170, 0.5), (100, 0.01), (172, 1.0),
                                           (110, 1000.0)])
    def test_spectrum_where_the_dense_form_failed(self, dim, hbar):
        got = oscillator_spectrum(build_fock(dim, hbar), 1.0, dim - 1)
        assert np.array_equal(got, hbar * np.arange(dim - 1.0))

    def test_weights_out_of_range_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not_finite"):
                build_fock(MAX_LEVELS, 1000.0).metric
            f = build_fock(200, 1.0)  # weights underflow to 0 from about level 178
            assert f.metric[-1] == 0.0
            with pytest.raises(DomainError, match="not_finite"):
                f.orthonormal_view(f.a)
            g = build_fock(150, 1.0)
            assert np.isfinite(g.orthonormal_view(g.a)).all()

    @pytest.mark.parametrize("state, hbar", [
        (CoherentState(1e308, 0.0, 10), 1.0),  # |lam|^2 overflows
        (CoherentState(1.0, 1.5, MAX_LEVELS), 1.0),  # z^k overflows
        (CoherentState(1.0, 0.01, 500), 1000.0),  # a weight overflows
    ])
    def test_overlap_out_of_range(self, state, hbar):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not_finite"):
                coherent_inner(state, state, hbar)

    def test_truncation_test_cannot_overflow(self):
        s = CoherentState(1.0, 1.0, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="truncation"):
                coherent_inner(s, s, 1e308)
            with pytest.raises(DomainError, match="truncation"):
                coherent_inner(CoherentState(1.0, 1.0, 0), CoherentState(1.0, 1.0, 0))
        with pytest.raises(DomainError, match="too_small"):
            CoherentState(1.0, 0.0, -1)


class TestCase2Alpha:
    def test_hbar_zero_is_bad_hbar(self):
        with pytest.raises(DomainError, match="bad_hbar"):  # was ZeroDivisionError
            case2_alpha(2, -1.0, 0.5, 0.0)

    @pytest.mark.parametrize("u", [math.nan, 0.0, 1.0])
    def test_u_must_be_negative(self, u):
        with pytest.raises(DomainError, match="bad_case"):  # NaN returned nan
            case2_alpha(2, u, 0.5)

    def test_j_m_is_a_count(self):
        with pytest.raises(TypeError):
            case2_alpha(2.0, -1.0, 0.5)
        with pytest.raises(DomainError, match="bad_argument"):
            case2_alpha(-1, -1.0, 0.5)
        assert case2_alpha(MAX_LEVELS, -1.0, 0.0) == -(MAX_LEVELS + 1) / 2  # no ladder is built
        assert case2_alpha(10**308, -1.0, 0.0) == -(10**308 + 1) / 2.0
        with pytest.raises(DomainError, match="size_cap"):  # 10**400 raised OverflowError
            case2_alpha(10**309, -1.0, 0.0)

    def test_hbar_u_underflow_is_not_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not_finite"):  # was ZeroDivisionError
                case2_alpha(2, -1e-200, 0.5, 1e-200)

    def test_bits_unchanged(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            j_m = int(rng.integers(0, 50))
            u, v, hbar = -rng.uniform(0.1, 3.0), rng.normal(), rng.uniform(0.1, 3.0)
            got = case2_alpha(j_m, u, v, hbar)
            assert type(got) is float and got == -(j_m + 1) / 2.0 - v / (hbar * u)
