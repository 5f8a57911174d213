"""Difference spectra, line lists, resonance response, assignment solver."""

import numpy as np
import pytest

from liequant.errors import DomainError
from liequant.spectra import (
    EnergyLevels,
    MAX_ASSIGN_LINES,
    MAX_ASSIGN_TERMS,
    RYDBERG_CONSTANT,
    SpectrumDataset,
    assign_lines,
    assign_lines_multistart,
    difference_spectrum,
    lorentz_response,
    objective,
    rydberg_lines,
)
from liequant.spectra import _best_assignment, _refit_levels  # noqa: F401


def all_differences(levels):
    e = np.sort(np.asarray(levels, dtype=float))
    return np.sort([e[j] - e[k] for j in range(e.size) for k in range(j)])


class TestDifferenceSpectrum:
    def test_three_levels(self):
        got = difference_spectrum(EnergyLevels([0.0, 1.0, 3.0]))
        assert np.array_equal(got, [1.0, 2.0, 3.0])

    def test_oscillator_multiplicities(self):
        n, base = 6, 0.7
        got = difference_spectrum(EnergyLevels([base * k for k in range(n)]), hbar=1.0)
        for gap in range(1, n):
            count = np.sum(np.abs(got - base * gap) < 1e-12)
            assert count == n - gap

    def test_pair_count(self):
        for n in (2, 4, 7):
            levels = EnergyLevels(np.linspace(0.0, 1.0, n) ** 2)
            assert difference_spectrum(levels).size == n * (n - 1) // 2

    def test_matches_pair_loop_bitwise(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            levels = EnergyLevels(rng.uniform(-10.0, 10.0, rng.integers(2, 30)))
            hbar = float(rng.choice([1.0, 0.3, 7.0]))
            e = levels.values
            want = np.sort([(e[j] - e[k]) / hbar for j in range(e.size) for k in range(j)])
            assert np.array_equal(difference_spectrum(levels, hbar).view(np.int64),
                                  want.view(np.int64))

    def test_too_few(self):
        with pytest.raises(DomainError, match="too_few"):
            difference_spectrum(EnergyLevels([1.0]))

    @pytest.mark.parametrize("hbar", [0.0, -0.0, -1.0, float("nan"), float("inf")])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        # 0 divided with a RuntimeWarning, and NaN returned NaNs
        with pytest.raises(DomainError, match="bad_hbar"):
            difference_spectrum(EnergyLevels([0.0, 1.0, 3.0]), hbar)

    def test_frequency_past_the_float_range_is_not_finite(self):
        # 3 / 5e-324 overflowed with a RuntimeWarning
        with pytest.raises(DomainError, match="not_finite"):
            difference_spectrum(EnergyLevels([0.0, 1.0, 3.0]), 5e-324)


class TestLevelMerge:
    """A level merges into the last kept one within 1e-12 of the larger magnitude."""

    def test_far_level_keeps_close_ones(self):
        assert np.array_equal(EnergyLevels([0.0, 1.0, 1e150]).values, [0.0, 1.0, 1e150])

    @pytest.mark.parametrize("values, kept", [
        ([5.0, 5.0 + 2e-12, 9.0], [5.0, 9.0]),
        ([2.0, 2.0, 2.0], [2.0]),
        ([0.0, 0.0], [0.0]),
        ([1e6 + 1e-7, 1e6, -3.0], [-3.0, 1e6]),
        ([0.0, 1e-13, 1.0], [0.0, 1e-13, 1.0]),  # merged at a span-relative 1e-12
        ([-1e-300, 1e-300], [-1e-300, 1e-300]),
    ])
    def test_relative_tolerance(self, values, kept):
        assert np.array_equal(EnergyLevels(values).values, kept)


class TestRydberg:
    def test_balmer_head(self):
        lines = {(k, l): w for k, l, w in rydberg_lines(3)}
        assert abs(lines[(2, 3)] - 5 * RYDBERG_CONSTANT / 36) <= 1e-6

    def test_series_limit(self):
        lines = {(k, l): w for k, l, w in rydberg_lines(60)}
        assert abs(lines[(2, 60)] - RYDBERG_CONSTANT / 4) <= RYDBERG_CONSTANT / 3000

    def test_consistent_with_difference_spectrum(self):
        # levels E_k = E0 - C/k^2 reproduce the same line set
        k_max, r_h, hbar = 5, 1.1e7, 1.0
        c = hbar * r_h
        levels = EnergyLevels([-c / k**2 for k in range(1, k_max + 1)])
        from_levels = difference_spectrum(levels, hbar)
        from_formula = np.sort([w for _, _, w in rydberg_lines(k_max, r_h)])
        assert np.allclose(from_levels, from_formula, rtol=1e-12)

    @pytest.mark.parametrize("r_h", [RYDBERG_CONSTANT, 1.0, 3.3])
    def test_matches_pair_loop(self, r_h):
        for k_max in (2, 3, 17, 60):
            want = [(k, l, r_h * (1.0 / k**2 - 1.0 / l**2))
                    for k in range(1, k_max) for l in range(k + 1, k_max + 1)]
            got = rydberg_lines(k_max, r_h)
            assert got == want
            assert all(type(x) is type(y) for g, w in zip(got, want) for x, y in zip(g, w))

    def test_kmax_validation(self):
        with pytest.raises(DomainError, match="too_few"):
            rydberg_lines(1)

    @pytest.mark.parametrize("r_h", [np.nan, np.inf, -np.inf])
    def test_rydberg_constant_must_be_finite(self, r_h):
        with pytest.raises(DomainError, match="bad_argument"):
            rydberg_lines(3, r_h)


class TestLorentz:
    def test_peak_near_resonance(self):
        m = k = 1.0
        grid = np.linspace(0.2, 2.0, 2001)
        response = [lorentz_response(1.0, w, m, 0.05, k) for w in grid]
        w_star = grid[int(np.argmax(response))]
        assert abs(w_star - 1.0) < 0.01

    def test_amplitude_scaling(self):
        base = lorentz_response(1.0, 0.8, 1.0, 0.2, 1.0)
        assert abs(lorentz_response(3.0, 0.8, 1.0, 0.2, 1.0) - 9 * base) <= 1e-12

    def test_width_grows_with_damping(self):
        def half_width(c):
            peak = lorentz_response(1.0, 1.0, 1.0, c, 1.0)
            grid = np.linspace(1.0, 2.0, 20001)
            vals = np.array([lorentz_response(1.0, w, 1.0, c, 1.0) for w in grid])
            return grid[np.argmax(vals < peak / 2)] - 1.0

        assert half_width(0.2) > half_width(0.1)

    def test_undamped_resonance(self):
        with pytest.raises(DomainError, match="undamped_resonance"):
            lorentz_response(1.0, 1.0, 1.0, 0.0, 1.0)


class TestAssign:
    def planted(self, rng, noise=0.0):
        e_true = np.array([0.0, 1.0, 2.5, 2.7])
        omegas = all_differences(e_true)
        if noise:
            omegas = omegas + rng.normal(0.0, noise, omegas.size)
        return e_true, SpectrumDataset(omegas)

    def test_recovers_planted_levels(self):
        rng = np.random.default_rng(91)
        e_true, data = self.planted(rng)
        start = EnergyLevels(e_true + rng.uniform(-0.02, 0.02, 4))
        sol = assign_lines(data, start)
        assert np.max(np.abs(sol.levels - e_true)) <= 1e-9
        assert sol.objective <= 1e-18
        assert sol.stopped_on == "converged"

    def test_size_cap_before_any_term_array(self, monkeypatch):
        # 120 levels have 7140 pairs: 1680 lines fit under the cap, 1681 do not
        def refuse(*args):
            raise AssertionError("term array built before the size check")
        monkeypatch.setattr("liequant.spectra._best_assignment", refuse)
        levels = EnergyLevels(np.arange(120.0))
        assert 1680 * 7140 <= MAX_ASSIGN_TERMS < 1681 * 7140
        with pytest.raises(DomainError, match="size_cap"):
            assign_lines(SpectrumDataset(np.ones(1681)), levels)
        with pytest.raises(AssertionError, match="term array"):
            assign_lines(SpectrumDataset(np.ones(1680)), levels)
        # two levels have one pair, so only MAX_ASSIGN_LINES applies
        levels = EnergyLevels([0.0, 1.0])
        assert MAX_ASSIGN_LINES < MAX_ASSIGN_TERMS
        with pytest.raises(DomainError, match="size_cap"):
            assign_lines(SpectrumDataset(np.ones(MAX_ASSIGN_LINES + 1)), levels)
        with pytest.raises(AssertionError, match="term array"):
            assign_lines(SpectrumDataset(np.ones(MAX_ASSIGN_LINES)), levels)

    def test_single_line(self):
        sol = assign_lines(SpectrumDataset([1.0]), EnergyLevels([0.0, 1.0]))
        assert sol.objective == 0.0
        assert (sol.upper[0], sol.lower[0]) == (2, 1)

    def test_positive_difference_invariant(self):
        rng = np.random.default_rng(92)
        _, data = self.planted(rng, noise=0.05)
        sol = assign_lines(data, EnergyLevels([0.0, 0.9, 2.4, 2.9]))
        for j, k in zip(sol.upper, sol.lower):
            assert sol.levels[j - 1] > sol.levels[k - 1]

    def test_objective_matches_definition(self):
        rng = np.random.default_rng(93)
        _, data = self.planted(rng, noise=0.01)
        sol = assign_lines(data, EnergyLevels([0.0, 1.05, 2.4, 2.75]))
        recomputed = objective(sol.levels, sol.upper, sol.lower, data, 1.0)
        assert abs(recomputed - sol.objective) <= 1e-12

    def test_monotone_descent_on_noisy_data(self):
        rng = np.random.default_rng(94)
        e_true, data = self.planted(rng, noise=0.01)
        e = e_true + rng.uniform(-0.05, 0.05, 4)
        e -= e[0]
        trace = []
        for _ in range(50):
            upper, lower = _best_assignment(e, data, 1.0)
            trace.append(objective(e, upper, lower, data, 1.0))
            e, _ = _refit_levels(e, upper, lower, data, 1.0)
            trace.append(objective(e, upper, lower, data, 1.0))
        assert all(b <= a + 1e-14 for a, b in zip(trace, trace[1:]))

    def test_exact_data_residual_per_line(self):
        rng = np.random.default_rng(95)
        e_true, data = self.planted(rng)
        sol = assign_lines(data, EnergyLevels(e_true + rng.uniform(-0.01, 0.01, 4)))
        gaps = sol.levels[sol.upper - 1] - sol.levels[sol.lower - 1]
        assert np.max(np.abs(gaps / data.omegas - 1.0)) <= 1e-12

    def test_gauge_shift_invariance(self):
        rng = np.random.default_rng(96)
        _, data = self.planted(rng, noise=0.02)
        sol = assign_lines(data, EnergyLevels([0.0, 1.1, 2.45, 2.8]))
        for shift in (-3.0, 0.7, 1e4):
            moved = objective(sol.levels + shift, sol.upper, sol.lower, data, 1.0)
            assert abs(moved - sol.objective) <= 1e-12 * max(1.0, sol.objective)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(97)
        _, data = self.planted(rng, noise=0.02)
        sol = assign_lines(data, EnergyLevels([0.0, 1.1, 2.45, 2.8]))
        lam = 4.2
        scaled = SpectrumDataset(lam * data.omegas, data.weights)
        moved = objective(lam * sol.levels, sol.upper, sol.lower, scaled, 1.0)
        assert abs(moved - sol.objective) <= 1e-12 * max(1.0, sol.objective)

    def test_unidentifiable_component_flagged(self):
        sol = assign_lines(SpectrumDataset([1.0]), EnergyLevels([0.0, 1.0, 50.0]),
                           max_iters=5)
        assert "unidentifiable_levels" in sol.flags
        assert sol.levels[2] == 50.0  # frozen at its previous value

    def test_objective_not_worse_than_start(self):
        rng = np.random.default_rng(98)
        _, data = self.planted(rng, noise=0.05)
        start = EnergyLevels([0.0, 1.2, 2.3, 2.9])
        e0 = start.values - start.values[0]
        u0, l0 = _best_assignment(e0, data, 1.0)
        sol = assign_lines(data, start)
        assert sol.objective <= objective(e0, u0, l0, data, 1.0) + 1e-14

    def test_multistart_never_worse(self):
        rng = np.random.default_rng(99)
        _, data = self.planted(rng, noise=0.03)
        start = EnergyLevels([0.0, 1.3, 2.2, 3.0])
        single = assign_lines(data, start)
        multi = assign_lines_multistart(data, start, n_starts=8, scale=0.05,
                                        rng=np.random.default_rng(5))
        assert multi.objective <= single.objective + 1e-15

    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        data = SpectrumDataset([1.0, 1.5, 2.5])
        start = EnergyLevels([0.0, 1.0, 2.5])
        with pytest.raises(DomainError, match="bad_hbar"):
            assign_lines(data, start, hbar=hbar)
        with pytest.raises(DomainError, match="bad_hbar"):
            assign_lines_multistart(data, start, hbar=hbar, n_starts=2)

    @pytest.mark.parametrize("omegas, weights", [
        ([1.0, np.nan], None), ([1.0, np.inf], None), ([1.0, 2.0], [1.0, np.nan]),
        ([1.0, 2.0], [np.inf, 1.0]),
    ])
    def test_lines_must_be_positive_and_finite(self, omegas, weights):
        with pytest.raises(DomainError, match="bad_lines"):
            SpectrumDataset(omegas, weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_levels_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="not_finite"):
            EnergyLevels([0.0, bad, 2.0])

    @pytest.mark.parametrize("scale", [-1.0, np.nan, np.inf])
    def test_restart_scale_must_be_non_negative_and_finite(self, scale):
        data = SpectrumDataset([1.0, 1.5, 2.5])
        with pytest.raises(DomainError, match="bad_argument"):
            assign_lines_multistart(data, EnergyLevels([0.0, 1.0, 2.5]), n_starts=2, scale=scale)

    def test_validation(self):
        with pytest.raises(DomainError, match="too_few"):
            assign_lines(SpectrumDataset([1.0]), EnergyLevels([0.0]))
        with pytest.raises(DomainError, match="bad_lines"):
            SpectrumDataset([1.0, -2.0])


# ---------------------------------------------------------------------------
# Test-only oracle: the per-line assignment loop that one (lines x pairs)
# term array replaced.


def reference_best_assignment(e, data, hbar):
    n = e.size
    pairs = [(j, k) for j in range(1, n + 1) for k in range(1, n + 1) if e[j - 1] > e[k - 1]]
    if not pairs:
        raise DomainError("degenerate_levels", "no positive energy differences")
    gaps = np.array([e[j - 1] - e[k - 1] for j, k in pairs])
    upper = np.empty(len(data), dtype=int)
    lower = np.empty(len(data), dtype=int)
    for l in range(len(data)):
        terms = (gaps / (hbar * data.omegas[l]) - 1.0) ** 2
        best = np.argmin(terms)
        tied = np.where(terms <= terms[best] * (1 + 1e-12) + 1e-300)[0]
        upper[l], lower[l] = min(pairs[i] for i in tied)
    return upper, lower


def workload_lines(rng, levels, noise=1e-6, min_sep=0.02):
    """The benchmark's line lists: transition frequencies at least min_sep apart."""
    while True:
        truth = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 2.0, levels - 1))])
        freqs = np.sort([truth[j] - truth[k] for j in range(levels) for k in range(j)])
        if np.min(np.diff(freqs)) >= min_sep:
            break
    omegas = freqs * (1.0 + noise * rng.standard_normal(freqs.size))
    trial = truth + rng.normal(0.0, 1e-3, levels)
    return SpectrumDataset(omegas, rng.uniform(0.5, 1.5, freqs.size)), trial


def same_assignment(got, want):
    return all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


class TestAssignmentAgainstReference:
    def test_integer_level_ties(self):
        rng = np.random.default_rng(2000)
        outcomes = set()
        for _ in range(2000):
            # multiples of 0.1 are inexact, so differences tie only within the 1e-12 slack
            e = np.sort(rng.integers(0, 5, rng.integers(2, 7)) * rng.choice([1.0, 0.1]))
            omegas = rng.integers(1, 5, rng.integers(1, 8)) / rng.choice([1.0, 2.0, 10.0])
            data = SpectrumDataset(omegas)
            hbar = float(rng.choice([0.5, 1.0, 2.0]))
            try:
                want = reference_best_assignment(e, data, hbar)
            except DomainError:
                with pytest.raises(DomainError, match="degenerate_levels"):
                    _best_assignment(e, data, hbar)
                outcomes.add("degenerate")
                continue
            assert same_assignment(_best_assignment(e, data, hbar), want)
            outcomes.add("assigned")
        assert outcomes == {"assigned", "degenerate"}

    @pytest.mark.parametrize("seed", range(4))
    def test_solutions_on_workload_line_lists(self, seed, monkeypatch):
        rng = np.random.default_rng(700 + seed)
        for levels in (6, 7, 8):
            data, trial = workload_lines(rng, levels)
            start = int(rng.integers(1 << 30))
            solve = lambda: assign_lines_multistart(  # noqa: E731
                data, EnergyLevels(trial), n_starts=3, rng=np.random.default_rng(start))
            got = solve()
            with monkeypatch.context() as m:
                m.setattr("liequant.spectra._best_assignment", reference_best_assignment)
                want = solve()
            assert np.array_equal(got.levels, want.levels)
            assert same_assignment((got.upper, got.lower), (want.upper, want.lower))
            assert (got.objective, got.stopped_on, got.flags) == \
                (want.objective, want.stopped_on, want.flags)

    @pytest.mark.parametrize("top", [1e150, 1e300])
    def test_terms_past_the_float_range_are_the_worst(self, top):
        """(1e150 / 1e-10)^2 overflows in the square, 1e300 / 1e-10 in the divide: each term
        is infinite, with no RuntimeWarning (the suite makes one an error)."""
        data = SpectrumDataset([1e-10], [1.0])
        got = _best_assignment(np.array([0.0, 1.0, top]), data, 1.0)
        assert same_assignment(got, (np.array([2]), np.array([1])))

    def test_no_loop_over_lines(self):
        import ast
        import inspect

        from liequant import spectra

        tree = ast.parse(inspect.getsource(spectra._best_assignment))
        loops = (ast.For, ast.While, ast.comprehension)
        assert not [node for node in ast.walk(tree) if isinstance(node, loops)]


# ---------------------------------------------------------------------------
# Test-only oracle: the union-find and per-line refit that one frontier pass
# and one scattered design matrix replaced.


def reference_refit_levels(e_prev: np.ndarray, upper, lower, data: SpectrumDataset, hbar: float):
    """Weighted least squares over levels with the gauge E_1 = 0.

    Levels in connected components not tied to the gauge level keep their
    previous values; the returned flag reports that case.
    """
    n = e_prev.size
    # connected components of the transition graph
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j, k in zip(upper, lower):
        a, b = find(j - 1), find(k - 1)
        if a != b:
            parent[a] = b
    anchored = {i for i in range(n) if find(i) == find(0)}
    free = sorted(anchored - {0})
    flags = ()
    if len(anchored) < n:
        flags = ("unidentifiable_levels",)
    if not free:
        return e_prev.copy(), flags
    col = {level: idx for idx, level in enumerate(free)}
    rows = []
    rhs = []
    for l, (j, k) in enumerate(zip(upper, lower)):
        ju, kl = j - 1, k - 1
        if ju not in anchored:  # whole line lives in a frozen component
            continue
        scale = np.sqrt(data.weights[l]) / (hbar * data.omegas[l])
        row = np.zeros(len(free))
        if ju != 0:
            row[col[ju]] += scale
        if kl != 0:
            row[col[kl]] -= scale
        rows.append(row)
        rhs.append(np.sqrt(data.weights[l]))
    a = np.vstack(rows)
    b = np.array(rhs)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < len(free):
        # rank-deficient inside the anchored component: keep previous values
        return e_prev.copy(), flags + ("unidentifiable_levels",)
    e_new = e_prev.copy()
    for level, idx in col.items():
        e_new[level] = sol[idx]
    e_new[0] = 0.0
    return e_new, flags


def same_refit(got, want):
    """Levels equal bit for bit (so -0.0 differs from 0.0) and flags equal."""
    return got[0].dtype == want[0].dtype and \
        np.array_equal(got[0].view(np.int64), want[0].view(np.int64)) and got[1] == want[1]


def random_refit_case(rng):
    """Gauge-fixed levels and lines whose endpoints lie in a random subset of levels."""
    n = int(rng.integers(2, 14))
    subset = np.arange(n) if rng.random() < 0.5 else \
        rng.choice(n, int(rng.integers(2, n + 1)), replace=False)
    lines = int(rng.integers(1, 30))
    a, b = rng.choice(subset, lines), rng.choice(subset, lines)
    b = np.where(a == b, (a + 1) % n, b)  # a line joins two distinct levels
    e = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 5.0, n - 1))])
    data = SpectrumDataset(rng.uniform(0.1, 5.0, lines), rng.uniform(0.5, 1.5, lines))
    return e, np.maximum(a, b) + 1, np.minimum(a, b) + 1, data


class TestRefitAgainstReference:
    def test_seeded_cases_bitwise(self):
        rng = np.random.default_rng(3100)
        seen = set()
        for _ in range(3000):
            e, upper, lower, data = random_refit_case(rng)
            hbar = float(rng.choice([1.0, 0.3, 2.5]))
            want = reference_refit_levels(e, upper, lower, data, hbar)
            assert same_refit(_refit_levels(e, upper, lower, data, hbar), want)
            touched = np.zeros(e.size, bool)
            touched[np.concatenate([upper, lower]) - 1] = True
            seen.add(want[1])
            seen.add("isolated level" if not touched.all() else "every level on a line")
            seen.add("single line" if upper.size == 1 else "several lines")
        assert seen == {(), ("unidentifiable_levels",), "isolated level",
                        "every level on a line", "single line", "several lines"}

    def test_cap_case_bitwise(self):
        # 120 levels and 1680 lines, the corner of MAX_ASSIGN_TERMS
        rng = np.random.default_rng(3101)
        e = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 119))])
        data = SpectrumDataset(rng.uniform(0.5, 100.0, 1680), rng.uniform(0.5, 1.5, 1680))
        upper, lower = _best_assignment(e, data, 1.0)
        want = reference_refit_levels(e, upper, lower, data, 1.0)
        assert same_refit(_refit_levels(e, upper, lower, data, 1.0), want)

    def test_only_loop_is_the_frontier_pass(self):
        import ast
        import inspect

        nodes = list(ast.walk(ast.parse(inspect.getsource(_refit_levels))))
        kinds = [type(node) for node in nodes]
        assert kinds.count(ast.While) == 1
        assert kinds.count(ast.FunctionDef) == 1  # no nested helper such as find()
        assert not {ast.For, ast.comprehension, ast.Dict, ast.Set, ast.DictComp,
                    ast.SetComp} & set(kinds)
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        assert not names & {"dict", "set", "zip", "enumerate", "range"}

    def test_memory_per_line(self):
        # deterministic allocation count, not a timing gate: 3 levels, 200,000 lines
        import tracemalloc

        rng = np.random.default_rng(3102)
        lines = 200_000
        e = np.array([0.0, 1.0, 2.5])
        data = SpectrumDataset(rng.uniform(0.5, 3.0, lines), rng.uniform(0.5, 1.5, lines))
        upper, lower = _best_assignment(e, data, 1.0)
        tracemalloc.start()
        try:
            _refit_levels(e, upper, lower, data, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / lines <= 128


class TestObjectiveArguments:
    """objective is public: it reads hbar and the level indices before it computes S."""

    DATA = SpectrumDataset([1.0, 2.0])

    def test_valid_call_is_unchanged(self):
        # levels 0, 1, 3: line 1 is 1 -> 2 (ratio 1), line 2 is 1 -> 3 (ratio 1.5)
        got = objective([0.0, 1.0, 3.0], [2, 3], [1, 1], self.DATA, 1.0)
        assert got == 0.25

    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf, 10**400],
                             ids=["0", "-1", "nan", "inf", "10**400"])
    def test_bad_hbar_is_rejected(self, hbar):
        # hbar = 0 warned "divide by zero" and NaN returned nan
        with pytest.raises(DomainError, match="bad_hbar"):
            objective([0.0, 1.0, 3.0], [2, 3], [1, 1], self.DATA, hbar)

    @pytest.mark.parametrize("upper, lower", [([0, 3], [1, 1]), ([2, 3], [1, 4]), ([5, 3], [1, 1]),
                                              ([1.5, 3], [1, 1]), ([np.nan, 3], [1, 1])],
                             ids=["index 0", "past the levels", "index 5", "1.5", "nan"])
    def test_an_index_outside_the_levels_is_bad_argument(self, upper, lower):
        # index 0 read the last level and 5 raised IndexError
        with pytest.raises(DomainError, match="bad_argument"):
            objective([0.0, 1.0, 3.0], upper, lower, self.DATA, 1.0)

    def test_one_index_per_line(self):
        with pytest.raises(DomainError, match="shape"):
            objective([0.0, 1.0, 3.0], [2], [1], self.DATA, 1.0)

    def test_a_term_past_the_float_range_is_not_finite(self):
        with pytest.raises(DomainError, match="not_finite"):
            objective([-1e308, 1e308], [2, 2], [1, 1], self.DATA, 1.0)
