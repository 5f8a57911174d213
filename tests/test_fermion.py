"""Fermionic ladder matrices, parity signs, anticommutation relations."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from liequant.errors import DomainError
from liequant.fermion import build_fermion, car_residual, epsilon, number_spectrum
from liequant.matrixcore import anticommutator

HBARS = (1.0, 0.5, 0.3, 1.7)


def _bit_count_sign(j, mask):
    """eps_j(mask) from the bit count below mode j; 0 when mode j is empty."""
    if not mask >> (j - 1) & 1:
        return 0
    return 1 if (mask & ((1 << (j - 1)) - 1)).bit_count() % 2 == 0 else -1


def _dense_ladders(n, hbar, sign):
    """Reference per-entry construction: a_j[mask ^ bit_j, mask] = sign(j, mask)."""
    dim = 2**n
    ann, cre = [], []
    for j in range(1, n + 1):
        aj = np.zeros((dim, dim))
        for mask in range(dim):
            if sign(j, mask):
                aj[mask ^ 1 << (j - 1), mask] = sign(j, mask)
        ann.append(aj)
        cre.append(hbar * aj.T if hbar != 1.0 else aj.T.copy())
    return ann, cre


def _dense_car(ann, cre, hbar):
    """Reference CAR check: max entry of every dense anticommutator deviation."""
    eye = hbar * np.eye(ann[0].shape[0])
    worst = 0.0
    for j in range(len(ann)):
        for k in range(len(ann)):
            worst = max(worst, float(np.max(np.abs(anticommutator(ann[j], ann[k])))))
            worst = max(worst, float(np.max(np.abs(anticommutator(cre[j], cre[k])))))
            target = eye if j == k else 0.0
            dev = anticommutator(ann[j], cre[k]) - target
            worst = max(worst, float(np.max(np.abs(dev))))
    return worst


class TestEpsilon:
    def test_empty_set(self):
        assert epsilon(1, ()) == 1

    def test_one_smaller_index(self):
        assert epsilon(2, (1, 3)) == -1

    def test_counting_rule(self):
        assert epsilon(4, (1, 2, 3)) == -1
        assert epsilon(4, (1, 2, 3, 7)) == -1
        assert epsilon(5, (1, 2, 3, 4)) == 1

    def test_all_five_identities_exhaustively(self):
        n = 5
        modes = range(1, n + 1)
        for size in range(n + 1):
            for raw in itertools.combinations(modes, size):
                J = set(raw)
                for j in modes:
                    if j in J:
                        assert epsilon(j, J - {j}) == epsilon(j, J)
                    else:
                        assert epsilon(j, J | {j}) == epsilon(j, J)
                    for k in modes:
                        if k == j:
                            continue
                        if j not in J and k not in J:
                            assert epsilon(j, J) * epsilon(k, J | {j}) == \
                                -epsilon(k, J) * epsilon(j, J | {k})
                        elif j in J and k in J:
                            assert epsilon(j, J) * epsilon(k, J - {j}) == \
                                -epsilon(k, J) * epsilon(j, J - {k})
                        elif j not in J and k in J:
                            assert epsilon(j, J) * epsilon(k, J | {j}) == \
                                -epsilon(k, J) * epsilon(j, J - {k})


class TestBuild:
    def test_single_mode_matrices(self):
        f = build_fermion(1)
        assert np.array_equal(f.a[0], np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(f.a_dag[0], np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_vacuum_annihilated(self):
        f = build_fermion(4)
        vacuum = np.zeros(16)
        vacuum[0] = 1.0
        for aj in f.a:
            assert np.all(aj @ vacuum == 0)

    def test_dimension(self):
        assert build_fermion(4).dim == 16

    def test_nilpotency(self):
        f = build_fermion(3)
        for j in range(3):
            assert np.all(f.a[j] @ f.a[j] == 0)
            assert np.all(f.a_dag[j] @ f.a_dag[j] == 0)

    def test_adjointness_exact(self):
        f = build_fermion(5)
        for j in range(5):
            assert np.array_equal(f.a_dag[j], f.a[j].T)

    def test_action_matches_sign_rule(self):
        f = build_fermion(4)
        for index in range(16):
            subset = set(f.basis_subset(index))
            for j in range(1, 5):
                col = f.a[j - 1][:, index]
                if j in subset:
                    target = sum(1 << (i - 1) for i in subset - {j})
                    assert col[target] == epsilon(j, subset)
                    assert np.count_nonzero(col) == 1
                else:
                    assert np.all(col == 0)

    def test_size_cap(self):
        with pytest.raises(DomainError, match="size_cap"):
            build_fermion(13)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        with pytest.raises(DomainError, match="bad_hbar"):
            build_fermion(2, hbar)


class TestSignTable:
    @pytest.mark.parametrize("hbar", HBARS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_dense_views_match_per_entry_construction(self, n, hbar):
        f = build_fermion(n, hbar)
        ann, cre = _dense_ladders(n, hbar, _bit_count_sign)
        for j in range(n):
            assert np.array_equal(f.a[j], ann[j])
            assert np.array_equal(f.a_dag[j], cre[j])

    @pytest.mark.parametrize("hbar", HBARS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_car_residual_equals_dense_oracle(self, n, hbar):
        f = build_fermion(n, hbar)
        assert car_residual(f) == _dense_car(*_dense_ladders(n, hbar, _bit_count_sign), hbar)

    @pytest.mark.parametrize("hbar", HBARS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_car_residual_equals_dense_oracle_on_broken_tables(self, n, hbar):
        """Single-entry sign flips, zeroings and fills of an empty slot all break the CAR."""
        rng = np.random.default_rng(7 * n + round(10 * hbar))
        f = build_fermion(n, hbar)
        for _ in range(60):
            j, mask = int(rng.integers(n)), int(rng.integers(2**n))
            table = f.signs.copy()
            table[j, mask] = rng.choice([-table[j, mask], 0]) if table[j, mask] else rng.choice([-1, 1])
            broken = dataclasses.replace(f, signs=table)
            ann, cre = _dense_ladders(n, hbar, lambda i, m: int(table[i - 1, m]))
            assert all(np.array_equal(broken.a[i], ann[i]) for i in range(n))
            got = car_residual(broken)
            assert got == _dense_car(ann, cre, hbar)
            assert got > 0.0

    def test_tables_and_views_are_read_only(self):
        f = build_fermion(3, 0.5)
        for arr in (f.signs, f.a, f.a_dag, f.a[0], f.a_dag[2]):
            assert not arr.flags.writeable

    def test_twelve_modes_never_build_dense_matrices(self):
        f = build_fermion(12)
        assert f.signs.shape == (12, 4096) and f.signs.dtype == np.int8
        assert car_residual(f) == 0.0
        half = np.repeat([0.0, 1.0], 2048)
        for j in range(1, 13):
            assert np.array_equal(number_spectrum(f, j), half)
        assert "a" not in f.__dict__ and "a_dag" not in f.__dict__


class TestCAR:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exact_anticommutators(self, n):
        assert car_residual(build_fermion(n)) == 0.0

    def test_single_mode_ccr_form(self):
        f = build_fermion(1)
        assert np.array_equal(anticommutator(f.a[0], f.a_dag[0]), np.eye(2))

    def test_smeared_relation(self):
        rng = np.random.default_rng(51)
        f = build_fermion(4)
        for _ in range(20):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            lhs = anticommutator(f.smeared(u), f.smeared(v, dagger=True))
            assert np.max(np.abs(lhs - (u @ v) * np.eye(16))) <= 1e-12

    def test_hbar_scale(self):
        f = build_fermion(2, hbar=0.5)
        assert car_residual(f) == 0.0
        assert np.array_equal(f.a_dag[0], 0.5 * f.a[0].T)
        assert np.array_equal(number_spectrum(f, 2), [0.0, 0.0, 1.0, 1.0])


class TestNumberOperator:
    def test_single_mode(self):
        assert np.array_equal(number_spectrum(build_fermion(1), 1), [0.0, 1.0])

    def test_two_modes(self):
        assert np.array_equal(number_spectrum(build_fermion(2), 1), [0.0, 0.0, 1.0, 1.0])

    def test_trace_counts_half_the_basis(self):
        for n in (2, 3, 5):
            f = build_fermion(n)
            for j in range(1, n + 1):
                assert np.trace(f.a_dag[j - 1] @ f.a[j - 1]) == 2 ** (n - 1)

    def test_eigenvalues_binary_with_multiplicity(self):
        f = build_fermion(4)
        for j in range(1, 5):
            w = number_spectrum(f, j)
            assert set(w.tolist()) == {0.0, 1.0}
            assert np.sum(w == 0.0) == 8 and np.sum(w == 1.0) == 8
