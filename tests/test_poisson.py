"""Canonical and rotational brackets, rigid-body dynamics."""

from fractions import Fraction

import numpy as np
import pytest

from liequant.errors import DomainError
from liequant.poisson import (
    J1,
    J2,
    J3,
    P,
    Q,
    RigidBodyState,
    euler_rhs,
    integrate_rigid_body,
    lie_poisson_so3,
    poisson_pq,
    poly_j,
    poly_pq,
    trajectory_csv,
)

J_SQUARED = J1 * J1 + J2 * J2 + J3 * J3


def random_poly(rng, nvars, max_degree=3):
    terms = {}
    for _ in range(rng.integers(1, 6)):
        expo = tuple(int(e) for e in rng.integers(0, max_degree + 1, nvars))
        terms[expo] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
    return poly_pq(terms) if nvars == 2 else poly_j(terms)


class TestCanonicalBracket:
    def test_ccr(self):
        assert poisson_pq(P, Q) == 1

    def test_antisymmetry(self):
        f = P * P * Q + 3 * Q
        assert poisson_pq(f, f).is_zero()

    def test_hand_derivative(self):
        # f_p g_q - g_p f_q = (2p)(2q) - 0 = 4pq
        assert poisson_pq(P * P, Q * Q) == 4 * P * Q

    def test_leibniz_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            f, g, h = (random_poly(rng, 2) for _ in range(3))
            lhs = poisson_pq(f, g * h)
            rhs = poisson_pq(f, g) * h + g * poisson_pq(f, h)
            assert (lhs - rhs).is_zero()

    def test_jacobi_exact(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            f, g, h = (random_poly(rng, 2) for _ in range(3))
            total = (poisson_pq(f, poisson_pq(g, h))
                     + poisson_pq(g, poisson_pq(h, f))
                     + poisson_pq(h, poisson_pq(f, g)))
            assert total.is_zero()


class TestRotationalBracket:
    def test_generators(self):
        assert lie_poisson_so3(J1, J2) == J3
        assert lie_poisson_so3(J2, J3) == J1
        assert lie_poisson_so3(J3, J1) == J2

    def test_casimir(self):
        for g in (J1, J2, J3):
            assert lie_poisson_so3(J_SQUARED, g).is_zero()

    def test_jacobi_on_spec_triple(self):
        f, g, h = J1 * J1, J2 * J3, J1 * J2 * J3
        total = (lie_poisson_so3(f, lie_poisson_so3(g, h))
                 + lie_poisson_so3(g, lie_poisson_so3(h, f))
                 + lie_poisson_so3(h, lie_poisson_so3(f, g)))
        assert total.is_zero()

    def test_leibniz_and_jacobi_random(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            f, g, h = (random_poly(rng, 3) for _ in range(3))
            leib = lie_poisson_so3(f, g * h) - lie_poisson_so3(f, g) * h \
                - g * lie_poisson_so3(f, h)
            assert leib.is_zero()
            jac = (lie_poisson_so3(f, lie_poisson_so3(g, h))
                   + lie_poisson_so3(g, lie_poisson_so3(h, f))
                   + lie_poisson_so3(h, lie_poisson_so3(f, g)))
            assert jac.is_zero()


class TestEulerEquations:
    def test_principal_axis_is_stationary(self):
        state = RigidBodyState((0.0, 0.0, 2.5), (1.0, 2.0, 3.0))
        assert euler_rhs(state) == (0.0, 0.0, 0.0)

    def test_spherical_body(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            state = RigidBodyState(tuple(rng.standard_normal(3)), (1.0, 1.0, 1.0))
            assert np.allclose(euler_rhs(state), 0.0, atol=1e-15)

    def test_hand_cross_product(self):
        # J x omega with omega = (1, 1/2, 1/3), computed entrywise by hand
        state = RigidBodyState((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        expected = (1 / 3 - 1 / 2, 1.0 - 1 / 3, 1 / 2 - 1.0)
        assert np.allclose(euler_rhs(state), expected, atol=1e-15)

    def test_component_form(self):
        # I_k domega_k/dt = (I omega x omega)_k, standard component identities
        rng = np.random.default_rng(35)
        for _ in range(20):
            inertia = tuple(rng.uniform(0.5, 3.0, 3))
            j = tuple(rng.standard_normal(3))
            state = RigidBodyState(j, inertia)
            w = state.omega
            expected = (w[1] * w[2] * (inertia[1] - inertia[2]),
                        w[2] * w[0] * (inertia[2] - inertia[0]),
                        w[0] * w[1] * (inertia[0] - inertia[1]))
            assert np.allclose(euler_rhs(state), expected, atol=1e-12)


class TestIntegrator:
    def test_spherical_trajectory_constant(self):
        s0 = RigidBodyState((0.3, -0.4, 1.0), (1.0, 1.0, 1.0))
        traj = integrate_rigid_body(s0, 1e-2, 100)
        assert all(np.allclose(s.J, s0.J, atol=1e-13) for s in traj)

    def test_invariant_drift(self):
        s0 = RigidBodyState((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        traj = integrate_rigid_body(s0, 1e-3, 10_000)
        assert len(traj) == 10_001
        assert all(abs(s.j_squared - 3.0) <= 1e-8 for s in traj[::500])
        assert abs(traj[-1].j_squared - 3.0) <= 1e-8
        assert abs(traj[-1].energy - s0.energy) <= 1e-8

    def test_time_reversal(self):
        s0 = RigidBodyState((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        fwd = integrate_rigid_body(s0, 1e-3, 10_000)[-1]
        back = integrate_rigid_body(fwd, -1e-3, 10_000)[-1]
        assert max(abs(a - b) for a, b in zip(back.J, s0.J)) <= 1e-7

    def test_clock_is_exact_multiple_of_dt(self):
        s0 = RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0))
        traj = integrate_rigid_body(s0, 1e-3, 10_000)
        assert traj[-1].t == 10.0
        assert all(s.t == k * 1e-3 for k, s in enumerate(traj))

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_rejects_bad_dt(self, dt):
        s0 = RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0))
        with pytest.raises(DomainError, match="bad_dt"):
            integrate_rigid_body(s0, dt, 3)

    def test_zero_steps(self):
        s0 = RigidBodyState((1.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert integrate_rigid_body(s0, 1e-3, 0) == [s0]

    def test_csv_header(self):
        s0 = RigidBodyState((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        text = trajectory_csv(integrate_rigid_body(s0, 1e-3, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "t,J1,J2,J3,E,Jsq"
        assert len(lines) == 4

    def test_rejects_bad_inertia(self):
        with pytest.raises(DomainError, match="bad_inertia"):
            RigidBodyState((1.0, 0.0, 0.0), (1.0, -2.0, 3.0))
